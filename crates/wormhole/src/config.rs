//! Runtime configuration of the Wormhole index.
//!
//! The paper's Figure 11 measures how much each implementation optimisation
//! contributes by enabling them one at a time on top of a plain
//! "BaseWormhole". The same ablation is reproduced here by constructing the
//! index with the corresponding [`WormholeConfig`].

/// Tunable parameters and optimisation toggles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WormholeConfig {
    /// Maximum number of keys per leaf node (the paper uses 128).
    pub leaf_capacity: usize,
    /// Merge two adjacent leaves when their combined size drops below this
    /// value (the paper's `MergeSize`; defaults to `leaf_capacity / 2`).
    pub merge_size: usize,
    /// §3.1 *TagMatching*: trust 16-bit tag matches in the MetaTrieHT during
    /// the binary search and only verify the final prefix, instead of
    /// comparing the full prefix at every probe.
    pub tag_matching: bool,
    /// §3.1 *IncHashing*: reuse the CRC state of a matched prefix when
    /// hashing longer prefixes of the same key.
    pub inc_hashing: bool,
    /// §3.2 *SortByTag*: search leaf nodes through the tag array sorted in
    /// hash order rather than binary search over fully key-sorted items.
    pub sort_by_tag: bool,
    /// §3.2 *DirectPos*: start the tag-array search at the position predicted
    /// from the tag value instead of scanning from the ends.
    pub direct_pos: bool,
}

impl Default for WormholeConfig {
    fn default() -> Self {
        Self::optimized()
    }
}

impl WormholeConfig {
    /// The fully optimised configuration used for all headline numbers.
    pub fn optimized() -> Self {
        Self {
            leaf_capacity: 128,
            merge_size: 64,
            tag_matching: true,
            inc_hashing: true,
            sort_by_tag: true,
            direct_pos: true,
        }
    }

    /// The paper's "BaseWormhole": the core data structure with all
    /// implementation optimisations switched off.
    pub fn base() -> Self {
        Self {
            leaf_capacity: 128,
            merge_size: 64,
            tag_matching: false,
            inc_hashing: false,
            sort_by_tag: false,
            direct_pos: false,
        }
    }

    /// Overrides the leaf capacity (and scales `merge_size` to half of it).
    pub fn with_leaf_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity >= 4, "leaf capacity must be at least 4");
        self.leaf_capacity = capacity;
        self.merge_size = capacity / 2;
        self
    }

    /// Enables or disables the *TagMatching* optimisation.
    pub fn with_tag_matching(mut self, on: bool) -> Self {
        self.tag_matching = on;
        self
    }

    /// Enables or disables the *IncHashing* optimisation.
    pub fn with_inc_hashing(mut self, on: bool) -> Self {
        self.inc_hashing = on;
        self
    }

    /// Enables or disables the *SortByTag* optimisation.
    pub fn with_sort_by_tag(mut self, on: bool) -> Self {
        self.sort_by_tag = on;
        self
    }

    /// Enables or disables the *DirectPos* optimisation.
    pub fn with_direct_pos(mut self, on: bool) -> Self {
        self.direct_pos = on;
        self
    }

    /// The five configurations of the Figure 11 ablation, in the paper's
    /// order: BaseWormhole, +TagMatching, +IncHashing, +SortByTag,
    /// +DirectPos (each step keeps the previous ones enabled).
    pub fn ablation_ladder() -> Vec<(&'static str, WormholeConfig)> {
        let base = Self::base();
        vec![
            ("BaseWormhole", base),
            ("+TagMatching", base.with_tag_matching(true)),
            (
                "+IncHashing",
                base.with_tag_matching(true).with_inc_hashing(true),
            ),
            (
                "+SortByTag",
                base.with_tag_matching(true)
                    .with_inc_hashing(true)
                    .with_sort_by_tag(true),
            ),
            ("+DirectPos", Self::optimized()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_fully_optimized() {
        let c = WormholeConfig::default();
        assert!(c.tag_matching && c.inc_hashing && c.sort_by_tag && c.direct_pos);
        assert_eq!(c.leaf_capacity, 128);
        assert_eq!(c.merge_size, 64);
    }

    #[test]
    fn base_disables_everything() {
        let c = WormholeConfig::base();
        assert!(!c.tag_matching && !c.inc_hashing && !c.sort_by_tag && !c.direct_pos);
    }

    #[test]
    fn ablation_ladder_is_monotone() {
        let ladder = WormholeConfig::ablation_ladder();
        assert_eq!(ladder.len(), 5);
        let flags = |c: &WormholeConfig| {
            [c.tag_matching, c.inc_hashing, c.sort_by_tag, c.direct_pos]
                .iter()
                .filter(|&&b| b)
                .count()
        };
        for pair in ladder.windows(2) {
            assert!(flags(&pair[1].1) == flags(&pair[0].1) + 1);
        }
        assert_eq!(ladder.last().unwrap().1, WormholeConfig::optimized());
    }

    #[test]
    fn leaf_capacity_override() {
        let c = WormholeConfig::optimized().with_leaf_capacity(32);
        assert_eq!(c.leaf_capacity, 32);
        assert_eq!(c.merge_size, 16);
    }

    #[test]
    #[should_panic(expected = "leaf capacity must be at least 4")]
    fn tiny_leaf_capacity_rejected() {
        let _ = WormholeConfig::optimized().with_leaf_capacity(2);
    }
}
