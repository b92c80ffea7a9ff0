//! Runtime configuration of the Wormhole index.
//!
//! The paper's Figure 11 adds the implementation optimisations one at a
//! time, each on top of the ones before, to a plain "BaseWormhole". A
//! [`WormholeConfig`] names the [`Rung`] of that ladder an index stands on,
//! so the five measured configurations are the only ones that can be built.

/// How far up the Figure 11 ladder an index is built: every rung keeps the
/// optimisations of the rungs below it, in the paper's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rung {
    /// The paper's "BaseWormhole": the core data structure alone.
    Base,
    /// §3.1 *TagMatching*: trust 16-bit tag matches in the MetaTrieHT during
    /// the binary search and only verify the final prefix, instead of
    /// comparing the full prefix at every probe.
    TagMatching,
    /// §3.1 *IncHashing*: reuse the CRC state of a matched prefix when
    /// hashing longer prefixes of the same key.
    IncHashing,
    /// §3.2 *SortByTag*: search leaf nodes through the tag array sorted in
    /// hash order rather than binary search over fully key-sorted items.
    SortByTag,
    /// §3.2 *DirectPos*: start the tag-array search at the position predicted
    /// from the tag value instead of scanning from the ends.
    DirectPos,
}

/// The two values an index is built with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WormholeConfig {
    /// Maximum number of keys per leaf node (the paper uses 128).
    pub leaf_capacity: usize,
    /// The optimisations in force.
    pub rung: Rung,
}

impl Default for WormholeConfig {
    fn default() -> Self {
        Self::optimized()
    }
}

impl WormholeConfig {
    /// The paper's leaf capacity on `rung`.
    fn at(rung: Rung) -> Self {
        Self {
            leaf_capacity: 128,
            rung,
        }
    }

    /// The fully optimised configuration used for all headline numbers.
    pub fn optimized() -> Self {
        Self::at(Rung::DirectPos)
    }

    /// The paper's "BaseWormhole": the core data structure with all
    /// implementation optimisations switched off.
    pub fn base() -> Self {
        Self::at(Rung::Base)
    }

    /// Overrides the leaf capacity.
    pub fn with_leaf_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity >= 4, "leaf capacity must be at least 4");
        self.leaf_capacity = capacity;
        self
    }

    /// Two adjacent leaves merge when their combined size drops below this
    /// value (the paper's `MergeSize`).
    #[inline]
    pub fn merge_size(&self) -> usize {
        self.leaf_capacity / 2
    }

    /// Whether *TagMatching* is in force.
    #[inline]
    pub fn tag_matching(&self) -> bool {
        self.rung >= Rung::TagMatching
    }

    /// Whether *IncHashing* is in force.
    #[inline]
    pub fn inc_hashing(&self) -> bool {
        self.rung >= Rung::IncHashing
    }

    /// Whether *SortByTag* is in force.
    #[inline]
    pub fn sort_by_tag(&self) -> bool {
        self.rung >= Rung::SortByTag
    }

    /// Whether *DirectPos* is in force.
    #[inline]
    pub fn direct_pos(&self) -> bool {
        self.rung >= Rung::DirectPos
    }

    /// The five configurations of the Figure 11 ablation, in the paper's
    /// order: BaseWormhole, +TagMatching, +IncHashing, +SortByTag,
    /// +DirectPos (each step keeps the previous ones enabled).
    pub fn ablation_ladder() -> Vec<(&'static str, WormholeConfig)> {
        [
            ("BaseWormhole", Rung::Base),
            ("+TagMatching", Rung::TagMatching),
            ("+IncHashing", Rung::IncHashing),
            ("+SortByTag", Rung::SortByTag),
            ("+DirectPos", Rung::DirectPos),
        ]
        .map(|(name, rung)| (name, Self::at(rung)))
        .to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_fully_optimized() {
        let c = WormholeConfig::default();
        assert!(c.tag_matching() && c.inc_hashing() && c.sort_by_tag() && c.direct_pos());
        assert_eq!(c.leaf_capacity, 128);
        assert_eq!(c.merge_size(), 64);
    }

    #[test]
    fn base_disables_everything() {
        let c = WormholeConfig::base();
        assert!(!c.tag_matching() && !c.inc_hashing() && !c.sort_by_tag() && !c.direct_pos());
    }

    #[test]
    fn ablation_ladder_is_monotone() {
        let ladder = WormholeConfig::ablation_ladder();
        assert_eq!(ladder.len(), 5);
        assert_eq!(ladder[0].1, WormholeConfig::base());
        for pair in ladder.windows(2) {
            assert!(pair[0].1.rung < pair[1].1.rung);
        }
        assert_eq!(ladder.last().unwrap().1, WormholeConfig::optimized());
    }

    #[test]
    fn leaf_capacity_override() {
        let c = WormholeConfig::optimized().with_leaf_capacity(32);
        assert_eq!(c.leaf_capacity, 32);
        assert_eq!(c.merge_size(), 16);
    }

    #[test]
    #[should_panic(expected = "leaf capacity must be at least 4")]
    fn tiny_leaf_capacity_rejected() {
        let _ = WormholeConfig::optimized().with_leaf_capacity(2);
    }
}
