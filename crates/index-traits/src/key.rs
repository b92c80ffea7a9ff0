//! Byte-key helpers shared by all index implementations.

/// Returns the length of the longest common prefix of `a` and `b`.
#[inline]
pub fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    let max = a.len().min(b.len());
    // Compare 8 bytes at a time; keys in this workload are often tens of
    // bytes long and this path is hot in split and anchor computation.
    let mut i = 0;
    while i + 8 <= max {
        let wa = u64::from_ne_bytes(a[i..i + 8].try_into().unwrap());
        let wb = u64::from_ne_bytes(b[i..i + 8].try_into().unwrap());
        if wa != wb {
            let diff = wa ^ wb;
            return i + (diff.to_ne_bytes().iter().position(|&x| x != 0).unwrap());
        }
        i += 8;
    }
    while i < max && a[i] == b[i] {
        i += 1;
    }
    i
}

/// Returns `true` when `prefix` is a prefix of `key`.
#[inline]
pub fn is_prefix_of(prefix: &[u8], key: &[u8]) -> bool {
    prefix.len() <= key.len() && &key[..prefix.len()] == prefix
}

/// Writes the immediate successor of `key` in bytewise order — `key ++ 0x00`,
/// the smallest byte string strictly greater than `key` — into `buf`,
/// replacing its contents but reusing its allocation. Scan cursors use it
/// as a resume bound that excludes exactly the keys already streamed while
/// remaining expressible as an inclusive `>= start` search.
pub fn immediate_successor_into(key: &[u8], buf: &mut Vec<u8>) {
    buf.clear();
    buf.reserve(key.len() + 1);
    buf.extend_from_slice(key);
    buf.push(0);
}

/// Returns the smallest key strictly greater than every key having `key` as a
/// prefix, or `None` when no such key exists (all bytes are `0xFF`).
///
/// Useful for turning a prefix query into a half-open key range.
pub fn successor_key(key: &[u8]) -> Option<Vec<u8>> {
    let mut out = key.to_vec();
    while let Some(last) = out.last_mut() {
        if *last < 0xFF {
            *last += 1;
            return Some(out);
        }
        out.pop();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn common_prefix_basics() {
        assert_eq!(common_prefix_len(b"", b""), 0);
        assert_eq!(common_prefix_len(b"abc", b""), 0);
        assert_eq!(common_prefix_len(b"abc", b"abd"), 2);
        assert_eq!(common_prefix_len(b"abc", b"abc"), 3);
        assert_eq!(common_prefix_len(b"abc", b"abcdef"), 3);
        assert_eq!(common_prefix_len(b"xyz", b"abc"), 0);
    }

    #[test]
    fn common_prefix_long_keys() {
        let a = vec![7u8; 100];
        let mut b = a.clone();
        assert_eq!(common_prefix_len(&a, &b), 100);
        b[63] = 8;
        assert_eq!(common_prefix_len(&a, &b), 63);
        b[63] = 7;
        b[8] = 0;
        assert_eq!(common_prefix_len(&a, &b), 8);
    }

    #[test]
    fn prefix_check() {
        assert!(is_prefix_of(b"", b"anything"));
        assert!(is_prefix_of(b"ab", b"abc"));
        assert!(is_prefix_of(b"abc", b"abc"));
        assert!(!is_prefix_of(b"abcd", b"abc"));
        assert!(!is_prefix_of(b"b", b"abc"));
    }

    #[test]
    fn successor_of_simple_key() {
        assert_eq!(successor_key(b"abc").unwrap(), b"abd".to_vec());
        assert_eq!(successor_key(&[1, 0xFF]).unwrap(), vec![2]);
        assert_eq!(successor_key(&[0xFF, 0xFF]), None);
        assert_eq!(successor_key(b""), None);
    }

    proptest! {
        #[test]
        fn prop_common_prefix_is_symmetric(a in proptest::collection::vec(any::<u8>(), 0..64),
                                           b in proptest::collection::vec(any::<u8>(), 0..64)) {
            prop_assert_eq!(common_prefix_len(&a, &b), common_prefix_len(&b, &a));
        }

        #[test]
        fn prop_common_prefix_matches_naive(a in proptest::collection::vec(any::<u8>(), 0..64),
                                            b in proptest::collection::vec(any::<u8>(), 0..64)) {
            let naive = a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count();
            prop_assert_eq!(common_prefix_len(&a, &b), naive);
        }

        #[test]
        fn prop_successor_is_greater_than_all_prefixed(key in proptest::collection::vec(any::<u8>(), 1..16),
                                                       suffix in proptest::collection::vec(any::<u8>(), 0..8)) {
            if let Some(succ) = successor_key(&key) {
                let mut extended = key.clone();
                extended.extend_from_slice(&suffix);
                prop_assert!(succ.as_slice() > extended.as_slice());
            }
        }

        #[test]
        fn prop_prefix_range_agrees_with_is_prefix(prefix in proptest::collection::vec(any::<u8>(), 1..8),
                                                   key in proptest::collection::vec(any::<u8>(), 0..16)) {
            // `[prefix, successor_key(prefix))` holds exactly the keys
            // that start with `prefix`.
            let below_end = successor_key(&prefix).is_none_or(|end| key < end);
            prop_assert_eq!(key >= prefix && below_end, is_prefix_of(&prefix, &key));
        }
    }
}
