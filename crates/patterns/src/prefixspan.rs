#![expect(clippy::disallowed_types, reason = "the frequent-item list collected from the count map is sorted before recursion, so pattern output order is hash-independent")]

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

/// A frequent sequential pattern: an ordered (gapped) subsequence occurring
/// in at least `support` sessions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SequentialPattern {
    /// The pattern's items in order.
    pub items: Vec<usize>,
    /// Number of supporting sessions.
    pub support: usize,
}

/// PrefixSpan sequential-pattern miner (Pei et al. 2001) with projected
/// databases.
///
/// # Example
///
/// ```
/// use ibcm_patterns::PrefixSpan;
/// let sessions = vec![vec![0, 1, 2], vec![0, 9, 1, 2], vec![0, 1]];
/// let miner = PrefixSpan::new(2, 3);
/// let patterns = miner.mine(&sessions);
/// assert!(patterns.iter().any(|p| p.items == vec![0, 1, 2] && p.support == 2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixSpan {
    min_support: usize,
    max_len: usize,
}

impl PrefixSpan {
    /// Creates a miner with an absolute `min_support` (session count) and a
    /// maximum pattern length.
    pub fn new(min_support: usize, max_len: usize) -> Self {
        PrefixSpan {
            min_support: min_support.max(1),
            max_len: max_len.max(1),
        }
    }

    /// Mines all frequent sequential patterns, sorted by descending support
    /// then ascending items.
    pub fn mine(&self, sequences: &[Vec<usize>]) -> Vec<SequentialPattern> {
        // Projected database: (sequence index, start offset).
        let initial: Vec<(usize, usize)> = (0..sequences.len()).map(|i| (i, 0)).collect();
        let mut out = Vec::new();
        let mut prefix = Vec::new();
        self.grow(sequences, &initial, &mut prefix, &mut out);
        out.sort_by(|a, b| b.support.cmp(&a.support).then(a.items.cmp(&b.items)));
        out
    }

    fn grow(
        &self,
        sequences: &[Vec<usize>],
        projected: &[(usize, usize)],
        prefix: &mut Vec<usize>,
        out: &mut Vec<SequentialPattern>,
    ) {
        if prefix.len() >= self.max_len {
            return;
        }
        // Count, per item, the number of distinct supporting sequences in
        // the projected database.
        let mut counts: HashMap<usize, usize> = HashMap::new();
        let mut last_seq: HashMap<usize, usize> = HashMap::new();
        for &(si, start) in projected {
            for &item in &sequences[si][start..] {
                if last_seq.get(&item) != Some(&si) {
                    *counts.entry(item).or_default() += 1;
                    last_seq.insert(item, si);
                }
            }
        }
        let mut frequent: Vec<(usize, usize)> = counts
            .into_iter()
            .filter(|&(_, c)| c >= self.min_support)
            .collect();
        frequent.sort();
        for (item, support) in frequent {
            prefix.push(item);
            out.push(SequentialPattern {
                items: prefix.clone(),
                support,
            });
            // Project: first occurrence of `item` at/after each start.
            let next: Vec<(usize, usize)> = projected
                .iter()
                .filter_map(|&(si, start)| {
                    sequences[si][start..]
                        .iter()
                        .position(|&x| x == item)
                        .map(|p| (si, start + p + 1))
                })
                .collect();
            self.grow(sequences, &next, prefix, out);
            prefix.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<Vec<usize>> {
        vec![
            vec![0, 1, 2, 3],
            vec![0, 2, 1, 3],
            vec![0, 1, 3],
            vec![4, 4, 4],
        ]
    }

    fn find(patterns: &[SequentialPattern], items: &[usize]) -> Option<usize> {
        patterns
            .iter()
            .find(|p| p.items == items)
            .map(|p| p.support)
    }

    #[test]
    fn single_item_supports() {
        let p = PrefixSpan::new(1, 1).mine(&corpus());
        assert_eq!(find(&p, &[0]), Some(3));
        assert_eq!(find(&p, &[4]), Some(1));
    }

    #[test]
    fn ordered_subsequences_only() {
        let p = PrefixSpan::new(2, 3).mine(&corpus());
        // 0 -> 1 -> 3 appears in sessions 0, 1 (via 0,1,3) wait: session 1
        // is [0, 2, 1, 3]: subsequence 0,1,3 holds. Session 2 as well.
        assert_eq!(find(&p, &[0, 1, 3]), Some(3));
        // 3 -> 0 never occurs in order.
        assert_eq!(find(&p, &[3, 0]), None);
    }

    #[test]
    fn gapped_matching() {
        let p = PrefixSpan::new(2, 2).mine(&corpus());
        // 0 ... 3 with a gap.
        assert_eq!(find(&p, &[0, 3]), Some(3));
    }

    #[test]
    fn repeated_items_count_one_session_once() {
        let p = PrefixSpan::new(1, 2).mine(&[vec![7, 7, 7]]);
        assert_eq!(find(&p, &[7]), Some(1));
        assert_eq!(find(&p, &[7, 7]), Some(1));
    }

    #[test]
    fn support_anti_monotone_along_prefixes() {
        let p = PrefixSpan::new(1, 3).mine(&corpus());
        for pat in &p {
            if pat.items.len() >= 2 {
                let parent = &pat.items[..pat.items.len() - 1];
                let parent_support = find(&p, parent).unwrap();
                assert!(pat.support <= parent_support);
            }
        }
    }

    #[test]
    fn max_len_respected() {
        let p = PrefixSpan::new(1, 2).mine(&corpus());
        assert!(p.iter().all(|pat| pat.items.len() <= 2));
    }

    #[test]
    fn min_support_filters() {
        let p = PrefixSpan::new(4, 3).mine(&corpus());
        assert!(p.is_empty(), "no pattern is in all 4 sessions: {p:?}");
    }
}
