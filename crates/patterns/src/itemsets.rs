#![expect(clippy::disallowed_types, reason = "candidate lists collected from item_counts are sorted before any downstream use; remaining accesses are keyed lookups")]

use std::collections::{BTreeSet, HashMap};

use serde::{Deserialize, Serialize};

/// A frequent itemset: a set of actions co-occurring in at least `support`
/// sessions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Itemset {
    /// The items, sorted ascending.
    pub items: Vec<usize>,
    /// Number of sessions containing every item.
    pub support: usize,
}

/// Apriori frequent-itemset mining over the action *sets* of sessions.
///
/// `min_support` is an absolute session count; `max_size` bounds itemset
/// cardinality (mining is exponential without it). Results are sorted by
/// descending support, then ascending lexicographic items.
///
/// # Example
///
/// ```
/// use ibcm_patterns::frequent_itemsets;
/// let sessions = vec![vec![1, 2, 3], vec![1, 2], vec![1, 9]];
/// let sets = frequent_itemsets(&sessions, 2, 3);
/// assert!(sets.iter().any(|s| s.items == vec![1, 2] && s.support == 2));
/// ```
pub fn frequent_itemsets(
    sequences: &[Vec<usize>],
    min_support: usize,
    max_size: usize,
) -> Vec<Itemset> {
    let min_support = min_support.max(1);
    // Deduplicate items per session.
    let transactions: Vec<BTreeSet<usize>> = sequences
        .iter()
        .map(|s| s.iter().copied().collect())
        .collect();

    // L1.
    let mut item_counts: HashMap<usize, usize> = HashMap::new();
    for t in &transactions {
        for &i in t {
            *item_counts.entry(i).or_default() += 1;
        }
    }
    let mut current: Vec<Vec<usize>> = item_counts
        .iter()
        .filter(|&(_, &c)| c >= min_support)
        .map(|(&i, _)| vec![i])
        .collect();
    current.sort();

    let mut result: Vec<Itemset> = current
        .iter()
        .map(|items| Itemset {
            items: items.clone(),
            support: item_counts[&items[0]],
        })
        .collect();

    let mut size = 1;
    while size < max_size && !current.is_empty() {
        // Candidate generation: join sets sharing a (k-1)-prefix.
        let mut candidates: Vec<Vec<usize>> = Vec::new();
        for i in 0..current.len() {
            for j in (i + 1)..current.len() {
                let (a, b) = (&current[i], &current[j]);
                if a[..size - 1] == b[..size - 1] {
                    let mut cand = a.clone();
                    cand.push(b[size - 1]);
                    candidates.push(cand);
                }
            }
        }
        // Count supports.
        let mut next = Vec::new();
        for cand in candidates {
            let support = transactions
                .iter()
                .filter(|t| cand.iter().all(|i| t.contains(i)))
                .count();
            if support >= min_support {
                result.push(Itemset {
                    items: cand.clone(),
                    support,
                });
                next.push(cand);
            }
        }
        next.sort();
        current = next;
        size += 1;
    }
    result.sort_by(|a, b| b.support.cmp(&a.support).then(a.items.cmp(&b.items)));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<Vec<usize>> {
        vec![
            vec![0, 1, 2],
            vec![0, 1],
            vec![0, 2],
            vec![1, 2],
            vec![0, 1, 2, 3],
        ]
    }

    #[test]
    fn singleton_supports_correct() {
        let sets = frequent_itemsets(&corpus(), 1, 1);
        let find = |items: &[usize]| sets.iter().find(|s| s.items == items).unwrap().support;
        assert_eq!(find(&[0]), 4);
        assert_eq!(find(&[1]), 4);
        assert_eq!(find(&[2]), 4);
        assert_eq!(find(&[3]), 1);
    }

    #[test]
    fn pair_supports_correct() {
        let sets = frequent_itemsets(&corpus(), 2, 2);
        let find = |items: &[usize]| sets.iter().find(|s| s.items == items).map(|s| s.support);
        assert_eq!(find(&[0, 1]), Some(3));
        assert_eq!(find(&[0, 2]), Some(3));
        assert_eq!(find(&[1, 2]), Some(3));
        assert_eq!(find(&[3]), None, "below min support");
    }

    #[test]
    fn support_is_anti_monotone() {
        let sets = frequent_itemsets(&corpus(), 1, 3);
        for s in &sets {
            for t in &sets {
                if t.items.len() > s.items.len() && s.items.iter().all(|i| t.items.contains(i)) {
                    assert!(t.support <= s.support);
                }
            }
        }
    }

    #[test]
    fn duplicate_actions_count_once_per_session() {
        let sets = frequent_itemsets(&[vec![5, 5, 5]], 1, 1);
        assert_eq!(sets[0].support, 1);
    }

    #[test]
    fn sorted_by_support_desc() {
        let sets = frequent_itemsets(&corpus(), 1, 2);
        for w in sets.windows(2) {
            assert!(w[0].support >= w[1].support);
        }
    }

    #[test]
    fn empty_corpus_yields_nothing() {
        assert!(frequent_itemsets(&[], 1, 2).is_empty());
    }
}
