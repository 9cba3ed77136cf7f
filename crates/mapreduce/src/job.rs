//! The static shape of a sharded run: [`round_robin`] is the one
//! definition of which unit lands on which shard, shared by the
//! `repro --shard i/n` process fan-out and the `kf-dist` coordinator's
//! task table.
//!
//! The split is deliberately round-robin rather than contiguous: unit
//! lists are ordered cheapest-first in practice (the ablation ladder
//! ascends in sophistication), so striping gives every shard a
//! near-equal mix of cheap and expensive units instead of handing the
//! last shard all the slow ones.

/// The units shard `index` of `of` is responsible for: round-robin over
/// `units` (index `j` goes to shard `j % of`). The union over all
/// shards is exactly `units`, each exactly once, preserving input
/// order within a shard.
///
/// # Panics
///
/// Panics when `of == 0` or `index >= of` — a malformed shard request
/// is a caller bug, not a recoverable condition.
pub fn round_robin<T: Clone>(units: &[T], index: usize, of: usize) -> Vec<T> {
    assert!(of >= 1 && index < of, "shard {index}/{of} out of range");
    units
        .iter()
        .enumerate()
        .filter(|(j, _)| j % of == index)
        .map(|(_, u)| u.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_partitions_exactly() {
        let units: Vec<u32> = (0..7).collect();
        for of in 1..=8 {
            let shards: Vec<Vec<u32>> = (0..of).map(|i| round_robin(&units, i, of)).collect();
            let mut union: Vec<u32> = shards.iter().flatten().copied().collect();
            union.sort_unstable();
            assert_eq!(union, units, "of={of}");
            for (i, s) in shards.iter().enumerate() {
                assert!(s.windows(2).all(|w| w[0] < w[1]), "shard {i} reordered");
                // Round-robin balance: sizes differ by at most one.
                assert!(s.len().abs_diff(units.len() / of) <= 1);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn round_robin_rejects_out_of_range_shard() {
        round_robin(&[1, 2, 3], 2, 2);
    }
}
