//! Working-set packing for the co-processing strategy under skew
//! (paper §IV-D).
//!
//! Skewed CPU partitions are unevenly sized, so naively grouping them into
//! GPU-sized working sets either overflows device memory (too many big
//! partitions together) or starves the PCIe pipeline (a too-small first
//! working set finishes transferring before the CPU has partitioned the
//! rest). The paper's remedy, implemented here:
//!
//! 1. the **first** working set is chosen by a 0/1-knapsack maximizing the
//!    number of tuples under the device-memory budget (padding included) —
//!    the biggest possible overlap window for the CPU partitioning phase;
//! 2. the remaining partitions are packed **greedily**, with at most one
//!    partition per working set whose sub-partitioning scratch space
//!    exceeds a threshold (oversized partitions need extra room for the
//!    GPU-side first-pass intermediates).

/// One CPU partition to pack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartitionSize {
    /// Index of the partition in the CPU fanout.
    pub id: usize,
    /// Tuples in the partition.
    pub tuples: u64,
    /// Device bytes this partition needs while being joined: both sides'
    /// data plus sub-partitioning scratch, padding included.
    pub padded_bytes: u64,
}

/// The packing result: working sets in processing order; each is a list of
/// partition ids.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkingSets {
    pub sets: Vec<Vec<usize>>,
}

impl WorkingSets {
    /// Total number of working sets.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }
}

/// Pack `partitions` into working sets under a `budget_bytes` device
/// budget. `oversize_threshold_bytes` marks partitions that may not share
/// a working set with another oversized one.
///
/// Panics if any single partition exceeds the budget (callers must
/// sub-partition such a monster first, paper §IV-B's recursive rule).
///
/// ```
/// use hcj_core::packing::{pack_working_sets, PartitionSize};
///
/// // One hot partition and three cold ones, budget for ~two partitions.
/// let parts = vec![
///     PartitionSize { id: 0, tuples: 10, padded_bytes: 30 },
///     PartitionSize { id: 1, tuples: 9_000, padded_bytes: 60 }, // hot
///     PartitionSize { id: 2, tuples: 12, padded_bytes: 30 },
///     PartitionSize { id: 3, tuples: 11, padded_bytes: 30 },
/// ];
/// let ws = pack_working_sets(&parts, 100, 50);
/// // The knapsack first set grabs the hot partition (plus what fits).
/// assert!(ws.sets[0].contains(&1));
/// // Everything is packed exactly once.
/// let total: usize = ws.sets.iter().map(Vec::len).sum();
/// assert_eq!(total, 4);
/// ```
pub fn pack_working_sets(
    partitions: &[PartitionSize],
    budget_bytes: u64,
    oversize_threshold_bytes: u64,
) -> WorkingSets {
    pack_with(partitions, budget_bytes, oversize_threshold_bytes, knapsack_max_tuples)
}

/// [`pack_working_sets`] with the first working set chosen by `knapsack`
/// (the tests swap in the reference DP).
fn pack_with(
    partitions: &[PartitionSize],
    budget_bytes: u64,
    oversize_threshold_bytes: u64,
    knapsack: fn(&[PartitionSize], u64) -> Vec<usize>,
) -> WorkingSets {
    assert!(budget_bytes > 0, "device budget must be positive");
    for p in partitions {
        assert!(
            p.padded_bytes <= budget_bytes,
            "partition {} ({} B) exceeds the device budget ({} B); sub-partition it first",
            p.id,
            p.padded_bytes,
            budget_bytes
        );
    }
    let mut sets = Vec::new();
    let mut remaining = Vec::with_capacity(partitions.len());
    remaining.extend(partitions.iter().copied().filter(|p| p.tuples > 0));
    if remaining.is_empty() {
        return WorkingSets { sets };
    }

    // Step 1: knapsack the first working set, maximizing tuples.
    let first = knapsack(&remaining, budget_bytes);
    let first_ids: std::collections::HashSet<usize> = first.iter().copied().collect();
    sets.push(first);
    remaining.retain(|p| !first_ids.contains(&p.id));

    // Step 2: greedy packing, big partitions first, honoring the
    // one-oversized-per-set rule.
    remaining.sort_by(|a, b| b.padded_bytes.cmp(&a.padded_bytes).then(a.id.cmp(&b.id)));
    let mut open: Vec<(u64, bool, Vec<usize>)> = Vec::new(); // (used, has_oversized, ids)
    for p in &remaining {
        let oversized = p.padded_bytes > oversize_threshold_bytes;
        let slot = open.iter_mut().find(|(used, has_big, _)| {
            used + p.padded_bytes <= budget_bytes && !(oversized && *has_big)
        });
        match slot {
            Some((used, has_big, ids)) => {
                *used += p.padded_bytes;
                *has_big |= oversized;
                ids.push(p.id);
            }
            None => open.push((p.padded_bytes, oversized, vec![p.id])),
        }
    }
    sets.extend(open.into_iter().map(|(_, _, ids)| ids));
    WorkingSets { sets }
}

/// The strawman packer (ablation baseline): first-fit in partition-index
/// order, no knapsack, no oversize rule. Under skew the first working set
/// may carry few tuples (starving the transfer pipeline while the CPU
/// still partitions) — exactly the failure §IV-D motivates against.
pub fn naive_working_sets(partitions: &[PartitionSize], budget_bytes: u64) -> WorkingSets {
    assert!(budget_bytes > 0, "device budget must be positive");
    let mut sets: Vec<Vec<usize>> = Vec::new();
    let mut used = 0u64;
    let mut current: Vec<usize> = Vec::new();
    for p in partitions.iter().filter(|p| p.tuples > 0) {
        assert!(p.padded_bytes <= budget_bytes, "partition exceeds the device budget");
        if used + p.padded_bytes > budget_bytes && !current.is_empty() {
            sets.push(std::mem::take(&mut current));
            used = 0;
        }
        current.push(p.id);
        used += p.padded_bytes;
    }
    if !current.is_empty() {
        sets.push(current);
    }
    WorkingSets { sets }
}

/// 0/1 knapsack maximizing tuples under the byte budget. Partition counts
/// are small (the paper uses a 16-way CPU fanout), but weights are large,
/// so the DP runs over a quantized capacity grid.
///
/// `best[c]` is the most tuples any subset of the partitions seen so far
/// packs into `c` grid units. One bit per (partition, capacity) cell
/// records whether that partition strictly improved the cell; walking the
/// partitions backwards from the best cell and stepping down by each
/// taken partition's weight reads the chosen set back out. O(n · cap)
/// time, and the allocations do not grow with either.
fn knapsack_max_tuples(partitions: &[PartitionSize], budget_bytes: u64) -> Vec<usize> {
    const GRID: u64 = 4096;
    let unit = (budget_bytes / GRID).max(1);
    // Round weights *up* so the quantized solution never overflows the
    // real budget.
    let weights: Vec<usize> =
        partitions.iter().map(|p| p.padded_bytes.div_ceil(unit) as usize).collect();
    let cap = (budget_bytes / unit) as usize;
    let words = (cap + 1).div_ceil(64);
    let mut best = vec![0u64; cap + 1];
    // Row `i` of `took` holds partition i's improvement bits.
    let mut took = vec![0u64; partitions.len() * words];
    for (i, (p, &w)) in partitions.iter().zip(&weights).enumerate() {
        if w > cap {
            continue;
        }
        let row = &mut took[i * words..(i + 1) * words];
        for c in (w..=cap).rev() {
            let cand = best[c - w] + p.tuples;
            if cand > best[c] {
                best[c] = cand;
                row[c / 64] |= 1 << (c % 64);
            }
        }
    }
    let mut c = (0..=cap).max_by_key(|&c| best[c]).unwrap_or(0);
    let mut chosen = Vec::with_capacity(partitions.len());
    for (i, &w) in weights.iter().enumerate().rev() {
        if took[i * words + c / 64] >> (c % 64) & 1 == 1 {
            chosen.push(partitions[i].id);
            c -= w;
        }
    }
    chosen.reverse();
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcj_workload::rng::{Rng, SmallRng};

    fn part(id: usize, tuples: u64, bytes: u64) -> PartitionSize {
        PartitionSize { id, tuples, padded_bytes: bytes }
    }

    fn total_bytes(set: &[usize], parts: &[PartitionSize]) -> u64 {
        set.iter().map(|&id| parts.iter().find(|p| p.id == id).unwrap().padded_bytes).sum()
    }

    /// The knapsack as first written: each improving DP cell clones its
    /// predecessor's chosen set. The reference for `knapsack_max_tuples`.
    fn knapsack_reference(partitions: &[PartitionSize], budget_bytes: u64) -> Vec<usize> {
        const GRID: u64 = 4096;
        let unit = (budget_bytes / GRID).max(1);
        let weights: Vec<u64> = partitions.iter().map(|p| p.padded_bytes.div_ceil(unit)).collect();
        let cap = (budget_bytes / unit) as usize;
        let mut best = vec![0u64; cap + 1];
        let mut choice: Vec<Vec<bool>> = vec![vec![false; partitions.len()]; cap + 1];
        for (i, p) in partitions.iter().enumerate() {
            let w = weights[i] as usize;
            if w > cap {
                continue;
            }
            for c in (w..=cap).rev() {
                let cand = best[c - w] + p.tuples;
                if cand > best[c] {
                    best[c] = cand;
                    let mut chosen = choice[c - w].clone();
                    chosen[i] = true;
                    choice[c] = chosen;
                }
            }
        }
        let argmax = (0..=cap).max_by_key(|&c| best[c]).unwrap_or(0);
        partitions
            .iter()
            .enumerate()
            .filter(|(i, _)| choice[argmax][*i])
            .map(|(_, p)| p.id)
            .collect()
    }

    #[test]
    fn knapsack_picks_the_reference_dps_sets() {
        let mut rng = SmallRng::seed_from_u64(0x4B4E_4150);
        for case in 0..1200u64 {
            // Four shapes: small fanouts under a sub-grid budget (one byte
            // per grid unit), up to 256 partitions under a budget far
            // above the grid (weights round up), partitions of exactly the
            // budget, and, in one case of sixteen, the fleet-exchange shape
            // (128 partitions of 8-31 tuples at 24 B each under 64 KB).
            let (parts, budget) = match case % 16 {
                0..=6 => {
                    let budget = rng.gen_range_u64(1, 4095);
                    let n = rng.gen_range_u64(1, 40) as usize;
                    let parts = (0..n)
                        .map(|id| {
                            let tuples = rng.gen_range_u64(0, 3).min(1) * rng.gen_range_u64(1, 999);
                            part(id, tuples, rng.gen_range_u64(0, budget))
                        })
                        .collect::<Vec<_>>();
                    (parts, budget)
                }
                7..=10 => {
                    let budget = rng.gen_range_u64(4097, 1 << 26);
                    // The reference DP is quadratic in the fanout: draw
                    // up to 256 partitions in one of every sixteen of these
                    // cases.
                    let widest = if case % 64 == 7 { 256 } else { 64 };
                    let n = rng.gen_range_u64(1, widest) as usize;
                    let parts = (0..n)
                        .map(|id| {
                            let tuples =
                                rng.gen_range_u64(0, 7).min(1) * rng.gen_range_u64(1, 5000);
                            part(id, tuples, rng.gen_range_u64(1, budget / 8))
                        })
                        .collect::<Vec<_>>();
                    (parts, budget)
                }
                11..=14 => {
                    let budget = rng.gen_range_u64(1, 1 << 20);
                    let n = rng.gen_range_u64(1, 24) as usize;
                    let parts = (0..n)
                        .map(|id| {
                            let bytes = if rng.gen_range_u64(0, 2) == 0 {
                                budget
                            } else {
                                rng.gen_range_u64(0, budget)
                            };
                            part(id, rng.gen_range_u64(0, 300), bytes)
                        })
                        .collect::<Vec<_>>();
                    (parts, budget)
                }
                _ => {
                    let parts = (0..128)
                        .map(|id| {
                            let tuples = rng.gen_range_u64(8, 31);
                            part(id, tuples, tuples * 24)
                        })
                        .collect::<Vec<_>>();
                    (parts, 64 * 1024)
                }
            };
            let want = pack_with(&parts, budget, budget / 4, knapsack_reference);
            let got = pack_working_sets(&parts, budget, budget / 4);
            assert_eq!(got, want, "case {case}: budget {budget}, {} partitions", parts.len());
        }
    }

    #[test]
    fn uniform_partitions_pack_evenly() {
        // 16 equal partitions, budget for 5: first set = 5 (knapsack), the
        // rest greedily in groups of 5 → [5,5,5,1].
        let parts: Vec<_> = (0..16).map(|i| part(i, 100, 10)).collect();
        let ws = pack_working_sets(&parts, 50, 40);
        assert_eq!(ws.sets[0].len(), 5);
        let sizes: Vec<usize> = ws.sets.iter().map(Vec::len).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 16);
        for s in &ws.sets {
            assert!(total_bytes(s, &parts) <= 50);
        }
    }

    #[test]
    fn first_set_maximizes_tuples_under_skew() {
        // One hot partition (many tuples, big) and many cold ones. The
        // knapsack should prefer the hot partition plus whatever fits.
        let mut parts = vec![part(0, 10_000, 60)];
        parts.extend((1..10).map(|i| part(i, 100, 10)));
        let ws = pack_working_sets(&parts, 100, 50);
        assert!(ws.sets[0].contains(&0), "first set must include the hot partition");
        let tuples: u64 =
            ws.sets[0].iter().map(|&id| parts.iter().find(|p| p.id == id).unwrap().tuples).sum();
        assert!(tuples >= 10_000 + 4 * 100);
    }

    #[test]
    fn at_most_one_oversized_partition_per_greedy_set() {
        // The oversize rule governs the greedily-packed sets; the first
        // (knapsack) set is constrained only by the budget (paper §IV-D).
        let parts: Vec<_> = (0..6).map(|i| part(i, 1000, 45)).collect();
        let ws = pack_working_sets(&parts, 100, 40);
        for s in ws.sets.iter().skip(1) {
            let oversized = s
                .iter()
                .filter(|&&id| parts.iter().find(|p| p.id == id).unwrap().padded_bytes > 40)
                .count();
            assert!(oversized <= 1, "greedy set {s:?} has {oversized} oversized partitions");
        }
        // The knapsack set is allowed to pack two 45s into the 100 budget.
        assert!(ws.sets[0].len() == 2);
    }

    #[test]
    fn empty_partitions_are_skipped() {
        let parts = vec![part(0, 0, 0), part(1, 10, 5)];
        let ws = pack_working_sets(&parts, 100, 50);
        assert_eq!(ws.sets, vec![vec![1]]);
        assert_eq!(ws.len(), 1);
        assert!(!ws.is_empty());
    }

    #[test]
    fn all_empty_gives_no_sets() {
        let parts = vec![part(0, 0, 0)];
        let ws = pack_working_sets(&parts, 100, 50);
        assert!(ws.is_empty());
    }

    #[test]
    fn naive_packs_everything_in_order() {
        let parts: Vec<_> = (0..7).map(|i| part(i, 10, 30)).collect();
        let ws = naive_working_sets(&parts, 100);
        assert_eq!(ws.sets, vec![vec![0, 1, 2], vec![3, 4, 5], vec![6]]);
    }

    #[test]
    fn naive_first_set_can_be_tuple_poor_under_skew() {
        // Low-index partitions are tiny, the hot one sits at index 5: the
        // naive first set misses most tuples, the knapsack one grabs them.
        let mut parts: Vec<_> = (0..5).map(|i| part(i, 10, 10)).collect();
        parts.push(part(5, 100_000, 50));
        let tuples_of = |set: &[usize]| -> u64 {
            set.iter().map(|&id| parts.iter().find(|p| p.id == id).unwrap().tuples).sum()
        };
        let naive = naive_working_sets(&parts, 60);
        let smart = pack_working_sets(&parts, 60, 40);
        assert!(tuples_of(&smart.sets[0]) > 10 * tuples_of(&naive.sets[0]));
    }

    #[test]
    #[should_panic(expected = "exceeds the device budget")]
    fn monster_partition_rejected() {
        let parts = vec![part(0, 10, 200)];
        let _ = pack_working_sets(&parts, 100, 50);
    }

    #[test]
    fn every_partition_packed_exactly_once() {
        let mut rng = SmallRng::seed_from_u64(0x9ACC);
        for case in 0..256 {
            let len = rng.gen_range_u64(1, 39) as usize;
            let parts: Vec<_> = (0..len)
                .map(|i| part(i, rng.gen_range_u64(1, 999), rng.gen_range_u64(1, 49)))
                .collect();
            let ws = pack_working_sets(&parts, 100, 60);
            let mut seen: Vec<usize> = ws.sets.iter().flatten().copied().collect();
            seen.sort_unstable();
            let want: Vec<usize> = (0..parts.len()).collect();
            assert_eq!(seen, want, "case {case}");
        }
    }

    #[test]
    fn no_set_overflows_budget() {
        let mut rng = SmallRng::seed_from_u64(0xB0D9);
        for case in 0..256 {
            let len = rng.gen_range_u64(1, 39) as usize;
            let parts: Vec<_> = (0..len)
                .map(|i| part(i, rng.gen_range_u64(1, 999), rng.gen_range_u64(1, 79)))
                .collect();
            let budget = rng.gen_range_u64(80, 199);
            let ws = pack_working_sets(&parts, budget, budget / 2);
            for s in &ws.sets {
                assert!(total_bytes(s, &parts) <= budget, "case {case}: budget {budget}");
            }
        }
    }
}
