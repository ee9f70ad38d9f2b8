//! The warp-cooperative nested-loop join (paper §III-B, Listing 1).
//!
//! The build co-partition is copied contiguously into shared memory. Each
//! warp then takes 32 probe tuples (one per lane) and scans the build side
//! 32 elements at a time: every lane reads *one* build value, and the warp
//! discovers all 32×32 equalities through ballots over the key bits that
//! partitioning has not already fixed — a handful of ballot+mask
//! instructions replace 32 shared-memory reads per lane.

use hcj_gpu::warp::{ballot_match, Lanes};
use hcj_gpu::{KernelCost, WARP_SIZE};
use hcj_host::Pool;

use crate::config::GpuJoinConfig;
use crate::join::{probe_chunks, ProbeTally, PROBE_PAR_MIN};
use crate::output::OutputSink;
use crate::radix::differing_bits;

/// Join one co-partition pair with the ballot nested loop. `shift` is the
/// number of radix bits fixed within the partition.
pub fn ballot_nl_join(
    config: &GpuJoinConfig,
    shift: u32,
    r_keys: &[u32],
    r_pays: &[u32],
    s_keys: &[u32],
    s_pays: &[u32],
    sink: &mut OutputSink,
) -> KernelCost {
    let mut cost = KernelCost::ZERO;
    if r_keys.is_empty() || s_keys.is_empty() {
        return cost;
    }
    // Bits that may differ between keys of this partition: everything the
    // partitioning did not fix, bounded by the key domain (line 6 of
    // Listing 1).
    let max_key = r_keys.iter().chain(s_keys).copied().max().unwrap_or(0);
    let bits = differing_bits(shift, max_key);

    // Build side processed in shared-memory-sized blocks (block nested
    // loops when oversized, as with the hash variant).
    let block = config.smem_elements;
    let n_blocks = r_keys.len().div_ceil(block);
    for blk in 0..n_blocks {
        let lo = blk * block;
        let hi = (lo + block).min(r_keys.len());
        let rk = &r_keys[lo..hi];
        let rp = &r_pays[lo..hi];
        // Stage the block contiguously into shared memory.
        cost.add_coalesced(8 * rk.len() as u64);
        cost.add_shared(8 * rk.len() as u64);
        // Probe scan (repeated per block).
        cost.add_coalesced(8 * s_keys.len() as u64);

        // Probe warps are independent: pool workers may scan chunks of
        // warps (WARP_SIZE-aligned) into forked sinks (see `probe_chunks`).
        let n_warps = s_keys.len().div_ceil(WARP_SIZE);
        let min_warps = PROBE_PAR_MIN.div_ceil(WARP_SIZE);
        let tally = probe_chunks(Pool::current(), n_warps, min_warps, sink, |warps, out| {
            let mut t = ProbeTally::default();
            for w in warps {
                let s0 = w * WARP_SIZE;
                let s_valid = (s_keys.len() - s0).min(WARP_SIZE);
                let mut s_lane: Lanes<u32> = [0; WARP_SIZE];
                s_lane[..s_valid].copy_from_slice(&s_keys[s0..s0 + s_valid]);

                for r0 in (0..rk.len()).step_by(WARP_SIZE) {
                    let r_valid = (rk.len() - r0).min(WARP_SIZE);
                    let mut r_lane: Lanes<u32> = [0; WARP_SIZE];
                    r_lane[..r_valid].copy_from_slice(&rk[r0..r0 + r_valid]);
                    let valid_mask =
                        if r_valid == WARP_SIZE { u32::MAX } else { (1u32 << r_valid) - 1 };
                    // Lines 4–9 of Listing 1, executed for real.
                    let masks = ballot_match(&r_lane, &s_lane, &bits, valid_mask);
                    t.steps += 1;
                    for (lane, &mask) in masks.iter().enumerate().take(s_valid) {
                        let mut m = mask;
                        while m != 0 {
                            let j = m.trailing_zeros() as usize;
                            m &= m - 1;
                            // Matched: fetch the build payload from shared
                            // memory and emit.
                            t.matches += 1;
                            out.emit(s_keys[s0 + lane], rp[r0 + j], s_pays[s0 + lane]);
                        }
                    }
                }
            }
            t
        });
        // Matched payload reads.
        cost.add_shared(4 * tally.matches);
        // Per step: each of 32 lanes reads one 4-byte value from shared
        // memory (line 4), then |bits| ballots with a couple of mask ops
        // each (lines 6–9).
        cost.add_shared(tally.steps * WARP_SIZE as u64 * 4);
        cost.add_instructions(tally.steps * (bits.len() as u64 * 3 + 2) * WARP_SIZE as u64);
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcj_gpu::DeviceSpec;
    use hcj_workload::oracle::reference_join;
    use hcj_workload::{Relation, Tuple};

    use crate::config::OutputMode;

    fn cfg() -> GpuJoinConfig {
        GpuJoinConfig::paper_default(DeviceSpec::gtx1080())
    }

    fn run(
        config: &GpuJoinConfig,
        shift: u32,
        r: &[(u32, u32)],
        s: &[(u32, u32)],
    ) -> (Vec<(u32, u32, u32)>, KernelCost) {
        let rk: Vec<u32> = r.iter().map(|t| t.0).collect();
        let rp: Vec<u32> = r.iter().map(|t| t.1).collect();
        let sk: Vec<u32> = s.iter().map(|t| t.0).collect();
        let sp: Vec<u32> = s.iter().map(|t| t.1).collect();
        let mut sink = OutputSink::new(OutputMode::Materialize, 512);
        let cost = ballot_nl_join(config, shift, &rk, &rp, &sk, &sp, &mut sink);
        let mut rows = sink.into_rows();
        rows.sort_unstable();
        (rows, cost)
    }

    #[test]
    fn finds_simple_matches() {
        let r = [(1, 10), (2, 20), (3, 30)];
        let s = [(2, 200), (3, 300), (9, 900)];
        let (rows, _) = run(&cfg(), 0, &r, &s);
        assert_eq!(rows, vec![(2, 20, 200), (3, 30, 300)]);
    }

    #[test]
    fn matches_oracle_on_random_many_to_many() {
        let r: Vec<(u32, u32)> = (0..500u32).map(|i| (i * 3 % 97, i)).collect();
        let s: Vec<(u32, u32)> = (0..700u32).map(|i| (i * 5 % 97, i + 10_000)).collect();
        let (rows, _) = run(&cfg(), 0, &r, &s);
        let rr: Relation = r.iter().map(|&(k, p)| Tuple { key: k, payload: p }).collect();
        let ss: Relation = s.iter().map(|&(k, p)| Tuple { key: k, payload: p }).collect();
        let mut want = reference_join(&rr, &ss);
        want.sort_unstable();
        assert_eq!(rows, want);
    }

    #[test]
    fn handles_non_multiple_of_warp_sizes() {
        // 33 build and 65 probe tuples exercise the tail-lane masking.
        let r: Vec<(u32, u32)> = (0..33u32).map(|i| (i, i)).collect();
        let s: Vec<(u32, u32)> = (0..65u32).map(|i| (i % 33, i)).collect();
        let (rows, _) = run(&cfg(), 0, &r, &s);
        assert_eq!(rows.len(), 65);
    }

    #[test]
    fn shift_skips_partition_bits_correctly() {
        // All keys share the low byte (shift = 8); high bits carry the
        // identity.
        let r: Vec<(u32, u32)> = (0..50u32).map(|i| ((i << 8) | 0xAB, i)).collect();
        let s: Vec<(u32, u32)> = (0..50u32).map(|i| ((i << 8) | 0xAB, i + 99)).collect();
        let (rows, _) = run(&cfg(), 8, &r, &s);
        assert_eq!(rows.len(), 50);
        for (i, &(k, rp, sp)) in rows.iter().enumerate() {
            assert_eq!(k, ((i as u32) << 8) | 0xAB);
            assert_eq!(rp + 99, sp);
        }
    }

    #[test]
    fn quadratic_cost_in_partition_size() {
        let make = |n: u32| -> Vec<(u32, u32)> { (0..n).map(|i| (i, i)).collect() };
        let (_, c1) = run(&cfg(), 0, &make(256), &make(256));
        let (_, c2) = run(&cfg(), 0, &make(1024), &make(1024));
        let spec = DeviceSpec::gtx1080();
        let ratio = c2.time(&spec) / c1.time(&spec);
        // 4x inputs → ~16x pairwise work.
        assert!(ratio > 8.0, "ratio = {ratio}");
    }

    #[test]
    fn empty_inputs_cost_nothing() {
        let (rows, cost) = run(&cfg(), 0, &[], &[(1, 1)]);
        assert!(rows.is_empty());
        assert_eq!(cost, KernelCost::ZERO);
    }

    #[test]
    fn duplicate_keys_in_both_sides_multiply() {
        let r = [(7, 1), (7, 2)];
        let s = [(7, 10), (7, 20), (7, 30)];
        let (rows, _) = run(&cfg(), 0, &r, &s);
        assert_eq!(rows.len(), 6);
    }
}
