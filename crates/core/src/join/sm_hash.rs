//! The shared-memory hash join of co-partitions (paper §III-C).
//!
//! The build co-partition is staged into shared memory as a chained hash
//! table: `heads[bucket]` and `next[element]` are 16-bit offsets (the
//! partition is at most a few thousand elements, so trimming offsets to
//! 16 bits halves the table's footprint). The build is wait-free: each
//! thread atomically exchanges the bucket head with its own element's
//! offset and stores the old head as its `next` — Listing 2.
//!
//! When a (skewed) build partition exceeds the shared-memory budget, the
//! kernel degrades to hash-based *block* nested loops: the build side is
//! processed in shared-memory-sized blocks and the probe side is re-scanned
//! per block (paper §V-E) — correctness is preserved, throughput pays.

use hcj_gpu::KernelCost;
use hcj_host::Pool;

use crate::config::GpuJoinConfig;
use crate::join::{bucket_hash, probe_chunks, ProbeTally, PROBE_PAR_MIN};
use crate::output::OutputSink;

const NIL: u16 = u16::MAX;

/// The build table's `heads` and `next` links, reusable from one join to
/// the next without allocating or zeroing: between joins every head is NIL
/// (each build block clears the heads it set), and a block writes every
/// `next` link it reads. A join that panics can leave heads set, so a
/// table must not outlive a panicking join.
#[derive(Debug, Default)]
pub struct BuildTable {
    heads: Vec<u16>,
    next: Vec<u16>,
}

/// Join one co-partition pair with the shared-memory hash table, built in
/// `table`. `shift` is the number of radix bits already equal within the
/// partition.
#[allow(clippy::too_many_arguments)]
pub fn sm_hash_join(
    config: &GpuJoinConfig,
    shift: u32,
    r_keys: &[u32],
    r_pays: &[u32],
    s_keys: &[u32],
    s_pays: &[u32],
    sink: &mut OutputSink,
    table: &mut BuildTable,
) -> KernelCost {
    // The chain links are 16-bit and `u16::MAX` is the NIL sentinel, so a
    // build block may never exceed 65535 elements no matter how much shared
    // memory the config claims — larger blocks would silently wrap `i as
    // u16` below and drop or fabricate matches.
    let block = config.smem_elements.min(usize::from(u16::MAX));
    let buckets = config.hash_buckets;
    let mut cost = KernelCost::ZERO;
    let n_blocks = r_keys.len().div_ceil(block).max(1);
    if table.heads.len() < buckets {
        table.heads.resize(buckets, NIL);
    }
    let longest_block = block.min(r_keys.len());
    if table.next.len() < longest_block {
        table.next.resize(longest_block, NIL);
    }
    debug_assert!(table.heads.iter().all(|&h| h == NIL), "stale heads in a reused build table");
    // Oversized partitions degrade to block nested loops; each block
    // re-scans the whole probe partition.
    for blk in 0..n_blocks {
        let lo = blk * block;
        let hi = (lo + block).min(r_keys.len());
        let rk = &r_keys[lo..hi];
        let rp = &r_pays[lo..hi];
        debug_assert!(rk.len() <= usize::from(u16::MAX), "16-bit offsets require small blocks");

        // ---- build phase (Listing 2) ----
        let heads = &mut table.heads[..buckets];
        let next = &mut table.next[..rk.len()];
        for (i, &key) in rk.iter().enumerate() {
            let h = bucket_hash(key, shift, buckets);
            // atomicExchange(&heads[h], i): wait-free front insertion.
            let old = heads[h];
            heads[h] = i as u16;
            next[i] = old;
        }
        // Staging the block into shared memory: coalesced read from the
        // bucket chain + shared-memory store of keys, payloads and links.
        cost.add_coalesced(8 * rk.len() as u64);
        cost.add_shared(10 * rk.len() as u64); // 8 B tuple + 2 B link
        cost.add_shared_atomics(rk.len() as u64);
        cost.add_instructions(6 * rk.len() as u64);
        // Fixed per-co-partition setup: zeroing the bucket heads and the
        // block's launch bookkeeping. This is what makes tiny partitions
        // underutilize the SM (the rising left side of paper Fig. 5).
        cost.add_shared(2 * buckets as u64);
        cost.add_instructions(buckets as u64 + 64);

        // ---- probe phase ----
        // Coalesced scan of the probe partition's bucket chain (re-read
        // once per build block — the nested-loop degradation).
        cost.add_coalesced(8 * s_keys.len() as u64);
        // Probe tuples are independent: pool workers may scan chunks of
        // the probe side into forked sinks (see `probe_chunks`).
        let tally =
            probe_chunks(Pool::current(), s_keys.len(), PROBE_PAR_MIN, sink, |range, out| {
                let mut t = ProbeTally::default();
                for j in range {
                    let skey = s_keys[j];
                    let mut idx = heads[bucket_hash(skey, shift, buckets)];
                    while idx != NIL {
                        t.steps += 1;
                        let i = idx as usize;
                        if rk[i] == skey {
                            t.matches += 1;
                            out.emit(skey, rp[i], s_pays[j]);
                        }
                        idx = next[i];
                    }
                }
                t
            });
        cost.add_shared(2 * s_keys.len() as u64); // 2 B head per probe
                                                  // Chain walks diverge within the warp: each dependent step wastes
                                                  // most of the warp's shared-memory bank transaction, so a step
                                                  // costs a warp-wide access, not 6 B. Long chains (elements >>
                                                  // buckets) are what bends hash-join throughput back down past the
                                                  // paper's 1024-element sweet spot (Fig. 5).
        cost.add_shared(32 * tally.steps);
        cost.add_shared(4 * tally.matches); // matched payload read
        cost.add_instructions(4 * s_keys.len() as u64 + 3 * tally.steps);
        for &key in rk {
            heads[bucket_hash(key, shift, buckets)] = NIL;
        }
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
        r: &[(u32, u32)],
        s: &[(u32, u32)],
    ) -> (Vec<(u32, u32, u32)>, KernelCost) {
        let rk: Vec<u32> = r.iter().map(|t| t.0).collect();
        let rp: Vec<u32> = r.iter().map(|t| t.1).collect();
        let sk: Vec<u32> = s.iter().map(|t| t.0).collect();
        let sp: Vec<u32> = s.iter().map(|t| t.1).collect();
        let mut sink = OutputSink::new(OutputMode::Materialize, 512);
        let cost =
            sm_hash_join(config, 0, &rk, &rp, &sk, &sp, &mut sink, &mut BuildTable::default());
        let mut rows = sink.into_rows();
        rows.sort_unstable();
        (rows, cost)
    }

    #[test]
    fn simple_join_finds_all_matches() {
        let r = [(1, 10), (2, 20), (3, 30)];
        let s = [(2, 200), (2, 201), (4, 400)];
        let (rows, _) = run(&cfg(), &r, &s);
        assert_eq!(rows, vec![(2, 20, 200), (2, 20, 201)]);
    }

    #[test]
    fn duplicate_build_keys_multiply() {
        let r = [(5, 1), (5, 2), (5, 3)];
        let s = [(5, 9)];
        let (rows, _) = run(&cfg(), &r, &s);
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn matches_oracle_on_random_data() {
        let r: Vec<(u32, u32)> = (0..3000u32).map(|i| (i * 7 % 601, i)).collect();
        let s: Vec<(u32, u32)> = (0..5000u32).map(|i| (i * 13 % 601, i + 1_000_000)).collect();
        let (rows, _) = run(&cfg(), &r, &s);
        let rr: Relation = r.iter().map(|&(k, p)| Tuple { key: k, payload: p }).collect();
        let ss: Relation = s.iter().map(|&(k, p)| Tuple { key: k, payload: p }).collect();
        let mut want = reference_join(&rr, &ss);
        want.sort_unstable();
        assert_eq!(rows, want);
    }

    #[test]
    fn oversized_partition_falls_back_to_block_nested_loops() {
        let mut config = cfg();
        config.smem_elements = 64; // force 4 blocks for 256 build tuples
        let r: Vec<(u32, u32)> = (0..256u32).map(|i| (i, i)).collect();
        let s: Vec<(u32, u32)> = (0..512u32).map(|i| (i % 256, i)).collect();
        let (rows, cost) = run(&config, &r, &s);
        assert_eq!(rows.len(), 512);
        // 4 blocks → probe side re-scanned 4 times.
        assert_eq!(cost.coalesced_bytes, 4 * 8 * 512 + 8 * 256);
    }

    #[test]
    fn chain_collisions_cost_shared_traffic() {
        let mut config = cfg();
        config.hash_buckets = 2; // everything collides
        let r: Vec<(u32, u32)> = (0..64u32).map(|i| (i, i)).collect();
        let s = [(63u32, 1u32)];
        let (rows, cost) = run(&config, &r, &s);
        assert_eq!(rows.len(), 1);
        // The single probe walks a ~32-element chain: shared traffic well
        // above the 2-byte head read.
        assert!(cost.shared_bytes > 64 * 10 + 100);
    }

    #[test]
    fn blocks_beyond_u16_offsets_are_split_not_wrapped() {
        // A config claiming room for >65535 elements must still cap blocks
        // at the 16-bit offset limit: element 65536 stored as `0u16` used
        // to shadow the real element 0 and corrupt the join.
        let mut config = cfg();
        config.smem_elements = 100_000;
        let n = 70_000u32;
        let r: Vec<(u32, u32)> = (0..n).map(|i| (i, i)).collect();
        // Probe keys on both sides of the 65535 boundary.
        let s: Vec<(u32, u32)> =
            [0, 1, 65_534, 65_535, 65_536, 69_999].into_iter().map(|k| (k, k + 1)).collect();
        let (rows, cost) = run(&config, &r, &s);
        let want: Vec<(u32, u32, u32)> = s.iter().map(|&(k, p)| (k, k, p)).collect();
        assert_eq!(rows, want);
        // Two build blocks → the probe side is re-scanned twice.
        assert_eq!(cost.coalesced_bytes, 2 * 8 * s.len() as u64 + 8 * u64::from(n));
    }

    #[test]
    fn reused_table_leaves_no_stale_heads() {
        // Back to back on one table, the joins use 2048, 2 and 2048
        // buckets; each join's keys are disjoint from the others', so a
        // head left over from an earlier join would add chain steps (and
        // cost) or fabricate matches.
        let join = |buckets: usize, base: u32, table: &mut BuildTable| {
            let mut config = cfg();
            config.hash_buckets = buckets;
            let r: Vec<(u32, u32)> = (0..600u32).map(|i| (base + i * 3, i)).collect();
            let s: Vec<(u32, u32)> = (0..900u32).map(|i| (base + i * 2, i + 7)).collect();
            let (rk, rp): (Vec<u32>, Vec<u32>) = r.into_iter().unzip();
            let (sk, sp): (Vec<u32>, Vec<u32>) = s.into_iter().unzip();
            // Capped, so a chain that stale heads turned into a cycle cannot
            // exhaust memory before the comparison fails.
            let mut sink = OutputSink::new(OutputMode::Materialize, 512).with_row_cap(1000);
            let cost = sm_hash_join(&config, 0, &rk, &rp, &sk, &sp, &mut sink, table);
            (sink.into_rows(), cost)
        };
        let joins = [(2048, 0), (2, 100_000), (2048, 200_000)];
        let mut table = BuildTable::default();
        let reused: Vec<_> =
            joins.iter().map(|&(buckets, base)| join(buckets, base, &mut table)).collect();
        for (&(buckets, base), got) in joins.iter().zip(&reused) {
            let fresh = join(buckets, base, &mut BuildTable::default());
            assert_eq!(got, &fresh, "{buckets} buckets");
            assert_eq!(got.0.len(), 300, "{buckets} buckets");
        }
    }

    #[test]
    fn empty_sides_produce_nothing() {
        let (rows, _) = run(&cfg(), &[], &[(1, 1)]);
        assert!(rows.is_empty());
        let (rows, _) = run(&cfg(), &[(1, 1)], &[]);
        assert!(rows.is_empty());
    }

    #[test]
    fn shift_aware_hashing_still_matches() {
        // Simulate a co-partition with 4 radix bits fixed: all keys share
        // the low nibble.
        let r: Vec<(u32, u32)> = (0..100u32).map(|i| ((i << 4) | 0x5, i)).collect();
        let s: Vec<(u32, u32)> = (0..100u32).map(|i| ((i << 4) | 0x5, i + 500)).collect();
        let rk: Vec<u32> = r.iter().map(|t| t.0).collect();
        let rp: Vec<u32> = r.iter().map(|t| t.1).collect();
        let sk: Vec<u32> = s.iter().map(|t| t.0).collect();
        let sp: Vec<u32> = s.iter().map(|t| t.1).collect();
        let mut sink = OutputSink::new(OutputMode::Aggregate, 512);
        let _ = sm_hash_join(&cfg(), 4, &rk, &rp, &sk, &sp, &mut sink, &mut BuildTable::default());
        assert_eq!(sink.matches(), 100);
    }
}
