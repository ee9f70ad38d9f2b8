//! Hash join of co-partitions with the table in *device* memory — the
//! comparator of paper Fig. 6. Identical logic to the shared-memory
//! variant, but every table access is a random device-memory transaction
//! instead of a shared-memory access, and offsets are full 32-bit.

use hcj_gpu::KernelCost;
use hcj_host::Pool;

use crate::config::GpuJoinConfig;
use crate::join::{bucket_hash, probe_chunks, ProbeTally, PROBE_PAR_MIN};
use crate::output::OutputSink;

const NIL: u32 = u32::MAX;

/// Join one co-partition pair with a device-memory chained hash table.
pub fn device_hash_join(
    config: &GpuJoinConfig,
    shift: u32,
    r_keys: &[u32],
    r_pays: &[u32],
    s_keys: &[u32],
    s_pays: &[u32],
    sink: &mut OutputSink,
) -> KernelCost {
    let buckets = config.hash_buckets;
    let mut cost = KernelCost::ZERO;
    // A co-partition's table (heads + links + tuples) is KB-sized: its
    // random traffic is served by the L2 cache, not DRAM. Oversized
    // (skewed) partitions spill to DRAM-random.
    let table_bytes = (buckets * 4 + r_keys.len() * 12) as u64;
    let in_l2 = table_bytes <= config.device.l2_bytes;
    let charge = |cost: &mut KernelCost, n: u64| {
        if in_l2 {
            cost.add_l2(n);
        } else {
            cost.add_random(n);
        }
    };

    // ---- build ----
    let mut heads = vec![NIL; buckets];
    let mut next = vec![NIL; r_keys.len()];
    for (i, &key) in r_keys.iter().enumerate() {
        let h = bucket_hash(key, shift, buckets);
        let old = heads[h];
        heads[h] = i as u32;
        next[i] = old;
    }
    // Coalesced read of the build chain; one global atomic (exchange) and
    // one random link write per element.
    cost.add_coalesced(8 * r_keys.len() as u64);
    cost.add_global_atomics(r_keys.len() as u64);
    charge(&mut cost, r_keys.len() as u64);
    cost.add_instructions(6 * r_keys.len() as u64);

    // ---- probe ----
    cost.add_coalesced(8 * s_keys.len() as u64);
    // Independent probe tuples: pool workers may scan chunks of the probe
    // side into forked sinks (see `probe_chunks`).
    let tally = probe_chunks(Pool::current(), s_keys.len(), PROBE_PAR_MIN, sink, |range, out| {
        let mut t = ProbeTally::default();
        for j in range {
            let skey = s_keys[j];
            let mut idx = heads[bucket_hash(skey, shift, buckets)];
            while idx != NIL {
                t.steps += 1;
                let i = idx as usize;
                if r_keys[i] == skey {
                    t.matches += 1;
                    out.emit(skey, r_pays[i], s_pays[j]);
                }
                idx = next[i];
            }
        }
        t
    });
    // One transaction per probe for the head slot; each chain step reads
    // the key and the next pointer: two transactions; each match adds a
    // payload read.
    charge(&mut cost, s_keys.len() as u64);
    charge(&mut cost, 2 * tally.steps + tally.matches);
    cost.add_instructions(4 * s_keys.len() as u64 + 3 * tally.steps);
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcj_gpu::DeviceSpec;
    use hcj_workload::oracle::reference_join;
    use hcj_workload::{Relation, Tuple};

    use crate::config::OutputMode;
    use crate::join::sm_hash::{sm_hash_join, BuildTable};

    fn cfg() -> GpuJoinConfig {
        GpuJoinConfig::paper_default(DeviceSpec::gtx1080())
    }

    fn cols(v: &[(u32, u32)]) -> (Vec<u32>, Vec<u32>) {
        (v.iter().map(|t| t.0).collect(), v.iter().map(|t| t.1).collect())
    }

    #[test]
    fn matches_oracle() {
        let r: Vec<(u32, u32)> = (0..2000u32).map(|i| (i * 11 % 503, i)).collect();
        let s: Vec<(u32, u32)> = (0..3000u32).map(|i| (i * 17 % 503, i + 50_000)).collect();
        let (rk, rp) = cols(&r);
        let (sk, sp) = cols(&s);
        let mut sink = OutputSink::new(OutputMode::Materialize, 512);
        let _ = device_hash_join(&cfg(), 0, &rk, &rp, &sk, &sp, &mut sink);
        let mut rows = sink.into_rows();
        rows.sort_unstable();
        let rr: Relation = r.iter().map(|&(k, p)| Tuple { key: k, payload: p }).collect();
        let ss: Relation = s.iter().map(|&(k, p)| Tuple { key: k, payload: p }).collect();
        let mut want = reference_join(&rr, &ss);
        want.sort_unstable();
        assert_eq!(rows, want);
    }

    #[test]
    fn slower_than_shared_memory_variant() {
        let r: Vec<(u32, u32)> = (0..4000u32).map(|i| (i, i)).collect();
        let s: Vec<(u32, u32)> = (0..4000u32).map(|i| (i, i)).collect();
        let (rk, rp) = cols(&r);
        let (sk, sp) = cols(&s);
        let spec = DeviceSpec::gtx1080();
        let mut sink_d = OutputSink::new(OutputMode::Aggregate, 512);
        let dev = device_hash_join(&cfg(), 0, &rk, &rp, &sk, &sp, &mut sink_d);
        let mut sink_s = OutputSink::new(OutputMode::Aggregate, 512);
        let shm =
            sm_hash_join(&cfg(), 0, &rk, &rp, &sk, &sp, &mut sink_s, &mut BuildTable::default());
        assert_eq!(sink_d.matches(), sink_s.matches());
        assert!(
            dev.time(&spec) > 2.0 * shm.time(&spec),
            "device {} vs shared {}",
            dev.time(&spec),
            shm.time(&spec)
        );
    }

    #[test]
    fn chains_beyond_bucket_count_cost_random_traffic() {
        let mut config = cfg();
        config.hash_buckets = 16;
        let r: Vec<(u32, u32)> = (0..1024u32).map(|i| (i, i)).collect();
        let s: Vec<(u32, u32)> = (0..64u32).map(|i| (i, i)).collect();
        let (rk, rp) = cols(&r);
        let (sk, sp) = cols(&s);
        let mut sink = OutputSink::new(OutputMode::Aggregate, 512);
        let cost = device_hash_join(&config, 0, &rk, &rp, &sk, &sp, &mut sink);
        assert_eq!(sink.matches(), 64);
        // 64 probes over ~64-element chains: thousands of (L2) steps.
        assert!(cost.l2_transactions > 5000, "l2 = {}", cost.l2_transactions);
    }

    #[test]
    fn no_block_splitting_needed_for_large_partitions() {
        // Unlike the shared-memory variant, a 100k-element build partition
        // is one table: the probe side is scanned exactly once.
        let r: Vec<(u32, u32)> = (0..100_000u32).map(|i| (i, i)).collect();
        let s: Vec<(u32, u32)> = (0..1000u32).map(|i| (i, i)).collect();
        let (rk, rp) = cols(&r);
        let (sk, sp) = cols(&s);
        let mut sink = OutputSink::new(OutputMode::Aggregate, 512);
        let cost = device_hash_join(&cfg(), 0, &rk, &rp, &sk, &sp, &mut sink);
        assert_eq!(cost.coalesced_bytes, 8 * 100_000 + 8 * 1000);
        assert_eq!(sink.matches(), 1000);
    }
}
