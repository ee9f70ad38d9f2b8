//! PRO: the parallel radix join (Balkesen et al., "Multi-core, main-memory
//! joins: sort vs. hash revisited", VLDB'13) — the paper's strongest CPU
//! comparator.
//!
//! Phases: (1) multi-pass TLB-bounded radix partitioning of both inputs to
//! cache-sized co-partitions; (2) a hash join per co-partition, each small
//! enough that its hash table lives in a core's share of the LLC. The
//! partition depth adapts to the input size; at very large inputs the
//! bounded fanout leaves partitions larger than the cache share and the
//! cache advantage erodes (paper §V-D).

use hcj_host::{HostSpec, Pool};
use hcj_workload::oracle::JoinCheck;
use hcj_workload::{Relation, Runs};

use crate::model::{join_seconds, partition_seconds, probe_rate, CpuJoinOutcome};
use crate::partition::passes_needed;
use crate::table::{merge, ChainedTable};

/// The PRO join.
#[derive(Clone, Debug)]
pub struct ProJoin {
    pub host: HostSpec,
    pub threads: u32,
    /// Collect result rows (otherwise aggregate-only, as in the figures).
    pub materialize: bool,
}

impl ProJoin {
    /// PRO as run in the paper: all 48 hardware threads.
    pub fn paper_default() -> Self {
        let host = HostSpec::dual_xeon_e5_2650l_v3();
        let threads = host.total_threads();
        ProJoin { host, threads, materialize: false }
    }

    pub fn with_threads(mut self, threads: u32) -> Self {
        assert!(threads >= 1 && threads <= self.host.total_threads());
        self.threads = threads;
        self
    }

    /// Radix depth for a build side of `r_tuples`: enough bits that the
    /// expected partition (16 B/tuple of table) fits half a core's LLC
    /// share, capped at two TLB-bounded passes (PRO's standard maximum).
    pub fn radix_bits_for(&self, r_tuples: usize) -> u32 {
        let tlb_bits = 31 - self.host.tlb_entries.leading_zeros();
        let target = (self.host.llc_bytes_per_core / 2 / 16).max(1) as usize;
        let mut bits = 0;
        while (r_tuples >> bits) > target && bits < 2 * tlb_bits {
            bits += 1;
        }
        bits
    }

    /// Execute R ⨝ S.
    pub fn execute(&self, r: &Relation, s: &Relation) -> CpuJoinOutcome {
        let tlb_bits = 31 - self.host.tlb_entries.leading_zeros();
        let bits = self.radix_bits_for(r.len());
        let passes = passes_needed(bits, tlb_bits);

        // ---- functional execution ----
        // One stable scatter per side gives the co-partitions the
        // TLB-bounded passes end at; each joins through its own table on
        // the host pool, merged in partition order.
        let fanout = 1usize << bits;
        let radix = |k: u32| k as usize & (fanout - 1);
        let group = |rel: &Relation| Runs::group(&rel.keys, &rel.payloads, fanout, radix);
        let (r_runs, s_runs) = (group(r), group(s));
        let partitions: Vec<usize> = (0..fanout).collect();
        let (check, rows) = merge(Pool::current().map(&partitions, |_, &p| {
            let ((rk, rp), (sk, sp)) = (r_runs.run(p), s_runs.run(p));
            if rk.is_empty() || sk.is_empty() {
                return (JoinCheck::ZERO, Vec::new());
            }
            ChainedTable::build(rk, rp, bits).probe(sk, sp, self.materialize)
        }));

        // ---- timing model ----
        let total_bytes = r.bytes() + s.bytes();
        let t_part = partition_seconds(&self.host, self.threads, total_bytes, passes);
        // Join-phase working set per partition: build table (~16 B/tuple)
        // plus the streamed probe slice.
        let partition_table_bytes = (r.bytes() / (1u64 << bits)).max(1) * 2;
        let rate = probe_rate(&self.host, partition_table_bytes, self.host.llc_bytes_per_core);
        let t_join = join_seconds(self.threads, (r.len() + s.len()) as u64, rate);

        CpuJoinOutcome {
            check,
            rows: if self.materialize { Some(rows) } else { None },
            seconds: t_part + t_join,
            tuples_in: (r.len() + s.len()) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcj_workload::generate::canonical_pair;
    use hcj_workload::oracle::assert_join_matches;

    #[test]
    fn pro_matches_oracle() {
        let (r, s) = canonical_pair(20_000, 80_000, 71);
        let out = ProJoin::paper_default().execute(&r, &s);
        assert_eq!(out.check, JoinCheck::compute(&r, &s));
        assert!(out.seconds > 0.0);
    }

    #[test]
    fn pro_materialization_matches_oracle() {
        let (r, s) = canonical_pair(5_000, 10_000, 72);
        let mut pro = ProJoin::paper_default();
        pro.materialize = true;
        let out = pro.execute(&r, &s);
        assert_join_matches(&r, &s, out.rows.as_ref().unwrap());
    }

    #[test]
    fn throughput_scales_with_threads() {
        let (r, s) = canonical_pair(50_000, 50_000, 73);
        let t8 = ProJoin::paper_default().with_threads(8).execute(&r, &s);
        let t32 = ProJoin::paper_default().with_threads(32).execute(&r, &s);
        assert_eq!(t8.check, t32.check);
        let speedup = t8.seconds / t32.seconds;
        assert!((3.0..4.5).contains(&speedup), "speedup = {speedup}");
    }

    #[test]
    fn radix_depth_adapts_to_input_size() {
        let pro = ProJoin::paper_default();
        let small = pro.radix_bits_for(100_000);
        let large = pro.radix_bits_for(1_000_000_000);
        assert!(small < large);
        // Two TLB-bounded passes cap the depth.
        let tlb_bits = 31 - pro.host.tlb_entries.leading_zeros();
        assert!(large <= 2 * tlb_bits);
        assert_eq!(pro.radix_bits_for(2_000_000_000), 2 * tlb_bits);
    }

    #[test]
    fn huge_inputs_lose_the_cache_advantage() {
        // Model-level check: per-tuple throughput at 2B tuples is lower
        // than at 64M because partitions outgrow the cache share.
        let pro = ProJoin::paper_default();
        let model_tput = |tuples: u64| {
            let bits = pro.radix_bits_for(tuples as usize);
            let passes = passes_needed(bits, 31 - pro.host.tlb_entries.leading_zeros());
            let t_part = partition_seconds(&pro.host, 48, tuples * 16, passes);
            let table = (tuples * 8 / (1u64 << bits)).max(1) * 2;
            let rate = probe_rate(&pro.host, table, pro.host.llc_bytes_per_core);
            let t_join = join_seconds(48, 2 * tuples, rate);
            2.0 * tuples as f64 / (t_part + t_join)
        };
        let at_64m = model_tput(64_000_000);
        let at_2g = model_tput(2_048_000_000);
        assert!(at_2g < at_64m, "64M: {at_64m:.3e}, 2G: {at_2g:.3e}");
    }
}
