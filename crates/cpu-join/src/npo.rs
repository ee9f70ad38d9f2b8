//! NPO: the non-partitioned shared hash join (Blanas et al., SIGMOD'11).
//!
//! One global chained hash table over the build side, probed in parallel.
//! Hardware-oblivious by design: no partitioning pass, but every probe of
//! a larger-than-LLC table eats a cache (and possibly TLB) miss — the decay
//! visible in the paper's Figures 8 and 12.

use hcj_host::{HostSpec, Pool};
use hcj_workload::Relation;

use crate::model::{join_seconds, probe_rate, CpuJoinOutcome};
use crate::table::{merge, slots, ChainedTable};

/// Fewest probe tuples worth a chunk of their own.
const PROBE_CHUNK_MIN: usize = 1 << 14;

/// The NPO join.
#[derive(Clone, Debug)]
pub struct NpoJoin {
    pub host: HostSpec,
    pub threads: u32,
    pub materialize: bool,
}

impl NpoJoin {
    /// NPO as run in the paper: all 48 hardware threads.
    pub fn paper_default() -> Self {
        let host = HostSpec::dual_xeon_e5_2650l_v3();
        let threads = host.total_threads();
        NpoJoin { host, threads, materialize: false }
    }

    pub fn with_threads(mut self, threads: u32) -> Self {
        assert!(threads >= 1 && threads <= self.host.total_threads());
        self.threads = threads;
        self
    }

    /// Execute R ⨝ S.
    pub fn execute(&self, r: &Relation, s: &Relation) -> CpuJoinOutcome {
        // ---- functional execution: one table, probe chunks on the pool ----
        let table = ChainedTable::build(&r.keys, &r.payloads, 0);
        let pool = Pool::current();
        let chunks = pool.chunks(s.len(), PROBE_CHUNK_MIN);
        let (check, rows) = merge(pool.map(&chunks, |_, range| {
            table.probe(&s.keys[range.clone()], &s.payloads[range.clone()], self.materialize)
        }));

        // ---- timing model ----
        // Working set = the shared table (heads + links + tuples ≈ 16 B per
        // build tuple + 4 B per slot) probed by every thread; the whole
        // LLC of the machine is available to it.
        let table_bytes = r.bytes() * 2 + slots(r.len()) as u64 * 4;
        let llc_total = self.host.llc_bytes_per_core * u64::from(self.host.total_cores());
        let rate = probe_rate(&self.host, table_bytes, llc_total);
        let seconds = join_seconds(self.threads, (r.len() + s.len()) as u64, rate);

        CpuJoinOutcome {
            check,
            rows: if self.materialize { Some(rows) } else { None },
            seconds,
            tuples_in: (r.len() + s.len()) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcj_workload::generate::canonical_pair;
    use hcj_workload::oracle::{assert_join_matches, JoinCheck};
    use hcj_workload::RelationSpec;

    #[test]
    fn npo_matches_oracle() {
        let (r, s) = canonical_pair(10_000, 40_000, 81);
        let out = NpoJoin::paper_default().execute(&r, &s);
        assert_eq!(out.check, JoinCheck::compute(&r, &s));
    }

    #[test]
    fn npo_materialization_matches_oracle() {
        let (r, s) = canonical_pair(3_000, 9_000, 82);
        let mut npo = NpoJoin::paper_default();
        npo.materialize = true;
        let out = npo.execute(&r, &s);
        assert_join_matches(&r, &s, out.rows.as_ref().unwrap());
    }

    #[test]
    fn skewed_probe_matches_oracle() {
        let r = RelationSpec::unique(4096, 83).generate();
        let s = RelationSpec::zipf(20_000, 4096, 1.0, 84).generate();
        let out = NpoJoin::paper_default().execute(&r, &s);
        assert_eq!(out.check, JoinCheck::compute(&r, &s));
    }

    #[test]
    fn small_tables_probe_fast_large_tables_slow() {
        // The modeled per-tuple rate decays once the table exceeds the
        // machine's LLC (Fig. 8's NPO decay).
        let (r_small, s_small) = canonical_pair(100_000, 100_000, 85);
        let small = NpoJoin::paper_default().execute(&r_small, &s_small);
        let (r_big, s_big) = canonical_pair(8_000_000, 8_000_000, 86);
        let big = NpoJoin::paper_default().execute(&r_big, &s_big);
        assert!(
            small.throughput_tuples_per_s() > 1.5 * big.throughput_tuples_per_s(),
            "small {:.3e} vs big {:.3e}",
            small.throughput_tuples_per_s(),
            big.throughput_tuples_per_s()
        );
    }

    #[test]
    fn many_to_many_duplicates_counted() {
        let r: Relation =
            (0..100u32).map(|i| hcj_workload::Tuple { key: i % 10, payload: i }).collect();
        let s = r.clone();
        let out = NpoJoin::paper_default().execute(&r, &s);
        assert_eq!(out.check.matches, 1000); // 10 keys x 10 x 10
    }
}
