//! Non-partitioned GPU hash joins — the hardware-oblivious comparators of
//! paper Fig. 8.
//!
//! * **Chaining**: one global hash table in device memory over the whole
//!   build relation. Probing costs three to four *random* device-memory
//!   accesses per tuple (head slot, key, successor check, matched payload
//!   — paper §V-B), which is why throughput decays as the table outgrows
//!   what latency hiding can cover.
//! * **Perfect hash**: the best case the paper constructs for the
//!   non-partitioned family — unique keys from a contiguous range index a
//!   dense payload array directly, one random access per probe.

use hcj_gpu::{DeviceSpec, KernelCost};
use hcj_host::Pool;
use hcj_workload::oracle::JoinCheck;
use hcj_workload::Relation;

use crate::config::OutputMode;
use crate::join::{probe_chunks, ProbeTally, PROBE_PAR_MIN};
use crate::output::OutputSink;

/// Which non-partitioned variant to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NonPartitionedKind {
    /// Chained global hash table (the realistic variant).
    Chaining,
    /// Dense perfect-hash payload array (requires unique keys in a
    /// contiguous range; panics otherwise).
    PerfectHash,
}

/// Result of a non-partitioned join: correctness summary plus the traffic
/// of the build and probe kernels.
#[derive(Clone, Debug)]
pub struct NonPartitionedOutcome {
    pub check: JoinCheck,
    pub rows: Vec<(u32, u32, u32)>,
    pub build_cost: KernelCost,
    pub probe_cost: KernelCost,
}

impl NonPartitionedOutcome {
    /// Total kernel seconds on `device`, including the two launch
    /// overheads (build kernel + probe kernel).
    pub fn kernel_seconds(&self, device: &DeviceSpec) -> f64 {
        self.build_cost.time(device) + self.probe_cost.time(device) + 2.0 * device.launch_overhead_s
    }

    /// Hardware-counter snapshot on `device`. The non-partitioned variants
    /// are pure kernel-cost models (they never run through a simulated
    /// [`hcj_gpu::Gpu`]), so the counters are synthesized from the build
    /// and probe traffic at the same charge points a `Gpu` launch would
    /// record them.
    pub fn counters(&self, device: &DeviceSpec) -> hcj_gpu::CounterSet {
        let mut set = hcj_gpu::CounterSet::for_device(device);
        set.record_kernel(
            None,
            "build global table",
            &self.build_cost,
            hcj_gpu::LaunchShape::UNSHAPED,
            self.build_cost.time(device) + device.launch_overhead_s,
            device,
        );
        set.record_kernel(
            None,
            "probe global table",
            &self.probe_cost,
            hcj_gpu::LaunchShape::UNSHAPED,
            self.probe_cost.time(device) + device.launch_overhead_s,
            device,
        );
        set
    }
}

/// The non-partitioned GPU hash join.
#[derive(Clone, Debug)]
pub struct NonPartitionedJoin {
    pub kind: NonPartitionedKind,
    pub output: OutputMode,
    /// The device whose L2 capacity decides when the global table's
    /// random traffic is cache-resident (defaults to the paper's GPU).
    pub device: DeviceSpec,
}

impl NonPartitionedJoin {
    pub fn new(kind: NonPartitionedKind, output: OutputMode) -> Self {
        NonPartitionedJoin { kind, output, device: DeviceSpec::gtx1080() }
    }

    /// Execute over GPU-resident relations.
    pub fn execute(&self, r: &Relation, s: &Relation) -> NonPartitionedOutcome {
        match self.kind {
            NonPartitionedKind::Chaining => self.chaining(r, s),
            NonPartitionedKind::PerfectHash => self.perfect(r, s),
        }
    }

    fn chaining(&self, r: &Relation, s: &Relation) -> NonPartitionedOutcome {
        let slots = r.len().next_power_of_two().max(2);
        let mask = slots - 1;
        const NIL: u32 = u32::MAX;
        let mut heads = vec![NIL; slots];
        let mut next = vec![NIL; r.len()];
        // While the global table still fits the L2 cache its random
        // traffic is cheap — the reason non-partitioned joins look good on
        // small inputs before decaying (Fig. 8).
        let table_bytes = (slots * 4 + r.len() * 16) as u64;
        let in_l2 = table_bytes <= self.device.l2_bytes;
        let charge = |cost: &mut hcj_gpu::KernelCost, n: u64| {
            if in_l2 {
                cost.add_l2(n);
            } else {
                cost.add_random(n);
            }
        };

        let mut build_cost = KernelCost::ZERO;
        for (i, &key) in r.keys.iter().enumerate() {
            let h = (key as usize).wrapping_mul(0x9E37_79B1) >> 16 & mask;
            let old = heads[h];
            heads[h] = i as u32;
            next[i] = old;
        }
        build_cost.add_coalesced(8 * r.len() as u64); // scan build input
        build_cost.add_global_atomics(r.len() as u64); // atomicExch per insert
        charge(&mut build_cost, r.len() as u64); // link write
        build_cost.add_instructions(6 * r.len() as u64);

        let mut probe_cost = KernelCost::ZERO;
        probe_cost.add_coalesced(8 * s.len() as u64); // scan probe input
        let mut sink = OutputSink::new(self.output, 512);
        // Independent probe tuples: pool workers may scan chunks of the
        // probe side into forked sinks (see `probe_chunks`).
        let tally =
            probe_chunks(Pool::current(), s.len(), PROBE_PAR_MIN, &mut sink, |range, out| {
                let mut t = ProbeTally::default();
                for j in range {
                    let skey = s.keys[j];
                    let h = (skey as usize).wrapping_mul(0x9E37_79B1) >> 16 & mask;
                    let mut idx = heads[h];
                    while idx != NIL {
                        t.steps += 1;
                        let i = idx as usize;
                        if r.keys[i] == skey {
                            t.matches += 1;
                            out.emit(skey, r.payloads[i], s.payloads[j]);
                        }
                        idx = next[i];
                    }
                }
                t
            });
        charge(&mut probe_cost, s.len() as u64); // head slot per probe
                                                 // Key read + successor check per step; matched payload read.
        charge(&mut probe_cost, 2 * tally.steps + tally.matches);
        probe_cost.add_instructions(4 * s.len() as u64 + 3 * tally.steps);
        probe_cost += sink.cost();

        NonPartitionedOutcome {
            check: sink.check(),
            rows: sink.into_rows(),
            build_cost,
            probe_cost,
        }
    }

    fn perfect(&self, r: &Relation, s: &Relation) -> NonPartitionedOutcome {
        // Dense array indexed by key: requires the micro-benchmark's
        // unique contiguous keys.
        let max_key = r.keys.iter().copied().max().unwrap_or(0);
        assert!(
            (max_key as usize) < r.len() * 2 + 2,
            "perfect hashing requires keys from a contiguous range"
        );
        const EMPTY: u32 = u32::MAX;
        let mut table = vec![EMPTY; max_key as usize + 1];
        let mut build_cost = KernelCost::ZERO;
        for (i, &key) in r.keys.iter().enumerate() {
            assert!(table[key as usize] == EMPTY, "perfect hashing requires unique keys");
            table[key as usize] = r.payloads[i];
        }
        let in_l2 = (table.len() * 4) as u64 <= self.device.l2_bytes;
        let charge = |cost: &mut hcj_gpu::KernelCost, n: u64| {
            if in_l2 {
                cost.add_l2(n);
            } else {
                cost.add_random(n);
            }
        };
        build_cost.add_coalesced(8 * r.len() as u64);
        charge(&mut build_cost, r.len() as u64); // one scattered store per tuple
        build_cost.add_instructions(3 * r.len() as u64);

        let mut probe_cost = KernelCost::ZERO;
        probe_cost.add_coalesced(8 * s.len() as u64);
        let mut sink = OutputSink::new(self.output, 512);
        // One dense-array load per probe: no chain steps to tally.
        probe_chunks(Pool::current(), s.len(), PROBE_PAR_MIN, &mut sink, |range, out| {
            for j in range {
                let skey = s.keys[j];
                if let Some(&pay) = table.get(skey as usize) {
                    if pay != EMPTY {
                        out.emit(skey, pay, s.payloads[j]);
                    }
                }
            }
            ProbeTally::default()
        });
        charge(&mut probe_cost, s.len() as u64); // the single dense-array load
        probe_cost.add_instructions(3 * s.len() as u64);
        probe_cost += sink.cost();

        NonPartitionedOutcome {
            check: sink.check(),
            rows: sink.into_rows(),
            build_cost,
            probe_cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcj_workload::generate::canonical_pair;
    use hcj_workload::oracle::{assert_join_matches, JoinCheck};

    #[test]
    fn chaining_matches_oracle() {
        let (r, s) = canonical_pair(4096, 16384, 21);
        let out = NonPartitionedJoin::new(NonPartitionedKind::Chaining, OutputMode::Materialize)
            .execute(&r, &s);
        assert_join_matches(&r, &s, &out.rows);
        assert_eq!(out.check, JoinCheck::compute(&r, &s));
    }

    #[test]
    fn perfect_hash_matches_oracle() {
        let (r, s) = canonical_pair(4096, 16384, 22);
        let out = NonPartitionedJoin::new(NonPartitionedKind::PerfectHash, OutputMode::Materialize)
            .execute(&r, &s);
        assert_join_matches(&r, &s, &out.rows);
    }

    #[test]
    fn perfect_hash_needs_fewer_random_accesses() {
        let (r, s) = canonical_pair(8192, 8192, 23);
        let chain = NonPartitionedJoin::new(NonPartitionedKind::Chaining, OutputMode::Aggregate)
            .execute(&r, &s);
        let perfect =
            NonPartitionedJoin::new(NonPartitionedKind::PerfectHash, OutputMode::Aggregate)
                .execute(&r, &s);
        assert_eq!(chain.check, perfect.check);
        // 8K tuples: both tables are L2-resident; chaining needs ~3-4
        // transactions per probe vs exactly one for perfect hashing.
        let chain_tx = chain.probe_cost.random_transactions + chain.probe_cost.l2_transactions;
        let perfect_tx =
            perfect.probe_cost.random_transactions + perfect.probe_cost.l2_transactions;
        assert!(chain_tx > 2 * perfect_tx, "chaining {chain_tx} vs perfect {perfect_tx}");
    }

    #[test]
    fn aggregate_mode_keeps_no_rows() {
        let (r, s) = canonical_pair(512, 512, 24);
        let out = NonPartitionedJoin::new(NonPartitionedKind::Chaining, OutputMode::Aggregate)
            .execute(&r, &s);
        assert!(out.rows.is_empty());
        assert_eq!(out.check.matches, 512);
    }

    #[test]
    fn probe_miss_heavy_workload() {
        // Probe keys outside the build domain: no matches, chains walked
        // only on hash collisions.
        let (r, _) = canonical_pair(1024, 1, 25);
        let s: Relation =
            (0..2048u32).map(|i| hcj_workload::Tuple { key: 1_000_000 + i, payload: i }).collect();
        let out = NonPartitionedJoin::new(NonPartitionedKind::Chaining, OutputMode::Aggregate)
            .execute(&r, &s);
        assert_eq!(out.check.matches, 0);
    }

    #[test]
    #[should_panic(expected = "contiguous range")]
    fn perfect_hash_rejects_sparse_keys() {
        let r: Relation =
            [1u32, 1_000_000].iter().map(|&k| hcj_workload::Tuple { key: k, payload: k }).collect();
        let s = r.clone();
        let _ = NonPartitionedJoin::new(NonPartitionedKind::PerfectHash, OutputMode::Aggregate)
            .execute(&r, &s);
    }

    #[test]
    fn kernel_seconds_positive() {
        let (r, s) = canonical_pair(1000, 1000, 26);
        let out = NonPartitionedJoin::new(NonPartitionedKind::Chaining, OutputMode::Aggregate)
            .execute(&r, &s);
        assert!(out.kernel_seconds(&DeviceSpec::gtx1080()) > 0.0);
    }
}
