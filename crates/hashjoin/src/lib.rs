//! # hashjoin-gpu
//!
//! A from-scratch Rust reproduction of **"Hardware-conscious Hash-Joins on
//! GPUs"** (Sioulas, Chrysogelos, Karpathiotakis, Appuswamy, Ailamaki —
//! ICDE 2019): radix-partitioned GPU join algorithms tuned to GPU hardware
//! plus the out-of-GPU execution strategies that keep them fast when data
//! exceeds device memory.
//!
//! The GPU and the dual-socket host are *models* (see `DESIGN.md`): every
//! algorithm really computes its join on real data — warp ballots, bucket
//! chains, hash tables, knapsack packing and all — while the time it would
//! take on the paper's GTX 1080 + dual-Xeon testbed is computed by a
//! discrete-event hardware simulation.
//!
//! ## Quick start
//!
//! ```
//! use hashjoin_gpu::prelude::*;
//!
//! // The paper's micro-benchmark workload: narrow tuples, unique build
//! // keys, foreign-key probe side.
//! let (build, probe) = canonical_pair(64_000, 256_000, 42);
//!
//! // The paper's default configuration on its evaluation GPU.
//! let config = GpuJoinConfig::paper_default(DeviceSpec::gtx1080())
//!     .with_radix_bits(8)
//!     .with_tuned_buckets(64_000);
//! let join = GpuPartitionedJoin::new(config);
//! let outcome = join.execute(&build, &probe).expect("fits in device memory");
//!
//! assert_eq!(outcome.check.matches, 256_000);
//! println!("throughput: {:.2e} tuples/s", outcome.throughput_tuples_per_s());
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`core`] (`hcj-core`) | the paper's algorithms: partitioning, probes, out-of-GPU strategies, skew packing |
//! | [`gpu`] (`hcj-gpu`) | device model: warps, shared memory, streams/DMA, cost model, UVA/UM |
//! | [`host`] (`hcj-host`) | NUMA host model: sockets, QPI, thread pools, staging |
//! | [`sim`] (`hcj-sim`) | discrete-event engine under both models |
//! | [`workload`] (`hcj-workload`) | generators: uniform/zipf/replicated/TPC-H, oracle |
//! | [`cpu_join`] (`hcj-cpu-join`) | CPU baselines PRO and NPO |
//! | [`engines`] (`hcj-engines`) | planner facade, multi-tenant join service + DBMS-X/CoGaDB behavioural models |

pub use hcj_core as core;
pub use hcj_cpu_join as cpu_join;
pub use hcj_engines as engines;
pub use hcj_gpu as gpu;
pub use hcj_host as host;
pub use hcj_sim as sim;
pub use hcj_workload as workload;

/// The most common imports in one place.
pub mod prelude {
    pub use hcj_core::{
        CachedBuild, CachedBuildJoin, CoProcessingConfig, CoProcessingJoin, GpuJoinConfig,
        GpuPartitionedJoin, JoinOutcome, OutputMode, PassAssignment, Phase, ProbeKind,
        StreamedProbeConfig, StreamedProbeJoin,
    };
    pub use hcj_cpu_join::{NpoJoin, ProJoin};
    pub use hcj_engines::{
        execute_exchange, execute_plan, mixed_workload, plan_envelope, plan_workload,
        skewed_workload, BuildCache, BuildCacheConfig, CachePeek, CacheReport, CacheRole,
        ClientSpec, CoGaDbLike, DbmsXLike, DeviceHealth, DeviceRollup, ExchangeConfig,
        ExchangeOutcome, ExchangeParticipant, FleetConfig, FleetRollup, FleetService, HcjEngine,
        JoinService, OpReport, PlanRun, PlanShape, PlannedStrategy, QuerySpec, RequestSpec,
        ServiceConfig, ServiceReport,
    };
    pub use hcj_gpu::{DeviceSpec, ErrorClass, FaultConfig, FaultSummary, JoinError};
    pub use hcj_host::HostSpec;
    pub use hcj_sim::{Schedule, ScheduleValidator, TraceExporter};
    pub use hcj_workload::generate::canonical_pair;
    pub use hcj_workload::oracle::{
        composed_join_check, exchange_partition, partition_by_key, reference_join, JoinCheck,
    };
    pub use hcj_workload::plan::{
        chain_plan, plan_oracle, star_plan, PlanOp, PlanOracle, PlanSpec,
    };
    pub use hcj_workload::{
        BuildCatalog, BuildRef, CatalogRelation, KeyDistribution, PopularityStream, Relation,
        RelationSpec, Tuple,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn reexports_resolve() {
        use crate::prelude::*;
        let spec = DeviceSpec::gtx1080();
        let _ = GpuJoinConfig::paper_default(spec);
        let _ = HostSpec::dual_xeon_e5_2650l_v3();
    }
}
