//! Workload generation for the join experiments.
//!
//! The paper adopts the workload used by the CPU-join literature
//! (Balkesen et al., Kim et al., Blanas et al.): two narrow tables of
//! `(4-byte key, 4-byte payload)` tuples in columnar layout, the smaller
//! used as build side. Key distributions vary per experiment:
//!
//! * unique uniform keys (most figures),
//! * Zipf-skewed foreign keys on the probe side, the build side, or both
//!   with identical skew (Figs. 17–18, 20),
//! * uniform with a fixed number of replicas per key (Fig. 19),
//! * TPC-H `customer`/`orders`/`lineitem` join columns (Fig. 14).
//!
//! Payload-width experiments (Figs. 9–10) use late materialization: the
//! 4-byte payload column holds row identifiers into a wide attribute table,
//! so functional execution stays 8 bytes/tuple and only the modeled
//! late-materialization traffic changes; [`Relation::payload_width`]
//! records the logical width.

pub mod catalog;
pub mod generate;
pub mod oracle;
pub mod plan;
pub mod relation;
pub mod rng;
pub mod runs;
pub mod tpch;
pub mod zipf;

pub use catalog::{BuildCatalog, BuildRef, CatalogRelation, PopularityStream};
pub use generate::{KeyDistribution, RelationSpec};
pub use oracle::{
    composed_join_check, exchange_partition, partition_by_key, reference_join, JoinCheck,
};
pub use plan::{chain_plan, plan_oracle, star_plan, PlanOp, PlanOracle, PlanSpec};
pub use relation::{build_is_left, Relation, Tuple};
pub use rng::{Rng, SmallRng};
pub use runs::Runs;
pub use zipf::ZipfSampler;
