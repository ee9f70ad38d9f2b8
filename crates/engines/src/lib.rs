//! End-to-end engines for the system-level comparisons of paper §V-C
//! (Figs. 14–15).
//!
//! * [`HcjEngine`] — the paper's system: a planner that inspects data
//!   location and device capacity and dispatches to the right strategy
//!   from `hcj-core` (GPU-resident partitioned join; streamed probe when
//!   only the build side fits; CPU–GPU co-processing when nothing fits).
//! * [`DbmsXLike`] — a behavioural model of the commercial code-generating
//!   GPU DBMS the paper calls DBMS-X: caches tables in device memory up to
//!   a 32 M-tuple limit and runs a non-partitioned GPU hash join there;
//!   beyond the limit it executes the join over CPU-resident tables with
//!   zero-copy accesses (the 10x cliff at the right edge of Fig. 15);
//!   errors out when a working set exceeds what its allocator tolerates
//!   (the SF100 orders-join failure in Fig. 14).
//! * [`CoGaDbLike`] — a behavioural model of the operator-at-a-time
//!   research engine: a non-partitioned GPU join plus full materialization
//!   of every intermediate; cannot run joins whose build side exceeds
//!   device memory, and fails to load data sets past its internal resize
//!   limit (the SF100 failure).
//!
//! These are *models of published behaviour*, not re-implementations of
//! proprietary systems; DESIGN.md records the substitution.

#![warn(missing_docs)]

pub mod cache;
pub mod cogadb;
pub mod dag;
pub mod dbmsx;
pub mod exchange;
mod executor;
pub mod facade;
pub mod fleet;
mod lookahead;
pub mod result;
pub mod service;

pub use cache::{BuildCache, BuildCacheConfig, CachePeek, CacheReport, CachedTable};
pub use cogadb::CoGaDbLike;
pub use dag::{execute_plan, plan_envelope, OpReport, PlanRun};
pub use dbmsx::DbmsXLike;
pub use exchange::{execute_exchange, ExchangeConfig, ExchangeOutcome, ExchangeParticipant};
pub use facade::{HcjEngine, PlannedStrategy};
pub use fleet::{DeviceHealth, DeviceRollup, FleetConfig, FleetRollup, FleetService};
pub use result::{EngineError, EngineResult};
pub use service::{
    mixed_workload, plan_workload, skewed_workload, CacheRole, ClientSpec, JoinService, PlanShape,
    QuerySpec, RequestMetrics, RequestSpec, ServiceConfig, ServiceReport,
};
