//! CPU join baselines: the state-of-the-art algorithms the paper compares
//! against (§V-B, "we directly use the source code provided by these
//! studies"):
//!
//! * **PRO** — the parallel radix join of Balkesen et al.: multi-pass,
//!   TLB-bounded radix partitioning with per-thread histograms and
//!   software-managed buffers, followed by cache-sized per-partition hash
//!   joins;
//! * **NPO** — the non-partitioned shared hash join of Blanas et al.: one
//!   global chained hash table built by all threads, probed in parallel.
//!
//! Both are *functionally real*: their outputs are validated against the
//! oracle. PRO groups both sides into dense runs with the workspace's
//! stable scatter ([`hcj_workload::Runs::group`]), and both join through
//! one chained hash table whose chains run in build order. PRO maps its
//! co-partitions, and NPO its probe chunks, on the host pool
//! (`hcj_host::Pool`), and both merge in item order, so their rows are
//! the same at every `--jobs`. Execution time comes from the calibrated
//! host model in `hcj-host`, scaled by the modeled thread count
//! (`threads`) and cache behaviour — see DESIGN.md for the calibration
//! argument. The machine defaults to the paper's dual 12-core Xeon, on
//! which both algorithms run all 48 hardware threads in the figures.

pub mod model;
pub mod npo;
pub mod partition;
pub mod pro;
mod table;

pub use model::CpuJoinOutcome;
pub use npo::NpoJoin;
pub use pro::ProJoin;
