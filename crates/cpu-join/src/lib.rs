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
//! Both are *functionally real* (multithreaded via std::thread::scope, outputs
//! validated against the oracle). They start their own threads, at most
//! four, instead of mapping on the host pool: inside a `repro` figure worker
//! a pool map runs inline, and the largest PRO and NPO joins of fig08 and
//! fig12 are the long poles of `repro all`. Execution time comes from the
//! calibrated host model in `hcj-host`, scaled by thread count and cache
//! behaviour — see DESIGN.md for the calibration argument. The machine
//! defaults to the paper's dual 12-core Xeon, on which both algorithms run
//! all 48 hardware threads in the figures.

pub mod model;
pub mod npo;
pub mod partition;
pub mod pro;

pub use model::CpuJoinOutcome;
pub use npo::NpoJoin;
pub use pro::ProJoin;
