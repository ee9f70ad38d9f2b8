//! The fault layer's generator (`hcj_gpu::faults::FaultRng`) is a copy of
//! the workload generator (`hcj_workload::rng::SmallRng`): `hcj-gpu` sits
//! below the workload crate and cannot use it. The copy must draw the
//! same stream, seed for seed, because fault verdicts and workloads share
//! test expectations.

use hcj_gpu::faults::FaultRng;
use hcj_workload::rng::{Rng, SmallRng};

#[test]
fn fault_rng_draws_the_workload_rng_stream() {
    for seed in [0, 1, 7, 0x9E37_79B9_7F4A_7C15, u64::MAX] {
        let (mut fault, mut workload) =
            (FaultRng::seed_from_u64(seed), SmallRng::seed_from_u64(seed));
        for draw in 0..256 {
            assert_eq!(fault.next_u64(), workload.next_u64(), "seed {seed:#x}, draw {draw}");
        }
        assert_eq!(fault.gen_f64(), workload.gen_f64(), "seed {seed:#x}: f64 draws");
    }
}
