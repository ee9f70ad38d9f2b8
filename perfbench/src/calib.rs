//! Host-speed calibration: a fixed kernel written here, independent of the
//! program, timed between rounds of a run.
//!
//! The host clock of a shared machine drifts: identical runs minutes apart
//! differ by a third in wall time, and user time drifts with it. The
//! calibration kernel slows down and speeds up with the machine, so the
//! host metrics divide the drift out: a rate is scaled by how much slower
//! than [`REFERENCE_S`] the kernel ran in the same run.

use std::time::Instant;

/// The kernel's time on the 2-core reference machine the bounds in
/// BENCHMARK.json were set on, in seconds. It fixes the scale of the
/// normalized host metrics only.
pub const REFERENCE_S: f64 = 0.13;

/// Slots of the open-addressing table: 2^21 x 8 B = 16 MiB, past the
/// caches, like the join kernels' hash tables.
const SLOTS: usize = 1 << 21;

/// Time one run of the calibration kernel: insert 2^20 keys into the
/// table, probe it 2^21 times (half hits), and sort 2^20 keys.
pub fn sample() -> f64 {
    let started = Instant::now();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state | 1
    };
    let slot = |k: u64| (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 43) as usize;
    let mut table = vec![0u64; SLOTS];
    let keys: Vec<u64> = (0..SLOTS / 2).map(|_| next()).collect();
    for &k in &keys {
        let mut i = slot(k);
        while table[i] != 0 {
            i = (i + 1) & (SLOTS - 1);
        }
        table[i] = k;
    }
    let mut hits = 0u64;
    for j in 0..SLOTS {
        let k = if j % 2 == 0 { keys[j * 7919 % keys.len()] } else { next() };
        let mut i = slot(k);
        while table[i] != 0 {
            if table[i] == k {
                hits += 1;
                break;
            }
            i = (i + 1) & (SLOTS - 1);
        }
    }
    let mut sorted: Vec<u64> = (0..SLOTS / 2).map(|_| next()).collect();
    sorted.sort_unstable();
    std::hint::black_box((hits, sorted));
    started.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    #[test]
    fn sample_takes_measurable_time() {
        let t = super::sample();
        assert!(t > 0.0 && t < 60.0, "{t}");
    }
}
