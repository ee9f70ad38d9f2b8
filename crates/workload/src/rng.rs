//! Self-contained deterministic pseudo-randomness for workload generation.
//!
//! The workspace builds offline, so instead of the `rand` crate the
//! generators use this small module: a seeded xoshiro256** generator (the
//! same family `rand`'s `SmallRng` uses) behind a minimal [`Rng`] trait.
//! Everything downstream — relation generation, Zipf sampling, shuffles —
//! is a pure function of the seed, which the reproducibility of every
//! experiment (EXPERIMENTS.md) depends on.

/// Minimal random-source trait: a `u64` stream plus derived draws.
pub trait Rng {
    /// Next raw 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw from the inclusive range `lo..=hi`.
    fn gen_range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi, "empty range {lo}..={hi}");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        // Lemire's multiply-shift: maps the 64-bit stream onto the span
        // with bias below 2^-64 per draw — far under statistical noise.
        let mapped = ((u128::from(self.next_u64()) * u128::from(span + 1)) >> 64) as u64;
        lo + mapped
    }

    /// Fisher–Yates shuffle of `slice` in place.
    fn shuffle<T>(&mut self, slice: &mut [T])
    where
        Self: Sized,
    {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range_u64(0, i as u64) as usize;
            slice.swap(i, j);
        }
    }
}

/// A small, fast, seedable generator: xoshiro256** seeded via splitmix64.
#[derive(Clone, Debug)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SmallRng {
    /// Seed the full 256-bit state from one `u64` (splitmix64 expansion,
    /// the initialization xoshiro's authors recommend).
    pub fn seed_from_u64(seed: u64) -> Self {
        SmallRng { s: [0u64, 1, 2, 3].map(|k| mix64(seed.wrapping_add(k.wrapping_mul(GAMMA)))) }
    }
}

/// The splitmix64 increment.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One splitmix64 step: add the golden-ratio increment, then finalize. A
/// seed-free bijective 64-bit hash: it seeds [`SmallRng`], assigns
/// exchange partitions ([`crate::oracle::exchange_partition`]) and places
/// the fleet's ring points.
pub fn mix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng for SmallRng {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        let va: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        assert_eq!(va, vb);
        let mut c = SmallRng::seed_from_u64(8);
        assert_ne!(va, (0..32).map(|_| c.next_u64()).collect::<Vec<_>>());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_is_inclusive_and_covering() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            let v = rng.gen_range_u64(10, 14);
            assert!((10..=14).contains(&v));
            seen[(v - 10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 5 values drawn in 1000 tries");
    }

    #[test]
    fn range_mean_is_centered() {
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 100_000;
        let sum: u64 = (0..n).map(|_| rng.gen_range_u64(0, 100)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 50.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut v: Vec<u32> = (0..1000).collect();
        rng.shuffle(&mut v);
        assert_ne!(v[..10], (0..10).collect::<Vec<u32>>()[..]);
        v.sort_unstable();
        assert_eq!(v, (0..1000).collect::<Vec<u32>>());
    }

    #[test]
    fn degenerate_ranges() {
        let mut rng = SmallRng::seed_from_u64(5);
        assert_eq!(rng.gen_range_u64(42, 42), 42);
        let _ = rng.gen_range_u64(0, u64::MAX); // full span does not overflow
        let mut single = [1u32];
        rng.shuffle(&mut single);
        let mut empty: [u32; 0] = [];
        rng.shuffle(&mut empty);
    }
}
