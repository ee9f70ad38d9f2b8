//! The pass count of PRO's radix partitioning.
//!
//! PRO (Balkesen et al.) partitions in passes whose fanout the TLB bounds
//! (paper §II-B), so deeper fanouts take several passes. Every pass is
//! stable and the last one leaves partition `key & (2^bits - 1)`, so the
//! passes end at the layout one stable counting pass over all the bits
//! produces: PRO makes that one pass with [`hcj_workload::Runs::group`],
//! and the timing model charges [`passes_needed`] passes.

/// Number of passes PRO needs for `total_bits` at the TLB-bounded fanout.
pub fn passes_needed(total_bits: u32, bits_per_pass: u32) -> u32 {
    total_bits.div_ceil(bits_per_pass).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_math() {
        assert_eq!(passes_needed(0, 6), 1);
        assert_eq!(passes_needed(6, 6), 1);
        assert_eq!(passes_needed(7, 6), 2);
        assert_eq!(passes_needed(12, 6), 2);
        assert_eq!(passes_needed(13, 6), 3);
    }
}
