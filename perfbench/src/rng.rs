//! The seeded input stream.
//!
//! Everything a workload varies — process inputs, the Byzantine pid, drop
//! seeds, the crash victim — is drawn here from `--seed`; the product code
//! only ever sees the generated values. Each instance gets its own
//! sub-stream keyed by `(seed, instance)`, so instance `i` has the same
//! inputs however many instances a run gets through.

/// A splitmix64 stream.
pub struct SplitMix(u64);

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SplitMix {
    /// The sub-stream of instance `instance` under `seed`.
    pub fn for_instance(seed: u64, instance: u64) -> Self {
        SplitMix(mix(seed.wrapping_add(0x9e37_79b9_7f4a_7c15)) ^ mix(!instance))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// `n` coin flips.
    pub fn bools(&mut self, n: usize) -> Vec<bool> {
        (0..n).map(|_| self.next_u64() & 1 == 1).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let draw = |seed, instance| {
            let mut s = SplitMix::for_instance(seed, instance);
            (s.bools(32), s.below(32), s.next_u64())
        };
        assert_eq!(draw(1, 0), draw(1, 0));
        assert_eq!(draw(7, 12), draw(7, 12));
        assert_ne!(draw(1, 0), draw(2, 0));
        assert_ne!(draw(1, 0), draw(1, 1));
    }
}
