//! The crate's one pseudo-random generator: SplitMix64 (Steele, Lea & Flood),
//! seeded by its raw state. Every model draws its bootstrap samples, feature
//! subsets, shuffles and initial weights from it, each call site keeping its
//! own mapping from [`SplitMix64::next_u64`] — a trained model is a pure
//! function of `(data, seed)`, so the stream is pinned by literal below.

#[derive(Debug, Clone)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.state;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `0..n` by multiply-shift.
    pub(crate) fn next_below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference implementation's test vector: a moved stream would
    /// retrain every saved model to different bytes.
    #[test]
    fn stream_is_the_reference_splitmix64() {
        let mut rng = SplitMix64::new(1234567);
        let first: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
        assert_eq!(first, [6457827717110365317, 3203168211198807973, 9817491932198370423]);
        let x = SplitMix64::new(7).next_f64();
        assert!((0.0..1.0).contains(&x));
        assert!((0..100).all(|_| rng.next_below(3) < 3));
    }
}
