//! Offline stand-in for the `rand` crate.
//!
//! The workspace builds in environments without a crates.io mirror, so this
//! shim implements exactly the subset of the `rand` 0.8 API the sources use:
//! `StdRng`, `SeedableRng::seed_from_u64`, `Rng::{gen::<f64>, gen_range}`
//! and `seq::SliceRandom::shuffle`. The generator is xoshiro256++
//! seeded through SplitMix64 — deterministic for a fixed seed, which is the
//! only contract the graph generators rely on.

pub mod rngs;
pub mod seq;

pub use rngs::StdRng;

/// Core entropy source: everything derives from `next_u64`.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

/// Construction from seeds (subset: `seed_from_u64`).
pub trait SeedableRng: Sized {
    fn seed_from_u64(state: u64) -> Self;
}

/// Types that `Rng::gen` can produce (`f64` only).
pub trait Standard: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits -> uniform in [0, 1)
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges `Rng::gen_range` accepts.
pub trait SampleRange {
    type Output;
    fn sample_from<R: RngCore + ?Sized>(&self, rng: &mut R) -> Self::Output;
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            fn sample_from<R: RngCore + ?Sized>(&self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                // i128 arithmetic handles signed bounds and full-domain
                // spans without underflow (all supported types are <= 64 bit)
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
        impl SampleRange for core::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample_from<R: RngCore + ?Sized>(&self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128 + 1) as u128;
                (lo as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
    )*};
}

int_sample_range!(u8, u16, u32, u64, usize, i32, i64, isize);

impl SampleRange for core::ops::Range<f64> {
    type Output = f64;
    fn sample_from<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "gen_range: empty range");
        self.start + f64::sample(rng) * (self.end - self.start)
    }
}

impl SampleRange for core::ops::RangeInclusive<f64> {
    type Output = f64;
    fn sample_from<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        self.start() + f64::sample(rng) * (self.end() - self.start())
    }
}

/// User-facing convenience methods, blanket-implemented for every `RngCore`.
pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    fn gen_range<S: SampleRange>(&mut self, range: S) -> S::Output
    where
        Self: Sized,
    {
        range.sample_from(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v = rng.gen_range(3usize..17);
            assert!((3..17).contains(&v));
            let f = rng.gen::<f64>();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn gen_range_signed_and_extreme_bounds() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut saw_negative = false;
        for _ in 0..1000 {
            let v = rng.gen_range(-5i32..=5);
            assert!((-5..=5).contains(&v));
            saw_negative |= v < 0;
            let w = rng.gen_range(-100i64..100);
            assert!((-100..100).contains(&w));
            let full = rng.gen_range(i64::MIN..i64::MAX);
            assert!(full < i64::MAX);
        }
        assert!(saw_negative);
    }
}
