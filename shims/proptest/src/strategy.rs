//! Value-generation strategies. Unlike real proptest there is no value
//! tree / shrinking: a strategy is just a deterministic function of an RNG.

use rand::{Rng, SampleRange, StdRng};

pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMap { inner: self, f }
    }
}

/// Constant strategy (`Just(v)`).
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut StdRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn generate(&self, rng: &mut StdRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

// Ranges are strategies: `0u64..50`, `1usize..=8`, `-100.0f64..100.0`, ...
impl<T> Strategy for core::ops::Range<T>
where
    core::ops::Range<T>: SampleRange<Output = T> + Clone,
{
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        rng.gen_range(self.clone())
    }
}

impl<T> Strategy for core::ops::RangeInclusive<T>
where
    core::ops::RangeInclusive<T>: SampleRange<Output = T> + Clone,
{
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        rng.gen_range(self.clone())
    }
}

macro_rules! tuple_strategy {
    ($(($($n:ident $idx:tt),+);)*) => {$(
        impl<$($n: Strategy),+> Strategy for ($($n,)+) {
            type Value = ($($n::Value,)+);
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A 0);
    (A 0, B 1);
    (A 0, B 1, C 2);
    (A 0, B 1, C 2, D 3);
    (A 0, B 1, C 2, D 3, E 4);
    (A 0, B 1, C 2, D 3, E 4, F 5);
}
