//! The slice helper `shuffle`, mirroring `rand::seq::SliceRandom`.

use crate::{Rng, RngCore};

pub trait SliceRandom {
    type Item;

    /// Fisher–Yates shuffle in place.
    fn shuffle<R: RngCore>(&mut self, rng: &mut R);
}

impl<T> SliceRandom for [T] {
    type Item = T;

    fn shuffle<R: RngCore>(&mut self, rng: &mut R) {
        for i in (1..self.len()).rev() {
            let j = rng.gen_range(0..=i);
            self.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SeedableRng, StdRng};

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
