//! Offline stand-in for the subset of the `rand` crate this workspace uses.
//!
//! The container this reproduction builds in has no crates.io access, so the
//! workspace vendors minimal, API-compatible implementations of its external
//! dependencies under `shims/`. This crate mirrors `rand` 0.8's surface as
//! exercised by the Concorde code: [`RngCore`], the [`Rng`] extension trait
//! (`gen`, `gen_bool`, `gen_range`), [`SeedableRng`] with `seed_from_u64`,
//! and [`seq::SliceRandom::shuffle`]. Streams are deterministic given a seed,
//! which is all the reproduction requires; no claim of statistical quality
//! beyond that is made.

/// Low-level uniform bit source.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for c in &mut chunks {
            c.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let b = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&b[..rem.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types that can be sampled uniformly from an RNG via [`Rng::gen`].
pub trait Standard: Sized {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty => $via:ident),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.$via() as $t
            }
        }
    )*};
}
impl_standard_int!(u8 => next_u32, u16 => next_u32, u32 => next_u32,
                   u64 => next_u64, usize => next_u64,
                   i8 => next_u32, i16 => next_u32, i32 => next_u32, i64 => next_u64);

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32() & 1 == 1
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 24 mantissa bits -> [0, 1).
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 mantissa bits -> [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Range types [`Rng::gen_range`] accepts.
pub trait SampleRange<T> {
    /// Draws a value uniformly from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// `x as u128 % span` for any `span >= 1`, with a 64-bit division: a span
/// above `u64::MAX` (a full 64-bit inclusive range) exceeds every `x`, which
/// it leaves as it is.
#[inline]
fn reduce(x: u64, span: u128) -> u64 {
    match u64::try_from(span) {
        Ok(s) => x % s,
        Err(_) => x,
    }
}

macro_rules! impl_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + reduce(rng.next_u64(), span) as i128) as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty inclusive range in gen_range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                (lo as i128 + reduce(rng.next_u64(), span) as i128) as $t
            }
        }
    )*};
}
impl_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_range_float {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let u = <$t as Standard>::sample(rng);
                self.start + (self.end - self.start) * u
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                let u = <$t as Standard>::sample(rng);
                lo + (hi - lo) * u
            }
        }
    )*};
}
impl_range_float!(f32, f64);

/// Convenience sampling methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Uniform sample of an inferred [`Standard`] type.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        f64::sample(self) < p
    }

    /// Uniform sample from `range` (half-open or inclusive).
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Seedable deterministic RNGs, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Raw seed type (byte array).
    type Seed: Default + AsMut<[u8]>;

    /// Constructs from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Expands a `u64` into a full seed with SplitMix64 (as `rand` does).
    fn seed_from_u64(mut state: u64) -> Self {
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let b = z.to_le_bytes();
            chunk.copy_from_slice(&b[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// Slice shuffling and selection, mirroring `rand::seq`.
pub mod seq {
    use super::RngCore;

    /// Subset of `rand::seq::SliceRandom` used by the workspace.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        /// Uniformly random element, `None` if empty.
        fn choose<'a, R: RngCore + ?Sized>(&'a self, rng: &mut R) -> Option<&'a Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                self.swap(i, j);
            }
        }

        fn choose<'a, R: RngCore + ?Sized>(&'a self, rng: &mut R) -> Option<&'a T> {
            if self.is_empty() {
                None
            } else {
                let i = (rng.next_u64() % self.len() as u64) as usize;
                self.get(i)
            }
        }
    }
}

/// `rand::rngs` placeholder for API parity.
pub mod rngs {}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone)]
    struct Counter(u64);
    impl RngCore for Counter {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Counter(7);
        for _ in 0..1000 {
            let v: u32 = r.gen_range(3..17);
            assert!((3..17).contains(&v));
            let w: i64 = r.gen_range(-5..=5);
            assert!((-5..=5).contains(&w));
            let f: f32 = r.gen_range(-2.0f32..2.0);
            assert!((-2.0..2.0).contains(&f));
            let u: f64 = r.gen();
            assert!((0.0..1.0).contains(&u));
        }
    }

    /// `gen_range` as it reduced before: the draw modulo the span in u128.
    fn wide_reference(r: &mut Counter, lo: i128, hi_inclusive: i128) -> i128 {
        let span = (hi_inclusive - lo) as u128 + 1;
        lo + ((r.next_u64() as u128) % span) as i128
    }

    #[test]
    fn gen_range_matches_the_u128_reduction() {
        let mut r = Counter(11);
        for _ in 0..2000 {
            let mut want = r.clone();
            let v: u64 = r.gen_range(0..=u64::MAX);
            assert_eq!(i128::from(v), wide_reference(&mut want, 0, u64::MAX.into()));

            let mut want = r.clone();
            let v: i64 = r.gen_range(i64::MIN..=i64::MAX);
            assert_eq!(
                i128::from(v),
                wide_reference(&mut want, i64::MIN.into(), i64::MAX.into())
            );

            let mut want = r.clone();
            let v: i64 = r.gen_range(i64::MIN..i64::MAX);
            assert_eq!(
                i128::from(v),
                wide_reference(&mut want, i64::MIN.into(), i128::from(i64::MAX) - 1)
            );

            // Spans above 2^32.
            let (lo, hi) = (-(3i64 << 40), 5i64 << 33);
            let mut want = r.clone();
            let v: i64 = r.gen_range(lo..hi);
            assert_eq!(
                i128::from(v),
                wide_reference(&mut want, lo.into(), (hi - 1).into())
            );

            let mut want = r.clone();
            let v: u64 = r.gen_range((1u64 << 32) + 7..=u64::MAX - 3);
            assert_eq!(
                i128::from(v),
                wide_reference(&mut want, ((1u64 << 32) + 7).into(), (u64::MAX - 3).into())
            );

            let mut want = r.clone();
            let v: usize = r.gen_range(0..usize::MAX);
            assert_eq!(
                v as i128,
                wide_reference(&mut want, 0, usize::MAX as i128 - 1)
            );

            // A narrow unsigned span keeps its value too.
            let mut want = r.clone();
            let v: u32 = r.gen_range(3..=17);
            assert_eq!(i128::from(v), wide_reference(&mut want, 3, 17));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        use seq::SliceRandom;
        let mut v: Vec<u32> = (0..100).collect();
        let mut r = Counter(3);
        v.shuffle(&mut r);
        let mut s = v.clone();
        s.sort_unstable();
        assert_eq!(s, (0..100).collect::<Vec<_>>());
    }
}
