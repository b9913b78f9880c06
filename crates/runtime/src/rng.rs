//! Seeded, splittable PRNG: xoshiro256++ state seeded through SplitMix64.
//!
//! This is the single source of randomness for the whole workspace. The
//! generator is deterministic per seed, `Send`, cheap to fork
//! ([`Rng::split`] / [`Rng::derive`]), and exposes exactly the sampling
//! surface the models use: uniform ranges over the common numeric types,
//! Bernoulli draws, Gaussians, and slice shuffling/choice.
//!
//! Parallel determinism contract: derive one child stream per task *before*
//! fanning out (`rng.derive(task_index)` or a serial loop of `rng.split()`),
//! then hand each task its own child. Results are then byte-identical at any
//! worker count because no task ever touches the parent stream.

/// SplitMix64 step — used to expand a 64-bit seed into generator state and
/// to mix derived-stream keys.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256++ generator (Blackman & Vigna), seeded via SplitMix64.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Build a generator from a 64-bit seed. Same seed ⇒ same stream.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s =
            [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)];
        Rng { s }
    }

    /// Next raw 64 bits (xoshiro256++ output function).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// The raw generator state — lets checkpoint/restore code (the switch
    /// controller snapshot) persist an RNG mid-stream.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuild a generator from a [`Self::state`] snapshot, resuming the
    /// stream exactly where it was captured.
    pub fn from_state(s: [u64; 4]) -> Self {
        Rng { s }
    }

    /// Fork a child stream, advancing this generator by one draw.
    pub fn split(&mut self) -> Rng {
        let seed = self.next_u64();
        Rng::seed_from_u64(seed)
    }

    /// Derive the `stream`-th child without mutating this generator.
    ///
    /// Every call with the same `(state, stream)` pair yields the same
    /// child, which is what makes fan-out order-independent: derive child
    /// `i` for task `i`, in any order, on any thread.
    pub fn derive(&self, stream: u64) -> Rng {
        let mut key = self.s[0]
            ^ self.s[1].rotate_left(17)
            ^ self.s[2].rotate_left(31)
            ^ self.s[3].rotate_left(47)
            ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Rng::seed_from_u64(splitmix64(&mut key))
    }

    /// Uniform f64 in `[0, 1)` with 53 random bits.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform f32 in `[0, 1)` with 24 random bits.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Uniform draw from a range: `rng.gen_range(0..10)`,
    /// `rng.gen_range(0.0..1.0)`, `rng.gen_range(1u8..=255)`, …
    #[inline]
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// Bernoulli draw with success probability `p`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Standard normal via Box–Muller.
    pub fn normal(&mut self) -> f64 {
        let u1 = self.next_f64().max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Uniform u64 in `[0, bound)` via 128-bit multiply-shift.
    #[inline]
    fn bounded_u64(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// Types [`Rng::gen_range`] can sample uniformly from a range.
pub trait SampleUniform: Copy + PartialOrd {
    /// Uniform draw from `[lo, hi)`.
    fn sample_half_open(lo: Self, hi: Self, rng: &mut Rng) -> Self;
    /// Uniform draw from `[lo, hi]`.
    fn sample_inclusive(lo: Self, hi: Self, rng: &mut Rng) -> Self;
}

impl SampleUniform for f64 {
    #[inline]
    fn sample_half_open(lo: f64, hi: f64, rng: &mut Rng) -> f64 {
        assert!(lo < hi, "gen_range: empty f64 range");
        lo + (hi - lo) * rng.next_f64()
    }

    #[inline]
    fn sample_inclusive(lo: f64, hi: f64, rng: &mut Rng) -> f64 {
        assert!(lo <= hi, "gen_range: empty f64 range");
        lo + (hi - lo) * rng.next_f64()
    }
}

impl SampleUniform for f32 {
    #[inline]
    fn sample_half_open(lo: f32, hi: f32, rng: &mut Rng) -> f32 {
        assert!(lo < hi, "gen_range: empty f32 range");
        lo + (hi - lo) * rng.next_f32()
    }

    #[inline]
    fn sample_inclusive(lo: f32, hi: f32, rng: &mut Rng) -> f32 {
        assert!(lo <= hi, "gen_range: empty f32 range");
        lo + (hi - lo) * rng.next_f32()
    }
}

macro_rules! int_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_half_open(lo: $t, hi: $t, rng: &mut Rng) -> $t {
                assert!(lo < hi, "gen_range: empty integer range");
                let span = (hi as i128 - lo as i128) as u64;
                (lo as i128 + rng.bounded_u64(span) as i128) as $t
            }

            #[inline]
            fn sample_inclusive(lo: $t, hi: $t, rng: &mut Rng) -> $t {
                assert!(lo <= hi, "gen_range: empty inclusive range");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + rng.bounded_u64(span + 1) as i128) as $t
            }
        }
    )*};
}

int_sample_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Range shapes [`Rng::gen_range`] accepts. The blanket impls tie the
/// output type to the range's element type, so literal ranges infer the
/// same way they did under `rand` (`0.3 + rng.gen_range(-0.05..0.05)`
/// resolves to `f32` when the context wants `f32`).
pub trait SampleRange<T> {
    fn sample(self, rng: &mut Rng) -> T;
}

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    #[inline]
    fn sample(self, rng: &mut Rng) -> T {
        T::sample_half_open(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    #[inline]
    fn sample(self, rng: &mut Rng) -> T {
        T::sample_inclusive(*self.start(), *self.end(), rng)
    }
}

/// Shuffling and sampling helpers on slices, mirroring the subset of
/// `rand::seq::SliceRandom` the workspace uses.
pub trait SliceRandom {
    type Item;

    /// In-place Fisher–Yates shuffle.
    fn shuffle(&mut self, rng: &mut Rng);

    /// One uniformly chosen element, or `None` if empty.
    fn choose<'a>(&'a self, rng: &mut Rng) -> Option<&'a Self::Item>;

    /// `amount` distinct elements, sampled without replacement (fewer if the
    /// slice is shorter). Returns an iterator of references so call sites
    /// can `.copied().collect()`.
    fn choose_multiple<'a>(
        &'a self,
        rng: &mut Rng,
        amount: usize,
    ) -> ChooseMultiple<'a, Self::Item>;
}

impl<T> SliceRandom for [T] {
    type Item = T;

    fn shuffle(&mut self, rng: &mut Rng) {
        for i in (1..self.len()).rev() {
            let j = rng.gen_range(0..=i);
            self.swap(i, j);
        }
    }

    fn choose<'a>(&'a self, rng: &mut Rng) -> Option<&'a T> {
        if self.is_empty() {
            None
        } else {
            Some(&self[rng.gen_range(0..self.len())])
        }
    }

    fn choose_multiple<'a>(&'a self, rng: &mut Rng, amount: usize) -> ChooseMultiple<'a, T> {
        let amount = amount.min(self.len());
        // Partial Fisher–Yates over an index table: the first `amount`
        // entries are a uniform sample without replacement.
        let mut indices: Vec<usize> = (0..self.len()).collect();
        for i in 0..amount {
            let j = rng.gen_range(i..indices.len().max(i + 1));
            indices.swap(i, j);
        }
        indices.truncate(amount);
        ChooseMultiple { slice: self, indices, pos: 0 }
    }
}

/// Iterator returned by [`SliceRandom::choose_multiple`].
pub struct ChooseMultiple<'a, T> {
    slice: &'a [T],
    indices: Vec<usize>,
    pos: usize,
}

impl<'a, T> Iterator for ChooseMultiple<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        let idx = *self.indices.get(self.pos)?;
        self.pos += 1;
        Some(&self.slice[idx])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.indices.len() - self.pos;
        (rem, Some(rem))
    }
}

impl<T> ExactSizeIterator for ChooseMultiple<'_, T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn state_round_trip_resumes_stream() {
        let mut a = Rng::seed_from_u64(42);
        for _ in 0..17 {
            a.next_u64();
        }
        let mut b = Rng::from_state(a.state());
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same == 0, "streams for different seeds should diverge");
    }

    #[test]
    fn derive_is_order_independent() {
        let rng = Rng::seed_from_u64(7);
        let mut c3 = rng.derive(3);
        let mut c1 = rng.derive(1);
        let mut c3_again = rng.derive(3);
        assert_eq!(c3.next_u64(), c3_again.next_u64());
        assert_ne!(c3.next_u64(), c1.next_u64());
    }

    #[test]
    fn gen_range_bounds() {
        let mut rng = Rng::seed_from_u64(9);
        for _ in 0..1000 {
            let f = rng.gen_range(0.25f32..0.75);
            assert!((0.25..0.75).contains(&f));
            let d = rng.gen_range(-2.0f64..3.0);
            assert!((-2.0..3.0).contains(&d));
            let u = rng.gen_range(5usize..17);
            assert!((5..17).contains(&u));
            let i = rng.gen_range(-4i32..=4);
            assert!((-4..=4).contains(&i));
            let b = rng.gen_range(1u8..=255);
            assert!(b >= 1);
        }
    }

    #[test]
    fn gen_range_covers_small_domain() {
        let mut rng = Rng::seed_from_u64(3);
        let mut seen = [false; 8];
        for _ in 0..500 {
            seen[rng.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets should be hit: {seen:?}");
    }

    #[test]
    fn uniform_mean_is_centered() {
        let mut rng = Rng::seed_from_u64(11);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng::seed_from_u64(13);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn gen_bool_probability() {
        let mut rng = Rng::seed_from_u64(17);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_800..3_200).contains(&hits), "hits {hits}");
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn shuffle_is_permutation_and_deterministic() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b: Vec<u32> = (0..50).collect();
        a.shuffle(&mut Rng::seed_from_u64(5));
        b.shuffle(&mut Rng::seed_from_u64(5));
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(a, sorted, "50 elements should not shuffle to identity");
    }

    #[test]
    fn choose_multiple_distinct_and_complete() {
        let items: Vec<usize> = (0..100).collect();
        let mut rng = Rng::seed_from_u64(19);
        let picked: Vec<usize> = items.choose_multiple(&mut rng, 30).copied().collect();
        assert_eq!(picked.len(), 30);
        let mut uniq = picked.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 30, "sample must be without replacement");
        // Requesting more than available returns everything.
        let all: Vec<usize> = items.choose_multiple(&mut rng, 500).copied().collect();
        assert_eq!(all.len(), 100);
    }

    #[test]
    fn choose_in_range() {
        let items = [10, 20, 30];
        let mut rng = Rng::seed_from_u64(23);
        for _ in 0..50 {
            assert!(items.contains(items.choose(&mut rng).unwrap()));
        }
        let empty: [u8; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }
}
