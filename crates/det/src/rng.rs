//! Seedable deterministic PRNG.
//!
//! xoshiro256++ by Blackman & Vigna (public domain), seeded through
//! SplitMix64 as the authors recommend. Not cryptographic — statistical
//! quality is more than sufficient for trace synthesis, fault schedules,
//! and test-case generation, and the implementation is ~40 lines with no
//! dependencies.

/// SplitMix64 step: used for seeding and for deriving fork seeds.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    mix64(*state)
}

/// The SplitMix64 output finalizer: a bijective 64-bit mix in which
/// every input bit affects every output bit (full avalanche). Also
/// serves as a one-word hash step for content fingerprints.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a hash of a label, used to give [`DetRng::fork`] streams
/// independent, order-insensitive seeds.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A deterministic, seedable random number generator (xoshiro256++).
///
/// Two generators built from the same seed produce identical streams on
/// every platform. Use [`DetRng::fork`] to derive independent substreams
/// (e.g. one per fault category) whose outputs do not depend on how much
/// the parent or sibling streams have been consumed.
#[derive(Debug, Clone)]
pub struct DetRng {
    s: [u64; 4],
    seed: u64,
}

impl DetRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s, seed }
    }

    /// The seed this generator (or its fork ancestor) was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive an independent substream identified by `label`.
    ///
    /// Forking depends only on the original seed and the label, never on
    /// how many values have been drawn, so adding a new consumer cannot
    /// perturb existing streams.
    pub fn fork(&self, label: &str) -> DetRng {
        DetRng::new(self.seed ^ fnv1a(label.as_bytes()))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high-quality mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`. `lo` must be `<= hi`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi, "f64_in: empty range {lo}..{hi}");
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform `u64` in `[0, bound)`. `bound` must be non-zero.
    pub fn u64_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "u64_below: zero bound");
        // Lemire-style widening-multiply rejection is unnecessary here;
        // a 128-bit multiply keeps the bias below 2^-64 without a loop.
        (((self.next_u64() as u128) * (bound as u128)) >> 64) as u64
    }

    /// Uniform `usize` in `[lo, hi)`. `lo` must be `< hi`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "usize_in: empty range {lo}..{hi}");
        lo + self.u64_below((hi - lo) as u64) as usize
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Uniformly pick a reference from a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose: empty slice");
        &items[self.usize_in(0, items.len())]
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.usize_in(0, i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should be essentially uncorrelated");
    }

    #[test]
    fn fork_is_independent_of_consumption() {
        let mut a = DetRng::new(7);
        let b = DetRng::new(7);
        for _ in 0..10 {
            a.next_u64();
        }
        let mut fa = a.fork("x");
        let mut fb = b.fork("x");
        for _ in 0..32 {
            assert_eq!(fa.next_u64(), fb.next_u64());
        }
    }

    #[test]
    fn fork_labels_give_distinct_streams() {
        let r = DetRng::new(9);
        let (mut a, mut b) = (r.fork("alpha"), r.fork("beta"));
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = DetRng::new(3);
        for _ in 0..1000 {
            let x = r.usize_in(5, 17);
            assert!((5..17).contains(&x));
            let f = r.f64_in(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&f));
            let u = r.u64_below(6);
            assert!(u < 6);
        }
    }

    #[test]
    fn gen_bool_probability_roughly_holds() {
        let mut r = DetRng::new(11);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "got {hits} hits for p=0.25");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = DetRng::new(5);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
