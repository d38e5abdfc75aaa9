//! Minimal property-based testing harness.
//!
//! A drop-in (if spartan) replacement for the subset of `proptest` the
//! workspace used: run a closure over `N` seeded random cases, and on
//! panic report the case index and the seed that reproduces it. There is
//! no shrinking — failures print the seed, and `check_seed` replays a
//! single case under a debugger.
//!
//! ```
//! use greenweb_det::prop::{check, Gen};
//!
//! check("addition commutes", 64, |g: &mut Gen| {
//!     let (a, b) = (g.rng.next_u64() >> 1, g.rng.next_u64() >> 1);
//!     assert_eq!(a + b, b + a);
//! });
//! ```

use crate::rng::DetRng;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Number of cases used by most suites; kept modest so `cargo test -q`
/// stays fast while still covering a meaningful input range.
pub const DEFAULT_CASES: u32 = 96;

/// Per-case generator handed to property closures.
pub struct Gen {
    /// The case's RNG stream; fully determines everything the case draws.
    pub rng: DetRng,
    size_hint: usize,
}

impl Gen {
    fn new(seed: u64, case: u32, cases: u32) -> Self {
        // Grow the size hint over the run so early cases are tiny (fast,
        // easy to debug) and later cases stress larger structures.
        let size_hint = 2 + (case as usize * 30) / (cases.max(1) as usize);
        Gen {
            rng: DetRng::new(seed),
            size_hint,
        }
    }

    /// Suggested collection size for this case (grows across the run).
    pub fn size(&self) -> usize {
        self.size_hint
    }

    /// Uniform `usize` in `[lo, hi)`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.rng.usize_in(lo, hi)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        self.rng.f64_in(lo, hi)
    }

    /// `true` with probability `p`.
    pub fn bool_with(&mut self, p: f64) -> bool {
        self.rng.gen_bool(p)
    }

    /// Uniformly pick from a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        self.rng.choose(items)
    }

    /// A vector of up to `max_len` items produced by `f`.
    pub fn vec_of<T>(&mut self, max_len: usize, mut f: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let len = self.usize_in(0, max_len + 1);
        (0..len).map(|_| f(self)).collect()
    }

    /// A string of `0..=max_len` chars drawn from `alphabet`.
    pub fn string_from(&mut self, alphabet: &[char], max_len: usize) -> String {
        let len = self.usize_in(0, max_len + 1);
        (0..len).map(|_| *self.rng.choose(alphabet)).collect()
    }

    /// An arbitrary (possibly multi-byte, possibly control-char) string —
    /// used for totality properties on parsers.
    pub fn arbitrary_string(&mut self, max_len: usize) -> String {
        let len = self.usize_in(0, max_len + 1);
        (0..len)
            .map(|_| {
                // Mix plain ASCII with exotic code points.
                match self.usize_in(0, 10) {
                    0 => char::from_u32(self.rng.u64_below(0xD800) as u32).unwrap_or('?'),
                    1 => *self.rng.choose(&['\u{0}', '\u{7f}', '\u{2028}', '🦀', 'é']),
                    _ => (32 + self.rng.u64_below(95) as u8) as char,
                }
            })
            .collect()
    }
}

fn base_seed(name: &str) -> u64 {
    // Stable across runs: derived from the property name only.
    crate::fnv1a(0x9E37_79B9_7F4A_7C15, name.as_bytes())
}

/// Run `property` over `cases` seeded random cases. Panics (re-raising the
/// original panic) if any case fails, after printing the case index and
/// seed needed to replay it with [`check_seed`].
pub fn check(name: &str, cases: u32, mut property: impl FnMut(&mut Gen)) {
    let base = base_seed(name);
    for case in 0..cases {
        let seed = base ^ (0xA5A5_5A5A_u64.wrapping_mul(case as u64 + 1));
        let mut g = Gen::new(seed, case, cases);
        let result = catch_unwind(AssertUnwindSafe(|| property(&mut g)));
        if let Err(payload) = result {
            eprintln!(
                "property '{name}' failed at case {case}/{cases} \
                 (replay with check_seed(\"{name}\", {seed:#x}))"
            );
            resume_unwind(payload);
        }
    }
}

/// Replay a single case of a property by seed (printed by [`check`] on
/// failure).
pub fn check_seed(name: &str, seed: u64, mut property: impl FnMut(&mut Gen)) {
    let _ = name;
    let mut g = Gen::new(seed, 0, 1);
    property(&mut g);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut count = 0u32;
        check("counter", 10, |_g| count += 1);
        assert_eq!(count, 10);
    }

    #[test]
    fn failing_property_panics() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            check("always fails", 5, |_g| panic!("boom"));
        }));
        assert!(result.is_err());
    }

    #[test]
    fn cases_are_deterministic() {
        let mut first: Vec<u64> = Vec::new();
        check("det-a", 8, |g| first.push(g.rng.next_u64()));
        let mut second: Vec<u64> = Vec::new();
        check("det-a", 8, |g| second.push(g.rng.next_u64()));
        assert_eq!(first, second);
    }

    #[test]
    fn generators_respect_bounds() {
        check("bounds", 32, |g| {
            let v = g.vec_of(5, |g| g.usize_in(0, 3));
            assert!(v.len() <= 5);
            assert!(v.iter().all(|&x| x < 3));
            let s = g.string_from(&['a', 'b'], 4);
            assert!(s.len() <= 4);
            let t = g.arbitrary_string(6);
            assert!(t.chars().count() <= 6);
        });
    }
}
