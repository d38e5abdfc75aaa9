//! Deterministic utilities shared across the workspace.
//!
//! Everything in the simulator that needs randomness — synthetic
//! interaction traces, fault-injection schedules, property-test inputs —
//! must be reproducible from a single `u64` seed so that any run can be
//! replayed bit-for-bit. This crate provides:
//!
//! * [`DetRng`]: a small, fast, seedable PRNG (xoshiro256++ seeded via
//!   SplitMix64) with convenience samplers and labelled [`DetRng::fork`]
//!   for independent substreams.
//! * [`mix64`]: the SplitMix64 finalizer, a full-avalanche one-word mix
//!   (the engine's render pass builds its content fingerprints on it).
//! * [`prop`]: a minimal property-based testing harness (seeded case
//!   generation, failure reporting with the reproducing seed) used by the
//!   per-crate `prop_*.rs` test suites.
//!
//! The crate is intentionally dependency-free: the build environment has
//! no network access to a crates.io mirror, so `rand`/`proptest` cannot be
//! used. The algorithms here are public-domain reference constructions.

#![forbid(unsafe_code)]

pub mod prop;
pub mod rng;

pub use rng::{mix64, DetRng};
