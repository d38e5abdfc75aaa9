//! Deterministic script-pipeline counters.
//!
//! Pure counters — no wall-clock — in the mold of the style system's
//! `StyleStats`, so the script bench can diff them byte-for-byte. The
//! engine fills these in as it loads and runs an app; `compiles` and
//! `dispatches` are the evidence that each program compiled once and
//! ran as bytecode.

/// Counters from the script execution pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScriptStats {
    /// Setup programs executed at app load.
    pub programs: u64,
    /// Bytecode compilations performed by the engine at load time.
    /// Independent of event count: each program compiles at most once
    /// per app load, and handlers alias its bytecode.
    pub compiles: u64,
    /// Setup programs served from the app's precompiled table (compiled
    /// once at `App::build`, validated by source fingerprint).
    pub precompiled_hits: u64,
    /// Distinct handler bodies entered in the shared `HandlerCache`.
    pub handlers: u64,
    /// Callback invocations dispatched by the engine.
    pub callbacks: u64,
    /// Evaluation steps charged (backend-independent: VM tick weights
    /// sum to exactly the tree-walker's count).
    pub ops: u64,
    /// Raw VM instructions executed (above `ops`: instructions with
    /// tick weight 0 dispatch without charging).
    pub dispatches: u64,
}
