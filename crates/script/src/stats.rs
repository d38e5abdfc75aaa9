//! Deterministic script-pipeline counters.
//!
//! Pure counters — no wall-clock — in the mold of the style system's
//! `StyleStats`, so the script bench and the script-backend parity test can diff
//! them byte-for-byte. The engine fills these in as it loads and runs an
//! app; `ops` is backend-independent by the tick-parity contract, while
//! `dispatches`/`fold_wins` are VM-path-only evidence that compilation
//! actually happened (and paid off).

/// Counters from the script execution pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScriptStats {
    /// Setup programs executed at app load.
    pub programs: u64,
    /// Bytecode compilations performed by the engine (load-time compiles
    /// plus handler recompiles). Independent of event count on the VM
    /// path: each program/handler compiles at most once per app load.
    pub compiles: u64,
    /// Setup programs served from the app's precompiled table (compiled
    /// once at `App::build`, validated by source fingerprint).
    pub precompiled_hits: u64,
    /// Distinct handler bodies entered in the shared `HandlerCache`.
    pub handlers: u64,
    /// Handler bodies recompiled from tree-walker AST closures — the
    /// compile-twice debt. Zero on the VM path.
    pub handler_recompiles: u64,
    /// Callback invocations dispatched by the engine.
    pub callbacks: u64,
    /// Evaluation steps charged (backend-independent: VM tick weights
    /// sum to exactly the tree-walker's count).
    pub ops: u64,
    /// Raw VM instructions executed (zero on the tree-walk oracle; the
    /// gap to `ops` is the constant-folding win at run time).
    pub dispatches: u64,
    /// Constant-folding wins across every proto the engine loaded.
    pub fold_wins: u64,
}

impl ScriptStats {
    /// Field-wise sum of two counter sets.
    pub fn merge(&self, other: &ScriptStats) -> ScriptStats {
        ScriptStats {
            programs: self.programs + other.programs,
            compiles: self.compiles + other.compiles,
            precompiled_hits: self.precompiled_hits + other.precompiled_hits,
            handlers: self.handlers + other.handlers,
            handler_recompiles: self.handler_recompiles + other.handler_recompiles,
            callbacks: self.callbacks + other.callbacks,
            ops: self.ops + other.ops,
            dispatches: self.dispatches + other.dispatches,
            fold_wins: self.fold_wins + other.fold_wins,
        }
    }

    /// Field-wise difference `self - earlier` (saturating), for
    /// before/after deltas around a measured region.
    pub fn delta_since(&self, earlier: &ScriptStats) -> ScriptStats {
        ScriptStats {
            programs: self.programs.saturating_sub(earlier.programs),
            compiles: self.compiles.saturating_sub(earlier.compiles),
            precompiled_hits: self
                .precompiled_hits
                .saturating_sub(earlier.precompiled_hits),
            handlers: self.handlers.saturating_sub(earlier.handlers),
            handler_recompiles: self
                .handler_recompiles
                .saturating_sub(earlier.handler_recompiles),
            callbacks: self.callbacks.saturating_sub(earlier.callbacks),
            ops: self.ops.saturating_sub(earlier.ops),
            dispatches: self.dispatches.saturating_sub(earlier.dispatches),
            fold_wins: self.fold_wins.saturating_sub(earlier.fold_wins),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_and_delta_are_field_wise() {
        let a = ScriptStats {
            programs: 1,
            compiles: 2,
            precompiled_hits: 1,
            handlers: 3,
            handler_recompiles: 0,
            callbacks: 10,
            ops: 100,
            dispatches: 80,
            fold_wins: 4,
        };
        let b = a.merge(&a);
        assert_eq!(b.ops, 200);
        assert_eq!(b.dispatches, 160);
        assert_eq!(b.delta_since(&a), a);
        assert_eq!(a.delta_since(&b), ScriptStats::default());
    }
}
