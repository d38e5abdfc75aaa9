//! The shared fuel (op budget) machinery behind every executor.
//!
//! The watchdog contract — count evaluation work, trip a *typed*
//! `op_limit` error at the ceiling — has one implementation, this
//! [`Fuel`] type: the bytecode VM meters through it, and so does the
//! test-only tree-walking oracle. `RunBudget.max_callback_ops` has
//! exactly one implementation to configure and the fleet supervisor
//! sees one error class.
//!
//! The unit of fuel is one *interpreter tick*: one visited statement or
//! expression node. The VM charges per-instruction weights from
//! [`crate::compiler::Proto::ticks`] that sum to exactly the same count
//! the tree-walker would have ticked, so a given budget means the same
//! amount of script work on either backend and the engine's cost model
//! (which converts ops to cycles) is backend-independent.

use crate::runtime::ScriptError;

/// Default maximum number of evaluation steps per `run`/`call` before an
/// infinite-loop error is raised.
pub const DEFAULT_OP_LIMIT: u64 = 50_000_000;

/// An op budget: the count of evaluation steps charged so far plus the
/// ceiling that trips the watchdog.
#[derive(Debug, Clone, Copy)]
pub struct Fuel {
    used: u64,
    limit: u64,
}

impl Fuel {
    /// Creates a budget with the given ceiling.
    pub fn new(limit: u64) -> Self {
        Fuel { used: 0, limit }
    }

    /// Charges one evaluation step.
    ///
    /// # Errors
    ///
    /// Returns the typed fuel-exhaustion error when the ceiling is
    /// exceeded.
    pub fn tick(&mut self) -> Result<(), ScriptError> {
        self.charge(1)
    }

    /// Charges `weight` evaluation steps at once (the VM charges each
    /// instruction's tick weight, 0 or 1). A zero weight is free and
    /// never trips the ceiling.
    ///
    /// # Errors
    ///
    /// Returns the typed fuel-exhaustion error when the ceiling is
    /// exceeded.
    pub fn charge(&mut self, weight: u64) -> Result<(), ScriptError> {
        if weight == 0 {
            return Ok(());
        }
        self.used += weight;
        if self.used > self.limit {
            return Err(ScriptError::op_limit(format!(
                "op limit exceeded after {} ops (possible infinite loop)",
                self.limit
            )));
        }
        Ok(())
    }

    /// Evaluation steps charged so far.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// The current ceiling.
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Retunes the ceiling on a live budget (the engine lowers
    /// `RunBudget.max_callback_ops` onto this).
    pub fn set_limit(&mut self, limit: u64) {
        self.limit = limit;
    }

    /// Resets the counter (the engine does this per callback so each
    /// callback's cost is measured independently).
    pub fn reset(&mut self) {
        self.used = 0;
    }
}

impl Default for Fuel {
    fn default() -> Self {
        Fuel::new(DEFAULT_OP_LIMIT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_exactly_past_the_ceiling() {
        let mut fuel = Fuel::new(3);
        assert!(fuel.tick().is_ok());
        assert!(fuel.charge(2).is_ok());
        let err = fuel.tick().unwrap_err();
        assert!(err.is_op_limit());
        assert!(err.to_string().contains("op limit"));
        assert_eq!(fuel.used(), 4);
    }

    #[test]
    fn zero_weight_is_free() {
        let mut fuel = Fuel::new(0);
        assert!(fuel.charge(0).is_ok());
        assert!(fuel.tick().is_err());
    }

    #[test]
    fn reset_and_retune() {
        let mut fuel = Fuel::new(2);
        fuel.charge(2).unwrap();
        fuel.reset();
        assert_eq!(fuel.used(), 0);
        fuel.set_limit(1);
        assert_eq!(fuel.limit(), 1);
        assert!(fuel.tick().is_ok());
        assert!(fuel.tick().is_err());
    }
}
