//! Pass 3: bytecode cost bounds.
//!
//! Each registered handler closure is compiled to the stack-machine
//! bytecode and walked by the shared abstract interpreter
//! (`absint`) under the cost domain below. A path carries the
//! work it guarantees: instruction ticks, and `work()`/`gpuWork()`
//! payloads with concrete arguments. Counted loops unroll, so their
//! payloads accumulate. At a branch on ⊤ the *cheaper* arm is kept, and
//! whatever the walk cannot follow (an unresolved callee, recursion, a
//! truncated path) contributes nothing, which makes every reported
//! figure a **lower bound** on the work any real execution performs. A
//! back edge guarded by a ⊤ condition is an unbounded loop: it is
//! reported (GW031) and the walk takes the exit edge, so the loop
//! contributes nothing to the bound — ⊤, not an error.

use crate::absint::{self, AbsVal, Domain, Globals, Scopes};
use crate::ScriptUnit;
use greenweb_script::compiler::Proto;
use greenweb_script::Value;
use std::collections::HashSet;
use std::ops::ControlFlow;
use std::sync::Arc;

/// The statically derived cost lower bound of one handler.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HandlerCost {
    /// Charged evaluation steps along the cheapest path, in tick-weight
    /// units — the same per-instruction weights the engine's VM charges
    /// against `RunBudget`, so this figure is directly comparable to
    /// `Span.ops`. Still informational for feasibility verdicts (it is a
    /// lower bound over one path, not a guarantee).
    pub ops: f64,
    /// Explicit `work(cycles)` guaranteed on every path.
    pub work_cycles: f64,
    /// Explicit `gpuWork(ms)` guaranteed on every path.
    pub gpu_ms: f64,
    /// Number of distinct loops whose bound is not statically countable.
    pub unbounded_loops: usize,
    /// The exploration ran out of fuel; the figures are still lower
    /// bounds, but termination behaviour is unknown, so feasibility
    /// verdicts must not be drawn from them.
    pub fuel_exhausted: bool,
}

impl HandlerCost {
    /// Sums two handler costs (multiple callbacks on one target all run).
    pub fn plus(&self, other: &HandlerCost) -> HandlerCost {
        HandlerCost {
            ops: self.ops + other.ops,
            work_cycles: self.work_cycles + other.work_cycles,
            gpu_ms: self.gpu_ms + other.gpu_ms,
            unbounded_loops: self.unbounded_loops + other.unbounded_loops,
            fuel_exhausted: self.fuel_exhausted || other.fuel_exhausted,
        }
    }

    /// The frequency-scalable + independent time guaranteed at an
    /// execution rate of `cycles_per_ms`, in milliseconds.
    pub fn guaranteed_ms(&self, cycles_per_ms: f64) -> f64 {
        self.work_cycles / cycles_per_ms + self.gpu_ms
    }
}

/// Cost accumulated along one abstract execution path.
#[derive(Debug, Clone, Copy, Default)]
struct PathCost {
    ops: f64,
    work_cycles: f64,
    gpu_ms: f64,
}

/// The cost-bound analyzer for one application's scripts.
#[derive(Debug, Default)]
pub struct CostAnalyzer {
    /// The global names calls resolve against. Calls to ambiguous or
    /// poisoned names contribute nothing, which keeps the bound sound.
    globals: Globals,
    /// Nominal execution rate (cycles per ms) used only to order paths.
    rate_cycles_per_ms: f64,
}

impl CostAnalyzer {
    /// Builds the function table from the app's setup scripts. Scripts
    /// that fail to parse or compile are skipped (the front-end pass has
    /// already reported them).
    pub fn new(scripts: &[String], rate_cycles_per_ms: f64) -> Self {
        Self::from_units(&crate::parse_units(scripts, |_| None), rate_cycles_per_ms)
    }

    /// Like [`CostAnalyzer::new`], from pre-parsed script units shared
    /// with the effect pass.
    pub(crate) fn from_units(units: &[ScriptUnit], rate_cycles_per_ms: f64) -> Self {
        CostAnalyzer {
            globals: Globals::new(units),
            rate_cycles_per_ms: rate_cycles_per_ms.max(1.0),
        }
    }

    /// Analyzes one registered listener callback. Returns `None` when
    /// the value is not a VM closure. The closure's own prototype table
    /// is walked, so the bound is on the bytecode the engine executes.
    pub fn analyze_callback(&self, callback: &Value) -> Option<HandlerCost> {
        let Value::VmFunction(closure) = callback else {
            return None;
        };
        Some(self.explore_entry(closure.protos(), closure.proto()))
    }

    fn explore_entry(&self, protos: &Arc<Vec<Proto>>, main: usize) -> HandlerCost {
        let mut domain = CostDomain {
            analyzer: self,
            fuel_exhausted: false,
            unbounded: HashSet::new(),
        };
        let cost = absint::walk(&mut domain, protos, main);
        HandlerCost {
            ops: cost.ops,
            work_cycles: cost.work_cycles,
            gpu_ms: cost.gpu_ms,
            unbounded_loops: domain.unbounded.len(),
            fuel_exhausted: domain.fuel_exhausted,
        }
    }
}

struct CostDomain<'a> {
    analyzer: &'a CostAnalyzer,
    fuel_exhausted: bool,
    /// `(proto, pc)` of every ⊤-guarded back edge seen (distinct loops).
    unbounded: HashSet<(usize, u32)>,
}

impl Domain for CostDomain<'_> {
    type Path = PathCost;

    fn globals(&self) -> &Globals {
        &self.analyzer.globals
    }

    fn empty(&self) -> PathCost {
        PathCost::default()
    }

    fn seq(&self, first: PathCost, then: PathCost) -> PathCost {
        PathCost {
            ops: first.ops + then.ops,
            work_cycles: first.work_cycles + then.work_cycles,
            gpu_ms: first.gpu_ms + then.gpu_ms,
        }
    }

    /// Keeps the arm with less guaranteed time (the feasibility metric),
    /// op count breaking ties.
    fn join(&self, taken: PathCost, fallthrough: PathCost) -> PathCost {
        let rate = self.analyzer.rate_cycles_per_ms;
        let time = |p: &PathCost| (p.work_cycles / rate + p.gpu_ms, p.ops);
        if time(&taken) <= time(&fallthrough) {
            taken
        } else {
            fallthrough
        }
    }

    /// Charges the instruction's tick weight — the same per-op cost the
    /// engine's VM charges against `RunBudget` — so the lint's op figures
    /// are in engine units (weight 1 when a hostile proto carries no tick
    /// table).
    fn charge(&self, path: &mut PathCost, proto: &Proto, pc: u32) {
        path.ops += f64::from(proto.ticks.get(pc as usize).copied().unwrap_or(1));
    }

    fn builtin(&self, name: &str, args: &[AbsVal], path: &mut PathCost) -> Option<AbsVal> {
        let total = match name {
            "work" => &mut path.work_cycles,
            "gpuWork" => &mut path.gpu_ms,
            _ => return None,
        };
        if let Some(AbsVal::Num(n)) = args.first() {
            *total += n.max(0.0);
        }
        Some(AbsVal::Null)
    }

    fn opaque(&self, path: PathCost) -> ControlFlow<PathCost, PathCost> {
        ControlFlow::Continue(path)
    }

    fn returned(
        &self,
        path: PathCost,
        callee: PathCost,
        _scopes: &mut Scopes,
    ) -> ControlFlow<PathCost, PathCost> {
        ControlFlow::Continue(self.seq(path, callee))
    }

    fn out_of_fuel(&mut self, path: PathCost) -> PathCost {
        self.fuel_exhausted = true;
        path
    }

    fn uncountable_loop(&mut self, proto: &Proto, pc: u32) -> ControlFlow<PathCost> {
        self.unbounded.insert((proto as *const Proto as usize, pc));
        ControlFlow::Continue(())
    }

    fn recursion(&self) -> PathCost {
        PathCost::default()
    }

    fn unexplored(&self) -> PathCost {
        PathCost::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenweb_script::{compile, parse_program};

    fn handler(source: &str) -> HandlerCost {
        // Wrap the body as a parsed closure the way the browser stores
        // registered listeners.
        let program = parse_program(source).unwrap();
        let analyzer = CostAnalyzer::new(&[], 3.6e6);
        let compiled = compile(&program).unwrap();
        analyzer.explore_entry(&compiled.protos, compiled.main)
    }

    #[test]
    fn straight_line_work_counts() {
        let c = handler("work(1000000); gpuWork(2);");
        assert_eq!(c.work_cycles, 1_000_000.0);
        assert_eq!(c.gpu_ms, 2.0);
        assert_eq!(c.unbounded_loops, 0);
        assert!(!c.fuel_exhausted);
    }

    #[test]
    fn counted_loop_unrolls() {
        let c = handler("for (var i = 0; i < 10; i = i + 1) { work(5000); }");
        assert_eq!(c.work_cycles, 50_000.0);
    }

    #[test]
    fn branch_takes_cheaper_side() {
        // The condition is data-dependent (⊤): only the cheaper arm may
        // be promised.
        let c = handler("var x = now(); if (x > 5) { work(1000000); } else { work(200); }");
        assert_eq!(c.work_cycles, 200.0);
    }

    #[test]
    fn unguarded_else_promises_nothing() {
        let c = handler("var x = now(); if (x > 5) { work(1000000); }");
        assert_eq!(c.work_cycles, 0.0);
        assert_eq!(c.unbounded_loops, 0);
    }

    #[test]
    fn data_dependent_loop_is_unbounded() {
        let c = handler("var n = now(); var i = 0; while (i < n) { work(1000); i = i + 1; }");
        assert_eq!(c.unbounded_loops, 1);
        // ⊤ loops contribute nothing to the lower bound.
        assert_eq!(c.work_cycles, 0.0);
        assert!(!c.fuel_exhausted);
    }

    #[test]
    fn helper_functions_are_inlined() {
        let scripts = vec!["function heavy() { work(70000); }".to_string()];
        let analyzer = CostAnalyzer::new(&scripts, 3.6e6);
        let program = parse_program("heavy(); heavy();").unwrap();
        let compiled = compile(&program).unwrap();
        let c = analyzer.explore_entry(&compiled.protos, compiled.main);
        assert_eq!(c.work_cycles, 140_000.0);
    }

    #[test]
    fn recursion_terminates_and_promises_zero() {
        let scripts = vec!["function f() { f(); work(10); }".to_string()];
        let analyzer = CostAnalyzer::new(&scripts, 3.6e6);
        let program = parse_program("f();").unwrap();
        let compiled = compile(&program).unwrap();
        let c = analyzer.explore_entry(&compiled.protos, compiled.main);
        // The outer call is explored once; the inner recursive call is
        // cut off.
        assert_eq!(c.work_cycles, 10.0);
        assert!(!c.fuel_exhausted);
    }

    #[test]
    fn deferred_callbacks_do_not_count() {
        let c = handler("setTimeout(function() { work(9000000); }, 5); work(100);");
        assert_eq!(c.work_cycles, 100.0);
    }

    #[test]
    fn infinite_concrete_loop_exhausts_fuel() {
        let c = handler("while (true) { work(1); }");
        assert!(c.fuel_exhausted);
    }

    #[test]
    fn duplicate_function_names_resolve_to_nothing() {
        let scripts = vec![
            "function f() { work(100); }".to_string(),
            "function f() { work(900); }".to_string(),
        ];
        let analyzer = CostAnalyzer::new(&scripts, 3.6e6);
        let program = parse_program("f();").unwrap();
        let compiled = compile(&program).unwrap();
        let c = analyzer.explore_entry(&compiled.protos, compiled.main);
        assert_eq!(c.work_cycles, 0.0);
    }

    #[test]
    fn shadowed_builtin_contributes_no_work() {
        // The VM resolves a script binding of `work` before the host
        // builtin, so the call below performs no explicit work.
        for script in ["function work(n) { }", "var work = 3;"] {
            let analyzer = CostAnalyzer::new(&[script.to_string()], 3.6e6);
            let program = parse_program("work(1000000); gpuWork(2);").unwrap();
            let compiled = compile(&program).unwrap();
            let c = analyzer.explore_entry(&compiled.protos, compiled.main);
            assert_eq!(c.work_cycles, 0.0, "{script}");
            assert_eq!(c.gpu_ms, 2.0, "{script}");
        }
    }

    #[test]
    fn short_circuit_conditions_fold() {
        // Constant conditions decide the branch in the analyzer itself:
        // the dead `work(500)` never counts.
        for source in [
            "if (true && false) { work(500); } work(7);",
            "if (false) { work(500); } work(7);",
            "if (!true) { work(500); } work(7);",
            "if (null) { work(500); } work(7);",
            "while (0) { work(500); } work(7);",
            "var x = false ? work(500) : 0; work(7);",
            "var x = 0 && work(500); work(7);",
            "var x = 1 || work(500); work(7);",
            "if (1 < 2) { work(7); } else { work(500); }",
        ] {
            let c = handler(source);
            assert_eq!(c.work_cycles, 7.0, "{source}");
        }
    }
}
