//! Pass 5: bytecode effect inference (upper bounds).
//!
//! Each registered handler closure is walked by the shared abstract
//! interpreter (`absint`) under the effect domain below, which
//! produces a sound **over-approximation** of everything a handler can
//! ask the browser to do: an [`EffectSummary`] the engine checks
//! `dynamic ⊆ static` containment against on every callback return.
//!
//! - a ⊤-guarded branch explores both arms and **joins** them;
//! - an unresolved callee, a method call, a member/index write, an
//!   exhausted exploration budget — anything the analyzer cannot
//!   model — collapses the rest of the path to [`EffectSummary::top`];
//! - after inlining any user function, every scope binding is havocked
//!   to ⊤ (the callee may have captured and reassigned it);
//! - an unbound read of a uniquely declared, unpoisoned global function
//!   is that function (`FnRef`), so passing it as a callback or calling
//!   it through a variable stays analyzable.
//!
//! Recursive calls are cut with a *residue* summary whose counts are
//! unbounded but whose may-flags are empty: the recursed prototype's
//! instructions are all explored in the current activation under a
//! ⊤ entry state, so the join over paths already covers its flags and
//! targets; only per-activation counts need weakening. A call that is
//! merely too deep (`MAX_CALLS`) has never been explored and must be
//! ⊤ outright.
//!
//! `e.target` is the one piece of non-⊤ pointer knowledge: dispatch only
//! fires a listener on the capture/target phases, so the event target is
//! a descendant-or-self of the registered node, and writes through it
//! stay inside [`EffectTarget::ListenerSubtree`].

use crate::absint::{self, AbsVal, Callee, Domain, Globals, Scopes};
use crate::{CompiledHandler, HandlerCache, ScriptUnit};
use greenweb_engine::{EffectSummary, EffectTarget, TargetSet};
use greenweb_script::compiler::Proto;
use greenweb_script::Value;
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::ops::ControlFlow;
use std::sync::Arc;

/// Effects accumulated along one abstract execution path, plus the
/// zero-delay scheduling edges seen (callee names of provably zero-delay
/// `setTimeout` registrations, feeding the chain lint).
#[derive(Debug, Clone)]
struct PathEffects {
    summary: EffectSummary,
    zero_delay_names: BTreeSet<String>,
}

impl PathEffects {
    /// A path with `summary` that schedules no zero-delay edge.
    fn of(summary: EffectSummary) -> Self {
        PathEffects {
            summary,
            zero_delay_names: BTreeSet::new(),
        }
    }

    /// Combines the summaries of `self` and `other` with `f`; the
    /// zero-delay edges of both survive.
    fn combine(
        mut self,
        mut other: PathEffects,
        f: fn(&EffectSummary, &EffectSummary) -> EffectSummary,
    ) -> Self {
        self.zero_delay_names.append(&mut other.zero_delay_names);
        PathEffects {
            summary: f(&self.summary, &other.summary),
            zero_delay_names: self.zero_delay_names,
        }
    }

    /// Sequential composition with an unanalyzable suffix: the prefix's
    /// guarantees (must-counts, chain evidence) survive, everything else
    /// is weakened to ⊤.
    fn seq_top(self) -> Self {
        self.combine(PathEffects::of(EffectSummary::top()), seq)
    }
}

/// Sequential composition of two summaries: counts add (saturating, with
/// `None` = unbounded absorbing), may-flags or, target sets union, and
/// must-counts add. If either side is ⊤ the result is ⊤ — but the
/// must-guarantees and chain evidence still add/or: a guarantee
/// established by the analyzable prefix holds no matter what the
/// unanalyzable suffix does.
fn seq(a: &EffectSummary, b: &EffectSummary) -> EffectSummary {
    if a.top || b.top {
        let mut t = EffectSummary::top();
        t.zero_delay_chain = a.zero_delay_chain || b.zero_delay_chain;
        t.rafs_min = a.rafs_min + b.rafs_min;
        t.animates_min = a.animates_min + b.animates_min;
        return t;
    }
    let add_u64 = |x: Option<u64>, y: Option<u64>| Some(x?.saturating_add(y?));
    let add_f64 = |x: Option<f64>, y: Option<f64>| Some(x? + y?);
    EffectSummary {
        top: false,
        may_mutate_tree: a.may_mutate_tree || b.may_mutate_tree,
        attr_targets: a.attr_targets.join(&b.attr_targets),
        style_targets: a.style_targets.join(&b.style_targets),
        may_dirty: a.may_dirty || b.may_dirty,
        may_log: a.may_log || b.may_log,
        may_add_listener: a.may_add_listener || b.may_add_listener,
        may_animate: a.may_animate || b.may_animate,
        timers: add_u64(a.timers, b.timers),
        zero_delay_timer: a.zero_delay_timer || b.zero_delay_timer,
        zero_delay_chain: a.zero_delay_chain || b.zero_delay_chain,
        rafs: add_u64(a.rafs, b.rafs),
        rafs_min: a.rafs_min + b.rafs_min,
        animates_min: a.animates_min + b.animates_min,
        work_cycles: add_f64(a.work_cycles, b.work_cycles),
        gpu_ms: add_f64(a.gpu_ms, b.gpu_ms),
    }
}

/// The residue substituted for a recursive call: counts unbounded,
/// flags empty (covered by the current activation's own exploration of
/// the same prototype under a ⊤ entry state — see the module docs).
fn recursion_residue() -> EffectSummary {
    EffectSummary {
        timers: None,
        rafs: None,
        work_cycles: None,
        gpu_ms: None,
        ..EffectSummary::pure()
    }
}

/// The effect-bound analyzer for one application's scripts.
pub struct EffectAnalyzer {
    /// The global names calls and reads resolve against.
    globals: Globals,
    /// Per-global-function zero-delay `setTimeout` callee sets, computed
    /// on demand for the chain lint.
    zero_delay_memo: RefCell<HashMap<String, BTreeSet<String>>>,
}

impl EffectAnalyzer {
    /// Builds the analyzer from the app's setup scripts.
    pub fn new(scripts: &[String]) -> Self {
        Self::from_units(&crate::parse_units(scripts))
    }

    /// Builds the analyzer from pre-parsed script units shared with the
    /// cost pass.
    pub(crate) fn from_units(units: &[ScriptUnit]) -> Self {
        EffectAnalyzer {
            globals: Globals::new(units),
            zero_delay_memo: RefCell::new(HashMap::new()),
        }
    }

    /// Analyzes one registered listener callback. Returns `None` when
    /// the value is not a VM closure (the engine registers no other
    /// kind, so there is nothing to summarize).
    pub fn analyze_callback(&self, callback: &Value) -> Option<EffectSummary> {
        let cache = HandlerCache::default();
        cache
            .compile_callback(callback)
            .map(|h| self.analyze_compiled(&h))
    }

    /// Analyzes a handler compiled through the shared [`HandlerCache`].
    pub(crate) fn analyze_compiled(&self, handler: &CompiledHandler) -> EffectSummary {
        let path = self.explore_entry(&handler.protos, handler.main, &handler.params);
        let mut summary = path.summary;
        if !path.zero_delay_names.is_empty()
            && self.reaches_zero_delay_cycle(&path.zero_delay_names)
        {
            summary.zero_delay_chain = true;
        }
        summary
    }

    fn explore_entry(
        &self,
        protos: &Arc<Vec<Proto>>,
        main: usize,
        entry_params: &[String],
    ) -> PathEffects {
        let mut domain = EffectDomain {
            analyzer: self,
            event: entry_params.first().map(String::as_str),
        };
        absint::walk(&mut domain, protos, main)
    }

    /// The named functions `name` may schedule with a provably zero
    /// delay, memoized (the zero-delay scheduling graph's edges).
    fn zero_delay_callees(&self, name: &str) -> BTreeSet<String> {
        if let Some(hit) = self.zero_delay_memo.borrow().get(name) {
            return hit.clone();
        }
        let set = match self.globals.function(name) {
            Some(fref) => {
                self.explore_entry(&fref.protos, fref.proto, &[])
                    .zero_delay_names
            }
            None => BTreeSet::new(),
        };
        self.zero_delay_memo
            .borrow_mut()
            .insert(name.to_string(), set.clone());
        set
    }

    /// Whether some function reachable from `seeds` along zero-delay
    /// scheduling edges lies on a cycle (self-loops included): the
    /// handler then provably arms a zero-delay timer chain.
    fn reaches_zero_delay_cycle(&self, seeds: &BTreeSet<String>) -> bool {
        fn dfs(
            analyzer: &EffectAnalyzer,
            name: &str,
            on_stack: &mut Vec<String>,
            done: &mut BTreeSet<String>,
        ) -> bool {
            if on_stack.iter().any(|n| n == name) {
                return true;
            }
            if done.contains(name) {
                return false;
            }
            on_stack.push(name.to_string());
            let cyclic = analyzer
                .zero_delay_callees(name)
                .iter()
                .any(|callee| dfs(analyzer, callee, on_stack, done));
            on_stack.pop();
            done.insert(name.to_string());
            cyclic
        }
        let mut done = BTreeSet::new();
        seeds
            .iter()
            .any(|seed| dfs(self, seed, &mut Vec::new(), &mut done))
    }
}

struct EffectDomain<'a> {
    analyzer: &'a EffectAnalyzer,
    /// The handler parameter bound to the dispatched event, if any.
    event: Option<&'a str>,
}

impl Domain for EffectDomain<'_> {
    type Path = PathEffects;

    fn globals(&self) -> &Globals {
        &self.analyzer.globals
    }

    fn empty(&self) -> PathEffects {
        PathEffects::of(EffectSummary::pure())
    }

    fn seq(&self, first: PathEffects, then: PathEffects) -> PathEffects {
        first.combine(then, seq)
    }

    fn join(&self, taken: PathEffects, fallthrough: PathEffects) -> PathEffects {
        taken.combine(fallthrough, EffectSummary::join)
    }

    /// The dispatched event is the handler's first parameter; the
    /// compiler interns every name at a stable per-proto index, so an
    /// unreferenced parameter is simply absent from `names`.
    fn bind_entry(&self, proto: &Proto, scope: &mut HashMap<u32, AbsVal>) {
        if let Some(param) = self.event {
            if let Some(idx) = proto.names.iter().position(|n| n == param) {
                scope.insert(idx as u32, AbsVal::Event);
            }
        }
    }

    fn unbound_read(&self, name: &str) -> AbsVal {
        match self.analyzer.globals.resolve(name) {
            Callee::Script(_) => AbsVal::FnRef(name.to_string()),
            Callee::Builtin(_) | Callee::Opaque => AbsVal::Unknown,
        }
    }

    fn builtin(&self, name: &str, args: &[AbsVal], path: &mut PathEffects) -> Option<AbsVal> {
        apply_builtin(name, args, path).then_some(AbsVal::Unknown)
    }

    fn opaque(&self, path: PathEffects) -> ControlFlow<PathEffects, PathEffects> {
        ControlFlow::Break(path.seq_top())
    }

    fn returned(
        &self,
        path: PathEffects,
        callee: PathEffects,
        scopes: &mut Scopes,
    ) -> ControlFlow<PathEffects, PathEffects> {
        let path = self.seq(path, callee);
        if path.summary.top {
            return ControlFlow::Break(path);
        }
        havoc(scopes);
        ControlFlow::Continue(path)
    }

    fn out_of_fuel(&mut self, path: PathEffects) -> PathEffects {
        // The unexplored remainder admits anything.
        path.seq_top()
    }

    /// The loop body may repeat any number of times, so no finite count
    /// or bounded target set survives.
    fn uncountable_loop(&mut self, _proto: &Proto, _pc: u32) -> ControlFlow<PathEffects> {
        ControlFlow::Break(self.unexplored())
    }

    fn recursion(&self) -> PathEffects {
        PathEffects::of(recursion_residue())
    }

    /// Nothing covers an unexplored call's flags, so unlike recursion it
    /// must be ⊤.
    fn unexplored(&self) -> PathEffects {
        PathEffects::of(EffectSummary::top())
    }
}

/// Havocs every scope binding after a user function ran: the callee may
/// have captured and reassigned any variable in scope, including the
/// event binding.
fn havoc(scopes: &mut Scopes) {
    for scope in scopes.iter_mut() {
        for v in scope.values_mut() {
            *v = AbsVal::Unknown;
        }
    }
}

/// Applies the effect of one host builtin call to the running path.
/// Returns `false` for names that are not known builtins. The table
/// mirrors the dispatch in `greenweb_engine::host` exactly; every entry
/// over-approximates what that arm records in `CallbackEffects`.
fn apply_builtin(name: &str, args: &[AbsVal], eff: &mut PathEffects) -> bool {
    let s = &mut eff.summary;
    match name {
        // Pure reads (createElement builds a detached node: no tracked
        // effect until something attaches it).
        "getElementById" | "document" | "getAttribute" | "getStyle" | "now" | "elementCount"
        | "createElement" => {}
        "setAttribute" => {
            s.may_dirty = true;
            match args.first() {
                Some(AbsVal::TargetNode) => s.attr_targets.insert(EffectTarget::ListenerSubtree),
                _ => s.attr_targets = TargetSet::Unknown,
            }
        }
        "setStyle" => {
            s.may_dirty = true;
            match args.first() {
                Some(AbsVal::TargetNode) => s.style_targets.insert(EffectTarget::ListenerSubtree),
                _ => s.style_targets = TargetSet::Unknown,
            }
        }
        "appendChild" | "removeChild" | "setText" => {
            s.may_mutate_tree = true;
            s.may_dirty = true;
        }
        "addEventListener" => s.may_add_listener = true,
        "requestAnimationFrame" => {
            s.rafs = s.rafs.map(|n| n.saturating_add(1));
            s.rafs_min += 1;
        }
        "setTimeout" => {
            s.timers = s.timers.map(|n| n.saturating_add(1));
            match args.get(1) {
                // The host clamps the delay at 0, so NaN (which fails
                // `> 0.0`) is also a zero-delay registration.
                Some(AbsVal::Num(d)) if *d > 0.0 => {}
                other => {
                    s.zero_delay_timer = true;
                    // A chain edge needs a *named* callee and a concrete
                    // delay; an unknown delay may be zero (flag above)
                    // but proves nothing.
                    if matches!(other, Some(AbsVal::Num(_))) {
                        if let Some(AbsVal::FnRef(f)) = args.first() {
                            eff.zero_delay_names.insert(f.clone());
                        }
                    }
                }
            }
        }
        "work" => {
            s.work_cycles = match (s.work_cycles, args.first()) {
                (Some(w), Some(AbsVal::Num(n))) => Some(w + n.max(0.0)),
                _ => None,
            };
        }
        "gpuWork" => {
            s.gpu_ms = match (s.gpu_ms, args.first()) {
                (Some(g), Some(AbsVal::Num(n))) => Some(g + n.max(0.0)),
                _ => None,
            };
        }
        "markDirty" => s.may_dirty = true,
        "log" => s.may_log = true,
        "animate" => {
            s.may_animate = true;
            s.may_dirty = true;
            s.animates_min += 1;
        }
        _ => return false,
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenweb_script::{compile, parse_program};

    fn summarize_with(scripts: &[String], source: &str) -> EffectSummary {
        let analyzer = EffectAnalyzer::new(scripts);
        let program = parse_program(source).unwrap();
        let compiled = compile(&program).unwrap();
        let handler = CompiledHandler {
            protos: compiled.protos,
            main: compiled.main,
            params: vec!["e".to_string()],
        };
        analyzer.analyze_compiled(&handler)
    }

    fn summarize(source: &str) -> EffectSummary {
        summarize_with(&[], source)
    }

    #[test]
    fn empty_handler_is_pure() {
        let s = summarize("var x = 1 + 2;");
        assert!(s.is_pure(), "{s:?}");
        // A request behind a constant-false condition never happens.
        for source in [
            "if (false) { requestAnimationFrame(function(){}); }",
            "if (!true) { requestAnimationFrame(function(){}); }",
            "if (null) { requestAnimationFrame(function(){}); }",
            "while (0) { requestAnimationFrame(function(){}); }",
            "var x = false ? requestAnimationFrame(function(){}) : 0;",
            "var x = 0 && requestAnimationFrame(function(){});",
            "var x = 1 || requestAnimationFrame(function(){});",
            "if (1 < 2) { var y = 1; } else { requestAnimationFrame(function(){}); }",
        ] {
            let s = summarize(source);
            assert!(s.is_pure(), "{source}: {s:?}");
        }
    }

    #[test]
    fn log_only_handler_classifies() {
        let s = summarize("log('hi');");
        assert!(s.is_logs_only(), "{s:?}");
    }

    #[test]
    fn straight_line_counts_are_exact() {
        let s = summarize("work(1000); gpuWork(2); markDirty(); setTimeout(function(){}, 16);");
        assert_eq!(s.work_cycles, Some(1000.0));
        assert_eq!(s.gpu_ms, Some(2.0));
        assert!(s.may_dirty);
        assert_eq!(s.timers, Some(1));
        assert!(!s.zero_delay_timer, "a 16ms timer is not zero-delay");
        assert!(!s.top);
    }

    #[test]
    fn branches_join_to_an_upper_bound() {
        // The cost pass would keep the cheaper arm; the effect pass must
        // keep the union of both.
        let s = summarize(
            "var x = now(); if (x > 5) { work(1000000); markDirty(); } else { work(200); }",
        );
        assert_eq!(s.work_cycles, Some(1_000_000.0));
        assert!(s.may_dirty);
        assert!(!s.top);
    }

    #[test]
    fn guaranteed_raf_survives_branches_only_if_on_every_path() {
        let both = summarize(
            "var x = now(); if (x > 5) { requestAnimationFrame(function(){}); } \
             else { requestAnimationFrame(function(){}); }",
        );
        assert_eq!(both.rafs_min, 1);
        assert_eq!(both.rafs, Some(1));
        let one_sided =
            summarize("var x = now(); if (x > 5) { requestAnimationFrame(function(){}); }");
        assert_eq!(one_sided.rafs_min, 0);
        assert_eq!(one_sided.rafs, Some(1));
    }

    #[test]
    fn target_writes_stay_in_listener_subtree() {
        let s = summarize("setAttribute(e.target, 'class', 'on'); markDirty();");
        assert_eq!(
            s.attr_targets,
            TargetSet::Known([EffectTarget::ListenerSubtree].into_iter().collect())
        );
        let unknown = summarize("setAttribute(getElementById('x'), 'class', 'on');");
        assert_eq!(unknown.attr_targets, TargetSet::Unknown);
    }

    #[test]
    fn tree_mutation_is_detected() {
        let s = summarize("appendChild(document(), createElement('div'));");
        assert!(s.may_mutate_structure());
    }

    #[test]
    fn counted_loops_multiply_bounds() {
        let s = summarize("for (var i = 0; i < 10; i = i + 1) { work(100); }");
        assert_eq!(s.work_cycles, Some(1000.0));
        assert!(!s.top);
    }

    #[test]
    fn data_dependent_loop_collapses_to_top() {
        let s = summarize("var n = now(); var i = 0; while (i < n) { work(1); i = i + 1; }");
        assert!(s.top, "an uncountable loop cannot keep finite bounds");
    }

    #[test]
    fn method_calls_and_member_writes_are_top() {
        assert!(summarize("var a = [1]; a.push(2);").top);
        assert!(summarize("var o = {}; o.x = 1;").top);
    }

    #[test]
    fn helper_functions_are_inlined_via_the_table() {
        let scripts = vec!["function helper() { markDirty(); work(50); }".to_string()];
        let s = summarize_with(&scripts, "helper(); helper();");
        assert!(s.may_dirty);
        assert_eq!(s.work_cycles, Some(100.0));
        assert!(!s.top);
    }

    #[test]
    fn user_call_havocs_the_event_binding() {
        // After calling user code the `e` binding may have been captured
        // and reassigned; `e.target` must no longer prove subtree
        // containment.
        let scripts = vec!["function shuffle() { }".to_string()];
        let s = summarize_with(
            &scripts,
            "shuffle(); setAttribute(e.target, 'class', 'on');",
        );
        assert_eq!(s.attr_targets, TargetSet::Unknown);
    }

    #[test]
    fn shadowed_builtin_resolves_to_the_script_function() {
        // The runtime's scope chain finds the script function before
        // the host builtin.
        let scripts = vec!["function work(n) { markDirty(); }".to_string()];
        let s = summarize_with(&scripts, "work(5);");
        assert!(s.may_dirty);
        assert_eq!(s.work_cycles, Some(0.0), "no builtin work() runs");
    }

    #[test]
    fn assigned_names_are_poisoned() {
        let scripts = vec![
            "function quiet() { }".to_string(),
            "function other() { quiet = 3; }".to_string(),
        ];
        // `quiet` is reassigned somewhere, so a call to it is
        // unanalyzable even though the declaration is unique.
        let s = summarize_with(&scripts, "quiet();");
        assert!(s.top);
    }

    #[test]
    fn recursion_unbounds_counts_but_not_flags() {
        let scripts = vec!["function f(n) { if (n > 0) { f(n - 1); } work(10); }".to_string()];
        let s = summarize_with(&scripts, "f(3);");
        assert!(!s.top, "recursion alone must not give up entirely");
        assert_eq!(s.work_cycles, None, "per-activation counts are unbounded");
        assert!(!s.may_dirty);
    }

    #[test]
    fn zero_delay_chain_is_detected() {
        let scripts = vec![
            "function pump() { work(100); setTimeout(pump, 0); }".to_string(),
            "function once() { work(100); setTimeout(function(){}, 0); }".to_string(),
        ];
        let chained = summarize_with(&scripts, "setTimeout(pump, 0);");
        assert!(chained.zero_delay_chain, "{chained:?}");
        assert!(chained.zero_delay_timer);
        let unchained = summarize_with(&scripts, "setTimeout(once, 0);");
        assert!(!unchained.zero_delay_chain, "{unchained:?}");
        assert!(unchained.zero_delay_timer);
        let delayed = summarize_with(&scripts, "setTimeout(pump, 50);");
        assert!(
            !delayed.zero_delay_chain,
            "a delayed kickoff schedules no zero-delay edge from the handler"
        );
    }

    #[test]
    fn summary_admits_its_own_concrete_run() {
        // A miniature dynamic⊆static check: the summary the analyzer
        // infers for a handler must admit the effects the engine's host
        // would record for it (spot-checked fields, not a full run).
        let s = summarize("setAttribute(e.target, 'class', 'on'); work(500); markDirty();");
        assert!(!s.top);
        assert!(s.may_dirty);
        assert!(s.work_cycles.unwrap() >= 500.0);
    }
}
