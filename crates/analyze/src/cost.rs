//! Pass 3: bytecode cost bounds.
//!
//! Each registered handler closure is compiled to the stack-machine
//! bytecode ([`greenweb_script::compiler::Op`]) and explored by an
//! abstract interpreter over the CFG formed by the `Jump`/`JumpIfFalse`/
//! peek-jump instructions. The abstract domain is concrete-or-⊤: numbers,
//! booleans, and closures propagate exactly, so *counted* loops
//! (`for (i = 0; i < n; i = i + 1)`) simply unroll and their `work()` /
//! `gpuWork()` payloads accumulate; anything data-dependent evaluates to
//! ⊤ (Unknown). At a branch on ⊤ both successors are explored and the
//! *cheaper* one is kept, which makes every reported figure a **lower
//! bound** on the work any real execution performs. A back edge guarded
//! by a ⊤ condition is an unbounded loop: it is reported (GW031) and the
//! exploration takes the exit path, i.e. the loop contributes nothing to
//! the bound — ⊤, not an error.

use crate::{CompiledHandler, ScriptUnit};
use greenweb_script::compiler::{Const, Op, Proto};
use greenweb_script::{BinaryOp, Stmt, UnaryOp};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Exploration fuel: the total number of abstract steps one handler may
/// take. Counted workload loops are a few thousand iterations at most;
/// the cap only bites on runaway (effectively unbounded) concrete loops.
pub(crate) const FUEL: u64 = 400_000;
/// Maximum nesting of ⊤-condition forks along one path.
pub(crate) const MAX_FORKS: u32 = 32;
/// Maximum abstract call depth.
pub(crate) const MAX_CALLS: u32 = 16;
/// How many times one branch pc may fork along a single path before it
/// is declared a loop with an uncountable bound. Small counted loops
/// containing data-dependent `if`s stay precisely explored; anything
/// longer is cut off as unbounded.
pub(crate) const MAX_REFORKS: u32 = 8;

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

/// An abstract value: concrete where the program is concrete, ⊤ where it
/// depends on data the analyzer cannot see.
#[derive(Debug, Clone, Copy, PartialEq)]
enum AbsVal {
    Num(f64),
    Bool(bool),
    Null,
    /// A closure over proto `idx` of the *current* prototype table.
    Closure(usize),
    Unknown,
}

impl AbsVal {
    fn truthy(self) -> Option<bool> {
        match self {
            AbsVal::Num(n) => Some(n != 0.0 && !n.is_nan()),
            AbsVal::Bool(b) => Some(b),
            AbsVal::Null => Some(false),
            AbsVal::Closure(_) => Some(true),
            AbsVal::Unknown => None,
        }
    }
}

/// Cost accumulated along one abstract execution path.
#[derive(Debug, Clone, Copy, Default)]
struct PathCost {
    ops: f64,
    work_cycles: f64,
    gpu_ms: f64,
}

impl PathCost {
    fn plus(self, o: PathCost) -> PathCost {
        PathCost {
            ops: self.ops + o.ops,
            work_cycles: self.work_cycles + o.work_cycles,
            gpu_ms: self.gpu_ms + o.gpu_ms,
        }
    }

    /// Orders paths by guaranteed time (the feasibility metric), with op
    /// count as the tie-break. `rate` is in cycles per millisecond.
    fn cheaper(self, o: PathCost, rate: f64) -> PathCost {
        let a = (self.work_cycles / rate + self.gpu_ms, self.ops);
        let b = (o.work_cycles / rate + o.gpu_ms, o.ops);
        if a <= b {
            self
        } else {
            o
        }
    }
}

/// A resolved top-level script function: which compiled program, which
/// prototype.
#[derive(Debug, Clone)]
pub(crate) struct FnRef {
    pub(crate) protos: Arc<Vec<Proto>>,
    pub(crate) proto: usize,
}

/// Uniquely resolvable top-level functions by name, shared by the cost
/// and effect passes. A name declared more than once (across scripts or
/// shadowed by a nested function of the same name) maps to `None`: both
/// passes must treat calls to it as unresolvable.
pub(crate) type FnTable = HashMap<String, Option<FnRef>>;

/// Builds the shared function table from pre-parsed script units.
pub(crate) fn build_fn_table(units: &[ScriptUnit]) -> FnTable {
    let mut functions = FnTable::new();
    for unit in units {
        let (Some(program), Some(compiled)) = (&unit.program, &unit.compiled) else {
            continue;
        };
        for stmt in &program.body {
            let Stmt::FunctionDecl { name, .. } = stmt else {
                continue;
            };
            let matching: Vec<usize> = compiled
                .protos
                .iter()
                .enumerate()
                .filter(|(_, p)| p.name == *name)
                .map(|(i, _)| i)
                .collect();
            let entry = if matching.len() == 1 {
                Some(FnRef {
                    protos: Arc::clone(&compiled.protos),
                    proto: matching[0],
                })
            } else {
                None
            };
            // Redeclaration anywhere makes the binding ambiguous.
            match functions.entry(name.clone()) {
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(entry);
                }
                std::collections::hash_map::Entry::Occupied(mut o) => {
                    o.insert(None);
                }
            }
        }
    }
    functions
}

/// The cost-bound analyzer for one application's scripts.
#[derive(Debug, Default)]
pub struct CostAnalyzer {
    /// Uniquely resolvable top-level functions, by name (see [`FnTable`]).
    /// Calls to ambiguous names contribute nothing, which keeps the
    /// bound sound.
    functions: FnTable,
    /// Nominal execution rate (cycles per ms) used only to order paths.
    rate_cycles_per_ms: f64,
}

impl CostAnalyzer {
    /// Builds the function table from the app's setup scripts. Scripts
    /// that fail to parse or compile are skipped (the front-end pass has
    /// already reported them).
    pub fn new(scripts: &[String], rate_cycles_per_ms: f64) -> Self {
        Self::from_units(&crate::parse_units(scripts), rate_cycles_per_ms)
    }

    /// Like [`CostAnalyzer::new`], from pre-parsed script units shared
    /// with the effect pass.
    pub(crate) fn from_units(units: &[ScriptUnit], rate_cycles_per_ms: f64) -> Self {
        CostAnalyzer {
            functions: build_fn_table(units),
            rate_cycles_per_ms: rate_cycles_per_ms.max(1.0),
        }
    }

    /// Analyzes a handler compiled once through the shared
    /// [`crate::HandlerCache`].
    pub(crate) fn analyze_compiled(&self, handler: &CompiledHandler) -> HandlerCost {
        self.explore_entry(&handler.protos, handler.main)
    }

    fn explore_entry(&self, protos: &Arc<Vec<Proto>>, main: usize) -> HandlerCost {
        let mut explorer = Explorer {
            analyzer: self,
            fuel: FUEL,
            fuel_exhausted: false,
            unbounded: HashSet::new(),
        };
        let mut call_stack = Vec::new();
        let cost = explorer.explore_proto(protos, main, &mut call_stack);
        HandlerCost {
            ops: cost.ops,
            work_cycles: cost.work_cycles,
            gpu_ms: cost.gpu_ms,
            unbounded_loops: explorer.unbounded.len(),
            fuel_exhausted: explorer.fuel_exhausted,
        }
    }
}

/// Identity of a prototype across programs: table pointer + index.
type ProtoKey = (usize, usize);

struct Explorer<'a> {
    analyzer: &'a CostAnalyzer,
    fuel: u64,
    fuel_exhausted: bool,
    /// `(proto, pc)` of every ⊤-guarded back edge seen (distinct loops).
    unbounded: HashSet<(usize, u32)>,
}

type Scopes = Vec<HashMap<u32, AbsVal>>;

/// Per-path fork counts, keyed by branch pc.
type Forked = HashMap<u32, u32>;

impl Explorer<'_> {
    fn explore_proto(
        &mut self,
        protos: &Arc<Vec<Proto>>,
        index: usize,
        call_stack: &mut Vec<ProtoKey>,
    ) -> PathCost {
        let key: ProtoKey = (Arc::as_ptr(protos) as usize, index);
        // Recursion (or too-deep call chains) contribute nothing: sound
        // for a lower bound.
        if call_stack.contains(&key) || call_stack.len() >= MAX_CALLS as usize {
            return PathCost::default();
        }
        let Some(proto) = protos.get(index) else {
            return PathCost::default();
        };
        call_stack.push(key);
        let mut stack = Vec::new();
        let mut scopes: Scopes = vec![HashMap::new()];
        let cost = self.run(
            protos,
            proto,
            0,
            &mut stack,
            &mut scopes,
            &mut Forked::new(),
            call_stack,
            0,
        );
        call_stack.pop();
        cost
    }

    /// Abstractly executes `proto` from `pc` to a `Return`/fall-off,
    /// returning the cost of the cheapest completion.
    #[allow(clippy::too_many_arguments)]
    fn run(
        &mut self,
        protos: &Arc<Vec<Proto>>,
        proto: &Proto,
        mut pc: u32,
        stack: &mut Vec<AbsVal>,
        scopes: &mut Scopes,
        forked: &mut Forked,
        call_stack: &mut Vec<ProtoKey>,
        fork_depth: u32,
    ) -> PathCost {
        let mut cost = PathCost::default();
        loop {
            if self.fuel == 0 {
                self.fuel_exhausted = true;
                return cost;
            }
            self.fuel -= 1;
            let Some(op) = proto.code.get(pc as usize) else {
                return cost; // fell off the end: implicit return
            };
            // Charge the instruction's tick weight — the same per-op cost
            // the engine's VM charges against `RunBudget` — so the lint's
            // op figures are in engine units (weight 1 when a hostile
            // proto carries no tick table).
            cost.ops += f64::from(proto.ticks.get(pc as usize).copied().unwrap_or(1));
            let mut next = pc + 1;
            match *op {
                Op::Const(i) => stack.push(match proto.consts.get(i as usize) {
                    Some(Const::Number(n)) => AbsVal::Num(*n),
                    Some(Const::Bool(b)) => AbsVal::Bool(*b),
                    Some(Const::Null) => AbsVal::Null,
                    Some(Const::Str(_)) | None => AbsVal::Unknown,
                }),
                Op::GetVar(i) => {
                    let v = scopes
                        .iter()
                        .rev()
                        .find_map(|s| s.get(&i).copied())
                        .unwrap_or(AbsVal::Unknown);
                    stack.push(v);
                }
                Op::SetVar(i) => {
                    let v = pop(stack);
                    match scopes.iter_mut().rev().find(|s| s.contains_key(&i)) {
                        Some(scope) => {
                            scope.insert(i, v);
                        }
                        None => {
                            // Assignment to a captured/global variable the
                            // analyzer cannot see; remember it locally so
                            // later reads at least agree within this path.
                            if let Some(first) = scopes.first_mut() {
                                first.insert(i, v);
                            }
                        }
                    }
                }
                Op::DeclVar(i) => {
                    let v = pop(stack);
                    if let Some(last) = scopes.last_mut() {
                        last.insert(i, v);
                    }
                }
                Op::Pop => {
                    pop(stack);
                }
                Op::Dup => {
                    let v = stack.last().copied().unwrap_or(AbsVal::Unknown);
                    stack.push(v);
                }
                Op::PushScope => scopes.push(HashMap::new()),
                Op::PopScope => {
                    if scopes.len() > 1 {
                        scopes.pop();
                    }
                }
                Op::Binary(op) => {
                    let r = pop(stack);
                    let l = pop(stack);
                    stack.push(binary(op, l, r));
                }
                Op::Unary(op) => {
                    let v = pop(stack);
                    stack.push(match (op, v) {
                        (UnaryOp::Neg, AbsVal::Num(n)) => AbsVal::Num(-n),
                        (UnaryOp::Not, v) => match v.truthy() {
                            Some(b) => AbsVal::Bool(!b),
                            None => AbsVal::Unknown,
                        },
                        _ => AbsVal::Unknown,
                    });
                }
                Op::Jump(t) => next = t,
                Op::JumpIfFalse(t) => {
                    let cond = pop(stack);
                    match cond.truthy() {
                        Some(true) => {}
                        Some(false) => next = t,
                        None => {
                            return cost.plus(self.fork(
                                protos, proto, pc, t, next, stack, scopes, forked, call_stack,
                                fork_depth,
                            ))
                        }
                    }
                }
                Op::JumpIfFalsePeek(t) => {
                    let cond = stack.last().copied().unwrap_or(AbsVal::Unknown);
                    match cond.truthy() {
                        Some(true) => {}
                        Some(false) => next = t,
                        None => {
                            return cost.plus(self.fork(
                                protos, proto, pc, t, next, stack, scopes, forked, call_stack,
                                fork_depth,
                            ))
                        }
                    }
                }
                Op::JumpIfTruePeek(t) => {
                    let cond = stack.last().copied().unwrap_or(AbsVal::Unknown);
                    match cond.truthy() {
                        Some(true) => next = t,
                        Some(false) => {}
                        None => {
                            return cost.plus(self.fork(
                                protos, proto, pc, t, next, stack, scopes, forked, call_stack,
                                fork_depth,
                            ))
                        }
                    }
                }
                Op::MakeArray(n) => {
                    popn(stack, n as usize);
                    stack.push(AbsVal::Unknown);
                }
                Op::MakeObject { count, .. } => {
                    popn(stack, count as usize);
                    stack.push(AbsVal::Unknown);
                }
                Op::MakeClosure(i) => stack.push(AbsVal::Closure(i as usize)),
                Op::CallName { name, argc } => {
                    let args = popn(stack, argc as usize);
                    let fname = proto.names.get(name as usize).map(String::as_str);
                    // The compiler interns every occurrence of a name at
                    // the same index, so scope bindings are keyed by it.
                    let local = scopes.iter().rev().find_map(|s| s.get(&name).copied());
                    match (local, fname) {
                        (Some(AbsVal::Closure(ci)), _) => {
                            cost = cost.plus(self.explore_proto(protos, ci, call_stack));
                            stack.push(AbsVal::Unknown);
                        }
                        (Some(_), _) => stack.push(AbsVal::Unknown),
                        (None, Some("work")) => {
                            if let Some(AbsVal::Num(n)) = args.first() {
                                cost.work_cycles += n.max(0.0);
                            }
                            stack.push(AbsVal::Null);
                        }
                        (None, Some("gpuWork")) => {
                            if let Some(AbsVal::Num(n)) = args.first() {
                                cost.gpu_ms += n.max(0.0);
                            }
                            stack.push(AbsVal::Null);
                        }
                        (None, Some(f)) => {
                            if let Some(Some(fref)) =
                                self.analyzer.functions.get(f).map(Option::as_ref)
                            {
                                let protos = Arc::clone(&fref.protos);
                                let idx = fref.proto;
                                cost = cost.plus(self.explore_proto(&protos, idx, call_stack));
                            }
                            stack.push(AbsVal::Unknown);
                        }
                        (None, None) => stack.push(AbsVal::Unknown),
                    }
                }
                Op::CallValue { argc } => {
                    popn(stack, argc as usize);
                    let callee = pop(stack);
                    if let AbsVal::Closure(ci) = callee {
                        cost = cost.plus(self.explore_proto(protos, ci, call_stack));
                    }
                    stack.push(AbsVal::Unknown);
                }
                Op::CallMethod { argc, .. } => {
                    popn(stack, argc as usize);
                    pop(stack);
                    stack.push(AbsVal::Unknown);
                }
                Op::CallMath { argc, .. } => {
                    popn(stack, argc as usize);
                    stack.push(AbsVal::Unknown);
                }
                Op::GetMember(_) => {
                    pop(stack);
                    stack.push(AbsVal::Unknown);
                }
                Op::SetMember(_) => {
                    pop(stack);
                    pop(stack);
                }
                Op::GetIndex => {
                    pop(stack);
                    pop(stack);
                    stack.push(AbsVal::Unknown);
                }
                Op::SetIndex => {
                    popn(stack, 3);
                }
                Op::Return => return cost,
            }
            pc = next;
        }
    }

    /// Explores both successors of a branch whose condition is ⊤ and
    /// keeps the cheaper completion. A repeated fork at the same `pc`
    /// along one path is a loop with an uncountable bound: it is recorded
    /// as unbounded and resolved by taking the exit edge (the farther
    /// target), so the loop body contributes nothing more.
    #[allow(clippy::too_many_arguments)]
    fn fork(
        &mut self,
        protos: &Arc<Vec<Proto>>,
        proto: &Proto,
        pc: u32,
        target: u32,
        fallthrough: u32,
        stack: &mut Vec<AbsVal>,
        scopes: &mut Scopes,
        forked: &mut Forked,
        call_stack: &mut Vec<ProtoKey>,
        fork_depth: u32,
    ) -> PathCost {
        let reforks = forked.get(&pc).copied().unwrap_or(0);
        if reforks >= MAX_REFORKS {
            self.unbounded.insert((proto as *const Proto as usize, pc));
            let exit = target.max(fallthrough);
            return self.run(
                protos, proto, exit, stack, scopes, forked, call_stack, fork_depth,
            );
        }
        if fork_depth >= MAX_FORKS {
            // Give up on the remainder of this path: 0 is a sound bound.
            return PathCost::default();
        }
        forked.insert(pc, reforks + 1);
        let a = {
            let mut stack = stack.clone();
            let mut scopes = scopes.clone();
            let mut forked = forked.clone();
            self.run(
                protos,
                proto,
                target,
                &mut stack,
                &mut scopes,
                &mut forked,
                call_stack,
                fork_depth + 1,
            )
        };
        let b = self.run(
            protos,
            proto,
            fallthrough,
            stack,
            scopes,
            forked,
            call_stack,
            fork_depth + 1,
        );
        a.cheaper(b, self.analyzer.rate_cycles_per_ms)
    }
}

fn pop(stack: &mut Vec<AbsVal>) -> AbsVal {
    stack.pop().unwrap_or(AbsVal::Unknown)
}

fn popn(stack: &mut Vec<AbsVal>, n: usize) -> Vec<AbsVal> {
    let keep = stack.len().saturating_sub(n);
    stack.split_off(keep)
}

fn binary(op: BinaryOp, l: AbsVal, r: AbsVal) -> AbsVal {
    use AbsVal::{Bool, Num};
    match (op, l, r) {
        (BinaryOp::Add, Num(a), Num(b)) => Num(a + b),
        (BinaryOp::Sub, Num(a), Num(b)) => Num(a - b),
        (BinaryOp::Mul, Num(a), Num(b)) => Num(a * b),
        (BinaryOp::Div, Num(a), Num(b)) => Num(a / b),
        (BinaryOp::Rem, Num(a), Num(b)) => Num(a % b),
        (BinaryOp::Lt, Num(a), Num(b)) => Bool(a < b),
        (BinaryOp::Le, Num(a), Num(b)) => Bool(a <= b),
        (BinaryOp::Gt, Num(a), Num(b)) => Bool(a > b),
        (BinaryOp::Ge, Num(a), Num(b)) => Bool(a >= b),
        (BinaryOp::Eq, Num(a), Num(b)) => Bool(a == b),
        (BinaryOp::Ne, Num(a), Num(b)) => Bool(a != b),
        (BinaryOp::Eq, Bool(a), Bool(b)) => Bool(a == b),
        (BinaryOp::Ne, Bool(a), Bool(b)) => Bool(a != b),
        (BinaryOp::Eq, AbsVal::Null, AbsVal::Null) => Bool(true),
        (BinaryOp::Ne, AbsVal::Null, AbsVal::Null) => Bool(false),
        _ => AbsVal::Unknown,
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
