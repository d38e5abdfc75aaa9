//! Pass 5: bytecode effect inference (upper bounds).
//!
//! The mirror image of the cost pass: where [`crate::cost`] explores the
//! same bytecode CFG to produce a **lower** bound (forks keep the
//! cheaper arm, unknown callees contribute nothing), this pass produces
//! a sound **over-approximation** of everything a handler can ask the
//! browser to do — an [`EffectSummary`] the engine consumes to downgrade
//! cache invalidation and to check `dynamic ⊆ static` containment on
//! every callback return. The polarity inversion dictates every rule:
//!
//! - a ⊤-guarded branch explores both arms and **joins** them;
//! - an unknown or ambiguous callee, a method call, a member/index
//!   write, an exhausted exploration budget — anything the analyzer
//!   cannot model — collapses the summary to [`EffectSummary::top`];
//! - after inlining any user function, every scope binding is havocked
//!   to ⊤ (the callee may have captured and reassigned it);
//! - names assigned or shadowed anywhere in the program are *poisoned*:
//!   an unbound read or call of a poisoned name resolves to ⊤ instead of
//!   the global function table or a host builtin.
//!
//! Call resolution follows the runtime scope chain — local binding,
//! then the (unpoisoned) global function table, then host builtins —
//! unlike the cost pass, which checks `work`/`gpuWork` first; a lower
//! bound survives that imprecision, an upper bound would not.
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

use crate::cost::{build_fn_table, FnTable, FUEL, MAX_CALLS, MAX_FORKS, MAX_REFORKS};
use crate::{CompiledHandler, HandlerCache, ScriptUnit};
use greenweb_engine::{EffectSummary, EffectTarget, TargetSet};
use greenweb_script::ast::Target;
use greenweb_script::compiler::{Const, Op, Proto};
use greenweb_script::{BinaryOp, Expr, Stmt, UnaryOp, Value};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// An abstract value. Like the cost pass's domain, concrete where the
/// program is concrete — plus the two facts this pass actually needs:
/// which values are the dispatched event (`Event`), its `.target` member
/// (`TargetNode`, provably in the listener's subtree), and which are
/// uniquely resolvable global functions (`FnRef`).
#[derive(Debug, Clone, PartialEq)]
enum AbsEff {
    Num(f64),
    Bool(bool),
    Null,
    /// A closure over proto `idx` of the *current* prototype table.
    Closure(usize),
    /// The uniquely resolvable global function of that name.
    FnRef(String),
    /// The event object passed to the handler.
    Event,
    /// `event.target`: a node in the listener's subtree.
    TargetNode,
    Unknown,
}

impl AbsEff {
    fn truthy(&self) -> Option<bool> {
        match self {
            AbsEff::Num(n) => Some(*n != 0.0 && !n.is_nan()),
            AbsEff::Bool(b) => Some(*b),
            AbsEff::Null => Some(false),
            AbsEff::Closure(_) | AbsEff::FnRef(_) | AbsEff::Event => Some(true),
            // A node handle is a number and node 0 exists, so a target
            // may legitimately be falsy.
            AbsEff::TargetNode | AbsEff::Unknown => None,
        }
    }
}

/// Effects accumulated along one abstract execution path, plus the
/// zero-delay scheduling edges seen (callee names of provably zero-delay
/// `setTimeout` registrations, feeding the chain lint).
#[derive(Debug, Clone)]
struct PathEffects {
    summary: EffectSummary,
    zero_delay_names: BTreeSet<String>,
}

impl PathEffects {
    /// The sequential identity: nothing has happened yet.
    fn pure() -> Self {
        PathEffects {
            summary: EffectSummary::pure(),
            zero_delay_names: BTreeSet::new(),
        }
    }

    /// The absorbing element for an unanalyzable continuation.
    fn top() -> Self {
        PathEffects {
            summary: EffectSummary::top(),
            zero_delay_names: BTreeSet::new(),
        }
    }

    /// Sequential composition with an unanalyzable suffix: the prefix's
    /// guarantees (must-counts, chain evidence) survive, everything else
    /// is weakened to ⊤.
    fn seq_top(self) -> Self {
        self.seq_path(PathEffects::top())
    }

    /// Sequential composition: `self` then `other` on the same path.
    fn seq_path(self, other: PathEffects) -> Self {
        PathEffects {
            summary: seq(&self.summary, &other.summary),
            zero_delay_names: self
                .zero_delay_names
                .union(&other.zero_delay_names)
                .cloned()
                .collect(),
        }
    }

    /// Join at a control-flow merge: either path may have run.
    fn join(self, other: PathEffects) -> Self {
        PathEffects {
            summary: self.summary.join(&other.summary),
            zero_delay_names: self
                .zero_delay_names
                .union(&other.zero_delay_names)
                .cloned()
                .collect(),
        }
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
    /// Uniquely resolvable top-level functions, shared with the cost pass.
    functions: FnTable,
    /// Every name that is var-declared, assigned, or used as a function
    /// parameter anywhere: reads and calls of these resolve to ⊤ when no
    /// scope binding is in sight, never to the function table or a host
    /// builtin.
    poisoned: HashSet<String>,
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
            functions: build_fn_table(units),
            poisoned: poisoned_names(units),
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
        let mut explorer = Explorer {
            analyzer: self,
            fuel: FUEL,
        };
        let mut call_stack = Vec::new();
        explorer.explore_proto_bound(protos, main, &mut call_stack, entry_params)
    }

    /// The named functions `name` may schedule with a provably zero
    /// delay, memoized (the zero-delay scheduling graph's edges).
    fn zero_delay_callees(&self, name: &str) -> BTreeSet<String> {
        if let Some(hit) = self.zero_delay_memo.borrow().get(name) {
            return hit.clone();
        }
        let set = match self.functions.get(name) {
            Some(Some(fref)) => {
                let protos = Arc::clone(&fref.protos);
                self.explore_entry(&protos, fref.proto, &[])
                    .zero_delay_names
            }
            _ => BTreeSet::new(),
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

/// Collects every name the abstract interpreter must never resolve
/// statically: var declarations, assignment targets, and function
/// parameters, anywhere in any script. Top-level `function` declaration
/// *names* are deliberately not poisoned — redeclaration ambiguity is
/// already handled by the function table mapping them to `None`.
fn poisoned_names(units: &[ScriptUnit]) -> HashSet<String> {
    let mut out = HashSet::new();
    for unit in units {
        if let Some(program) = &unit.program {
            for stmt in &program.body {
                poison_stmt(stmt, &mut out);
            }
        }
    }
    out
}

fn poison_stmt(stmt: &Stmt, out: &mut HashSet<String>) {
    match stmt {
        Stmt::VarDecl { name, init, .. } => {
            out.insert(name.clone());
            if let Some(init) = init {
                poison_expr(init, out);
            }
        }
        Stmt::FunctionDecl { params, body, .. } => {
            out.extend(params.iter().cloned());
            for s in body.iter() {
                poison_stmt(s, out);
            }
        }
        Stmt::Expr(e) | Stmt::Return(Some(e)) => poison_expr(e, out),
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => {
            poison_expr(cond, out);
            for s in then_branch.iter().chain(else_branch.iter()) {
                poison_stmt(s, out);
            }
        }
        Stmt::While { cond, body } => {
            poison_expr(cond, out);
            for s in body {
                poison_stmt(s, out);
            }
        }
        Stmt::For {
            init,
            cond,
            update,
            body,
        } => {
            if let Some(init) = init {
                poison_stmt(init, out);
            }
            if let Some(cond) = cond {
                poison_expr(cond, out);
            }
            if let Some(update) = update {
                poison_expr(update, out);
            }
            for s in body {
                poison_stmt(s, out);
            }
        }
        Stmt::Block(body) => {
            for s in body {
                poison_stmt(s, out);
            }
        }
        Stmt::Return(None) | Stmt::Break | Stmt::Continue => {}
    }
}

fn poison_expr(expr: &Expr, out: &mut HashSet<String>) {
    match expr {
        Expr::Number(_) | Expr::Str(_) | Expr::Bool(_) | Expr::Null | Expr::Var(_) => {}
        Expr::Array(items) => {
            for e in items {
                poison_expr(e, out);
            }
        }
        Expr::Object(pairs) => {
            for (_, e) in pairs {
                poison_expr(e, out);
            }
        }
        Expr::Function { params, body } => {
            out.extend(params.iter().cloned());
            for s in body.iter() {
                poison_stmt(s, out);
            }
        }
        Expr::Assign { target, value } => {
            match target {
                Target::Var(name) => {
                    out.insert(name.clone());
                }
                Target::Member(object, _) => poison_expr(object, out),
                Target::Index(object, index) => {
                    poison_expr(object, out);
                    poison_expr(index, out);
                }
            }
            poison_expr(value, out);
        }
        Expr::Binary { lhs, rhs, .. } => {
            poison_expr(lhs, out);
            poison_expr(rhs, out);
        }
        Expr::Unary { operand, .. } => poison_expr(operand, out),
        Expr::Conditional {
            cond,
            then_value,
            else_value,
        } => {
            poison_expr(cond, out);
            poison_expr(then_value, out);
            poison_expr(else_value, out);
        }
        Expr::Call { callee, args, .. } => {
            poison_expr(callee, out);
            for e in args {
                poison_expr(e, out);
            }
        }
        Expr::Member { object, .. } => poison_expr(object, out),
        Expr::Index { object, index } => {
            poison_expr(object, out);
            poison_expr(index, out);
        }
    }
}

/// Identity of a prototype across programs: table pointer + index.
type ProtoKey = (usize, usize);

type Scopes = Vec<HashMap<u32, AbsEff>>;

/// Per-path fork counts, keyed by branch pc.
type Forked = HashMap<u32, u32>;

struct Explorer<'a> {
    analyzer: &'a EffectAnalyzer,
    fuel: u64,
}

impl Explorer<'_> {
    fn explore_proto(
        &mut self,
        protos: &Arc<Vec<Proto>>,
        index: usize,
        call_stack: &mut Vec<ProtoKey>,
    ) -> PathEffects {
        self.explore_proto_bound(protos, index, call_stack, &[])
    }

    fn explore_proto_bound(
        &mut self,
        protos: &Arc<Vec<Proto>>,
        index: usize,
        call_stack: &mut Vec<ProtoKey>,
        entry_params: &[String],
    ) -> PathEffects {
        let key: ProtoKey = (Arc::as_ptr(protos) as usize, index);
        if call_stack.contains(&key) {
            return PathEffects {
                summary: recursion_residue(),
                zero_delay_names: BTreeSet::new(),
            };
        }
        // A call that is too deep was never explored at all: unlike
        // recursion, nothing covers its flags, so it must be ⊤.
        if call_stack.len() >= MAX_CALLS as usize {
            return PathEffects::top();
        }
        let Some(proto) = protos.get(index) else {
            return PathEffects::top();
        };
        call_stack.push(key);
        let mut stack = Vec::new();
        let mut scopes: Scopes = vec![HashMap::new()];
        // The dispatched event is the handler's first parameter; the
        // compiler interns every name at a stable per-proto index, so an
        // unreferenced parameter is simply absent from `names`.
        if let Some(param) = entry_params.first() {
            if let Some(idx) = proto.names.iter().position(|n| n == param) {
                scopes[0].insert(idx as u32, AbsEff::Event);
            }
        }
        let eff = self.run(
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
        eff
    }

    /// Abstractly executes `proto` from `pc` to a `Return`/fall-off,
    /// returning the effects of the path (joined over every fork).
    #[allow(clippy::too_many_arguments)]
    fn run(
        &mut self,
        protos: &Arc<Vec<Proto>>,
        proto: &Proto,
        mut pc: u32,
        stack: &mut Vec<AbsEff>,
        scopes: &mut Scopes,
        forked: &mut Forked,
        call_stack: &mut Vec<ProtoKey>,
        fork_depth: u32,
    ) -> PathEffects {
        let mut eff = PathEffects::pure();
        loop {
            if self.fuel == 0 {
                // Out of budget: the unexplored remainder admits anything.
                return eff.seq_top();
            }
            self.fuel -= 1;
            let Some(op) = proto.code.get(pc as usize) else {
                return eff; // fell off the end: implicit return
            };
            let mut next = pc + 1;
            match *op {
                Op::Const(i) => stack.push(match proto.consts.get(i as usize) {
                    Some(Const::Number(n)) => AbsEff::Num(*n),
                    Some(Const::Bool(b)) => AbsEff::Bool(*b),
                    Some(Const::Null) => AbsEff::Null,
                    Some(Const::Str(_)) | None => AbsEff::Unknown,
                }),
                Op::GetVar(i) => {
                    let bound = scopes.iter().rev().find_map(|s| s.get(&i).cloned());
                    let v = bound.unwrap_or_else(|| match proto.names.get(i as usize) {
                        Some(n) if self.analyzer.poisoned.contains(n) => AbsEff::Unknown,
                        Some(n) if matches!(self.analyzer.functions.get(n), Some(Some(_))) => {
                            AbsEff::FnRef(n.clone())
                        }
                        _ => AbsEff::Unknown,
                    });
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
                    let v = stack.last().cloned().unwrap_or(AbsEff::Unknown);
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
                        (UnaryOp::Neg, AbsEff::Num(n)) => AbsEff::Num(-n),
                        (UnaryOp::Not, v) => match v.truthy() {
                            Some(b) => AbsEff::Bool(!b),
                            None => AbsEff::Unknown,
                        },
                        _ => AbsEff::Unknown,
                    });
                }
                Op::Jump(t) => next = t,
                Op::JumpIfFalse(t) => {
                    let cond = pop(stack);
                    match cond.truthy() {
                        Some(true) => {}
                        Some(false) => next = t,
                        None => {
                            return eff.seq_path(self.fork(
                                protos, proto, pc, t, next, stack, scopes, forked, call_stack,
                                fork_depth,
                            ))
                        }
                    }
                }
                Op::JumpIfFalsePeek(t) => {
                    let cond = stack.last().cloned().unwrap_or(AbsEff::Unknown);
                    match cond.truthy() {
                        Some(true) => {}
                        Some(false) => next = t,
                        None => {
                            return eff.seq_path(self.fork(
                                protos, proto, pc, t, next, stack, scopes, forked, call_stack,
                                fork_depth,
                            ))
                        }
                    }
                }
                Op::JumpIfTruePeek(t) => {
                    let cond = stack.last().cloned().unwrap_or(AbsEff::Unknown);
                    match cond.truthy() {
                        Some(true) => next = t,
                        Some(false) => {}
                        None => {
                            return eff.seq_path(self.fork(
                                protos, proto, pc, t, next, stack, scopes, forked, call_stack,
                                fork_depth,
                            ))
                        }
                    }
                }
                Op::MakeArray(n) => {
                    popn(stack, n as usize);
                    stack.push(AbsEff::Unknown);
                }
                Op::MakeObject { count, .. } => {
                    popn(stack, count as usize);
                    stack.push(AbsEff::Unknown);
                }
                Op::MakeClosure(i) => stack.push(AbsEff::Closure(i as usize)),
                Op::CallName { name, argc } => {
                    let args = popn(stack, argc as usize);
                    let local = scopes.iter().rev().find_map(|s| s.get(&name).cloned());
                    match local {
                        Some(AbsEff::Closure(ci)) => {
                            let callee = self.explore_proto(protos, ci, call_stack);
                            eff = eff.seq_path(callee);
                            if eff.summary.top {
                                return eff;
                            }
                            havoc(scopes);
                            stack.push(AbsEff::Unknown);
                        }
                        Some(AbsEff::FnRef(gname)) => {
                            match self.resolve_global(&gname, call_stack) {
                                Some(callee) => {
                                    eff = eff.seq_path(callee);
                                    if eff.summary.top {
                                        return eff;
                                    }
                                    havoc(scopes);
                                    stack.push(AbsEff::Unknown);
                                }
                                None => return eff.seq_top(),
                            }
                        }
                        // A bound non-function (or ⊤) value is being
                        // called: unanalyzable.
                        Some(_) => return eff.seq_top(),
                        None => {
                            let Some(fname) = proto.names.get(name as usize) else {
                                return eff.seq_top();
                            };
                            if self.analyzer.poisoned.contains(fname) {
                                return eff.seq_top();
                            }
                            if let Some(entry) = self.analyzer.functions.get(fname) {
                                // The runtime scope chain resolves global
                                // script functions before host builtins.
                                if entry.is_none() {
                                    return eff.seq_top();
                                }
                                match self.resolve_global(fname, call_stack) {
                                    Some(callee) => {
                                        eff = eff.seq_path(callee);
                                        if eff.summary.top {
                                            return eff;
                                        }
                                        havoc(scopes);
                                        stack.push(AbsEff::Unknown);
                                    }
                                    None => return eff.seq_top(),
                                }
                            } else if apply_builtin(fname, &args, &mut eff) {
                                stack.push(AbsEff::Unknown);
                            } else {
                                // Unknown name: the call errors or does
                                // something the analyzer cannot model.
                                return eff.seq_top();
                            }
                        }
                    }
                }
                Op::CallValue { argc } => {
                    popn(stack, argc as usize);
                    let callee = pop(stack);
                    let resolved = match callee {
                        AbsEff::Closure(ci) => Some(self.explore_proto(protos, ci, call_stack)),
                        AbsEff::FnRef(gname) => self.resolve_global(&gname, call_stack),
                        _ => None,
                    };
                    match resolved {
                        Some(callee_eff) => {
                            eff = eff.seq_path(callee_eff);
                            if eff.summary.top {
                                return eff;
                            }
                            havoc(scopes);
                            stack.push(AbsEff::Unknown);
                        }
                        None => return eff.seq_top(),
                    }
                }
                // A function-valued member can hold any closure, and the
                // receiver is always abstract here: unanalyzable.
                Op::CallMethod { .. } => return eff.seq_top(),
                Op::CallMath { argc, .. } => {
                    popn(stack, argc as usize);
                    stack.push(AbsEff::Unknown);
                }
                Op::GetMember(i) => {
                    let object = pop(stack);
                    let member = proto.names.get(i as usize).map(String::as_str);
                    if object == AbsEff::Event && member == Some("target") {
                        stack.push(AbsEff::TargetNode);
                    } else {
                        stack.push(AbsEff::Unknown);
                    }
                }
                // Member/index writes mutate shared heap objects the
                // domain does not model (and would error on node
                // handles): give up.
                Op::SetMember(_) | Op::SetIndex => return eff.seq_top(),
                Op::GetIndex => {
                    pop(stack);
                    pop(stack);
                    stack.push(AbsEff::Unknown);
                }
                Op::Return => return eff,
            }
            pc = next;
        }
    }

    /// Inlines a uniquely resolved global function. `None` when the name
    /// is unknown or ambiguous (caller must go to ⊤).
    fn resolve_global(
        &mut self,
        name: &str,
        call_stack: &mut Vec<ProtoKey>,
    ) -> Option<PathEffects> {
        let fref = self.analyzer.functions.get(name)?.clone()?;
        Some(self.explore_proto(&fref.protos, fref.proto, call_stack))
    }

    /// Explores both successors of a branch whose condition is ⊤ and
    /// joins them. A repeated fork at the same `pc` along one path is a
    /// loop whose trip count the analyzer cannot bound: the whole
    /// remainder collapses to ⊤ (the body may repeat any number of
    /// times, so no finite count or bounded target set survives).
    #[allow(clippy::too_many_arguments)]
    fn fork(
        &mut self,
        protos: &Arc<Vec<Proto>>,
        proto: &Proto,
        pc: u32,
        target: u32,
        fallthrough: u32,
        stack: &mut Vec<AbsEff>,
        scopes: &mut Scopes,
        forked: &mut Forked,
        call_stack: &mut Vec<ProtoKey>,
        fork_depth: u32,
    ) -> PathEffects {
        let reforks = forked.get(&pc).copied().unwrap_or(0);
        if reforks >= MAX_REFORKS || fork_depth >= MAX_FORKS {
            return PathEffects::top();
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
        a.join(b)
    }
}

/// Havocs every scope binding after a user function ran: the callee may
/// have captured and reassigned any variable in scope, including the
/// event binding.
fn havoc(scopes: &mut Scopes) {
    for scope in scopes.iter_mut() {
        for v in scope.values_mut() {
            *v = AbsEff::Unknown;
        }
    }
}

/// Applies the effect of one host builtin call to the running path.
/// Returns `false` for names that are not known builtins. The table
/// mirrors the dispatch in `greenweb_engine::host` exactly; every entry
/// over-approximates what that arm records in `CallbackEffects`.
fn apply_builtin(name: &str, args: &[AbsEff], eff: &mut PathEffects) -> bool {
    let s = &mut eff.summary;
    match name {
        // Pure reads (createElement builds a detached node: no tracked
        // effect until something attaches it).
        "getElementById" | "document" | "getAttribute" | "getStyle" | "now" | "elementCount"
        | "createElement" => {}
        "setAttribute" => {
            s.may_dirty = true;
            match args.first() {
                Some(AbsEff::TargetNode) => s.attr_targets.insert(EffectTarget::ListenerSubtree),
                _ => s.attr_targets = TargetSet::Unknown,
            }
        }
        "setStyle" => {
            s.may_dirty = true;
            match args.first() {
                Some(AbsEff::TargetNode) => s.style_targets.insert(EffectTarget::ListenerSubtree),
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
                Some(AbsEff::Num(d)) if *d > 0.0 => {}
                other => {
                    s.zero_delay_timer = true;
                    // A chain edge needs a *named* callee and a concrete
                    // delay; an unknown delay may be zero (flag above)
                    // but proves nothing.
                    if matches!(other, Some(AbsEff::Num(_))) {
                        if let Some(AbsEff::FnRef(f)) = args.first() {
                            eff.zero_delay_names.insert(f.clone());
                        }
                    }
                }
            }
        }
        "work" => {
            s.work_cycles = match (s.work_cycles, args.first()) {
                (Some(w), Some(AbsEff::Num(n))) => Some(w + n.max(0.0)),
                _ => None,
            };
        }
        "gpuWork" => {
            s.gpu_ms = match (s.gpu_ms, args.first()) {
                (Some(g), Some(AbsEff::Num(n))) => Some(g + n.max(0.0)),
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

fn pop(stack: &mut Vec<AbsEff>) -> AbsEff {
    stack.pop().unwrap_or(AbsEff::Unknown)
}

fn popn(stack: &mut Vec<AbsEff>, n: usize) -> Vec<AbsEff> {
    let keep = stack.len().saturating_sub(n);
    stack.split_off(keep)
}

fn binary(op: BinaryOp, l: AbsEff, r: AbsEff) -> AbsEff {
    use AbsEff::{Bool, Num};
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
        (BinaryOp::Eq, AbsEff::Null, AbsEff::Null) => Bool(true),
        (BinaryOp::Ne, AbsEff::Null, AbsEff::Null) => Bool(false),
        _ => AbsEff::Unknown,
    }
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
        // The cost pass historically resolves `work` to the builtin even
        // when a script function shadows it; an upper bound must follow
        // the runtime's scope chain instead.
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
