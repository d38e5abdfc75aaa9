//! The abstract interpreter both bytecode passes run on.
//!
//! The cost pass ([`crate::cost`], lower bounds) and the effect pass
//! ([`crate::effects`], upper bounds) explore the same compiled [`Op`]
//! stream: the CFG formed by the `Jump`/`JumpIfFalse`/peek-jump
//! instructions, with calls to closures and to uniquely declared
//! top-level functions inlined. This module owns that walk once. Each
//! pass supplies a [`Domain`]: what one path accumulates, how paths
//! compose and merge, and what the walk does where the bytecode stops
//! being analyzable.
//!
//! Values are concrete-or-⊤ ([`AbsVal`]): numbers, booleans and
//! closures propagate exactly, so counted loops simply unroll and
//! constant conditions pick their branch; anything data-dependent is ⊤
//! (`Unknown`). At a branch on ⊤ both successors are explored and the
//! domain merges them. A branch pc that forks [`MAX_REFORKS`] times
//! along one path is a loop whose trip count the analyzer cannot bound.
//!
//! Calls resolve in the runtime's order ([`Globals::resolve`]): a scope
//! binding, then a *poisoned* name (assigned or shadowed anywhere, so
//! unresolvable), then the table of uniquely declared top-level
//! functions, then the host builtins.

use crate::ScriptUnit;
use greenweb_script::ast::Target;
use greenweb_script::compiler::{Const, Op, Proto};
use greenweb_script::{BinaryOp, Expr, Stmt, UnaryOp};
use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;
use std::sync::Arc;

/// Exploration fuel: the total number of abstract steps one handler may
/// take. Counted workload loops are a few thousand iterations at most;
/// the cap only bites on runaway (effectively unbounded) concrete loops.
const FUEL: u64 = 400_000;
/// Maximum nesting of ⊤-condition forks along one path.
const MAX_FORKS: u32 = 32;
/// Maximum abstract call depth.
const MAX_CALLS: u32 = 16;
/// How many times one branch pc may fork along a single path before it
/// is declared a loop with an uncountable bound. Small counted loops
/// containing data-dependent `if`s stay precisely explored; anything
/// longer is cut off.
const MAX_REFORKS: u32 = 8;
/// Maximum length of one activation's scope chain.
const MAX_SCOPES: usize = 64;

/// An abstract value: concrete where the program is concrete, ⊤ where it
/// depends on data the analyzer cannot see. Only the effect domain
/// produces `FnRef`, `Event` and `TargetNode`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum AbsVal {
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

impl AbsVal {
    fn truthy(&self) -> Option<bool> {
        match self {
            AbsVal::Num(n) => Some(*n != 0.0 && !n.is_nan()),
            AbsVal::Bool(b) => Some(*b),
            AbsVal::Null => Some(false),
            AbsVal::Closure(_) | AbsVal::FnRef(_) | AbsVal::Event => Some(true),
            // A node handle is a number and node 0 exists, so a target
            // may legitimately be falsy.
            AbsVal::TargetNode | AbsVal::Unknown => None,
        }
    }

    fn binary(op: BinaryOp, l: AbsVal, r: AbsVal) -> AbsVal {
        use AbsVal::{Bool, Null, Num};
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
            (BinaryOp::Eq, Null, Null) => Bool(true),
            (BinaryOp::Ne, Null, Null) => Bool(false),
            _ => AbsVal::Unknown,
        }
    }
}

fn pop(stack: &mut Vec<AbsVal>) -> AbsVal {
    stack.pop().unwrap_or(AbsVal::Unknown)
}

fn popn(stack: &mut Vec<AbsVal>, n: usize) -> Vec<AbsVal> {
    let keep = stack.len().saturating_sub(n);
    stack.split_off(keep)
}

/// Identity of a prototype across programs: table pointer + index.
type ProtoKey = (usize, usize);

pub(crate) type Scopes = Vec<HashMap<u32, AbsVal>>;

/// Per-path fork counts, keyed by branch pc.
type Forked = HashMap<u32, u32>;

/// A script function to inline: which compiled program, which prototype.
#[derive(Debug, Clone)]
pub(crate) struct FnRef {
    pub(crate) protos: Arc<Vec<Proto>>,
    pub(crate) proto: usize,
}

/// Uniquely resolvable top-level functions by name. A name declared more
/// than once (across scripts or shadowed by a nested function of the
/// same name) maps to `None`: calls to it are unresolvable.
type FnTable = HashMap<String, Option<FnRef>>;

/// Builds the function table from pre-parsed script units.
fn build_fn_table(units: &[ScriptUnit]) -> FnTable {
    let mut functions = FnTable::new();
    for unit in units {
        let (Some(program), Ok(compiled)) = (&unit.program, &unit.compiled) else {
            continue;
        };
        for stmt in &program.body {
            let Stmt::FunctionDecl { name, .. } = stmt else {
                continue;
            };
            let mut matching = compiled
                .protos
                .iter()
                .enumerate()
                .filter(|(_, p)| p.name == *name);
            let entry = match (matching.next(), matching.next()) {
                (Some((proto, _)), None) => Some(FnRef {
                    protos: Arc::clone(&compiled.protos),
                    proto,
                }),
                _ => None,
            };
            // Redeclaration anywhere makes the binding ambiguous.
            functions
                .entry(name.clone())
                .and_modify(|known| *known = None)
                .or_insert(entry);
        }
    }
    functions
}

/// The app's global name environment, the same for both domains.
#[derive(Debug, Default)]
pub(crate) struct Globals {
    /// Uniquely resolvable top-level functions (see [`FnTable`]).
    functions: FnTable,
    /// Every name that is var-declared, assigned, or used as a function
    /// parameter anywhere: an unbound read or call of one resolves to
    /// nothing, never to the function table or a host builtin.
    poisoned: HashSet<String>,
}

/// Who a call invokes.
pub(crate) enum Callee<'n> {
    /// A script function, inlined.
    Script(FnRef),
    /// Not a script function: a host builtin, if the domain models it.
    Builtin(&'n str),
    /// Poisoned, ambiguous or not a function: the analyzer cannot tell
    /// what runs.
    Opaque,
}

impl Globals {
    /// Builds the environment from the app's setup scripts. Scripts that
    /// fail to parse or compile are skipped (the front-end pass has
    /// already reported them).
    pub(crate) fn new(units: &[ScriptUnit]) -> Self {
        Globals {
            functions: build_fn_table(units),
            poisoned: poisoned_names(units),
        }
    }

    /// The uniquely declared function `name`, poisoned or not.
    pub(crate) fn function(&self, name: &str) -> Option<&FnRef> {
        self.functions.get(name)?.as_ref()
    }

    /// Resolves an unbound `name` in the runtime's order: the VM looks
    /// the scope chain up first (global script functions included) and
    /// only then asks the host.
    pub(crate) fn resolve<'n>(&self, name: &'n str) -> Callee<'n> {
        if self.poisoned.contains(name) {
            return Callee::Opaque;
        }
        match self.functions.get(name) {
            Some(Some(function)) => Callee::Script(function.clone()),
            Some(None) => Callee::Opaque,
            None => Callee::Builtin(name),
        }
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

/// What one pass computes over the walk. A `ControlFlow::Break(path)`
/// ends the current path with `path`; `Continue(path)` goes on with it.
pub(crate) trait Domain {
    /// What one abstract execution path accumulates.
    type Path;

    /// The name environment calls and reads resolve against.
    fn globals(&self) -> &Globals;

    /// The sequential identity: nothing has happened yet.
    fn empty(&self) -> Self::Path;

    /// `first`, then `then`, on one path.
    fn seq(&self, first: Self::Path, then: Self::Path) -> Self::Path;

    /// Merges the two arms of a branch on ⊤.
    fn join(&self, taken: Self::Path, fallthrough: Self::Path) -> Self::Path;

    /// Charges one executed instruction.
    fn charge(&self, _path: &mut Self::Path, _proto: &Proto, _pc: u32) {}

    /// Binds the entry activation's scope before its first instruction.
    fn bind_entry(&self, _proto: &Proto, _scope: &mut HashMap<u32, AbsVal>) {}

    /// The value of `name` read with no scope binding in sight.
    fn unbound_read(&self, _name: &str) -> AbsVal {
        AbsVal::Unknown
    }

    /// Applies host builtin `name` to `path` and returns its result;
    /// `None` when the domain does not model `name`.
    fn builtin(&self, name: &str, args: &[AbsVal], path: &mut Self::Path) -> Option<AbsVal>;

    /// A call, method call or member/index write the analyzer cannot
    /// follow.
    fn opaque(&self, path: Self::Path) -> ControlFlow<Self::Path, Self::Path>;

    /// An inlined script function returned with `callee`'s path.
    fn returned(
        &self,
        path: Self::Path,
        callee: Self::Path,
        scopes: &mut Scopes,
    ) -> ControlFlow<Self::Path, Self::Path>;

    /// The exploration fuel ran out with `path` accumulated so far.
    fn out_of_fuel(&mut self, path: Self::Path) -> Self::Path;

    /// The branch at `pc` forked [`MAX_REFORKS`] times on one path.
    /// `Continue` takes the loop's exit edge (the farther target).
    fn uncountable_loop(&mut self, proto: &Proto, pc: u32) -> ControlFlow<Self::Path>;

    /// A call to a prototype already on the call stack.
    fn recursion(&self) -> Self::Path;

    /// A remainder never explored: a call deeper than [`MAX_CALLS`] or
    /// to a missing prototype, a path past [`MAX_FORKS`] forks, or a
    /// scope chain past [`MAX_SCOPES`].
    fn unexplored(&self) -> Self::Path;
}

/// Abstractly executes prototype `main` of `protos` as a handler entry,
/// returning the merged path over every completion.
pub(crate) fn walk<D: Domain>(domain: &mut D, protos: &Arc<Vec<Proto>>, main: usize) -> D::Path {
    Walker {
        domain,
        fuel: FUEL,
        call_stack: Vec::new(),
    }
    .call(protos, main)
}

struct Walker<'d, D> {
    domain: &'d mut D,
    fuel: u64,
    /// The prototypes being explored, outermost first.
    call_stack: Vec<ProtoKey>,
}

/// The prototype one activation executes.
#[derive(Clone, Copy)]
struct Frame<'p> {
    protos: &'p Arc<Vec<Proto>>,
    proto: &'p Proto,
}

/// One path's machine state, cloned at every fork.
#[derive(Clone)]
struct State {
    stack: Vec<AbsVal>,
    scopes: Scopes,
    forked: Forked,
    fork_depth: u32,
}

/// Unwraps a `ControlFlow`, returning the path from the enclosing
/// function on `Break`.
macro_rules! flow {
    ($e:expr) => {
        match $e {
            ControlFlow::Continue(path) => path,
            ControlFlow::Break(path) => return path,
        }
    };
}

impl<D: Domain> Walker<'_, D> {
    /// One activation of `protos[index]`.
    fn call(&mut self, protos: &Arc<Vec<Proto>>, index: usize) -> D::Path {
        let key: ProtoKey = (Arc::as_ptr(protos) as usize, index);
        // The entry activation binds the event parameter, so it is not the
        // ⊤-state exploration a recursion residue stands on: a call back
        // into the entry prototype (a named handler calling itself) is
        // explored once more, under ⊤, before recursion is cut.
        if self.call_stack.iter().skip(1).any(|active| *active == key) {
            return self.domain.recursion();
        }
        if self.call_stack.len() >= MAX_CALLS as usize {
            return self.domain.unexplored();
        }
        let Some(proto) = protos.get(index) else {
            return self.domain.unexplored();
        };
        let mut state = State {
            stack: Vec::new(),
            scopes: vec![HashMap::new()],
            forked: Forked::new(),
            fork_depth: 0,
        };
        if self.call_stack.is_empty() {
            self.domain.bind_entry(proto, &mut state.scopes[0]);
        }
        self.call_stack.push(key);
        let path = self.run(Frame { protos, proto }, 0, &mut state);
        self.call_stack.pop();
        path
    }

    /// Abstractly executes the frame from `pc` to a `Return`/fall-off.
    fn run(&mut self, frame: Frame<'_>, mut pc: u32, state: &mut State) -> D::Path {
        let proto = frame.proto;
        let mut path = self.domain.empty();
        loop {
            if self.fuel == 0 {
                return self.domain.out_of_fuel(path);
            }
            self.fuel -= 1;
            let Some(op) = proto.code.get(pc as usize) else {
                return path; // fell off the end: implicit return
            };
            self.domain.charge(&mut path, proto, pc);
            let stack = &mut state.stack;
            let mut next = pc + 1;
            match *op {
                Op::Const(i) => stack.push(match proto.consts.get(i as usize) {
                    Some(Const::Number(n)) => AbsVal::Num(*n),
                    Some(Const::Bool(b)) => AbsVal::Bool(*b),
                    Some(Const::Null) => AbsVal::Null,
                    Some(Const::Str(_)) | None => AbsVal::Unknown,
                }),
                Op::GetVar(i) => {
                    let v = lookup(&state.scopes, i).unwrap_or_else(|| {
                        proto
                            .names
                            .get(i as usize)
                            .map_or(AbsVal::Unknown, |name| self.domain.unbound_read(name))
                    });
                    stack.push(v);
                }
                Op::SetVar(i) => {
                    let v = pop(stack);
                    let scopes = &mut state.scopes;
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
                    if let Some(last) = state.scopes.last_mut() {
                        last.insert(i, v);
                    }
                }
                Op::Pop => {
                    pop(stack);
                }
                Op::Dup => {
                    let v = stack.last().cloned().unwrap_or(AbsVal::Unknown);
                    stack.push(v);
                }
                Op::PushScope => {
                    // Compiled code nests scopes only as deep as its
                    // blocks; a longer chain is hostile bytecode that
                    // would make every lookup slower, so the rest of the
                    // path goes unexplored.
                    if state.scopes.len() >= MAX_SCOPES {
                        let rest = self.domain.unexplored();
                        return self.domain.seq(path, rest);
                    }
                    state.scopes.push(HashMap::new());
                }
                Op::PopScope => {
                    if state.scopes.len() > 1 {
                        state.scopes.pop();
                    }
                }
                Op::Binary(op) => {
                    let r = pop(stack);
                    let l = pop(stack);
                    stack.push(AbsVal::binary(op, l, r));
                }
                Op::Unary(op) => {
                    let v = pop(stack);
                    stack.push(match (op, v) {
                        (UnaryOp::Neg, AbsVal::Num(n)) => AbsVal::Num(-n),
                        (UnaryOp::Not, v) => {
                            v.truthy().map_or(AbsVal::Unknown, |b| AbsVal::Bool(!b))
                        }
                        _ => AbsVal::Unknown,
                    });
                }
                Op::Jump(t) => next = t,
                Op::JumpIfFalse(t) | Op::JumpIfFalsePeek(t) | Op::JumpIfTruePeek(t) => {
                    let cond = match op {
                        Op::JumpIfFalse(_) => pop(stack),
                        _ => stack.last().cloned().unwrap_or(AbsVal::Unknown),
                    };
                    match cond.truthy() {
                        Some(truthy) => {
                            if truthy == matches!(op, Op::JumpIfTruePeek(_)) {
                                next = t;
                            }
                        }
                        None => match self.fork(frame, pc, t, next, state) {
                            ControlFlow::Continue(exit) => next = exit,
                            ControlFlow::Break(forked) => return self.domain.seq(path, forked),
                        },
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
                    // The compiler interns every occurrence of a name at
                    // the same index, so scope bindings are keyed by it.
                    let callee = match lookup(&state.scopes, name) {
                        Some(bound) => self.callee(frame, bound),
                        None => match proto.names.get(name as usize) {
                            Some(f) => self.domain.globals().resolve(f),
                            None => Callee::Opaque,
                        },
                    };
                    path = flow!(self.invoke(callee, &args, path, state));
                }
                Op::CallValue { argc } => {
                    popn(stack, argc as usize);
                    let callee = self.callee(frame, pop(stack));
                    path = flow!(self.invoke(callee, &[], path, state));
                }
                // A function-valued member can hold any closure, and the
                // receiver is always abstract here.
                Op::CallMethod { argc, .. } => {
                    popn(stack, argc as usize + 1);
                    path = flow!(self.invoke(Callee::Opaque, &[], path, state));
                }
                Op::CallMath { argc, .. } => {
                    popn(stack, argc as usize);
                    stack.push(AbsVal::Unknown);
                }
                Op::GetMember(i) => {
                    let object = pop(stack);
                    let target = object == AbsVal::Event
                        && proto.names.get(i as usize).is_some_and(|m| m == "target");
                    stack.push(if target {
                        AbsVal::TargetNode
                    } else {
                        AbsVal::Unknown
                    });
                }
                // Member/index writes mutate shared heap objects the
                // domain does not model.
                Op::SetMember(_) | Op::SetIndex => {
                    popn(stack, if let Op::SetIndex = op { 3 } else { 2 });
                    path = flow!(self.domain.opaque(path));
                }
                Op::GetIndex => {
                    pop(stack);
                    pop(stack);
                    stack.push(AbsVal::Unknown);
                }
                Op::Return => return path,
            }
            pc = next;
        }
    }

    /// The callee a called value denotes.
    fn callee(&self, frame: Frame<'_>, value: AbsVal) -> Callee<'static> {
        match value {
            AbsVal::Closure(proto) => Callee::Script(FnRef {
                protos: Arc::clone(frame.protos),
                proto,
            }),
            AbsVal::FnRef(name) => self
                .domain
                .globals()
                .function(&name)
                .map_or(Callee::Opaque, |function| Callee::Script(function.clone())),
            _ => Callee::Opaque,
        }
    }

    /// Runs one call and pushes its result.
    fn invoke(
        &mut self,
        callee: Callee<'_>,
        args: &[AbsVal],
        mut path: D::Path,
        state: &mut State,
    ) -> ControlFlow<D::Path, D::Path> {
        let result = match callee {
            Callee::Script(function) => {
                let called = self.call(&function.protos, function.proto);
                path = self.domain.returned(path, called, &mut state.scopes)?;
                AbsVal::Unknown
            }
            Callee::Builtin(name) => match self.domain.builtin(name, args, &mut path) {
                Some(result) => result,
                None => {
                    path = self.domain.opaque(path)?;
                    AbsVal::Unknown
                }
            },
            Callee::Opaque => {
                path = self.domain.opaque(path)?;
                AbsVal::Unknown
            }
        };
        state.stack.push(result);
        ControlFlow::Continue(path)
    }

    /// Explores both successors of a branch whose condition is ⊤ and
    /// breaks with their merged completion, or continues with the exit
    /// edge the path takes out of an uncountable loop. Taking that edge
    /// in the caller's loop, not by recursion, keeps the native stack
    /// flat however often an outer loop re-enters the inner one.
    fn fork(
        &mut self,
        frame: Frame<'_>,
        pc: u32,
        target: u32,
        fallthrough: u32,
        state: &mut State,
    ) -> ControlFlow<D::Path, u32> {
        let reforks = state.forked.get(&pc).copied().unwrap_or(0);
        if reforks >= MAX_REFORKS {
            self.domain.uncountable_loop(frame.proto, pc)?;
            return ControlFlow::Continue(target.max(fallthrough));
        }
        if state.fork_depth >= MAX_FORKS {
            return ControlFlow::Break(self.domain.unexplored());
        }
        state.forked.insert(pc, reforks + 1);
        state.fork_depth += 1;
        let mut arm = state.clone();
        let taken = self.run(frame, target, &mut arm);
        let fallen = self.run(frame, fallthrough, state);
        ControlFlow::Break(self.domain.join(taken, fallen))
    }
}

fn lookup(scopes: &Scopes, name: u32) -> Option<AbsVal> {
    scopes.iter().rev().find_map(|s| s.get(&name).cloned())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// GreenLint inlines the bytecode `App::build` compiled — the very
    /// prototype tables the engine's closures hold — not a copy of its
    /// own, on every bundled workload.
    #[test]
    fn inlined_functions_are_the_apps_compiled_bytecode() {
        let mut inlined = 0;
        for workload in greenweb_workloads::all() {
            let app = &workload.app;
            let globals = Globals::new(&crate::app_units(app));
            for (name, function) in &globals.functions {
                let Some(function) = function else {
                    continue;
                };
                let shared = (0..app.scripts.len()).any(|index| {
                    app.compiled_script(index)
                        .is_some_and(|compiled| Arc::ptr_eq(&compiled.protos, &function.protos))
                });
                assert!(shared, "{}: `{name}` is not the app's bytecode", app.name);
                inlined += 1;
            }
        }
        assert!(inlined > 0, "no bundled workload declares a function");
    }
}
