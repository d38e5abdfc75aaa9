//! Tree-walking interpreter with lexical scoping and a pluggable host.
//!
//! This is the language's *reference* backend. The browser engine runs
//! only compiled bytecode ([`crate::vm::Vm`]); this tree-walker is what
//! the differential suites (`prop_differential`, `prop_lang`) and the
//! VM's unit tests compare it against — values, host calls, typed
//! errors, and charged ops must all agree.
//!
//! The interpreter counts every evaluated statement/expression in
//! [`Interpreter::ops`] (via the shared [`Fuel`] budget). Its counts
//! define the cost model: the VM charges exactly the same ops, which the
//! browser engine converts into CPU cycles when charging callback
//! execution to the ACMP performance model, so heavier scripts genuinely
//! take longer frames.

use crate::ast::{BinaryOp, Expr, Program, Stmt, Target, UnaryOp};
use crate::atom::name_atom;
use crate::fuel::Fuel;
use crate::value::{Closure, Value};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// A shared, mutable lexical scope.
pub type ScopeRef = Rc<RefCell<Scope>>;

/// One lexical scope: bindings plus an optional parent.
///
/// Bindings are keyed by [`name_atom`] rather than by owned strings, so
/// a lookup is an integer probe per scope level. The tree-walker
/// atomizes on every access (it is the oracle, not the fast path); the
/// bytecode compiler atomizes once at compile time.
#[derive(Debug, Default)]
pub struct Scope {
    vars: HashMap<u64, Value>,
    parent: Option<ScopeRef>,
}

impl Scope {
    /// Creates a child scope of `parent`.
    pub fn child(parent: ScopeRef) -> ScopeRef {
        Rc::new(RefCell::new(Scope {
            vars: HashMap::new(),
            parent: Some(parent),
        }))
    }

    pub(crate) fn lookup(scope: &ScopeRef, name: &str) -> Option<Value> {
        Self::lookup_atom(scope, name_atom(name))
    }

    pub(crate) fn lookup_atom(scope: &ScopeRef, atom: u64) -> Option<Value> {
        let mut current = Some(scope.clone());
        while let Some(s) = current {
            let s = s.borrow();
            if let Some(v) = s.vars.get(&atom) {
                return Some(v.clone());
            }
            current = s.parent.clone();
        }
        None
    }

    pub(crate) fn declare(scope: &ScopeRef, name: &str, value: Value) {
        Self::declare_atom(scope, name_atom(name), value);
    }

    pub(crate) fn declare_atom(scope: &ScopeRef, atom: u64, value: Value) {
        scope.borrow_mut().vars.insert(atom, value);
    }

    pub(crate) fn assign(scope: &ScopeRef, name: &str, value: Value) -> bool {
        Self::assign_atom(scope, name_atom(name), value)
    }

    pub(crate) fn assign_atom(scope: &ScopeRef, atom: u64, value: Value) -> bool {
        let mut current = Some(scope.clone());
        while let Some(s) = current {
            let mut s = s.borrow_mut();
            if let Some(slot) = s.vars.get_mut(&atom) {
                *slot = value;
                return true;
            }
            current = s.parent.clone();
        }
        false
    }
}

/// Runtime error raised during execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ScriptError {
    message: String,
    op_limit: bool,
}

impl ScriptError {
    /// Creates a runtime error.
    pub fn new(message: impl Into<String>) -> Self {
        ScriptError {
            message: message.into(),
            op_limit: false,
        }
    }

    /// Creates the fuel-exhaustion error: the execution budget (op
    /// limit) ran out. Kept as a distinct class so embedders can treat
    /// a runaway script as a *watchdog* outcome rather than a program
    /// bug — the fleet supervisor quarantines the two differently.
    pub fn op_limit(message: impl Into<String>) -> Self {
        ScriptError {
            message: message.into(),
            op_limit: true,
        }
    }

    /// True when this error is fuel exhaustion ([`ScriptError::op_limit`])
    /// rather than a genuine runtime error.
    pub fn is_op_limit(&self) -> bool {
        self.op_limit
    }
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "script error: {}", self.message)
    }
}

impl std::error::Error for ScriptError {}

/// The host interface: native functions the embedding browser exposes to
/// scripts (`getElementById`, `requestAnimationFrame`, `work`, …).
///
/// `call` returns `None` when `name` is not a host function, letting the
/// interpreter report an undefined-variable error instead.
pub trait Host {
    /// Invokes host function `name` with `args`.
    fn call(&mut self, name: &str, args: &[Value]) -> Option<Result<Value, ScriptError>>;
}

/// A host providing no native functions (useful for pure computation).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHost;

impl Host for NoHost {
    fn call(&mut self, _name: &str, _args: &[Value]) -> Option<Result<Value, ScriptError>> {
        None
    }
}

/// Control-flow outcome of executing a statement.
enum Flow {
    Normal,
    Return(Value),
    Break,
    Continue,
}

/// The interpreter: global scope + execution budget + op counter.
#[derive(Debug)]
pub struct Interpreter {
    globals: ScopeRef,
    fuel: Fuel,
    rng_state: u64,
}

impl Interpreter {
    /// Default maximum number of evaluation steps per `run`/`call` before
    /// an infinite-loop error is raised (shared with the bytecode VM).
    pub const DEFAULT_OP_LIMIT: u64 = crate::fuel::DEFAULT_OP_LIMIT;

    /// Creates an interpreter with an empty global scope.
    pub fn new() -> Self {
        Interpreter {
            globals: Rc::new(RefCell::new(Scope::default())),
            fuel: Fuel::default(),
            rng_state: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Overrides the op limit (per whole interpreter lifetime).
    pub fn with_op_limit(mut self, limit: u64) -> Self {
        self.fuel.set_limit(limit);
        self
    }

    /// Sets the op limit on a live interpreter. Combined with
    /// [`Interpreter::reset_ops`] (which the engine calls per callback)
    /// this acts as a per-callback fuel ceiling: the watchdog budget a
    /// supervised run enforces against runaway generated workloads.
    pub fn set_op_limit(&mut self, limit: u64) {
        self.fuel.set_limit(limit);
    }

    /// The current op limit.
    pub fn op_limit(&self) -> u64 {
        self.fuel.limit()
    }

    /// Number of evaluation steps executed so far.
    pub fn ops(&self) -> u64 {
        self.fuel.used()
    }

    /// Resets the op counter (the engine does this per callback so each
    /// callback's cost is measured independently).
    pub fn reset_ops(&mut self) {
        self.fuel.reset();
    }

    /// Reads a global binding.
    pub fn global(&self, name: &str) -> Option<Value> {
        Scope::lookup(&self.globals, name)
    }

    /// Creates or overwrites a global binding.
    pub fn set_global(&mut self, name: impl Into<String>, value: Value) {
        Scope::declare(&self.globals, &name.into(), value);
    }

    /// Executes a whole program at global scope.
    ///
    /// # Errors
    ///
    /// Returns [`ScriptError`] on runtime errors (undefined variables,
    /// type errors, op-limit exhaustion, or errors raised by the host).
    pub fn run(&mut self, program: &Program, host: &mut dyn Host) -> Result<(), ScriptError> {
        let globals = self.globals.clone();
        for stmt in &program.body {
            if let Flow::Return(_) = self.exec_stmt(stmt, &globals, host)? {
                break;
            }
        }
        Ok(())
    }

    /// Calls a function value with `args`. Used by the engine to invoke
    /// event callbacks, rAF callbacks, and timers.
    ///
    /// # Errors
    ///
    /// Returns [`ScriptError`] if `callee` is not a function or its body
    /// raises an error.
    pub fn call_function(
        &mut self,
        callee: &Value,
        args: &[Value],
        host: &mut dyn Host,
    ) -> Result<Value, ScriptError> {
        match callee {
            Value::Function(closure) => self.invoke_closure(closure, args, host),
            other => Err(ScriptError::new(format!(
                "cannot call a value of type {}",
                other.type_name()
            ))),
        }
    }

    fn invoke_closure(
        &mut self,
        closure: &Rc<Closure>,
        args: &[Value],
        host: &mut dyn Host,
    ) -> Result<Value, ScriptError> {
        let scope = Scope::child(closure.env.clone());
        for (i, param) in closure.params.iter().enumerate() {
            Scope::declare(&scope, param, args.get(i).cloned().unwrap_or(Value::Null));
        }
        for stmt in closure.body.iter() {
            if let Flow::Return(v) = self.exec_stmt(stmt, &scope, host)? {
                return Ok(v);
            }
        }
        Ok(Value::Null)
    }

    fn tick(&mut self) -> Result<(), ScriptError> {
        self.fuel.tick()
    }

    fn exec_block(
        &mut self,
        body: &[Stmt],
        parent: &ScopeRef,
        host: &mut dyn Host,
    ) -> Result<Flow, ScriptError> {
        let scope = Scope::child(parent.clone());
        for stmt in body {
            match self.exec_stmt(stmt, &scope, host)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(
        &mut self,
        stmt: &Stmt,
        scope: &ScopeRef,
        host: &mut dyn Host,
    ) -> Result<Flow, ScriptError> {
        self.tick()?;
        match stmt {
            Stmt::VarDecl { name, init, .. } => {
                let value = match init {
                    Some(expr) => self.eval(expr, scope, host)?,
                    None => Value::Null,
                };
                Scope::declare(scope, name, value);
                Ok(Flow::Normal)
            }
            Stmt::FunctionDecl {
                name, params, body, ..
            } => {
                let closure = Value::Function(Rc::new(Closure {
                    name: name.clone(),
                    params: params.clone(),
                    body: body.clone(),
                    env: scope.clone(),
                }));
                Scope::declare(scope, name, closure);
                Ok(Flow::Normal)
            }
            Stmt::Expr(expr) => {
                self.eval(expr, scope, host)?;
                Ok(Flow::Normal)
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                if self.eval(cond, scope, host)?.is_truthy() {
                    self.exec_block(then_branch, scope, host)
                } else {
                    self.exec_block(else_branch, scope, host)
                }
            }
            Stmt::While { cond, body } => {
                while self.eval(cond, scope, host)?.is_truthy() {
                    match self.exec_block(body, scope, host)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::For {
                init,
                cond,
                update,
                body,
            } => {
                let loop_scope = Scope::child(scope.clone());
                if let Some(init) = init {
                    self.exec_stmt(init, &loop_scope, host)?;
                }
                loop {
                    let keep_going = match cond {
                        Some(cond) => self.eval(cond, &loop_scope, host)?.is_truthy(),
                        None => true,
                    };
                    if !keep_going {
                        break;
                    }
                    match self.exec_block(body, &loop_scope, host)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                    if let Some(update) = update {
                        self.eval(update, &loop_scope, host)?;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Return(value) => {
                let v = match value {
                    Some(expr) => self.eval(expr, scope, host)?,
                    None => Value::Null,
                };
                Ok(Flow::Return(v))
            }
            Stmt::Break => Ok(Flow::Break),
            Stmt::Continue => Ok(Flow::Continue),
            Stmt::Block(body) => self.exec_block(body, scope, host),
        }
    }

    fn eval(
        &mut self,
        expr: &Expr,
        scope: &ScopeRef,
        host: &mut dyn Host,
    ) -> Result<Value, ScriptError> {
        self.tick()?;
        match expr {
            Expr::Number(n) => Ok(Value::Number(*n)),
            Expr::Str(s) => Ok(Value::str(s)),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Null => Ok(Value::Null),
            Expr::Var(name) => Scope::lookup(scope, name)
                .ok_or_else(|| ScriptError::new(format!("undefined variable `{name}`"))),
            Expr::Array(items) => {
                let values = items
                    .iter()
                    .map(|e| self.eval(e, scope, host))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Value::array(values))
            }
            Expr::Object(entries) => {
                let object = Value::object();
                if let Value::Object(map) = &object {
                    for (key, expr) in entries {
                        let value = self.eval(expr, scope, host)?;
                        map.borrow_mut().insert(key.clone(), value);
                    }
                }
                Ok(object)
            }
            Expr::Function { params, body } => Ok(Value::Function(Rc::new(Closure {
                name: String::new(),
                params: params.clone(),
                body: body.clone(),
                env: scope.clone(),
            }))),
            Expr::Assign { target, value } => {
                let value = self.eval(value, scope, host)?;
                self.assign(target, value.clone(), scope, host)?;
                Ok(value)
            }
            Expr::Binary { op, lhs, rhs } => self.eval_binary(*op, lhs, rhs, scope, host),
            Expr::Unary { op, operand } => {
                let v = self.eval(operand, scope, host)?;
                match op {
                    UnaryOp::Neg => match v {
                        Value::Number(n) => Ok(Value::Number(-n)),
                        other => Err(ScriptError::new(format!(
                            "cannot negate a {}",
                            other.type_name()
                        ))),
                    },
                    UnaryOp::Not => Ok(Value::Bool(!v.is_truthy())),
                }
            }
            Expr::Conditional {
                cond,
                then_value,
                else_value,
            } => {
                if self.eval(cond, scope, host)?.is_truthy() {
                    self.eval(then_value, scope, host)
                } else {
                    self.eval(else_value, scope, host)
                }
            }
            Expr::Call { callee, args, line } => self.eval_call(callee, args, *line, scope, host),
            Expr::Member { object, property } => {
                let obj = self.eval(object, scope, host)?;
                self.get_member(&obj, property)
            }
            Expr::Index { object, index } => {
                let obj = self.eval(object, scope, host)?;
                let idx = self.eval(index, scope, host)?;
                self.get_index(&obj, &idx)
            }
        }
    }

    fn eval_binary(
        &mut self,
        op: BinaryOp,
        lhs: &Expr,
        rhs: &Expr,
        scope: &ScopeRef,
        host: &mut dyn Host,
    ) -> Result<Value, ScriptError> {
        // Short-circuit operators.
        match op {
            BinaryOp::And => {
                let l = self.eval(lhs, scope, host)?;
                return if l.is_truthy() {
                    self.eval(rhs, scope, host)
                } else {
                    Ok(l)
                };
            }
            BinaryOp::Or => {
                let l = self.eval(lhs, scope, host)?;
                return if l.is_truthy() {
                    Ok(l)
                } else {
                    self.eval(rhs, scope, host)
                };
            }
            _ => {}
        }
        let l = self.eval(lhs, scope, host)?;
        let r = self.eval(rhs, scope, host)?;
        crate::builtins::binary_op(op, &l, &r)
    }

    fn eval_call(
        &mut self,
        callee: &Expr,
        args: &[Expr],
        line: u32,
        scope: &ScopeRef,
        host: &mut dyn Host,
    ) -> Result<Value, ScriptError> {
        // Method-style calls: builtin methods on arrays/strings and the
        // Math namespace.
        if let Expr::Member { object, property } = callee {
            if let Expr::Var(ns) = &**object {
                if ns == "Math" && Scope::lookup(scope, ns).is_none() {
                    let values = self.eval_args(args, scope, host)?;
                    return self.math_call(property, &values);
                }
            }
            let obj = self.eval(object, scope, host)?;
            match &obj {
                Value::Array(items) => {
                    let values = self.eval_args(args, scope, host)?;
                    return crate::builtins::array_method(items, property, &values);
                }
                Value::Str(s) => {
                    let values = self.eval_args(args, scope, host)?;
                    return crate::builtins::string_method(s, property, &values);
                }
                Value::Object(map) => {
                    let method = map.borrow().get(property.as_str()).cloned();
                    if let Some(f) = method {
                        let values = self.eval_args(args, scope, host)?;
                        return self.call_function(&f, &values, host);
                    }
                    return Err(ScriptError::new(format!(
                        "object has no method `{property}` (line {line})"
                    )));
                }
                other => {
                    return Err(ScriptError::new(format!(
                        "{} has no method `{property}` (line {line})",
                        other.type_name()
                    )))
                }
            }
        }
        // Bare-name calls: script function, else host function.
        if let Expr::Var(name) = callee {
            match Scope::lookup(scope, name) {
                Some(f) => {
                    let values = self.eval_args(args, scope, host)?;
                    return self.call_function(&f, &values, host);
                }
                None => {
                    let values = self.eval_args(args, scope, host)?;
                    return match host.call(name, &values) {
                        Some(result) => result,
                        None => Err(ScriptError::new(format!(
                            "undefined function `{name}` (line {line})"
                        ))),
                    };
                }
            }
        }
        let f = self.eval(callee, scope, host)?;
        let values = self.eval_args(args, scope, host)?;
        self.call_function(&f, &values, host)
    }

    fn eval_args(
        &mut self,
        args: &[Expr],
        scope: &ScopeRef,
        host: &mut dyn Host,
    ) -> Result<Vec<Value>, ScriptError> {
        args.iter().map(|a| self.eval(a, scope, host)).collect()
    }

    fn math_call(&mut self, name: &str, args: &[Value]) -> Result<Value, ScriptError> {
        crate::builtins::math_call(&mut self.rng_state, name, args)
    }
    fn get_member(&self, obj: &Value, property: &str) -> Result<Value, ScriptError> {
        crate::builtins::get_member(obj, property)
    }
    fn get_index(&self, obj: &Value, index: &Value) -> Result<Value, ScriptError> {
        crate::builtins::get_index(obj, index)
    }
    fn assign(
        &mut self,
        target: &Target,
        value: Value,
        scope: &ScopeRef,
        host: &mut dyn Host,
    ) -> Result<(), ScriptError> {
        match target {
            Target::Var(name) => {
                if Scope::assign(scope, name, value) {
                    Ok(())
                } else {
                    Err(ScriptError::new(format!(
                        "assignment to undeclared variable `{name}`"
                    )))
                }
            }
            Target::Member(object, property) => {
                let obj = self.eval(object, scope, host)?;
                crate::builtins::set_member(&obj, property, value)
            }
            Target::Index(object, index) => {
                let obj = self.eval(object, scope, host)?;
                let idx = self.eval(index, scope, host)?;
                crate::builtins::set_index(&obj, &idx, value)
            }
        }
    }
}

impl Default for Interpreter {
    fn default() -> Self {
        Interpreter::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn run(src: &str) -> Interpreter {
        let program = parse_program(src).unwrap();
        let mut interp = Interpreter::new();
        interp.run(&program, &mut NoHost).unwrap();
        interp
    }

    fn global_number(interp: &Interpreter, name: &str) -> f64 {
        interp.global(name).unwrap().as_number().unwrap()
    }

    #[test]
    fn arithmetic_and_precedence() {
        let interp = run("var x = 1 + 2 * 3 - 4 / 2;");
        assert_eq!(global_number(&interp, "x"), 5.0);
    }

    #[test]
    fn string_concatenation() {
        let interp = run("var s = 'a' + 1 + true;");
        assert_eq!(interp.global("s").unwrap().as_str(), Some("a1true"));
    }

    #[test]
    fn recursion_fibonacci() {
        let interp = run(
            "function fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
             var x = fib(15);",
        );
        assert_eq!(global_number(&interp, "x"), 610.0);
    }

    #[test]
    fn closures_capture_environment() {
        let interp = run(
            "function counter() { var n = 0; return function() { n = n + 1; return n; }; }
             var c = counter();
             c(); c();
             var x = c();",
        );
        assert_eq!(global_number(&interp, "x"), 3.0);
    }

    #[test]
    fn while_loop_with_break_continue() {
        let interp = run("var sum = 0; var i = 0;
             while (true) {
               i = i + 1;
               if (i > 10) { break; }
               if (i % 2 == 0) { continue; }
               sum = sum + i;
             }");
        assert_eq!(global_number(&interp, "sum"), 25.0);
    }

    #[test]
    fn for_loop_sums() {
        let interp = run("var s = 0; for (var i = 1; i <= 100; i++) { s += i; }");
        assert_eq!(global_number(&interp, "s"), 5050.0);
    }

    #[test]
    fn arrays_push_index_length() {
        let interp = run(
            "var a = [1, 2]; a.push(3); a[0] = 10; var n = a.length; var v = a[2]; var j = a.join('-');",
        );
        assert_eq!(global_number(&interp, "n"), 3.0);
        assert_eq!(global_number(&interp, "v"), 3.0);
        assert_eq!(interp.global("j").unwrap().as_str(), Some("10-2-3"));
    }

    #[test]
    fn objects_member_and_index() {
        let interp = run(
            "var o = { a: 1 }; o.b = 2; o['c'] = 3; var x = o.a + o.b + o['c']; var missing = o.zzz;",
        );
        assert_eq!(global_number(&interp, "x"), 6.0);
        assert_eq!(interp.global("missing"), Some(Value::Null));
    }

    #[test]
    fn object_method_call() {
        let interp = run("var o = { val: 5, get: function() { return 42; } }; var x = o.get();");
        assert_eq!(global_number(&interp, "x"), 42.0);
    }

    #[test]
    fn math_builtins() {
        let interp = run("var x = Math.floor(3.7) + Math.max(1, 2) + Math.pow(2, 3);");
        assert_eq!(global_number(&interp, "x"), 13.0);
    }

    #[test]
    fn math_random_is_deterministic() {
        let a = run("var x = Math.random();");
        let b = run("var x = Math.random();");
        assert_eq!(global_number(&a, "x"), global_number(&b, "x"));
        let x = global_number(&a, "x");
        assert!((0.0..1.0).contains(&x));
    }

    #[test]
    fn ternary_and_logic() {
        let interp = run("var x = (1 < 2 && 3 > 2) ? 'yes' : 'no'; var y = null || 5;");
        assert_eq!(interp.global("x").unwrap().as_str(), Some("yes"));
        assert_eq!(global_number(&interp, "y"), 5.0);
    }

    #[test]
    fn string_methods() {
        let interp = run(
            "var s = 'Hello'; var up = s.toUpperCase(); var i = s.indexOf('ll'); var sub = s.substring(1, 3);",
        );
        assert_eq!(interp.global("up").unwrap().as_str(), Some("HELLO"));
        assert_eq!(global_number(&interp, "i"), 2.0);
        assert_eq!(interp.global("sub").unwrap().as_str(), Some("el"));
    }

    #[test]
    fn undefined_variable_errors() {
        let program = parse_program("var x = nope;").unwrap();
        let err = Interpreter::new().run(&program, &mut NoHost).unwrap_err();
        assert!(err.to_string().contains("undefined variable"));
    }

    #[test]
    fn undeclared_assignment_errors() {
        let program = parse_program("nope = 1;").unwrap();
        let err = Interpreter::new().run(&program, &mut NoHost).unwrap_err();
        assert!(err.to_string().contains("undeclared"));
    }

    #[test]
    fn op_limit_stops_infinite_loop() {
        let program = parse_program("while (true) { }").unwrap();
        let mut interp = Interpreter::new().with_op_limit(10_000);
        let err = interp.run(&program, &mut NoHost).unwrap_err();
        assert!(err.to_string().contains("op limit"));
        assert!(err.is_op_limit(), "fuel exhaustion must be typed");
    }

    #[test]
    fn op_limit_is_retunable_on_a_live_interpreter() {
        let program = parse_program("while (true) { }").unwrap();
        let mut interp = Interpreter::new();
        interp.set_op_limit(500);
        assert_eq!(interp.op_limit(), 500);
        let err = interp.run(&program, &mut NoHost).unwrap_err();
        assert!(err.is_op_limit());
        assert!(interp.ops() <= 501, "must stop right at the ceiling");
    }

    #[test]
    fn ordinary_errors_are_not_fuel_exhaustion() {
        let program = parse_program("nope = 1;").unwrap();
        let err = Interpreter::new().run(&program, &mut NoHost).unwrap_err();
        assert!(!err.is_op_limit());
    }

    #[test]
    fn ops_counter_scales_with_work() {
        let small = run("var s = 0; for (var i = 0; i < 10; i++) { s += i; }");
        let large = run("var s = 0; for (var i = 0; i < 1000; i++) { s += i; }");
        assert!(large.ops() > small.ops() * 10);
    }

    struct RecordingHost {
        calls: Vec<(String, Vec<Value>)>,
    }

    impl Host for RecordingHost {
        fn call(&mut self, name: &str, args: &[Value]) -> Option<Result<Value, ScriptError>> {
            if name == "work" {
                self.calls.push((name.to_string(), args.to_vec()));
                Some(Ok(Value::Null))
            } else if name == "now" {
                Some(Ok(Value::Number(123.0)))
            } else {
                None
            }
        }
    }

    #[test]
    fn host_functions_called_by_bare_name() {
        let program = parse_program("work(500); var t = now();").unwrap();
        let mut interp = Interpreter::new();
        let mut host = RecordingHost { calls: Vec::new() };
        interp.run(&program, &mut host).unwrap();
        assert_eq!(host.calls.len(), 1);
        assert_eq!(host.calls[0].1[0], Value::Number(500.0));
        assert_eq!(interp.global("t"), Some(Value::Number(123.0)));
    }

    #[test]
    fn script_function_shadows_host() {
        let program = parse_program("function now() { return 1; } var t = now();").unwrap();
        let mut interp = Interpreter::new();
        let mut host = RecordingHost { calls: Vec::new() };
        interp.run(&program, &mut host).unwrap();
        assert_eq!(interp.global("t"), Some(Value::Number(1.0)));
    }

    #[test]
    fn call_function_from_host_side() {
        let program = parse_program("function double(x) { return x * 2; }").unwrap();
        let mut interp = Interpreter::new();
        interp.run(&program, &mut NoHost).unwrap();
        let f = interp.global("double").unwrap();
        let result = interp
            .call_function(&f, &[Value::Number(21.0)], &mut NoHost)
            .unwrap();
        assert_eq!(result, Value::Number(42.0));
    }

    #[test]
    fn calling_non_function_errors() {
        let mut interp = Interpreter::new();
        let err = interp
            .call_function(&Value::Number(1.0), &[], &mut NoHost)
            .unwrap_err();
        assert!(err.to_string().contains("cannot call"));
    }

    #[test]
    fn set_global_visible_to_script() {
        let program = parse_program("var y = seed * 2;").unwrap();
        let mut interp = Interpreter::new();
        interp.set_global("seed", Value::Number(21.0));
        interp.run(&program, &mut NoHost).unwrap();
        assert_eq!(interp.global("y"), Some(Value::Number(42.0)));
    }

    #[test]
    fn block_scoping() {
        let interp = run("var x = 1; { var x = 2; } var y = x;");
        assert_eq!(global_number(&interp, "y"), 1.0);
    }

    #[test]
    fn division_by_zero_is_infinity() {
        let interp = run("var x = 1 / 0;");
        assert_eq!(global_number(&interp, "x"), f64::INFINITY);
    }
}
