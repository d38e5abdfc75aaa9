//! The bytecode virtual machine: the engine's only script executor.
//!
//! Executes [`crate::compiler::CompiledProgram`]s on an operand stack
//! with the same observable semantics as the crate's test-only
//! tree-walking oracle — same values, same scoping (a shared
//! scope-chain representation), same typed errors with the same source
//! lines, same host interface, same deterministic `Math.random`. The
//! differential test suite runs random programs through both executors
//! and requires identical results.
//!
//! Two counters, two meanings:
//!
//! - [`Vm::ops`] is the *charged* count: per-instruction fuel weights
//!   from [`crate::compiler::Proto::ticks`] that sum to exactly what the
//!   tree-walker would have ticked for the same execution. The engine's
//!   cost model, `RunBudget.max_callback_ops`, and trace attribution all
//!   read this, so switching backends changes no simulated numbers.
//! - [`Vm::dispatches`] is the *raw* instruction count — what the VM
//!   actually executed. Every compiled instruction carries tick weight
//!   0 or 1, so dispatches never fall below ops; the script bench
//!   reports both.
//!
//! One documented divergence: shadowing the `Math` namespace with a user
//! binding is rejected at runtime by the VM (the compiler specializes
//! `Math.*` calls), where the oracle would treat it as an object.

use crate::atom::name_atom;
use crate::builtins;
use crate::compiler::{compile, CompiledProgram, Const, Op, Proto};
use crate::fuel::Fuel;
use crate::parser::parse_program;
use crate::runtime::{Host, Scope, ScopeRef, ScriptError};
use crate::value::{Value, VmClosure};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// The bytecode VM: global scope + op budget + RNG state.
#[derive(Debug)]
pub struct Vm {
    globals: ScopeRef,
    fuel: Fuel,
    dispatches: u64,
    rng_state: u64,
}

impl Vm {
    /// Creates a VM with an empty global scope.
    pub fn new() -> Self {
        Vm {
            globals: Rc::new(RefCell::new(Scope::default())),
            fuel: Fuel::default(),
            dispatches: 0,
            rng_state: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Overrides the op limit.
    pub fn with_op_limit(mut self, limit: u64) -> Self {
        self.fuel.set_limit(limit);
        self
    }

    /// Sets the fuel ceiling on a live VM. Combined with
    /// [`Vm::reset_ops`] (which the engine calls per callback) this acts
    /// as a per-callback fuel ceiling: the watchdog budget a supervised
    /// run enforces against runaway generated workloads.
    pub fn set_op_limit(&mut self, limit: u64) {
        self.fuel.set_limit(limit);
    }

    /// The current op limit.
    pub fn op_limit(&self) -> u64 {
        self.fuel.limit()
    }

    /// Evaluation steps charged so far: equals the tree-walking
    /// oracle's op count for the same execution (see module docs).
    pub fn ops(&self) -> u64 {
        self.fuel.used()
    }

    /// Raw instructions executed so far (at least [`Vm::ops`] for
    /// compiled code: weight-0 instructions dispatch without charging).
    pub fn dispatches(&self) -> u64 {
        self.dispatches
    }

    /// Resets both counters (the engine does this per callback so each
    /// callback's cost is measured independently).
    pub fn reset_ops(&mut self) {
        self.fuel.reset();
        self.dispatches = 0;
    }

    /// Reads a global binding.
    pub fn global(&self, name: &str) -> Option<Value> {
        Scope::lookup(&self.globals, name)
    }

    /// Creates or overwrites a global binding.
    pub fn set_global(&mut self, name: impl Into<String>, value: Value) {
        Scope::declare(&self.globals, &name.into(), value);
    }

    /// Compiles and runs `source` in one step.
    ///
    /// # Errors
    ///
    /// Returns [`ScriptError`] on parse, compile, or runtime errors.
    pub fn run_source(&mut self, source: &str, host: &mut dyn Host) -> Result<(), ScriptError> {
        let program = parse_program(source).map_err(|e| ScriptError::new(e.to_string()))?;
        let compiled = compile(&program).map_err(|e| ScriptError::new(e.to_string()))?;
        self.run(&compiled, host)
    }

    /// Runs a compiled program at global scope.
    ///
    /// # Errors
    ///
    /// Returns [`ScriptError`] on runtime errors.
    pub fn run(
        &mut self,
        program: &CompiledProgram,
        host: &mut dyn Host,
    ) -> Result<(), ScriptError> {
        // The main body runs directly in the global scope, like the
        // tree-walking interpreter.
        let globals = self.globals.clone();
        self.exec(Arc::clone(&program.protos), program.main, globals, host)?;
        Ok(())
    }

    /// Calls a VM function value with `args`.
    ///
    /// # Errors
    ///
    /// Returns [`ScriptError`] if `callee` is not a VM function.
    pub fn call_function(
        &mut self,
        callee: &Value,
        args: &[Value],
        host: &mut dyn Host,
    ) -> Result<Value, ScriptError> {
        match callee {
            Value::VmFunction(closure) => {
                let frame = Scope::child(closure.env.clone());
                let proto = closure.protos.get(closure.proto).ok_or_else(|| {
                    ScriptError::new(format!(
                        "malformed bytecode: closure proto index {} out of range",
                        closure.proto
                    ))
                })?;
                for (i, param) in proto.params.iter().enumerate() {
                    let atom = proto
                        .param_atoms
                        .get(i)
                        .copied()
                        .unwrap_or_else(|| name_atom(param));
                    Scope::declare_atom(&frame, atom, args.get(i).cloned().unwrap_or(Value::Null));
                }
                self.exec(Arc::clone(&closure.protos), closure.proto, frame, host)
            }
            other => Err(ScriptError::new(format!(
                "cannot call a value of type {}",
                other.type_name()
            ))),
        }
    }

    fn exec(
        &mut self,
        protos: Arc<Vec<Proto>>,
        proto_idx: usize,
        frame_scope: ScopeRef,
        host: &mut dyn Host,
    ) -> Result<Value, ScriptError> {
        let proto = protos.get(proto_idx).ok_or_else(|| {
            ScriptError::new(format!(
                "malformed bytecode: proto index {proto_idx} out of range"
            ))
        })?;
        let mut scopes: Vec<ScopeRef> = vec![frame_scope];
        let mut stack: Vec<Value> = Vec::with_capacity(16);
        let mut pc: usize = 0;
        // The source line of the instruction at `pc - 1` (the one being
        // executed), for interpreter-identical call-site error messages.
        // Hand-built protos without spans report line 0.
        let line_at =
            |pc: usize| -> u32 { proto.spans.get(pc.wrapping_sub(1)).copied().unwrap_or(0) };
        macro_rules! pop {
            () => {
                stack
                    .pop()
                    .ok_or_else(|| ScriptError::new("stack underflow"))?
            };
        }
        // Operand accessors for potentially hostile bytecode: a proto
        // whose operands index outside its tables is a runtime error, not
        // a panic, so static tooling can execute untrusted programs.
        macro_rules! name_at {
            ($i:expr) => {
                proto.names.get($i as usize).ok_or_else(|| {
                    ScriptError::new(format!(
                        "malformed bytecode: name index {} out of range",
                        $i
                    ))
                })?
            };
        }
        // The precomputed atom of name `$i`, falling back to hashing the
        // (already validated) name for protos without an atom table.
        macro_rules! atom_at {
            ($i:expr, $name:expr) => {
                proto
                    .name_atoms
                    .get($i as usize)
                    .copied()
                    .unwrap_or_else(|| name_atom($name))
            };
        }
        macro_rules! split_args {
            ($n:expr) => {{
                let n = $n as usize;
                if stack.len() < n {
                    return Err(ScriptError::new(format!(
                        "malformed bytecode: {n} stacked arguments expected, {} present",
                        stack.len()
                    )));
                }
                let at = stack.len() - n;
                stack.split_off(at)
            }};
        }
        while pc < proto.code.len() {
            self.dispatches += 1;
            // Charge this instruction's tick weight (the interpreter
            // ticks it accounts for). Protos without a tick table — only
            // hand-built ones — charge 1 per instruction so runaway
            // hostile bytecode still trips the watchdog.
            self.fuel
                .charge(u64::from(proto.ticks.get(pc).copied().unwrap_or(1)))?;
            let op = proto.code[pc];
            pc += 1;
            match op {
                Op::Const(i) => {
                    let konst = proto.consts.get(i as usize).ok_or_else(|| {
                        ScriptError::new(format!(
                            "malformed bytecode: constant index {i} out of range"
                        ))
                    })?;
                    stack.push(match konst {
                        Const::Null => Value::Null,
                        Const::Bool(b) => Value::Bool(*b),
                        Const::Number(n) => Value::Number(*n),
                        Const::Str(s) => Value::str(s),
                    });
                }
                Op::GetVar(i) => {
                    let name = name_at!(i);
                    let atom = atom_at!(i, name);
                    let scope = scopes.last().expect("frame scope always present");
                    let value = Scope::lookup_atom(scope, atom)
                        .ok_or_else(|| ScriptError::new(format!("undefined variable `{name}`")))?;
                    stack.push(value);
                }
                Op::SetVar(i) => {
                    let name = name_at!(i);
                    let atom = atom_at!(i, name);
                    let value = pop!();
                    let scope = scopes.last().expect("frame scope always present");
                    if !Scope::assign_atom(scope, atom, value) {
                        return Err(ScriptError::new(format!(
                            "assignment to undeclared variable `{name}`"
                        )));
                    }
                }
                Op::DeclVar(i) => {
                    let name = name_at!(i);
                    let atom = atom_at!(i, name);
                    let value = pop!();
                    let scope = scopes.last().expect("frame scope always present");
                    Scope::declare_atom(scope, atom, value);
                }
                Op::Pop => {
                    pop!();
                }
                Op::Dup => {
                    let top = stack
                        .last()
                        .cloned()
                        .ok_or_else(|| ScriptError::new("stack underflow"))?;
                    stack.push(top);
                }
                Op::PushScope => {
                    let parent = scopes.last().expect("frame scope always present").clone();
                    scopes.push(Scope::child(parent));
                }
                Op::PopScope => {
                    if scopes.len() <= 1 {
                        return Err(ScriptError::new("scope underflow"));
                    }
                    scopes.pop();
                }
                Op::Binary(binop) => {
                    let r = pop!();
                    let l = pop!();
                    stack.push(builtins::binary_op(binop, &l, &r)?);
                }
                Op::Unary(unop) => {
                    let v = pop!();
                    stack.push(match unop {
                        crate::ast::UnaryOp::Neg => match v {
                            Value::Number(n) => Value::Number(-n),
                            other => {
                                return Err(ScriptError::new(format!(
                                    "cannot negate a {}",
                                    other.type_name()
                                )))
                            }
                        },
                        crate::ast::UnaryOp::Not => Value::Bool(!v.is_truthy()),
                    });
                }
                Op::Jump(t) => pc = t as usize,
                Op::JumpIfFalse(t) => {
                    if !pop!().is_truthy() {
                        pc = t as usize;
                    }
                }
                Op::JumpIfFalsePeek(t) => {
                    let falsy = !stack
                        .last()
                        .ok_or_else(|| ScriptError::new("stack underflow"))?
                        .is_truthy();
                    if falsy {
                        pc = t as usize;
                    }
                }
                Op::JumpIfTruePeek(t) => {
                    let truthy = stack
                        .last()
                        .ok_or_else(|| ScriptError::new("stack underflow"))?
                        .is_truthy();
                    if truthy {
                        pc = t as usize;
                    }
                }
                Op::MakeArray(n) => {
                    let items = split_args!(n);
                    stack.push(Value::array(items));
                }
                Op::MakeObject { base, count } => {
                    let values = split_args!(count);
                    let object = Value::object();
                    if let Value::Object(map) = &object {
                        let mut map = map.borrow_mut();
                        for (i, value) in values.into_iter().enumerate() {
                            let key = name_at!(base as usize + i).clone();
                            map.insert(key, value);
                        }
                    }
                    stack.push(object);
                }
                Op::MakeClosure(idx) => {
                    let scope = scopes.last().expect("frame scope always present").clone();
                    let Some(closure) = VmClosure::new(idx as usize, Arc::clone(&protos), scope)
                    else {
                        return Err(ScriptError::new(format!(
                            "malformed bytecode: proto index {idx} out of range"
                        )));
                    };
                    stack.push(Value::VmFunction(Rc::new(closure)));
                }
                Op::CallName { name, argc } => {
                    let args: Vec<Value> = split_args!(argc);
                    let name_idx = name;
                    let name = name_at!(name_idx);
                    let atom = atom_at!(name_idx, name);
                    let scope = scopes.last().expect("frame scope always present");
                    match Scope::lookup_atom(scope, atom) {
                        Some(callee) => {
                            let result = self.call_function(&callee, &args, host)?;
                            stack.push(result);
                        }
                        None => match host.call(name, &args) {
                            Some(result) => stack.push(result?),
                            None => {
                                return Err(ScriptError::new(format!(
                                    "undefined function `{name}` (line {})",
                                    line_at(pc)
                                )))
                            }
                        },
                    }
                }
                Op::CallValue { argc } => {
                    let args: Vec<Value> = split_args!(argc);
                    let callee = pop!();
                    let result = self.call_function(&callee, &args, host)?;
                    stack.push(result);
                }
                Op::CallMethod { name, argc } => {
                    let args: Vec<Value> = split_args!(argc);
                    let object = pop!();
                    let name = name_at!(name);
                    let result = match &object {
                        Value::Array(items) => builtins::array_method(items, name, &args)?,
                        Value::Str(s) => builtins::string_method(s, name, &args)?,
                        Value::Object(map) => {
                            let method = map.borrow().get(name.as_str()).cloned();
                            match method {
                                Some(f) => self.call_function(&f, &args, host)?,
                                None => {
                                    return Err(ScriptError::new(format!(
                                        "object has no method `{name}` (line {})",
                                        line_at(pc)
                                    )))
                                }
                            }
                        }
                        other => {
                            return Err(ScriptError::new(format!(
                                "{} has no method `{name}` (line {})",
                                other.type_name(),
                                line_at(pc)
                            )))
                        }
                    };
                    stack.push(result);
                }
                Op::CallMath { name, argc } => {
                    let args: Vec<Value> = split_args!(argc);
                    let scope = scopes.last().expect("frame scope always present");
                    if Scope::lookup(scope, "Math").is_some() {
                        return Err(ScriptError::new(
                            "shadowing `Math` is not supported by the bytecode backend",
                        ));
                    }
                    let name = name_at!(name);
                    stack.push(builtins::math_call(&mut self.rng_state, name, &args)?);
                }
                Op::GetMember(i) => {
                    let object = pop!();
                    stack.push(builtins::get_member(&object, name_at!(i))?);
                }
                Op::SetMember(i) => {
                    let object = pop!();
                    let value = pop!();
                    builtins::set_member(&object, name_at!(i), value)?;
                }
                Op::GetIndex => {
                    let index = pop!();
                    let object = pop!();
                    stack.push(builtins::get_index(&object, &index)?);
                }
                Op::SetIndex => {
                    let index = pop!();
                    let object = pop!();
                    let value = pop!();
                    builtins::set_index(&object, &index, value)?;
                }
                Op::Return => {
                    return Ok(pop!());
                }
            }
        }
        Ok(Value::Null)
    }
}

impl Default for Vm {
    fn default() -> Self {
        Vm::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interpreter;
    use crate::NoHost;

    fn run(src: &str) -> Vm {
        let mut vm = Vm::new();
        vm.run_source(src, &mut NoHost).unwrap();
        vm
    }

    fn number(vm: &Vm, name: &str) -> f64 {
        vm.global(name).unwrap().as_number().unwrap()
    }

    #[test]
    fn arithmetic() {
        let vm = run("var x = 1 + 2 * 3 - 4 / 2;");
        assert_eq!(number(&vm, "x"), 5.0);
    }

    #[test]
    fn reserved_words_are_property_names() {
        let vm = run("var o = { if: 1, return: 2, 'x': 3 };
             o.while = 4;
             var s = o.if + o.return + o.x + o.while;");
        assert_eq!(number(&vm, "s"), 10.0);
    }

    #[test]
    fn control_flow() {
        let vm = run("var s = 0;
             for (var i = 1; i <= 100; i++) { s += i; }
             var sign = s > 0 ? 'pos' : 'neg';
             var clipped = 0;
             while (true) { clipped = clipped + 1; if (clipped >= 7) { break; } }");
        assert_eq!(number(&vm, "s"), 5050.0);
        assert_eq!(vm.global("sign").unwrap().as_str(), Some("pos"));
        assert_eq!(number(&vm, "clipped"), 7.0);
    }

    #[test]
    fn continue_skips() {
        let vm = run("var sum = 0;
             for (var i = 0; i < 10; i++) { if (i % 2 == 0) { continue; } sum += i; }");
        assert_eq!(number(&vm, "sum"), 25.0);
    }

    #[test]
    fn functions_and_recursion() {
        let vm = run(
            "function fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
             var x = fib(15);",
        );
        assert_eq!(number(&vm, "x"), 610.0);
    }

    #[test]
    fn closures_capture() {
        let vm = run(
            "function counter() { var n = 0; return function() { n = n + 1; return n; }; }
             var c = counter();
             c(); c();
             var x = c();",
        );
        assert_eq!(number(&vm, "x"), 3.0);
    }

    #[test]
    fn arrays_objects_strings() {
        let vm = run("var a = [1, 2]; a.push(3); a[0] = 10;
             var o = { k: 4 }; o.j = o.k + a.length;
             var s = 'Hello'.toUpperCase();
             var n = a[0] + o.j;");
        assert_eq!(number(&vm, "n"), 17.0);
        assert_eq!(vm.global("s").unwrap().as_str(), Some("HELLO"));
    }

    #[test]
    fn math_namespace() {
        let vm = run("var x = Math.floor(3.9) + Math.pow(2, 5);");
        assert_eq!(number(&vm, "x"), 35.0);
    }

    #[test]
    fn short_circuit() {
        let vm = run("var a = null || 5; var b = 0 && boom(); var c = 1 && 2;");
        assert_eq!(number(&vm, "a"), 5.0);
        assert_eq!(number(&vm, "b"), 0.0);
        assert_eq!(number(&vm, "c"), 2.0);
    }

    #[test]
    fn block_scoping_matches_interpreter() {
        let vm = run("var x = 1; { var x = 2; } var y = x;");
        assert_eq!(number(&vm, "y"), 1.0);
    }

    #[test]
    fn break_inside_nested_block_unwinds_scopes() {
        let vm = run("var out = 0;
             for (var i = 0; i < 5; i++) {
                 { var tmp = i * 10; if (i == 2) { out = tmp; break; } }
             }");
        assert_eq!(number(&vm, "out"), 20.0);
    }

    #[test]
    fn charged_ops_match_the_interpreter_exactly() {
        // The tick-parity contract: for any successful execution the VM
        // charges exactly what the tree-walker ticks, so the engine's
        // cost model is backend-independent.
        let cases = [
            "var x = 1 + 2 * 3 - 4 / 2;",
            "var s = 0; for (var i = 1; i <= 50; i++) { s += i; }",
            "var i = 0; while (i < 10) { i = i + 1; }",
            "function fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
             var x = fib(10);",
            "var a = [1, 2]; a.push(3); a[0] = 10; var n = a.length;",
            "var o = { k: 1, f: function() { return 2; } }; var x = o.f() + o.k;",
            "var s = 'abc'.toUpperCase() + 'd';",
            "var x = Math.floor(3.9) + Math.min(1, 2);",
            "var t = 1 < 2 ? 'y' : 'n'; var u = null || 5; var v = 1 && 2;",
            "if (true) { var a = 1; } else { var b = 2; }",
            "while (0) { boom(); } var after = 1;",
            "var sum = 0;
             for (var i = 0; i < 10; i++) { if (i % 2 == 0) { continue; } sum += i; }",
            "var out = 0;
             for (var i = 0; i < 5; i++) { { var tmp = i; if (i == 2) { out = tmp; break; } } }",
            "var empty = 0; { } { var inner = 1; empty = inner; }",
            "var r = Math.random() + Math.random();",
            "var x = -(2 + 3); var y = !false;",
        ];
        for src in cases {
            let mut vm = Vm::new();
            vm.run_source(src, &mut NoHost).unwrap();
            let mut interp = Interpreter::new();
            interp
                .run(&crate::parse_program(src).unwrap(), &mut NoHost)
                .unwrap();
            assert_eq!(
                vm.ops(),
                interp.ops(),
                "charged ops diverge from the oracle for {src:?}"
            );
        }
    }

    #[test]
    fn reset_ops_clears_both_counters() {
        let mut vm = run("var x = 1 + 2;");
        assert!(vm.ops() > 0);
        assert!(vm.dispatches() > 0);
        vm.reset_ops();
        assert_eq!(vm.ops(), 0);
        assert_eq!(vm.dispatches(), 0);
    }

    #[test]
    fn call_errors_carry_source_lines_like_the_interpreter() {
        let src = "var x = 1;\nmissing(x);\n";
        let mut vm = Vm::new();
        let vm_err = vm.run_source(src, &mut NoHost).unwrap_err();
        let mut interp = Interpreter::new();
        let interp_err = interp
            .run(&crate::parse_program(src).unwrap(), &mut NoHost)
            .unwrap_err();
        assert_eq!(vm_err.to_string(), interp_err.to_string());
        assert!(vm_err.to_string().contains("(line 2)"));

        let src = "var o = { a: 1 };\nvar y = o.nope();\n";
        let mut vm = Vm::new();
        let vm_err = vm.run_source(src, &mut NoHost).unwrap_err();
        let mut interp = Interpreter::new();
        let interp_err = interp
            .run(&crate::parse_program(src).unwrap(), &mut NoHost)
            .unwrap_err();
        assert_eq!(vm_err.to_string(), interp_err.to_string());
        assert!(vm_err.to_string().contains("(line 2)"));
    }

    #[test]
    fn op_limit_stops_loops() {
        let mut vm = Vm::new().with_op_limit(5_000);
        let err = vm.run_source("while (true) { }", &mut NoHost).unwrap_err();
        assert!(err.to_string().contains("op limit"));
        assert!(err.is_op_limit(), "VM fuel exhaustion must be typed");
    }

    #[test]
    fn vm_fuel_is_retunable_and_matches_interpreter_classification() {
        let mut vm = Vm::new();
        vm.set_op_limit(800);
        let err = vm.run_source("while (true) { }", &mut NoHost).unwrap_err();
        assert!(err.is_op_limit());
        assert!(vm.ops() <= 801, "must stop right at the ceiling");
        let mut vm = Vm::new();
        let err = vm.run_source("var x = nope;", &mut NoHost).unwrap_err();
        assert!(!err.is_op_limit(), "runtime errors are not fuel exhaustion");
    }

    #[test]
    fn undefined_variable_errors() {
        let mut vm = Vm::new();
        let err = vm.run_source("var x = nope;", &mut NoHost).unwrap_err();
        assert!(err.to_string().contains("undefined variable"));
    }

    #[test]
    fn host_calls_work() {
        struct H(Vec<f64>);
        impl Host for H {
            fn call(&mut self, name: &str, args: &[Value]) -> Option<Result<Value, ScriptError>> {
                (name == "work").then(|| {
                    self.0.push(args[0].as_number().unwrap_or(0.0));
                    Ok(Value::Null)
                })
            }
        }
        let mut vm = Vm::new();
        let mut host = H(Vec::new());
        vm.run_source("work(42); work(7);", &mut host).unwrap();
        assert_eq!(host.0, vec![42.0, 7.0]);
    }

    #[test]
    fn external_call_of_vm_function() {
        let mut vm = Vm::new();
        vm.run_source("function double(x) { return x * 2; }", &mut NoHost)
            .unwrap();
        let f = vm.global("double").unwrap();
        let result = vm
            .call_function(&f, &[Value::Number(21.0)], &mut NoHost)
            .unwrap();
        assert_eq!(result, Value::Number(42.0));
    }

    #[test]
    fn malformed_bytecode_errors_instead_of_panicking() {
        // Hand-built hostile protos: every operand indexes outside its
        // table or pops more than the stack holds. The VM must fail with
        // a typed error so static tooling can execute untrusted bytecode.
        let cases: Vec<Vec<Op>> = vec![
            vec![Op::Const(7)],
            vec![Op::GetVar(3)],
            vec![Op::SetVar(3)],
            vec![Op::DeclVar(3)],
            vec![Op::Pop],
            vec![Op::Dup],
            vec![Op::PopScope],
            vec![Op::MakeArray(4)],
            vec![Op::MakeObject { base: 9, count: 2 }],
            vec![Op::MakeClosure(5), Op::CallValue { argc: 0 }],
            vec![Op::MakeClosure(5), Op::Return],
            vec![
                Op::Const(0),
                Op::MakeClosure(7),
                Op::Binary(crate::ast::BinaryOp::Add),
                Op::Return,
            ],
            vec![Op::CallName { name: 8, argc: 3 }],
            vec![Op::CallValue { argc: 2 }],
            vec![Op::CallMethod { name: 8, argc: 1 }],
            vec![Op::CallMath { name: 8, argc: 1 }],
            vec![Op::GetMember(6)],
            vec![Op::SetMember(6)],
            vec![Op::Return],
        ];
        for code in cases {
            let debug = format!("{code:?}");
            let proto = Proto {
                code,
                consts: vec![Const::Str("x".to_string())],
                ..Proto::default()
            };
            let program = CompiledProgram {
                protos: Arc::new(vec![proto]),
                main: 0,
            };
            let mut vm = Vm::new();
            assert!(
                vm.run(&program, &mut NoHost).is_err(),
                "hostile program {debug} should error"
            );
        }
    }

    #[test]
    fn tickless_protos_charge_one_per_instruction_and_still_trip() {
        // A hand-built proto without a tick table must not get free
        // execution: the default weight is 1, so an infinite jump loop
        // trips the watchdog.
        let proto = Proto {
            code: vec![Op::Jump(0)],
            ..Proto::default()
        };
        let program = CompiledProgram {
            protos: Arc::new(vec![proto]),
            main: 0,
        };
        let mut vm = Vm::new().with_op_limit(1_000);
        let err = vm.run(&program, &mut NoHost).unwrap_err();
        assert!(err.is_op_limit());
    }

    #[test]
    fn atomless_protos_fall_back_to_hashing_names() {
        // Hand-built proto with names but no atom table: declare + read
        // a variable. The VM must hash the names on the fly and agree
        // with the string-keyed accessors.
        let proto = Proto {
            code: vec![Op::Const(0), Op::DeclVar(0), Op::GetVar(0), Op::Return],
            consts: vec![Const::Number(7.0)],
            names: vec!["x".to_string()],
            ..Proto::default()
        };
        let program = CompiledProgram {
            protos: Arc::new(vec![proto]),
            main: 0,
        };
        let mut vm = Vm::new();
        vm.run(&program, &mut NoHost).unwrap();
        assert_eq!(vm.global("x"), Some(Value::Number(7.0)));
    }

    #[test]
    fn out_of_range_main_proto_errors() {
        let program = CompiledProgram {
            protos: Arc::new(Vec::new()),
            main: 0,
        };
        let mut vm = Vm::new();
        let err = vm.run(&program, &mut NoHost).unwrap_err();
        assert!(err.to_string().contains("proto index"));
    }

    #[test]
    fn jump_past_end_terminates_cleanly() {
        let proto = Proto {
            code: vec![Op::Jump(1000)],
            ..Proto::default()
        };
        let program = CompiledProgram {
            protos: Arc::new(vec![proto]),
            main: 0,
        };
        let mut vm = Vm::new();
        assert!(vm.run(&program, &mut NoHost).is_ok());
    }

    #[test]
    fn math_random_matches_interpreter_sequence() {
        let mut vm = Vm::new();
        vm.run_source("var a = Math.random(); var b = Math.random();", &mut NoHost)
            .unwrap();
        let mut interp = Interpreter::new();
        interp
            .run(
                &crate::parse_program("var a = Math.random(); var b = Math.random();").unwrap(),
                &mut NoHost,
            )
            .unwrap();
        assert_eq!(vm.global("a"), interp.global("a"));
        assert_eq!(vm.global("b"), interp.global("b"));
    }
}
