//! Bytecode compiler: lowers the AST to a stack-machine instruction set
//! executed by [`crate::vm::Vm`].
//!
//! The VM is the language's only shipped executor. A tree-walking
//! oracle in the crate's test code implements identical semantics,
//! which the differential test suite enforces. Each function
//! body compiles to its own [`Proto`]; closures pair a proto index with
//! the lexical environment captured at `MakeClosure` time.
//!
//! Three side tables ride along with every proto's `code`, one entry per
//! instruction:
//!
//! - **`spans`** — the source line each instruction came from, so VM
//!   runtime errors carry the same `(line N)` the interpreter reports
//!   and trace attribution can map hot instructions back to source.
//! - **`ticks`** — the instruction's fuel weight. The tree-walker
//!   charges one tick per *AST node visit*; the compiler distributes
//!   exactly those ticks over the emitted instructions, each of which
//!   carries 0 or 1. Summed over an execution, `Vm::ops` therefore equals
//!   the tree-walker's op count exactly, which keeps the engine's cost model,
//!   the `RunBudget` fuel ceiling, and `Span.ops` attribution
//!   backend-independent.
//! - **`name_atoms`** — FNV-1a atoms ([`crate::atom::name_atom`]) of the
//!   interned names, precomputed once so scope lookups at runtime hash
//!   no strings.
//!
//! The compiler lowers the AST directly, with no optimizer pass: every
//! AST node becomes the instructions that evaluate it at run time.

use crate::ast::{BinaryOp, Expr, Program, Stmt, Target, UnaryOp};
use crate::atom::name_atom;
use std::fmt;
use std::sync::Arc;

/// A constant-pool entry.
#[derive(Debug, Clone, PartialEq)]
pub enum Const {
    /// `null`
    Null,
    /// A boolean.
    Bool(bool),
    /// A number.
    Number(f64),
    /// A string.
    Str(String),
}

/// One bytecode instruction.
///
/// Jump targets are absolute instruction indices within the proto;
/// `name` fields index the proto's name table and `argc` counts stacked
/// arguments.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)] // operand fields documented on the enum
pub enum Op {
    /// Push constant `consts[idx]`.
    Const(u32),
    /// Push the value of variable `names[idx]` (scope-chain lookup).
    GetVar(u32),
    /// Pop and assign to existing variable `names[idx]`.
    SetVar(u32),
    /// Pop and declare `names[idx]` in the current scope.
    DeclVar(u32),
    /// Pop and discard.
    Pop,
    /// Duplicate the top of stack.
    Dup,
    /// Enter a new lexical scope.
    PushScope,
    /// Leave the innermost lexical scope.
    PopScope,
    /// Binary operator on the top two values (lhs below rhs).
    Binary(BinaryOp),
    /// Unary operator on the top value.
    Unary(UnaryOp),
    /// Unconditional jump.
    Jump(u32),
    /// Pop; jump when falsy.
    JumpIfFalse(u32),
    /// Jump when the (unpopped) top of stack is falsy.
    JumpIfFalsePeek(u32),
    /// Jump when the (unpopped) top of stack is truthy.
    JumpIfTruePeek(u32),
    /// Push an array of the top `n` values (in push order).
    MakeArray(u16),
    /// Push an object from the top `n` (key-name, value) pairs; key names
    /// come from `names` starting at `base`.
    MakeObject { base: u32, count: u16 },
    /// Push a closure over proto `idx`, capturing the current scope.
    MakeClosure(u32),
    /// Call `names[idx]` with `argc` stacked arguments: a script function
    /// from the scope chain, else a host function.
    CallName { name: u32, argc: u8 },
    /// Call the value below the `argc` arguments.
    CallValue { argc: u8 },
    /// Call method `names[idx]` on the object below `argc` arguments
    /// (array/string builtins or a function-valued object member).
    CallMethod { name: u32, argc: u8 },
    /// Call `Math.names[idx]` with `argc` arguments.
    CallMath { name: u32, argc: u8 },
    /// Push `object.names[idx]` (object popped).
    GetMember(u32),
    /// Pop value and object; store `object.names[idx] = value`.
    SetMember(u32),
    /// Push `object[index]` (index and object popped).
    GetIndex,
    /// Pop value, index, object; store `object[index] = value`.
    SetIndex,
    /// Return the top of stack from the current function.
    Return,
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// A compiled function body.
///
/// `spans` and `ticks` are parallel to `code` (one entry per
/// instruction); `name_atoms` is parallel to `names` and `param_atoms`
/// to `params`. Hand-built protos may leave the side tables empty: the
/// VM falls back to weight 1 per instruction and hashes names on the
/// fly, so hostile bytecode stays executable.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Proto {
    /// Function name (empty for anonymous functions and the main body).
    pub name: String,
    /// Parameter names.
    pub params: Vec<String>,
    /// Name atoms of the parameters (parallel to `params`).
    pub param_atoms: Vec<u64>,
    /// Instructions.
    pub code: Vec<Op>,
    /// Source line per instruction (parallel to `code`; 0 = unknown).
    pub spans: Vec<u32>,
    /// Fuel weight per instruction (parallel to `code`): interpreter
    /// ticks this instruction accounts for. Weights over an execution
    /// sum to exactly the tree-walker's op count for the same program.
    pub ticks: Vec<u32>,
    /// Constant pool.
    pub consts: Vec<Const>,
    /// Interned names (variables, members, methods, object keys).
    pub names: Vec<String>,
    /// Name atoms of the interned names (parallel to `names`).
    pub name_atoms: Vec<u64>,
}

/// A whole compiled program: the prototypes plus the index of the main
/// body. The prototype table is atomically shared (`Arc`) so one
/// compiled artifact can be held by the app-owning engine
/// side across threads, executed by the VM, and analyzed statically —
/// all zero-copy.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProgram {
    /// Every function prototype; `protos[main]` is the top level.
    pub protos: Arc<Vec<Proto>>,
    /// Index of the program body.
    pub main: usize,
}

/// Error raised during compilation.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileError {
    message: String,
}

impl CompileError {
    fn new(message: impl Into<String>) -> Self {
        CompileError {
            message: message.into(),
        }
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "compile error: {}", self.message)
    }
}

impl std::error::Error for CompileError {}

/// Compiles a parsed program to bytecode.
///
/// # Errors
///
/// Returns [`CompileError`] on constructs the bytecode backend rejects
/// (currently only `break`/`continue` outside a loop, which the parser
/// cannot rule out).
pub fn compile(program: &Program) -> Result<CompiledProgram, CompileError> {
    let mut protos: Vec<Proto> = Vec::new();
    let main = compile_function(String::new(), &[], &program.body, &mut protos)?;
    Ok(CompiledProgram {
        protos: Arc::new(protos),
        main,
    })
}

struct LoopCtx {
    /// Jump indices to patch to the loop end.
    breaks: Vec<usize>,
    /// Jump indices to patch to the loop's update/condition point.
    continues: Vec<usize>,
    /// Lexical scope depth at loop entry (for unwinding on break).
    scope_depth: usize,
}

struct FnCompiler<'p> {
    proto: Proto,
    protos: &'p mut Vec<Proto>,
    loops: Vec<LoopCtx>,
    scope_depth: usize,
    /// Current source line, stamped into `spans` at each emit.
    line: u32,
}

fn compile_function(
    name: String,
    params: &[String],
    body: &[Stmt],
    protos: &mut Vec<Proto>,
) -> Result<usize, CompileError> {
    let mut fc = FnCompiler {
        proto: Proto {
            name,
            params: params.to_vec(),
            param_atoms: params.iter().map(|p| name_atom(p)).collect(),
            ..Proto::default()
        },
        protos,
        loops: Vec::new(),
        scope_depth: 0,
        line: 0,
    };
    for stmt in body {
        fc.stmt(stmt)?;
    }
    // Implicit `return null` (the tree-walker's fall-off return charges
    // nothing, so both carry weight 0).
    let null = fc.konst(Const::Null);
    fc.emit(Op::Const(null));
    fc.emit(Op::Return);
    let index = fc.protos.len();
    let proto = fc.proto;
    debug_assert_eq!(proto.code.len(), proto.spans.len());
    debug_assert_eq!(proto.code.len(), proto.ticks.len());
    debug_assert_eq!(proto.names.len(), proto.name_atoms.len());
    protos.push(proto);
    Ok(index)
}

impl FnCompiler<'_> {
    /// Emits `op` with fuel weight `weight` and stamps the current source
    /// line.
    fn emit_w(&mut self, op: Op, weight: u32) -> usize {
        self.proto.code.push(op);
        self.proto.spans.push(self.line);
        self.proto.ticks.push(weight);
        self.proto.code.len() - 1
    }

    /// Emits a weight-0 instruction (no tree-walker tick maps here).
    fn emit(&mut self, op: Op) -> usize {
        self.emit_w(op, 0)
    }

    /// Emits a weight-1 instruction: the one op that carries its AST
    /// node's interpreter tick.
    fn emit_t(&mut self, op: Op) -> usize {
        self.emit_w(op, 1)
    }

    fn here(&self) -> u32 {
        self.proto.code.len() as u32
    }

    fn patch(&mut self, at: usize, target: u32) {
        let op = &mut self.proto.code[at];
        *op = match *op {
            Op::Jump(_) => Op::Jump(target),
            Op::JumpIfFalse(_) => Op::JumpIfFalse(target),
            Op::JumpIfFalsePeek(_) => Op::JumpIfFalsePeek(target),
            Op::JumpIfTruePeek(_) => Op::JumpIfTruePeek(target),
            other => other,
        };
    }

    fn konst(&mut self, c: Const) -> u32 {
        if let Some(i) = self.proto.consts.iter().position(|x| x == &c) {
            return i as u32;
        }
        self.proto.consts.push(c);
        (self.proto.consts.len() - 1) as u32
    }

    fn name(&mut self, n: &str) -> u32 {
        if let Some(i) = self.proto.names.iter().position(|x| x == n) {
            return i as u32;
        }
        self.push_name(n)
    }

    /// Appends `n` to the name table (no dedup — object-literal keys
    /// must stay contiguous), keeping the atom table parallel.
    fn push_name(&mut self, n: &str) -> u32 {
        self.proto.names.push(n.to_string());
        self.proto.name_atoms.push(name_atom(n));
        (self.proto.names.len() - 1) as u32
    }

    fn stmt(&mut self, stmt: &Stmt) -> Result<(), CompileError> {
        match stmt {
            Stmt::VarDecl { name, init, line } => {
                self.line = *line;
                match init {
                    Some(expr) => self.expr(expr)?,
                    None => {
                        let null = self.konst(Const::Null);
                        self.emit(Op::Const(null));
                    }
                }
                let n = self.name(name);
                self.emit_t(Op::DeclVar(n));
            }
            Stmt::FunctionDecl {
                name,
                params,
                body,
                line,
            } => {
                self.line = *line;
                let idx = compile_function(name.clone(), params, body, self.protos)?;
                self.emit(Op::MakeClosure(idx as u32));
                let n = self.name(name);
                self.emit_t(Op::DeclVar(n));
            }
            Stmt::Expr(expr) => {
                self.expr(expr)?;
                self.emit_t(Op::Pop);
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.expr(cond)?;
                let to_else = self.emit_t(Op::JumpIfFalse(0));
                self.block(then_branch, 0)?;
                if else_branch.is_empty() {
                    let end = self.here();
                    self.patch(to_else, end);
                } else {
                    let to_end = self.emit(Op::Jump(0));
                    let else_at = self.here();
                    self.patch(to_else, else_at);
                    self.block(else_branch, 0)?;
                    let end = self.here();
                    self.patch(to_end, end);
                }
            }
            Stmt::While { cond, body } => {
                // The `while` statement's own tick lands on a no-op jump
                // ahead of the loop header, so it is charged once per
                // arrival rather than once per iteration.
                let mark = self.emit_t(Op::Jump(0));
                self.patch(mark, mark as u32 + 1);
                let top = self.here();
                self.expr(cond)?;
                let exit = self.emit(Op::JumpIfFalse(0));
                self.loops.push(LoopCtx {
                    breaks: Vec::new(),
                    continues: Vec::new(),
                    scope_depth: self.scope_depth,
                });
                self.block(body, 0)?;
                let ctx = self.loops.pop().expect("loop ctx pushed above");
                for at in ctx.continues {
                    self.patch(at, top);
                }
                self.emit(Op::Jump(top));
                let end = self.here();
                self.patch(exit, end);
                for at in ctx.breaks {
                    self.patch(at, end);
                }
            }
            Stmt::For {
                init,
                cond,
                update,
                body,
            } => {
                // The loop gets its own scope so `for (var i …)` does not
                // leak, matching the interpreter; the `for` statement's
                // tick rides on the scope push (once per arrival).
                self.emit_t(Op::PushScope);
                self.scope_depth += 1;
                if let Some(init) = init {
                    self.stmt(init)?;
                }
                let top = self.here();
                let exit = match cond {
                    Some(cond) => {
                        self.expr(cond)?;
                        Some(self.emit(Op::JumpIfFalse(0)))
                    }
                    None => None,
                };
                self.loops.push(LoopCtx {
                    breaks: Vec::new(),
                    continues: Vec::new(),
                    scope_depth: self.scope_depth,
                });
                self.block(body, 0)?;
                let ctx = self.loops.pop().expect("loop ctx pushed above");
                let update_at = self.here();
                for at in ctx.continues {
                    self.patch(at, update_at);
                }
                if let Some(update) = update {
                    self.expr(update)?;
                    self.emit(Op::Pop);
                }
                self.emit(Op::Jump(top));
                let end = self.here();
                if let Some(exit) = exit {
                    self.patch(exit, end);
                }
                for at in ctx.breaks {
                    self.patch(at, end);
                }
                self.emit(Op::PopScope);
                self.scope_depth -= 1;
            }
            Stmt::Return(value) => {
                match value {
                    Some(expr) => self.expr(expr)?,
                    None => {
                        let null = self.konst(Const::Null);
                        self.emit(Op::Const(null));
                    }
                }
                self.emit_t(Op::Return);
            }
            Stmt::Break => {
                let depth_now = self.scope_depth;
                let ctx_depth = self
                    .loops
                    .last()
                    .map(|c| c.scope_depth)
                    .ok_or_else(|| CompileError::new("`break` outside a loop"))?;
                for _ in ctx_depth..depth_now {
                    self.emit(Op::PopScope);
                }
                let at = self.emit_t(Op::Jump(0));
                self.loops
                    .last_mut()
                    .expect("checked above")
                    .breaks
                    .push(at);
            }
            Stmt::Continue => {
                let depth_now = self.scope_depth;
                let ctx_depth = self
                    .loops
                    .last()
                    .map(|c| c.scope_depth)
                    .ok_or_else(|| CompileError::new("`continue` outside a loop"))?;
                for _ in ctx_depth..depth_now {
                    self.emit(Op::PopScope);
                }
                let at = self.emit_t(Op::Jump(0));
                self.loops
                    .last_mut()
                    .expect("checked above")
                    .continues
                    .push(at);
            }
            Stmt::Block(body) => self.block(body, 1)?,
        }
        Ok(())
    }

    /// Compiles a statement list in a child scope. `weight` is the fuel
    /// weight of the scope push: 1 when the block is a statement of its
    /// own (the tree-walker ticks `Stmt::Block`), 0 when it is the body
    /// of an `if`/loop (the tree-walker's `exec_block` ticks nothing).
    fn block(&mut self, body: &[Stmt], weight: u32) -> Result<(), CompileError> {
        self.emit_w(Op::PushScope, weight);
        self.scope_depth += 1;
        for stmt in body {
            self.stmt(stmt)?;
        }
        self.emit(Op::PopScope);
        self.scope_depth -= 1;
        Ok(())
    }

    fn expr(&mut self, expr: &Expr) -> Result<(), CompileError> {
        match expr {
            Expr::Number(n) => {
                let c = self.konst(Const::Number(*n));
                self.emit_t(Op::Const(c));
            }
            Expr::Str(s) => {
                let c = self.konst(Const::Str(s.clone()));
                self.emit_t(Op::Const(c));
            }
            Expr::Bool(b) => {
                let c = self.konst(Const::Bool(*b));
                self.emit_t(Op::Const(c));
            }
            Expr::Null => {
                let c = self.konst(Const::Null);
                self.emit_t(Op::Const(c));
            }
            Expr::Var(name) => {
                let n = self.name(name);
                self.emit_t(Op::GetVar(n));
            }
            Expr::Array(items) => {
                for item in items {
                    self.expr(item)?;
                }
                self.emit_t(Op::MakeArray(items.len() as u16));
            }
            Expr::Object(entries) => {
                // Keys must be contiguous in the name table so the VM can
                // recover them from `base..base+count`.
                let base = self.proto.names.len() as u32;
                for (key, _) in entries {
                    self.push_name(key);
                }
                for (_, value) in entries {
                    self.expr(value)?;
                }
                self.emit_t(Op::MakeObject {
                    base,
                    count: entries.len() as u16,
                });
            }
            Expr::Function { params, body } => {
                let idx = compile_function(String::new(), params, body, self.protos)?;
                self.emit_t(Op::MakeClosure(idx as u32));
            }
            Expr::Assign { target, value } => {
                match target {
                    Target::Var(name) => {
                        self.expr(value)?;
                        self.emit(Op::Dup); // assignment is an expression
                        let n = self.name(name);
                        self.emit_t(Op::SetVar(n));
                    }
                    Target::Member(object, property) => {
                        self.expr(value)?;
                        self.emit(Op::Dup);
                        self.expr(object)?;
                        // Stack: value, value, object.
                        let n = self.name(property);
                        self.emit_t(Op::SetMember(n));
                    }
                    Target::Index(object, index) => {
                        self.expr(value)?;
                        self.emit(Op::Dup);
                        self.expr(object)?;
                        self.expr(index)?;
                        // Stack: value, value, object, index.
                        self.emit_t(Op::SetIndex);
                    }
                }
            }
            Expr::Binary { op, lhs, rhs } => match op {
                BinaryOp::And => {
                    self.expr(lhs)?;
                    let skip = self.emit_t(Op::JumpIfFalsePeek(0));
                    self.emit(Op::Pop);
                    self.expr(rhs)?;
                    let end = self.here();
                    self.patch(skip, end);
                }
                BinaryOp::Or => {
                    self.expr(lhs)?;
                    let skip = self.emit_t(Op::JumpIfTruePeek(0));
                    self.emit(Op::Pop);
                    self.expr(rhs)?;
                    let end = self.here();
                    self.patch(skip, end);
                }
                _ => {
                    self.expr(lhs)?;
                    self.expr(rhs)?;
                    self.emit_t(Op::Binary(*op));
                }
            },
            Expr::Unary { op, operand } => {
                self.expr(operand)?;
                self.emit_t(Op::Unary(*op));
            }
            Expr::Conditional {
                cond,
                then_value,
                else_value,
            } => {
                self.expr(cond)?;
                let to_else = self.emit_t(Op::JumpIfFalse(0));
                self.expr(then_value)?;
                let to_end = self.emit(Op::Jump(0));
                let else_at = self.here();
                self.patch(to_else, else_at);
                self.expr(else_value)?;
                let end = self.here();
                self.patch(to_end, end);
            }
            Expr::Call { callee, args, line } => {
                self.line = *line;
                // Math namespace (when not shadowed — the VM re-checks at
                // runtime like the interpreter does).
                if let Expr::Member { object, property } = &**callee {
                    if matches!(&**object, Expr::Var(ns) if ns == "Math") {
                        for arg in args {
                            self.expr(arg)?;
                        }
                        let n = self.name(property);
                        self.line = *line;
                        self.emit_t(Op::CallMath {
                            name: n,
                            argc: args.len() as u8,
                        });
                        return Ok(());
                    }
                    // Method call: object below the arguments.
                    self.expr(object)?;
                    for arg in args {
                        self.expr(arg)?;
                    }
                    let n = self.name(property);
                    self.line = *line;
                    self.emit_t(Op::CallMethod {
                        name: n,
                        argc: args.len() as u8,
                    });
                    return Ok(());
                }
                if let Expr::Var(name) = &**callee {
                    for arg in args {
                        self.expr(arg)?;
                    }
                    let n = self.name(name);
                    self.line = *line;
                    self.emit_t(Op::CallName {
                        name: n,
                        argc: args.len() as u8,
                    });
                    return Ok(());
                }
                self.expr(callee)?;
                for arg in args {
                    self.expr(arg)?;
                }
                self.line = *line;
                self.emit_t(Op::CallValue {
                    argc: args.len() as u8,
                });
            }
            Expr::Member { object, property } => {
                self.expr(object)?;
                let n = self.name(property);
                self.emit_t(Op::GetMember(n));
            }
            Expr::Index { object, index } => {
                self.expr(object)?;
                self.expr(index)?;
                self.emit_t(Op::GetIndex);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn compile_src(src: &str) -> CompiledProgram {
        compile(&parse_program(src).unwrap()).unwrap()
    }

    #[test]
    fn runtime_errors_do_not_fold() {
        // `null - 1` errors at runtime in both backends; the compiler
        // must leave it alone.
        let p = compile_src("var x = null - 1;");
        let main = &p.protos[p.main];
        assert!(main.code.contains(&Op::Binary(BinaryOp::Sub)));
    }

    #[test]
    fn constant_pool_dedups() {
        let p = compile_src("var x = 5; var y = 5; var z = 5;");
        let main = &p.protos[p.main];
        let fives = main
            .consts
            .iter()
            .filter(|c| **c == Const::Number(5.0))
            .count();
        assert_eq!(fives, 1);
    }

    #[test]
    fn functions_get_own_protos() {
        let p = compile_src(
            "function f(a) { return a; }
             function g() { return f(1); }",
        );
        assert_eq!(p.protos.len(), 3); // f, g, main
        assert!(p.protos.iter().any(|proto| proto.name == "f"));
        assert!(p.protos.iter().any(|proto| proto.name == "g"));
    }

    #[test]
    fn side_tables_are_parallel_and_atomized() {
        let p = compile_src(
            "function f(a, b) { var sum = a + b; return sum; }
             var out = f(1, 2);",
        );
        for proto in p.protos.iter() {
            assert_eq!(proto.code.len(), proto.spans.len());
            assert_eq!(proto.code.len(), proto.ticks.len());
            assert_eq!(proto.names.len(), proto.name_atoms.len());
            assert_eq!(proto.params.len(), proto.param_atoms.len());
            for (name, atom) in proto.names.iter().zip(&proto.name_atoms) {
                assert_eq!(*atom, name_atom(name));
            }
            for (param, atom) in proto.params.iter().zip(&proto.param_atoms) {
                assert_eq!(*atom, name_atom(param));
            }
        }
    }

    #[test]
    fn call_spans_carry_source_lines() {
        let p = compile_src("var x = 1;\nf(x);\n");
        let main = &p.protos[p.main];
        let at = main
            .code
            .iter()
            .position(|op| matches!(op, Op::CallName { .. }))
            .unwrap();
        assert_eq!(main.spans[at], 2);
    }

    #[test]
    fn jumps_are_patched_in_range() {
        let p = compile_src(
            "var x = 0;
             if (x < 1) { x = 1; } else { x = 2; }
             while (x < 10) { x = x + 1; if (x == 5) { break; } }
             for (var i = 0; i < 3; i++) { if (i == 1) { continue; } x += i; }",
        );
        for proto in p.protos.iter() {
            let len = proto.code.len() as u32;
            for op in &proto.code {
                let target = match op {
                    Op::Jump(t)
                    | Op::JumpIfFalse(t)
                    | Op::JumpIfFalsePeek(t)
                    | Op::JumpIfTruePeek(t) => Some(*t),
                    _ => None,
                };
                if let Some(t) = target {
                    assert!(t <= len, "jump target {t} out of range {len}");
                    assert!(t != 0 || len == 0, "unpatched jump");
                }
            }
        }
    }

    #[test]
    fn break_outside_loop_rejected() {
        let program = parse_program("break;").unwrap();
        assert!(compile(&program).is_err());
        let program = parse_program("continue;").unwrap();
        assert!(compile(&program).is_err());
    }

    #[test]
    fn math_calls_compile_to_callmath() {
        let p = compile_src("var x = Math.floor(1.5);");
        let main = &p.protos[p.main];
        assert!(main
            .code
            .iter()
            .any(|op| matches!(op, Op::CallMath { argc: 1, .. })));
    }

    #[test]
    fn object_literal_keys_are_contiguous() {
        let p = compile_src("var o = { a: 1, b: 2, c: 3 };");
        let main = &p.protos[p.main];
        let Some(Op::MakeObject { base, count }) = main
            .code
            .iter()
            .find(|op| matches!(op, Op::MakeObject { .. }))
        else {
            panic!("no MakeObject");
        };
        assert_eq!(*count, 3);
        let keys: Vec<&str> = (0..3)
            .map(|i| main.names[(*base + i) as usize].as_str())
            .collect();
        assert_eq!(keys, vec!["a", "b", "c"]);
    }
}
