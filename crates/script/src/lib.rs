//! # greenweb-script
//!
//! A small JavaScript-like scripting language used for event callbacks in
//! the GreenWeb browser simulator.
//!
//! The paper's workloads are Web applications whose event handlers are
//! JavaScript. GreenWeb only observes handlers through (a) the CPU work
//! they perform and (b) the browser facilities they invoke —
//! `requestAnimationFrame`, timers, style writes that arm CSS transitions,
//! and DOM mutations that set the dirty bit. This crate provides a real
//! interpreted language with exactly those observables so AUTOGREEN has
//! genuine programs to instrument and the engine has genuine callbacks to
//! schedule.
//!
//! The language supports: `var`/`let` declarations, functions and lexical
//! closures, `if`/`else`, `while`, `for`, `return`/`break`/`continue`,
//! numbers, strings, booleans, `null`, arrays, objects, the usual
//! operators, and calls into a pluggable [`Host`].
//!
//! Programs compile to bytecode ([`compiler`]) and run on the stack
//! [`Vm`], the only executor this crate ships:
//!
//! ```
//! use greenweb_script::{NoHost, Value, Vm};
//!
//! let mut vm = Vm::new();
//! vm.run_source(
//!     "function fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
//!      var answer = fib(10);",
//!     &mut NoHost,
//! )
//! .unwrap();
//! assert_eq!(vm.global("answer"), Some(Value::Number(55.0)));
//! ```
//!
//! A tree-walking interpreter over the AST lives in the crate's test
//! code as the VM's reference: the differential suite requires both to
//! agree on values, host calls, typed errors and charged ops.

#![forbid(unsafe_code)]

pub mod ast;
pub mod atom;
pub(crate) mod builtins;
pub mod compiler;
#[cfg(test)]
mod differential;
pub mod fuel;
pub mod handler;
#[cfg(test)]
mod interp;
pub mod lexer;
pub mod parser;
pub mod runtime;
pub mod stats;
pub mod value;
pub mod vm;

pub use ast::{BinaryOp, Expr, Program, Stmt, UnaryOp};
pub use atom::name_atom;
pub use compiler::{compile, CompileError, CompiledProgram};
pub use fuel::{Fuel, DEFAULT_OP_LIMIT};
pub use handler::{CompiledHandler, HandlerCache};
pub use lexer::{lex, LexError, Token, TokenKind};
pub use parser::{parse_program, ParseError};
pub use runtime::{Host, NoHost, ScriptError};
pub use stats::ScriptStats;
pub use value::Value;
pub use vm::Vm;
