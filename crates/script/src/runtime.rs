//! The runtime items every executor shares: lexical scopes, the typed
//! runtime error, and the host interface.
//!
//! The bytecode VM ([`crate::vm::Vm`]) is the only shipped executor;
//! the engine implements [`Host`] and reads [`ScriptError`]. The
//! crate's test-only tree-walking oracle builds on the same items, so
//! both executors resolve names through one scope representation.

use crate::atom::name_atom;
use crate::value::Value;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// A shared, mutable lexical scope.
pub type ScopeRef = Rc<RefCell<Scope>>;

/// One lexical scope: bindings plus an optional parent.
///
/// Bindings are keyed by [`name_atom`] rather than by owned strings, so
/// a lookup is an integer probe per scope level. The bytecode compiler
/// atomizes names once at compile time.
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
/// VM report an undefined-function error instead.
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
