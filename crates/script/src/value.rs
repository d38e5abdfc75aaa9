//! Runtime values.

use crate::compiler::Proto;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// A closure compiled for the bytecode VM: a prototype index paired with
/// the captured environment (see [`crate::vm::Vm`]).
///
/// The prototype table is `Arc`-shared so the closure executes the same
/// compiled artifact the (Send) app/analysis layers hold — the closure
/// itself stays single-threaded via its `Rc`-based environment.
#[derive(Debug)]
pub struct VmClosure {
    /// Index into the program's prototype table.
    pub(crate) proto: usize,
    /// The prototype table the index refers to.
    pub(crate) protos: Arc<Vec<Proto>>,
    /// Captured lexical environment.
    pub(crate) env: crate::runtime::ScopeRef,
}

impl VmClosure {
    /// A closure over `protos[proto]` capturing `env`; `None` when
    /// `proto` is out of range.
    pub fn new(
        proto: usize,
        protos: Arc<Vec<Proto>>,
        env: crate::runtime::ScopeRef,
    ) -> Option<Self> {
        (proto < protos.len()).then_some(VmClosure { proto, protos, env })
    }

    /// The prototype table the closure executes: the `Arc` its program
    /// was compiled into, shared with every analysis of that program.
    pub fn protos(&self) -> &Arc<Vec<Proto>> {
        &self.protos
    }

    /// The closure's entry index into [`VmClosure::protos`] (always in
    /// range).
    pub fn proto(&self) -> usize {
        self.proto
    }
}

/// A runtime value.
#[derive(Debug, Clone)]
pub enum Value {
    /// `null`
    Null,
    /// A boolean.
    Bool(bool),
    /// A 64-bit float (the language's only numeric type, like JS).
    Number(f64),
    /// An immutable string.
    Str(Rc<str>),
    /// A mutable, shared array.
    Array(Rc<RefCell<Vec<Value>>>),
    /// A mutable, shared string-keyed object.
    Object(Rc<RefCell<HashMap<String, Value>>>),
    /// A function closure (bytecode backend).
    VmFunction(Rc<VmClosure>),
    /// A closure of the test-only tree-walking oracle.
    #[cfg(test)]
    Function(Rc<crate::interp::Closure>),
}

impl Value {
    /// Creates a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Rc::from(s.as_ref()))
    }

    /// Creates an array value.
    pub fn array(items: Vec<Value>) -> Value {
        Value::Array(Rc::new(RefCell::new(items)))
    }

    /// Creates an empty object value.
    pub fn object() -> Value {
        Value::Object(Rc::new(RefCell::new(HashMap::new())))
    }

    /// JS-style truthiness.
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Bool(b) => *b,
            Value::Number(n) => *n != 0.0 && !n.is_nan(),
            Value::Str(s) => !s.is_empty(),
            Value::Array(_) | Value::Object(_) | Value::VmFunction(_) => true,
            #[cfg(test)]
            Value::Function(_) => true,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A short name for the value's type, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "boolean",
            Value::Number(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
            Value::VmFunction(_) => "function",
            #[cfg(test)]
            Value::Function(_) => "function",
        }
    }

    /// Structural equality, JS `===`-like (arrays/objects/functions compare
    /// by identity).
    pub fn strict_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Number(a), Value::Number(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Array(a), Value::Array(b)) => Rc::ptr_eq(a, b),
            (Value::Object(a), Value::Object(b)) => Rc::ptr_eq(a, b),
            (Value::VmFunction(a), Value::VmFunction(b)) => Rc::ptr_eq(a, b),
            #[cfg(test)]
            (Value::Function(a), Value::Function(b)) => Rc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.strict_eq(other)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Number(n) => {
                if n.fract() == 0.0 && n.is_finite() && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
            Value::Array(items) => {
                write!(f, "[")?;
                for (i, item) in items.borrow().iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Value::Object(map) => {
                let map = map.borrow();
                let mut keys: Vec<_> = map.keys().collect();
                keys.sort();
                write!(f, "{{")?;
                for (i, key) in keys.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{key}: {}", map[*key])?;
                }
                write!(f, "}}")
            }
            // A hand-built closure can index past its prototype table;
            // print it as anonymous rather than panic.
            Value::VmFunction(c) => match c.protos.get(c.proto) {
                Some(proto) if !proto.name.is_empty() => write!(f, "<function {}>", proto.name),
                _ => write!(f, "<function>"),
            },
            #[cfg(test)]
            Value::Function(c) => {
                if c.name.is_empty() {
                    write!(f, "<function>")
                } else {
                    write!(f, "<function {}>", c.name)
                }
            }
        }
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Number(n)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        assert!(!Value::Null.is_truthy());
        assert!(!Value::Bool(false).is_truthy());
        assert!(!Value::Number(0.0).is_truthy());
        assert!(!Value::str("").is_truthy());
        assert!(Value::Number(1.0).is_truthy());
        assert!(Value::str("x").is_truthy());
        assert!(Value::array(vec![]).is_truthy());
    }

    #[test]
    fn strict_eq_by_identity_for_references() {
        let a = Value::array(vec![Value::Number(1.0)]);
        let b = Value::array(vec![Value::Number(1.0)]);
        assert_ne!(a, b);
        assert_eq!(a, a.clone());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Number(3.0).to_string(), "3");
        assert_eq!(Value::Number(3.5).to_string(), "3.5");
        assert_eq!(Value::str("hi").to_string(), "hi");
        assert_eq!(
            Value::array(vec![Value::Number(1.0), Value::Bool(true)]).to_string(),
            "[1, true]"
        );
    }

    #[test]
    fn closures_display_their_name_and_survive_a_bad_proto_index() {
        let protos = Arc::new(vec![Proto {
            name: "tick".to_string(),
            ..Default::default()
        }]);
        let closure = |proto| VmClosure::new(proto, Arc::clone(&protos), Default::default());
        let tick = Value::VmFunction(Rc::new(closure(0).expect("index 0 is in range")));
        assert_eq!(tick.to_string(), "<function tick>");
        assert!(closure(7).is_none(), "index 7 is out of range");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(2.0), Value::Number(2.0));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("x"), Value::str("x"));
    }
}
