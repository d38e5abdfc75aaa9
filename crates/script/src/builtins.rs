//! Built-in operations shared by the bytecode VM and the test-only
//! tree-walking oracle: the `Math` namespace, array/string methods, member and
//! index access, and binary-operator semantics.

use crate::ast::BinaryOp;
use crate::runtime::ScriptError;
use crate::value::Value;
use std::cell::RefCell;
use std::rc::Rc;

/// Deterministic xorshift for `Math.random()`, shared by both backends
/// so simulations are reproducible regardless of backend.
pub(crate) fn next_random(state: &mut u64) -> f64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

/// Dispatches a `Math.<name>(args)` call.
pub(crate) fn math_call(
    rng_state: &mut u64,
    name: &str,
    args: &[Value],
) -> Result<Value, ScriptError> {
    let arg = |i: usize| -> Result<f64, ScriptError> {
        args.get(i)
            .and_then(Value::as_number)
            .ok_or_else(|| ScriptError::new(format!("Math.{name}: expected number")))
    };
    let result = match name {
        "floor" => arg(0)?.floor(),
        "ceil" => arg(0)?.ceil(),
        "round" => arg(0)?.round(),
        "abs" => arg(0)?.abs(),
        "sqrt" => arg(0)?.sqrt(),
        "pow" => arg(0)?.powf(arg(1)?),
        "min" => arg(0)?.min(arg(1)?),
        "max" => arg(0)?.max(arg(1)?),
        "sin" => arg(0)?.sin(),
        "cos" => arg(0)?.cos(),
        "random" => next_random(rng_state),
        _ => return Err(ScriptError::new(format!("unknown Math function `{name}`"))),
    };
    Ok(Value::Number(result))
}

/// Dispatches a built-in array method.
pub(crate) fn array_method(
    items: &Rc<RefCell<Vec<Value>>>,
    name: &str,
    args: &[Value],
) -> Result<Value, ScriptError> {
    match name {
        "push" => {
            let mut items = items.borrow_mut();
            for arg in args {
                items.push(arg.clone());
            }
            Ok(Value::Number(items.len() as f64))
        }
        "pop" => Ok(items.borrow_mut().pop().unwrap_or(Value::Null)),
        "indexOf" => {
            let needle = args.first().cloned().unwrap_or(Value::Null);
            let idx = items
                .borrow()
                .iter()
                .position(|v| v.strict_eq(&needle))
                .map_or(-1.0, |i| i as f64);
            Ok(Value::Number(idx))
        }
        "join" => {
            let sep = args
                .first()
                .and_then(Value::as_str)
                .unwrap_or(",")
                .to_string();
            let joined = items
                .borrow()
                .iter()
                .map(std::string::ToString::to_string)
                .collect::<Vec<_>>()
                .join(&sep);
            Ok(Value::str(joined))
        }
        _ => Err(ScriptError::new(format!("array has no method `{name}`"))),
    }
}

/// Dispatches a built-in string method.
pub(crate) fn string_method(s: &Rc<str>, name: &str, args: &[Value]) -> Result<Value, ScriptError> {
    match name {
        "charCodeAt" => {
            let idx = args.first().and_then(Value::as_number).unwrap_or(0.0) as usize;
            Ok(s.chars()
                .nth(idx)
                .map_or(Value::Null, |c| Value::Number(c as u32 as f64)))
        }
        "indexOf" => {
            let needle = args.first().and_then(Value::as_str).unwrap_or("");
            Ok(Value::Number(s.find(needle).map_or(-1.0, |i| i as f64)))
        }
        "substring" => {
            let len = s.chars().count();
            let start = (args.first().and_then(Value::as_number).unwrap_or(0.0) as usize).min(len);
            let end = (args.get(1).and_then(Value::as_number).unwrap_or(len as f64) as usize)
                .clamp(start, len);
            let sub: String = s.chars().skip(start).take(end - start).collect();
            Ok(Value::str(sub))
        }
        "toUpperCase" => Ok(Value::str(s.to_uppercase())),
        "toLowerCase" => Ok(Value::str(s.to_lowercase())),
        _ => Err(ScriptError::new(format!("string has no method `{name}`"))),
    }
}

/// Reads `obj.property` for the non-function cases.
pub(crate) fn get_member(obj: &Value, property: &str) -> Result<Value, ScriptError> {
    match obj {
        Value::Array(items) => match property {
            "length" => Ok(Value::Number(items.borrow().len() as f64)),
            _ => Err(ScriptError::new(format!(
                "array has no property `{property}`"
            ))),
        },
        Value::Str(s) => match property {
            "length" => Ok(Value::Number(s.chars().count() as f64)),
            _ => Err(ScriptError::new(format!(
                "string has no property `{property}`"
            ))),
        },
        Value::Object(map) => Ok(map.borrow().get(property).cloned().unwrap_or(Value::Null)),
        other => Err(ScriptError::new(format!(
            "{} has no property `{property}`",
            other.type_name()
        ))),
    }
}

/// Reads `obj[index]`.
pub(crate) fn get_index(obj: &Value, index: &Value) -> Result<Value, ScriptError> {
    match (obj, index) {
        (Value::Array(items), Value::Number(n)) => {
            let items = items.borrow();
            Ok(items.get(*n as usize).cloned().unwrap_or(Value::Null))
        }
        (Value::Object(map), Value::Str(key)) => {
            Ok(map.borrow().get(&**key).cloned().unwrap_or(Value::Null))
        }
        (Value::Str(s), Value::Number(n)) => Ok(s
            .chars()
            .nth(*n as usize)
            .map_or(Value::Null, |c| Value::str(c.to_string()))),
        _ => Err(ScriptError::new(format!(
            "cannot index {} with {}",
            obj.type_name(),
            index.type_name()
        ))),
    }
}

/// Writes `obj[index] = value`.
pub(crate) fn set_index(obj: &Value, index: &Value, value: Value) -> Result<(), ScriptError> {
    match (obj, index) {
        (Value::Array(items), Value::Number(n)) => {
            let mut items = items.borrow_mut();
            let i = *n as usize;
            if i >= items.len() {
                items.resize(i + 1, Value::Null);
            }
            items[i] = value;
            Ok(())
        }
        (Value::Object(map), Value::Str(key)) => {
            map.borrow_mut().insert(key.to_string(), value);
            Ok(())
        }
        _ => Err(ScriptError::new(format!(
            "cannot index-assign {} with {}",
            obj.type_name(),
            index.type_name()
        ))),
    }
}

/// Writes `obj.property = value`.
pub(crate) fn set_member(obj: &Value, property: &str, value: Value) -> Result<(), ScriptError> {
    match obj {
        Value::Object(map) => {
            map.borrow_mut().insert(property.to_string(), value);
            Ok(())
        }
        other => Err(ScriptError::new(format!(
            "cannot set property `{property}` on {}",
            other.type_name()
        ))),
    }
}

/// Evaluates a non-short-circuit binary operator on two values, with the
/// exact semantics both backends share.
pub(crate) fn binary_op(op: BinaryOp, l: &Value, r: &Value) -> Result<Value, ScriptError> {
    let numeric = |op: BinaryOp| -> Result<f64, ScriptError> {
        match (l.as_number(), r.as_number()) {
            (Some(a), Some(b)) => Ok(match op {
                BinaryOp::Add => a + b,
                BinaryOp::Sub => a - b,
                BinaryOp::Mul => a * b,
                BinaryOp::Div => a / b,
                BinaryOp::Rem => a % b,
                _ => unreachable!("non-arithmetic op"),
            }),
            _ => Err(ScriptError::new(format!(
                "arithmetic on {} and {}",
                l.type_name(),
                r.type_name()
            ))),
        }
    };
    match op {
        BinaryOp::Add => {
            if matches!(l, Value::Str(_)) || matches!(r, Value::Str(_)) {
                Ok(Value::str(format!("{l}{r}")))
            } else {
                Ok(Value::Number(numeric(op)?))
            }
        }
        BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Rem => {
            Ok(Value::Number(numeric(op)?))
        }
        BinaryOp::Eq => Ok(Value::Bool(l.strict_eq(r))),
        BinaryOp::Ne => Ok(Value::Bool(!l.strict_eq(r))),
        BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge => {
            let ordering = match (l, r) {
                (Value::Number(a), Value::Number(b)) => a.partial_cmp(b),
                (Value::Str(a), Value::Str(b)) => a.partial_cmp(b),
                _ => {
                    return Err(ScriptError::new(format!(
                        "cannot compare {} with {}",
                        l.type_name(),
                        r.type_name()
                    )))
                }
            };
            Ok(Value::Bool(compare(op, ordering)))
        }
        BinaryOp::And | BinaryOp::Or => {
            // The compiler lowers `&&`/`||` to jump sequences, so the only
            // way to get here is hand-crafted (hostile) bytecode — a typed
            // error, not a panic, keeps the VM total on such input.
            Err(ScriptError::new(format!(
                "operator `{op}` is short-circuit and has no direct bytecode form"
            )))
        }
    }
}

pub(crate) fn compare(op: BinaryOp, ordering: Option<std::cmp::Ordering>) -> bool {
    use std::cmp::Ordering::*;
    matches!(
        (op, ordering),
        (BinaryOp::Lt, Some(Less))
            | (BinaryOp::Le, Some(Less | Equal))
            | (BinaryOp::Gt, Some(Greater))
            | (BinaryOp::Ge, Some(Greater | Equal))
    )
}
