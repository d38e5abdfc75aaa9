//! The shared handler-compilation cache: one compiled artifact per
//! callback body, consumed by the engine (execution), GreenLint's cost
//! and effect passes (static analysis), and the attribution profiler.
//!
//! Each registered closure body is compiled exactly once no matter how
//! many `(node, event)` registrations share the callback value and no
//! matter how many consumers look it up — the engine and the analyzers
//! hand the *same* cache around, so what the analyzer certifies is
//! byte-for-byte what the engine executes. The engine's callbacks are
//! `VmFunction`s holding their prototype table, so "compiling" is a
//! zero-copy `Arc` alias. The cache takes VM closures only.

use crate::compiler::Proto;
use crate::value::Value;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// A handler body compiled once and shared by every consumer.
pub struct CompiledHandler {
    /// The prototype table of the compiled body.
    pub protos: Arc<Vec<Proto>>,
    /// Entry prototype index.
    pub main: usize,
    /// Parameter names of the entry function (the effect pass binds the
    /// first one to the dispatched event).
    pub params: Vec<String>,
}

/// Cache key: `(allocation pointer, proto index)` of a VM closure's
/// shared prototype table.
type HandlerKey = (usize, usize);

/// Per-app handler compilation cache. See the module docs.
#[derive(Default)]
pub struct HandlerCache {
    compiled: RefCell<HashMap<HandlerKey, Rc<CompiledHandler>>>,
}

impl HandlerCache {
    /// Fetches (or enters) the handler behind a registered callback
    /// value. `None` when the value is not a VM closure.
    pub fn compile_callback(&self, callback: &Value) -> Option<Rc<CompiledHandler>> {
        let Value::VmFunction(vm) = callback else {
            return None;
        };
        let key = (Arc::as_ptr(&vm.protos) as *const () as usize, vm.proto);
        let mut compiled = self.compiled.borrow_mut();
        let handler = compiled.entry(key).or_insert_with(|| {
            Rc::new(CompiledHandler {
                protos: Arc::clone(&vm.protos),
                main: vm.proto,
                params: vm
                    .protos
                    .get(vm.proto)
                    .map(|p| p.params.clone())
                    .unwrap_or_default(),
            })
        });
        Some(Rc::clone(handler))
    }

    /// Distinct handler bodies entered in the cache so far.
    pub fn handlers(&self) -> u64 {
        self.compiled.borrow().len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interpreter;
    use crate::runtime::NoHost;
    use crate::vm::Vm;

    #[test]
    fn vm_callbacks_alias_their_bytecode_zero_copy() {
        let mut vm = Vm::new();
        vm.run_source("var f = function(e) { return 1; };", &mut NoHost)
            .unwrap();
        let f = vm.global("f").unwrap();
        let cache = HandlerCache::default();
        let h1 = cache.compile_callback(&f).unwrap();
        let h2 = cache.compile_callback(&f).unwrap();
        assert!(Rc::ptr_eq(&h1, &h2), "same callback, same handler");
        assert_eq!(cache.handlers(), 1);
        if let Value::VmFunction(vmf) = &f {
            assert!(
                Arc::ptr_eq(&h1.protos, &vmf.protos),
                "the analyzed artifact is the executed artifact"
            );
            assert_eq!(h1.params, vec!["e".to_string()]);
        } else {
            panic!("expected a VmFunction");
        }
    }

    #[test]
    fn non_functions_are_not_handlers() {
        // A tree-walker closure has no bytecode, so it is not a handler
        // either.
        let mut interp = Interpreter::new();
        interp
            .run(
                &crate::parse_program("var f = function(x) { return x * 2; };").unwrap(),
                &mut NoHost,
            )
            .unwrap();
        let closure = interp.global("f").unwrap();
        assert!(matches!(closure, Value::Function(_)));
        let cache = HandlerCache::default();
        assert!(cache.compile_callback(&Value::Number(1.0)).is_none());
        assert!(cache.compile_callback(&closure).is_none());
        assert_eq!(cache.handlers(), 0);
    }
}
