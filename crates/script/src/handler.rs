//! The shared handler-compilation cache: one compiled artifact per
//! callback body, consumed by the engine (execution), GreenLint's cost
//! and effect passes (static analysis), and the attribution profiler.
//!
//! Each registered closure body is compiled exactly once no matter how
//! many `(node, event)` registrations share the callback value and no
//! matter how many consumers look it up — the engine and the analyzers
//! hand the *same* cache around, so what the analyzer certifies is
//! byte-for-byte what the engine executes. The engine's callbacks are
//! already `VmFunction`s holding their prototype table, and "compiling"
//! is a zero-copy `Arc` alias; only tree-walker `Function` closures
//! need an actual AST compilation, which the cache counts as a
//! *recompile* so the script bench can assert the compile-twice debt is
//! gone.

use crate::compiler::{compile, Proto};
use crate::value::Value;
use crate::Program;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// A handler body compiled once and shared by every consumer.
pub struct CompiledHandler {
    /// The prototype table of the compiled body.
    pub protos: Arc<Vec<Proto>>,
    /// Entry prototype index.
    pub main: usize,
    /// Parameter names of the entry function. Compiling a bare closure
    /// body loses them, so they ride along here (the effect pass binds
    /// the first one to the dispatched event).
    pub params: Vec<String>,
}

/// Cache key: `(allocation pointer, proto index)` of a callback's
/// shared body — tree-walking closures key their statement list (with
/// a sentinel index), VM closures their prototype table.
type HandlerKey = (usize, usize);

/// Per-app handler compilation cache. See the module docs.
#[derive(Default)]
pub struct HandlerCache {
    compiled: RefCell<HashMap<HandlerKey, Option<Rc<CompiledHandler>>>>,
    recompiles: Cell<u64>,
}

impl HandlerCache {
    /// Compiles (or fetches) the handler behind a registered callback
    /// value. `None` when the value is not a function or its body fails
    /// to compile.
    pub fn compile_callback(&self, callback: &Value) -> Option<Rc<CompiledHandler>> {
        let key = match callback {
            Value::Function(closure) => (Rc::as_ptr(&closure.body) as usize, usize::MAX),
            Value::VmFunction(vm) => (Arc::as_ptr(&vm.protos) as *const () as usize, vm.proto),
            _ => return None,
        };
        if let Some(hit) = self.compiled.borrow().get(&key) {
            return hit.clone();
        }
        let handler = match callback {
            Value::Function(closure) => {
                // A tree-walker closure has no bytecode: recompile its
                // body from the AST. This is the compile-twice debt the
                // VM path eliminates — counted so the bench can prove it.
                self.recompiles.set(self.recompiles.get() + 1);
                compile(&Program {
                    body: closure.body.as_ref().clone(),
                })
                .ok()
                .map(|c| {
                    Rc::new(CompiledHandler {
                        protos: c.protos,
                        main: c.main,
                        params: closure.params.clone(),
                    })
                })
            }
            Value::VmFunction(vm) => Some(Rc::new(CompiledHandler {
                protos: Arc::clone(&vm.protos),
                main: vm.proto,
                params: vm
                    .protos
                    .get(vm.proto)
                    .map(|p| p.params.clone())
                    .unwrap_or_default(),
            })),
            _ => None,
        };
        self.compiled.borrow_mut().insert(key, handler.clone());
        handler
    }

    /// Distinct handler bodies entered in the cache so far.
    pub fn handlers(&self) -> u64 {
        self.compiled.borrow().len() as u64
    }

    /// AST recompilations performed (tree-walker closures only; zero
    /// when every callback arrived as compiled bytecode).
    pub fn recompiles(&self) -> u64 {
        self.recompiles.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::NoHost;
    use crate::vm::Vm;
    use crate::Interpreter;

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
        assert_eq!(cache.recompiles(), 0, "no AST recompile on the VM path");
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
    fn tree_walker_callbacks_are_recompiled_once() {
        let mut interp = Interpreter::new();
        interp
            .run(
                &crate::parse_program("var f = function(x) { return x * 2; };").unwrap(),
                &mut NoHost,
            )
            .unwrap();
        let f = interp.global("f").unwrap();
        let cache = HandlerCache::default();
        let h1 = cache.compile_callback(&f).unwrap();
        let h2 = cache.compile_callback(&f).unwrap();
        assert!(Rc::ptr_eq(&h1, &h2));
        assert_eq!(cache.recompiles(), 1, "one recompile, then cached");
        assert_eq!(h1.params, vec!["x".to_string()]);
    }

    #[test]
    fn non_functions_are_not_handlers() {
        let cache = HandlerCache::default();
        assert!(cache.compile_callback(&Value::Number(1.0)).is_none());
        assert_eq!(cache.handlers(), 0);
    }
}
