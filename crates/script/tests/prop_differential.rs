//! Differential testing of the two language backends: every generated
//! program must produce identical observable results in the tree-walking
//! interpreter and the bytecode VM.

use greenweb_det::prop::{check, Gen, DEFAULT_CASES};
use greenweb_script::{parse_program, Host, Interpreter, NoHost, ScriptError, Value, Vm};

/// Runs `source` on both backends and returns the values of `globals`
/// from each. Also enforces the tick-parity contract: on success the
/// VM's charged ops equal the interpreter's op count *exactly* (the
/// engine's cost model depends on this being backend-independent).
fn run_both(source: &str, globals: &[&str]) -> (Vec<Option<Value>>, Vec<Option<Value>>) {
    let program = parse_program(source).unwrap_or_else(|e| panic!("{e}\n{source}"));
    let mut interp = Interpreter::new();
    interp
        .run(&program, &mut NoHost)
        .unwrap_or_else(|e| panic!("interp: {e}\n{source}"));
    let mut vm = Vm::new();
    vm.run_source(source, &mut NoHost)
        .unwrap_or_else(|e| panic!("vm: {e}\n{source}"));
    assert_eq!(
        vm.ops(),
        interp.ops(),
        "charged ops diverge from the oracle on:\n{source}"
    );
    let a = globals.iter().map(|g| interp.global(g)).collect();
    let b = globals.iter().map(|g| vm.global(g)).collect();
    (a, b)
}

/// Deep comparison through `Display` (arrays/objects compare by identity
/// in `PartialEq`, so render them instead).
fn assert_same(source: &str, a: &[Option<Value>], b: &[Option<Value>]) {
    for (x, y) in a.iter().zip(b) {
        let xs = x.as_ref().map(std::string::ToString::to_string);
        let ys = y.as_ref().map(std::string::ToString::to_string);
        assert_eq!(xs, ys, "backends diverge on:\n{source}");
    }
}

/// Recursively generate an arithmetic/conditional expression over the
/// variables `v0`/`v1`.
fn gen_numeric_expr(g: &mut Gen, depth: u32) -> String {
    if depth == 0 || g.bool_with(0.3) {
        return match g.usize_in(0, 3) {
            0 => {
                let n = g.usize_in(0, 100) as i32 - 50;
                if n < 0 {
                    format!("({n})")
                } else {
                    n.to_string()
                }
            }
            1 => "v0".to_string(),
            _ => "v1".to_string(),
        };
    }
    if g.bool_with(0.75) {
        let a = gen_numeric_expr(g, depth - 1);
        let b = gen_numeric_expr(g, depth - 1);
        let symbol = *g.choose(&["+", "-", "*", "%", "/"]);
        format!("({a} {symbol} {b})")
    } else {
        let c = gen_numeric_expr(g, depth - 1);
        let t = gen_numeric_expr(g, depth - 1);
        let e = gen_numeric_expr(g, depth - 1);
        format!("(({c}) > 0 ? ({t}) : ({e}))")
    }
}

/// Arbitrary arithmetic/conditional expressions agree.
#[test]
fn expressions_agree() {
    check("expressions_agree", DEFAULT_CASES, |g| {
        let expr = gen_numeric_expr(g, 3);
        let v0 = g.usize_in(0, 40) as i32 - 20;
        let v1 = g.usize_in(1, 20);
        let source = format!("var v0 = {v0}; var v1 = {v1}; var result = {expr};");
        let (a, b) = run_both(&source, &["result"]);
        assert_same(&source, &a, &b);
    });
}

/// Loop programs agree (for/while, break/continue, accumulators).
#[test]
fn loops_agree() {
    check("loops_agree", DEFAULT_CASES, |g| {
        let n = g.usize_in(1, 40);
        let step = g.usize_in(1, 5);
        let cutoff = g.usize_in(0, 40);
        let source = format!(
            "var total = 0;
             var hits = 0;
             for (var i = 0; i < {n}; i += {step}) {{
                 if (i == {cutoff}) {{ break; }}
                 if (i % 3 == 0) {{ continue; }}
                 total += i;
                 hits += 1;
             }}
             var j = 0;
             var w = 0;
             while (j < {n}) {{ w += j * 2; j += {step}; }}"
        );
        let (a, b) = run_both(&source, &["total", "hits", "w"]);
        assert_same(&source, &a, &b);
    });
}

/// Function/closure programs agree, including captured state.
#[test]
fn closures_agree() {
    check("closures_agree", DEFAULT_CASES, |g| {
        let seed = g.usize_in(0, 100);
        let calls = g.usize_in(1, 8);
        let invocations: String = (0..calls).map(|_| "acc(); ".to_string()).collect();
        let source = format!(
            "function mk(start) {{
                 var n = start;
                 return function() {{ n = n + 3; return n; }};
             }}
             var acc = mk({seed});
             {invocations}
             var out = acc();"
        );
        let (a, b) = run_both(&source, &["out"]);
        assert_same(&source, &a, &b);
    });
}

/// Array/object/string manipulation agrees (rendered deeply).
#[test]
fn collections_agree() {
    check("collections_agree", DEFAULT_CASES, |g| {
        let items = g.vec_of(12, |g| g.usize_in(0, 60) as i32 - 30);
        let key: String = {
            let len = g.usize_in(1, 6);
            (0..len)
                .map(|_| (b'a' + g.usize_in(0, 26) as u8) as char)
                .collect()
        };
        let pushes: String = items.iter().map(|i| format!("a.push({i}); ")).collect();
        let source = format!(
            "var a = [];
             {pushes}
             var o = {{ {key}: a.length }};
             o.total = 0;
             var i = 0;
             for (i = 0; i < a.length; i += 1) {{ o.total += a[i]; }}
             var joined = a.join('-');
             var idx = a.indexOf({first});
             var shout = ('n=' + a.length).toUpperCase();",
            first = items.first().copied().unwrap_or(99),
        );
        let (a, b) = run_both(&source, &["a", "o", "joined", "idx", "shout"]);
        assert_same(&source, &a, &b);
    });
}

/// Math builtins agree, including the deterministic random sequence.
#[test]
fn math_agrees() {
    check("math_agrees", DEFAULT_CASES, |g| {
        let x = g.f64_in(-100.0, 100.0);
        let y = g.f64_in(1.0, 10.0);
        let source = format!(
            "var f = Math.floor({x});
             var c = Math.ceil({x});
             var p = Math.pow({y}, 2);
             var m = Math.min({x}, {y}) + Math.max({x}, {y});
             var r1 = Math.random();
             var r2 = Math.random();"
        );
        let (a, b) = run_both(&source, &["f", "c", "p", "m", "r1", "r2"]);
        assert_same(&source, &a, &b);
    });
}

/// Op counts of both backends are *identical* on successful runs: the
/// VM charges per-instruction tick weights that sum to exactly what the
/// tree-walker ticks, so `RunBudget` and the cost model mean the same
/// thing on either backend.
#[test]
fn op_counts_match_exactly() {
    check("op_counts_match_exactly", 32, |g| {
        let n = g.usize_in(10, 200);
        let source = format!("var s = 0; for (var i = 0; i < {n}; i += 1) {{ s += i; }}");
        let program = parse_program(&source).unwrap();
        let mut interp = Interpreter::new();
        interp.run(&program, &mut NoHost).unwrap();
        let mut vm = Vm::new();
        vm.run_source(&source, &mut NoHost).unwrap();
        assert_eq!(vm.ops(), interp.ops(), "ops diverge on:\n{source}");
    });
}

/// Runtime errors agree: same message (including source line), same
/// typed-ness. Fuel exhaustion agrees in *class* on both backends under
/// the same ceiling.
#[test]
fn errors_agree() {
    check("errors_agree", 48, |g| {
        let line_pad = "\n".repeat(g.usize_in(0, 5));
        let kind = g.usize_in(0, 3);
        let source = match kind {
            0 => format!("var x = 1;{line_pad}missing(x);"),
            1 => format!("var o = {{ a: 1 }};{line_pad}var y = o.nope();"),
            _ => format!("var x = 1;{line_pad}x = x + undefined_thing;"),
        };
        let program = parse_program(&source).unwrap();
        let mut interp = Interpreter::new();
        let interp_err = interp.run(&program, &mut NoHost).unwrap_err();
        let mut vm = Vm::new();
        let vm_err = vm.run_source(&source, &mut NoHost).unwrap_err();
        assert_eq!(
            vm_err.to_string(),
            interp_err.to_string(),
            "error messages diverge on:\n{source}"
        );
        assert_eq!(vm_err.is_op_limit(), interp_err.is_op_limit());
    });
}

/// Fuel exhaustion is the same typed class on both backends under the
/// same ceiling, for pure loops and for loops that call the host.
#[test]
fn op_limit_class_agrees() {
    check("op_limit_class_agrees", 16, |g| {
        let limit = g.usize_in(50, 2_000) as u64;
        let source = *g.choose(&[
            "var i = 0; while (true) { i = i + 1; }",
            "while (true) { markDirty(); }",
        ]);
        let program = parse_program(source).unwrap();
        let mut interp = Interpreter::new().with_op_limit(limit);
        let interp_err = interp
            .run(&program, &mut RecordingHost::default())
            .unwrap_err();
        let mut vm = Vm::new().with_op_limit(limit);
        let vm_err = vm
            .run_source(source, &mut RecordingHost::default())
            .unwrap_err();
        assert!(interp_err.is_op_limit());
        assert!(vm_err.is_op_limit());
        assert_eq!(vm_err.to_string(), interp_err.to_string());
    });
}

/// A host that logs every call by name and arguments and returns fixed
/// values. It keeps the callbacks handed to `setTimeout` and
/// `requestAnimationFrame`, with the arguments each will be invoked with.
#[derive(Default)]
struct RecordingHost {
    calls: Vec<String>,
    callbacks: Vec<(Value, Vec<Value>)>,
}

impl Host for RecordingHost {
    fn call(&mut self, name: &str, args: &[Value]) -> Option<Result<Value, ScriptError>> {
        let rendered: Vec<String> = args
            .iter()
            .map(|arg| match arg {
                // The two backends represent functions differently.
                Value::Function(_) | Value::VmFunction(_) => "<function>".to_string(),
                other => other.to_string(),
            })
            .collect();
        self.calls.push(format!("{name}({})", rendered.join(", ")));
        let result = match name {
            "getElementById" => Value::Number(1.0),
            "setTimeout" => {
                self.callbacks.push((args[0].clone(), Vec::new()));
                Value::Number(self.callbacks.len() as f64)
            }
            "requestAnimationFrame" => {
                self.callbacks
                    .push((args[0].clone(), vec![Value::Number(16.0)]));
                Value::Number(self.callbacks.len() as f64)
            }
            "setStyle" | "markDirty" | "work" => Value::Null,
            _ => return None,
        };
        Some(Ok(result))
    }
}

/// Handler bodies that call the host agree: the same host calls with
/// the same arguments in the same order, the same globals and the same
/// charged ops, on the handler itself and on every timer and rAF
/// callback it registers, each invoked through `call_function` the way
/// the engine dispatches them.
#[test]
fn host_calls_agree() {
    const STMTS: [&str; 8] = [
        "setStyle(getElementById('box'), 'width', n * 10);",
        "setStyle(getElementById('box'), 'height', n + 5);",
        "markDirty();",
        "work(n * 100000);",
        "if (n > 2) { markDirty(); } else { setStyle(getElementById('box'), 'width', 7); }",
        "var i = 0; while (i < n + 3) { i = i + 1; acc = acc + i; }",
        "setTimeout(function() { markDirty(); }, 16);",
        "requestAnimationFrame(function(t) { setStyle(getElementById('box'), 'width', t + 2); markDirty(); });",
    ];
    check("host_calls_agree", 48, |g| {
        let mut body = String::new();
        for _ in 0..g.usize_in(1, 5) {
            body.push_str(g.choose::<&str>(&STMTS));
        }
        let source = format!(
            "var n = {}; var acc = 0; function handler(e) {{ {body} }}",
            g.usize_in(0, 5)
        );
        let program = parse_program(&source).unwrap();
        let mut interp = Interpreter::new();
        let mut interp_host = RecordingHost::default();
        interp.run(&program, &mut interp_host).unwrap();
        let handler = interp.global("handler").unwrap();
        let event = [Value::Number(0.0)];
        interp
            .call_function(&handler, &event, &mut interp_host)
            .unwrap();
        let mut vm = Vm::new();
        let mut vm_host = RecordingHost::default();
        vm.run_source(&source, &mut vm_host).unwrap();
        let handler = vm.global("handler").unwrap();
        vm.call_function(&handler, &event, &mut vm_host).unwrap();
        let mut next = 0;
        loop {
            assert_eq!(
                vm_host.callbacks.len(),
                interp_host.callbacks.len(),
                "registered callbacks diverge on:\n{source}"
            );
            if next == interp_host.callbacks.len() {
                break;
            }
            let (callback, args) = interp_host.callbacks[next].clone();
            interp
                .call_function(&callback, &args, &mut interp_host)
                .unwrap();
            let (callback, args) = vm_host.callbacks[next].clone();
            vm.call_function(&callback, &args, &mut vm_host).unwrap();
            next += 1;
        }
        assert_eq!(
            vm_host.calls, interp_host.calls,
            "host calls diverge on:\n{source}"
        );
        let (a, b) = (
            [interp.global("n"), interp.global("acc")],
            [vm.global("n"), vm.global("acc")],
        );
        assert_same(&source, &a, &b);
        assert_eq!(vm.ops(), interp.ops(), "charged ops diverge on:\n{source}");
    });
}

#[test]
fn string_semantics_agree() {
    let source = "
        var s = 'Hello World';
        var up = s.toUpperCase();
        var low = s.toLowerCase();
        var at = s.charCodeAt(1);
        var sub = s.substring(2, 7);
        var found = s.indexOf('World');
        var concat = s + '!' + 42 + true;
    ";
    let (a, b) = run_both(source, &["up", "low", "at", "sub", "found", "concat"]);
    assert_same(source, &a, &b);
}

#[test]
fn short_circuit_side_effects_agree() {
    let source = "
        var calls = 0;
        function bump() { calls = calls + 1; return true; }
        var a = false && bump();
        var b = true || bump();
        var c = true && bump();
        var d = false || bump();
    ";
    let (a, b) = run_both(source, &["calls", "a", "b", "c", "d"]);
    assert_same(source, &a, &b);
}

#[test]
fn higher_order_functions_agree() {
    let source = "
        function apply(f, x) { return f(x); }
        function compose(f, g) { return function(x) { return f(g(x)); }; }
        function inc(x) { return x + 1; }
        function dbl(x) { return x * 2; }
        var h = compose(inc, dbl);
        var r1 = apply(h, 10);
        var r2 = apply(compose(dbl, inc), 10);
    ";
    let (a, b) = run_both(source, &["r1", "r2"]);
    assert_same(source, &a, &b);
}

#[test]
fn object_methods_agree() {
    let source = "
        var counter = {
            n: 0,
            tick: function() { return 1; }
        };
        var t = counter.tick();
        counter.n = counter.n + t;
        var n = counter.n;
    ";
    let (a, b) = run_both(source, &["t", "n"]);
    assert_same(source, &a, &b);
}
