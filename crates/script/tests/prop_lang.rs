//! Property tests for the scripting language: totality of the frontend,
//! determinism of execution, and structural invariants of the
//! evaluator, all on the bytecode VM the engine runs.

use greenweb_det::prop::{check, DEFAULT_CASES};
use greenweb_script::{lex, parse_program, NoHost, Value, Vm};

/// The lexer is total: any string either lexes or errors, never
/// panics.
#[test]
fn lexer_never_panics() {
    check("lexer_never_panics", DEFAULT_CASES, |g| {
        let input = g.arbitrary_string(300);
        let _ = lex(&input);
    });
}

/// The parser is total over arbitrary input.
#[test]
fn parser_never_panics() {
    check("parser_never_panics", DEFAULT_CASES, |g| {
        let input = g.arbitrary_string(300);
        let _ = parse_program(&input);
    });
}

/// Number literals survive lex → parse → eval exactly.
#[test]
fn number_literals_round_trip() {
    check("number_literals_round_trip", DEFAULT_CASES, |g| {
        let n = g.f64_in(0.0, 1e12);
        let source = format!("var x = {n};");
        let mut vm = Vm::new();
        vm.run_source(&source, &mut NoHost).unwrap();
        assert_eq!(vm.global("x"), Some(Value::Number(n)));
    });
}

/// String literals with arbitrary safe contents round-trip.
#[test]
fn string_literals_round_trip() {
    const SAFE: [char; 15] = [
        'a', 'Z', 'q', 'M', '0', '9', ' ', '_', '.', ',', '!', '?', '-', 'x', 'B',
    ];
    check("string_literals_round_trip", DEFAULT_CASES, |g| {
        let s = g.string_from(&SAFE, 40);
        let source = format!("var x = \"{s}\";");
        let mut vm = Vm::new();
        vm.run_source(&source, &mut NoHost).unwrap();
        let value = vm.global("x").unwrap();
        assert_eq!(value.as_str(), Some(s.as_str()));
    });
}

/// Execution is deterministic: the same program leaves identical
/// globals and op counts on independent VMs.
#[test]
fn interpretation_is_deterministic() {
    check("interpretation_is_deterministic", DEFAULT_CASES, |g| {
        let seed = g.usize_in(0, 1_000);
        let loops = g.usize_in(1, 50);
        let source = format!(
            "var acc = {seed};
             var i = 0;
             for (i = 0; i < {loops}; i = i + 1) {{
                 acc = (acc * 31 + i) % 65521;
             }}"
        );
        let mut a = Vm::new();
        a.run_source(&source, &mut NoHost).unwrap();
        let mut b = Vm::new();
        b.run_source(&source, &mut NoHost).unwrap();
        assert_eq!(a.global("acc"), b.global("acc"));
        assert_eq!(a.ops(), b.ops());
    });
}

/// Op count grows monotonically with loop trip count — the property
/// the engine's cost model depends on.
#[test]
fn op_count_monotone_in_work() {
    check("op_count_monotone_in_work", 32, |g| {
        let n = g.usize_in(1, 200) as u32;
        let run = |count: u32| {
            let source = format!(
                "var s = 0; var i = 0; for (i = 0; i < {count}; i = i + 1) {{ s = s + i; }}"
            );
            let mut vm = Vm::new();
            vm.run_source(&source, &mut NoHost).unwrap();
            vm.ops()
        };
        assert!(run(n + 1) > run(n));
    });
}

/// Array push/length agree for arbitrary element counts.
#[test]
fn array_length_tracks_pushes() {
    check("array_length_tracks_pushes", 32, |g| {
        let count = g.usize_in(0, 64);
        let source = format!(
            "var a = [];
             var i = 0;
             for (i = 0; i < {count}; i = i + 1) {{ a.push(i * 2); }}
             var len = a.length;
             var last = len > 0 ? a[len - 1] : null;"
        );
        let mut vm = Vm::new();
        vm.run_source(&source, &mut NoHost).unwrap();
        assert_eq!(vm.global("len"), Some(Value::Number(count as f64)));
        if count > 0 {
            assert_eq!(
                vm.global("last"),
                Some(Value::Number((count as f64 - 1.0) * 2.0))
            );
        }
    });
}

/// Comparison operators form a total order consistent with f64.
#[test]
fn comparisons_match_f64() {
    check("comparisons_match_f64", DEFAULT_CASES, |g| {
        let a = g.f64_in(-1e6, 1e6);
        let b = g.f64_in(-1e6, 1e6);
        let source = format!(
            "var lt = {a} < {b}; var le = {a} <= {b}; var gt = {a} > {b};
             var ge = {a} >= {b}; var eq = {a} == {b};"
        );
        let mut vm = Vm::new();
        vm.run_source(&source, &mut NoHost).unwrap();
        assert_eq!(vm.global("lt"), Some(Value::Bool(a < b)));
        assert_eq!(vm.global("le"), Some(Value::Bool(a <= b)));
        assert_eq!(vm.global("gt"), Some(Value::Bool(a > b)));
        assert_eq!(vm.global("ge"), Some(Value::Bool(a >= b)));
        assert_eq!(vm.global("eq"), Some(Value::Bool(a == b)));
    });
}
