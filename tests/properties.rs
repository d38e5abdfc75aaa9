//! Cross-crate property-based tests: invariants that must hold for all
//! inputs, checked with the in-repo `greenweb_det::prop` harness.

use greenweb::lang::{Annotation, AnnotationTable};
use greenweb::qos::{QosSpec, QosTarget, QosType, Scenario};
use greenweb_acmp::{CoreType, Cpu, CpuConfig, Duration, Platform, PowerModel, SimTime, WorkUnit};
use greenweb_css::{parse_stylesheet, Selector, StyleEngine};
use greenweb_det::prop::{check, Gen, DEFAULT_CASES};
use greenweb_dom::{parse_html, EventType};
use greenweb_engine::{FrameTracker, InputId, Msg};
use std::fmt::Write as _;

const EVENTS: [EventType; 6] = [
    EventType::Click,
    EventType::Scroll,
    EventType::TouchStart,
    EventType::TouchEnd,
    EventType::TouchMove,
    EventType::Load,
];

fn gen_qos_spec(g: &mut Gen) -> QosSpec {
    let a = g.f64_in(1.0, 5_000.0);
    let b = g.f64_in(1.0, 5_000.0);
    let (ti, tu) = if a <= b { (a, b) } else { (b, a) };
    // Keep two decimals so text round-trips are exact.
    let ti = (ti * 100.0).round() / 100.0;
    let tu = (tu * 100.0).round() / 100.0;
    let qos_type = if g.bool_with(0.5) {
        QosType::Continuous
    } else {
        QosType::Single
    };
    QosSpec::with_target(qos_type, QosTarget::new(ti, tu))
}

/// Every annotation the library can express round-trips through its
/// own CSS syntax: emit → parse → identical semantics.
#[test]
fn annotation_css_round_trip() {
    const ID_CHARS: [char; 36] = [
        'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'j', 'k', 'l', 'm', 'n', 'o', 'p', 'q', 'r',
        's', 't', 'u', 'v', 'w', 'x', 'y', 'z', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9',
    ];
    check("annotation_css_round_trip", DEFAULT_CASES, |g| {
        let spec = gen_qos_spec(g);
        let event = *g.choose(&EVENTS);
        let mut id = String::new();
        id.push(*g.choose(&ID_CHARS[..26]));
        id.push_str(&g.string_from(&ID_CHARS, 8));
        let annotation = Annotation {
            selector: Selector::parse(&format!("#{id}:QoS")).unwrap(),
            event,
            spec,
        };
        let css = annotation.to_css();
        let sheet = parse_stylesheet(&css).unwrap();
        let table = AnnotationTable::from_stylesheet(&sheet).unwrap();
        assert_eq!(table.len(), 1);
        let parsed = &table.annotations()[0];
        assert_eq!(parsed.event, event);
        assert_eq!(parsed.spec.qos_type, spec.qos_type);
        assert!((parsed.spec.target.imperceptible_ms - spec.target.imperceptible_ms).abs() < 1e-9);
        assert!((parsed.spec.target.usable_ms - spec.target.usable_ms).abs() < 1e-9);
    });
}

/// The imperceptible target never exceeds the usable target, and
/// scenario selection honors that order.
#[test]
fn scenario_targets_ordered() {
    check("scenario_targets_ordered", DEFAULT_CASES, |g| {
        let spec = gen_qos_spec(g);
        assert!(
            spec.target.for_scenario(Scenario::Imperceptible)
                <= spec.target.for_scenario(Scenario::Usable)
        );
    });
}

/// Splitting a work unit's execution at any point preserves its total
/// duration on any configuration (the invariant the engine relies on
/// when a configuration switch interrupts a task).
#[test]
fn work_split_preserves_duration() {
    check("work_split_preserves_duration", DEFAULT_CASES, |g| {
        let cycles = g.f64_in(1.0e5, 5.0e8);
        let indep_ms = g.f64_in(0.0, 20.0);
        let split_fraction = g.f64_in(0.0, 1.5);
        let platform = Platform::odroid_xu_e();
        let configs: Vec<CpuConfig> = platform.configs().collect();
        let config = *g.choose(&configs);
        let ipc = platform.cluster(config.core).ipc;
        let work = WorkUnit::new(cycles, indep_ms);
        let total = work.duration_on(config, ipc);
        let split =
            Duration::from_nanos((total.as_nanos() as f64 * split_fraction.min(1.0)) as u64);
        let rest = work.remaining_after(config, ipc, split);
        let recombined = split + rest.duration_on(config, ipc);
        let diff = (recombined.as_millis_f64() - total.as_millis_f64()).abs();
        assert!(diff < 1e-3, "split at {split}: {diff} ms drift");
        assert!(rest.cycles >= 0.0 && rest.independent_ns >= 0.0);
    });
}

/// Energy accounting is additive: advancing the CPU through any
/// partition of an interval yields the same energy as one advance.
#[test]
fn energy_additive_over_partitions() {
    check("energy_additive_over_partitions", DEFAULT_CASES, |g| {
        let cuts = {
            let len = g.usize_in(1, 8);
            (0..len)
                .map(|_| g.usize_in(1, 1_000) as u64)
                .collect::<Vec<u64>>()
        };
        let busy = g.bool_with(0.5);
        let platform = Platform::odroid_xu_e();
        let configs: Vec<CpuConfig> = platform.configs().collect();
        let config = *g.choose(&configs);
        let total_ms: u64 = cuts.iter().sum();

        let mut whole = Cpu::new(platform.clone(), PowerModel::odroid_xu_e()).with_config(config);
        whole.set_busy(SimTime::ZERO, busy);
        whole.advance(SimTime::from_millis(total_ms));

        let mut pieces = Cpu::new(platform, PowerModel::odroid_xu_e()).with_config(config);
        pieces.set_busy(SimTime::ZERO, busy);
        let mut t = 0;
        for cut in &cuts {
            t += cut;
            pieces.advance(SimTime::from_millis(t));
        }
        let diff = (whole.energy().total_mj() - pieces.energy().total_mj()).abs();
        assert!(diff < 1e-6, "energy drift {diff}");
    });
}

/// The step_up/step_down ladder is consistent: stepping up then down
/// returns to the start anywhere except at the saturating ends.
#[test]
fn ladder_is_invertible() {
    check("ladder_is_invertible", 32, |g| {
        let platform = Platform::odroid_xu_e();
        let configs: Vec<CpuConfig> = platform.configs().collect();
        let config = *g.choose(&configs);
        if let Some(up) = platform.step_up(config) {
            assert_eq!(platform.step_down(up), Some(config));
        }
        if let Some(down) = platform.step_down(config) {
            assert_eq!(platform.step_up(down), Some(config));
        }
    });
}

/// Active power dominates idle power at every configuration, and
/// big-cluster configs outdraw every little config.
#[test]
fn power_model_orderings() {
    check("power_model_orderings", 32, |g| {
        let platform = Platform::odroid_xu_e();
        let power = PowerModel::odroid_xu_e();
        let configs: Vec<CpuConfig> = platform.configs().collect();
        let config = *g.choose(&configs);
        assert!(power.active_mw(&platform, config) > power.idle_mw(config));
        if config.core == CoreType::Big {
            let little_peak = power.active_mw(&platform, platform.max_config(CoreType::Little));
            assert!(power.active_mw(&platform, config) > little_peak);
        }
    });
}

/// A generated expression: its source text and reference value.
#[derive(Debug, Clone)]
struct ExprCase {
    text: String,
    value: f64,
}

fn gen_expr(g: &mut Gen, depth: u32) -> ExprCase {
    if depth == 0 || g.bool_with(0.3) {
        let n = (g.f64_in(-100.0, 100.0) * 4.0).round() / 4.0; // keep representable
        return ExprCase {
            text: if n < 0.0 {
                format!("({n})")
            } else {
                format!("{n}")
            },
            value: n,
        };
    }
    let a = gen_expr(g, depth - 1);
    let b = gen_expr(g, depth - 1);
    let (symbol, value) = match g.usize_in(0, 4) {
        0 => ("+", a.value + b.value),
        1 => ("-", a.value - b.value),
        2 => ("*", a.value * b.value),
        _ => ("/", a.value / b.value),
    };
    ExprCase {
        text: format!("({} {symbol} {})", a.text, b.text),
        value,
    }
}

/// Generated arithmetic programs evaluate identically in the script
/// interpreter and a Rust-side reference evaluator.
#[test]
fn script_arithmetic_matches_reference() {
    check("script_arithmetic_matches_reference", 64, |g| {
        let expr = gen_expr(g, 3);
        let source = format!("var result = {};", expr.text);
        let program = greenweb_script::parse_program(&source).unwrap();
        let mut interp = greenweb_script::Interpreter::new();
        interp.run(&program, &mut greenweb_script::NoHost).unwrap();
        let got = interp.global("result").unwrap().as_number().unwrap();
        if expr.value.is_finite() && got.is_finite() {
            let diff = (got - expr.value).abs();
            let scale = expr.value.abs().max(1.0);
            assert!(
                diff / scale < 1e-9,
                "{source} => {got}, expected {}",
                expr.value
            );
        }
    });
}

// ---------------------------------------------------------------------------
// FrameTracker metadata propagation under adversarial input delivery:
// duplicated, reordered, and dropped input events (Fig. 8 hardening).
// ---------------------------------------------------------------------------

/// One simulated frame's worth of adversarial delivery: which inputs mark
/// dirty, how many duplicate marks each issues, and in what order.
struct DeliveryPlan {
    /// (uid index, duplicate mark count) in delivery order.
    marks: Vec<(usize, usize)>,
    complete_at_ms: u64,
}

fn gen_inputs(g: &mut Gen) -> Vec<(InputId, EventType, SimTime)> {
    let count = g.usize_in(1, 12);
    (0..count)
        .map(|i| {
            (
                InputId(i as u64 + 1),
                *g.choose(&EVENTS),
                SimTime::from_millis(g.usize_in(0, 100) as u64),
            )
        })
        .collect()
}

fn gen_frames(g: &mut Gen, input_count: usize) -> Vec<DeliveryPlan> {
    let frames = g.usize_in(1, 8);
    let mut clock = 120u64;
    (0..frames)
        .map(|_| {
            // A random subset, in random (reordered) delivery order, with
            // duplicates; inputs not in the subset are dropped this frame.
            let mut idx: Vec<usize> = (0..input_count).filter(|_| g.bool_with(0.6)).collect();
            g.rng.shuffle(&mut idx);
            let marks = idx
                .into_iter()
                .map(|i| (i, g.usize_in(1, 4)))
                .collect::<Vec<_>>();
            clock += 16 + g.usize_in(0, 20) as u64;
            DeliveryPlan {
                marks,
                complete_at_ms: clock,
            }
        })
        .collect()
}

/// Duplicated marks never inflate frame attribution: each input gets at
/// most one record per frame, no matter how many times (or in what order)
/// its callbacks mark the dirty bit.
#[test]
fn frame_tracker_dedups_duplicate_marks() {
    check("frame_tracker_dedups_duplicate_marks", DEFAULT_CASES, |g| {
        let inputs = gen_inputs(g);
        let mut tracker = FrameTracker::new();
        for (uid, event, _) in &inputs {
            tracker.register_input(*uid, *event);
        }
        for plan in gen_frames(g, inputs.len()) {
            let distinct: std::collections::HashSet<usize> =
                plan.marks.iter().map(|(i, _)| *i).collect();
            for (i, dups) in &plan.marks {
                let (uid, _, start) = inputs[*i];
                for _ in 0..*dups {
                    tracker.mark_dirty(Msg {
                        uid,
                        start_ts: start,
                    });
                }
            }
            match tracker.begin_frame() {
                Some(msgs) => {
                    assert_eq!(msgs.len(), distinct.len(), "duplicate marks inflated frame");
                    let records =
                        tracker.complete_frame(&msgs, SimTime::from_millis(plan.complete_at_ms));
                    assert_eq!(records.len(), distinct.len());
                }
                None => assert!(distinct.is_empty()),
            }
        }
    });
}

/// Reordered delivery never corrupts metadata: every record carries the
/// event type its uid was registered with, and the latency measured from
/// its own start timestamp — regardless of queue order.
#[test]
fn frame_tracker_metadata_survives_reordering() {
    check(
        "frame_tracker_metadata_survives_reordering",
        DEFAULT_CASES,
        |g| {
            let inputs = gen_inputs(g);
            let mut tracker = FrameTracker::new();
            for (uid, event, _) in &inputs {
                tracker.register_input(*uid, *event);
            }
            for plan in gen_frames(g, inputs.len()) {
                for (i, dups) in &plan.marks {
                    let (uid, _, start) = inputs[*i];
                    for _ in 0..*dups {
                        tracker.mark_dirty(Msg {
                            uid,
                            start_ts: start,
                        });
                    }
                }
                let now = SimTime::from_millis(plan.complete_at_ms);
                if let Some(msgs) = tracker.begin_frame() {
                    for record in tracker.complete_frame(&msgs, now) {
                        let (_, event, start) = inputs[(record.uid.0 - 1) as usize];
                        assert_eq!(record.event, event, "event metadata lost in reordering");
                        assert_eq!(record.latency, now.saturating_since(start));
                        assert_eq!(record.completed_at, now);
                    }
                }
            }
        },
    );
}

// ---------------------------------------------------------------------------
// Incremental style system: the bucketed + Bloom-filtered resolver must
// agree with the naive full scan on arbitrary documents × stylesheets,
// and the engine's computed-style cache must be invisible to results.
// ---------------------------------------------------------------------------

const STYLE_TAGS: [&str; 5] = ["div", "p", "span", "ul", "li"];
const STYLE_CLASSES: [&str; 6] = ["a", "b", "hot", "cold", "nav", "card"];
const STYLE_PROPS: [&str; 4] = ["width", "height", "margin", "color"];

fn gen_style_element(g: &mut Gen, depth: u32, next_id: &mut u32, out: &mut String) {
    let tag = *g.choose(&STYLE_TAGS);
    let _ = write!(out, "<{tag}");
    if g.bool_with(0.3) {
        let _ = write!(out, " id='e{}'", *next_id);
        *next_id += 1;
    }
    if g.bool_with(0.5) {
        let a = *g.choose(&STYLE_CLASSES);
        if g.bool_with(0.3) {
            let _ = write!(out, " class='{a} {}'", *g.choose(&STYLE_CLASSES));
        } else {
            let _ = write!(out, " class='{a}'");
        }
    }
    if g.bool_with(0.25) {
        let _ = write!(
            out,
            " style='{}: {}px{}'",
            *g.choose(&STYLE_PROPS),
            g.usize_in(0, 500),
            if g.bool_with(0.2) { " !important" } else { "" }
        );
    }
    out.push('>');
    if depth > 0 {
        for _ in 0..g.usize_in(0, 4) {
            gen_style_element(g, depth - 1, next_id, out);
        }
    } else {
        out.push('x');
    }
    let _ = write!(out, "</{tag}>");
}

fn gen_style_document(g: &mut Gen) -> String {
    let mut html = String::new();
    let mut next_id = 0;
    for _ in 0..g.usize_in(1, 4) {
        gen_style_element(g, 3, &mut next_id, &mut html);
    }
    html
}

fn gen_style_selector(g: &mut Gen) -> String {
    let simple = |g: &mut Gen| match g.usize_in(0, 6) {
        0 => format!("#e{}", g.usize_in(0, 10)),
        1 => format!(".{}", *g.choose(&STYLE_CLASSES)),
        2 => (*g.choose(&STYLE_TAGS)).to_string(),
        3 => format!("{}.{}", *g.choose(&STYLE_TAGS), *g.choose(&STYLE_CLASSES)),
        4 => "[style]".to_string(),
        _ => "*".to_string(),
    };
    match g.usize_in(0, 4) {
        0 => simple(g),
        1 => format!("{} {}", simple(g), simple(g)),
        2 => format!("{} > {}", simple(g), simple(g)),
        _ => format!("{}, {}", simple(g), simple(g)),
    }
}

fn gen_stylesheet_source(g: &mut Gen) -> String {
    let mut css = String::new();
    for _ in 0..g.usize_in(0, 13) {
        let _ = write!(css, "{} {{ ", gen_style_selector(g));
        for _ in 0..g.usize_in(1, 4) {
            let _ = write!(
                css,
                "{}: {}px{}; ",
                *g.choose(&STYLE_PROPS),
                g.usize_in(0, 500),
                if g.bool_with(0.2) { " !important" } else { "" }
            );
        }
        css.push_str("} ");
    }
    css
}

/// The tentpole's correctness contract: on random documents × random
/// stylesheets, the bucketed + Bloom-filtered resolver agrees with the
/// naive full scan property-for-property — for the whole tree, and for
/// both per-node views (with and without inline style). Both resolvers
/// share one cascade builder, so this checks *matching*; the cascade
/// layers are pinned by concrete unit tests in `greenweb-css`.
#[test]
fn bucketed_style_resolver_matches_naive() {
    check(
        "bucketed_style_resolver_matches_naive",
        DEFAULT_CASES,
        |g| {
            let html = gen_style_document(g);
            let css = gen_stylesheet_source(g);
            let doc = parse_html(&html).unwrap_or_else(|e| panic!("html {html:?}: {e}"));
            let engine = StyleEngine::new(
                parse_stylesheet(&css).unwrap_or_else(|e| panic!("css {css:?}: {e}")),
            );

            let bucketed = engine.compute_all(&doc);
            let naive = engine.compute_all_naive(&doc);
            assert_eq!(
                bucketed, naive,
                "tree resolve diverged\ncss: {css}\nhtml: {html}"
            );

            for node in doc.descendants(doc.root()) {
                if doc.element(node).is_none() {
                    continue;
                }
                let (with_inline, without_inline) = engine.compute_style_both(&doc, node, None);
                assert_eq!(
                    with_inline,
                    engine.compute_style_naive(&doc, node, None),
                    "with-inline view diverged\ncss: {css}\nhtml: {html}"
                );
                assert_eq!(
                    without_inline,
                    engine.compute_style_without_inline_naive(&doc, node, None),
                    "without-inline view diverged\ncss: {css}\nhtml: {html}"
                );
            }
        },
    );
}

/// The computed-style cache is invisible to behavior: a full engine run
/// with the cache disabled produces the same frames, inputs, and energy
/// as with it enabled — only the `style.cache_*` counters may differ.
#[test]
fn style_cache_does_not_change_run_results() {
    use greenweb_engine::{App, Browser, GovernorScheduler, Trace};

    let app = App::builder("cache-parity")
        .html("<div id='box'><p class='inner'>x</p></div>")
        .css("#box { width: 10px; transition: width 100ms linear; } .inner { margin: 2px; }")
        // Two writes per click: the invalidation pass runs before
        // animation arming, so the second arm's resolve of the same node
        // is the cache's hit path.
        .script(
            "addEventListener(getElementById('box'), 'click', function(e) { \
               setStyle(getElementById('box'), 'width', 200); \
               setStyle(getElementById('box'), 'height', 50); markDirty(); });",
        )
        .build();
    let trace = Trace::builder()
        .click_id(50.0, "box")
        .click_id(300.0, "box")
        .end_ms(800.0)
        .build();

    let run_with_cache = |enabled: bool| {
        let mut browser =
            Browser::new(&app, GovernorScheduler::new(greenweb_acmp::PerfGovernor)).unwrap();
        browser.set_style_cache_enabled(enabled);
        browser.run(&trace).unwrap()
    };
    let on = run_with_cache(true);
    let off = run_with_cache(false);

    assert_eq!(on.frames, off.frames, "cache changed frame records");
    assert_eq!(on.inputs, off.inputs, "cache changed input metadata");
    assert_eq!(on.total_mj(), off.total_mj(), "cache changed energy");
    // The cache actually engaged: hits on, none off.
    assert!(on.style.cache_hits > 0, "cache never hit: {:?}", on.style);
    assert_eq!(
        off.style.cache_hits, 0,
        "disabled cache hit: {:?}",
        off.style
    );
}

/// The script backend is invisible to behavior: a full engine run on the
/// tree-walking oracle produces the same frames, inputs, and energy as
/// the default bytecode VM — and the same charged op count, by the
/// tick-parity contract. Only the VM-shaped counters (`dispatches`,
/// `fold_wins`, compile-path splits) may differ.
#[test]
fn script_backend_does_not_change_run_results() {
    use greenweb_engine::{App, Browser, GovernorScheduler, ScriptBackend, Trace};

    let app = App::builder("backend-parity")
        .html("<div id='box'>x</div>")
        .css("#box { width: 10px; }")
        .script(
            "var total = 0; \
             addEventListener(getElementById('box'), 'click', function(e) { \
               var i = 0; \
               while (i < 40) { i = i + 1; total = total + i * 2; } \
               setStyle(getElementById('box'), 'width', total); \
               work(500000); markDirty(); });",
        )
        .build();
    let trace = Trace::builder()
        .click_id(50.0, "box")
        .click_id(300.0, "box")
        .end_ms(800.0)
        .build();

    let run_on = |backend: ScriptBackend| {
        let mut browser = Browser::with_backend(
            &app,
            GovernorScheduler::new(greenweb_acmp::PerfGovernor),
            backend,
        )
        .unwrap();
        browser.run(&trace).unwrap()
    };
    let vm = run_on(ScriptBackend::Vm);
    let tree = run_on(ScriptBackend::Tree);

    assert_eq!(vm.frames, tree.frames, "backend changed frame records");
    assert_eq!(vm.inputs, tree.inputs, "backend changed input metadata");
    assert_eq!(vm.total_mj(), tree.total_mj(), "backend changed energy");
    assert_eq!(vm.busy_time, tree.busy_time, "backend changed busy time");
    assert_eq!(
        vm.script.ops, tree.script.ops,
        "tick parity broke: vm {:?} vs tree {:?}",
        vm.script, tree.script
    );
    // The VM actually ran bytecode, from the app's precompiled table.
    assert!(
        vm.script.dispatches > 0,
        "vm never dispatched: {:?}",
        vm.script
    );
    assert!(
        vm.script.precompiled_hits > 0,
        "vm missed the precompiled table"
    );
    assert_eq!(tree.script.dispatches, 0, "oracle counted vm dispatches");
}

/// The VM-off parity gate's contract, in-process: the deterministic
/// metrics JSON of a VM run and an oracle run are byte-identical once
/// the trailing `"script"` counter object is stripped — and only that
/// object distinguishes the two renderings.
#[test]
fn script_backend_metrics_json_identical_modulo_script_counters() {
    use greenweb::metrics::RunMetrics;
    use greenweb_engine::{App, Browser, GovernorScheduler, ScriptBackend, Trace};
    use std::collections::HashMap;

    // Strips the `"script"` counter object — the in-process double of
    // the CI gate's `sed 's/,"script":{[^}]*}//'`. The object is flat
    // (no nested braces), so the first `}` closes it.
    fn strip_script(json: &str) -> String {
        let start = json.find(",\"script\":{").expect("script object missing");
        let end = start + json[start..].find('}').unwrap() + 1;
        format!("{}{}", &json[..start], &json[end..])
    }

    let app = App::builder("json-parity")
        .html("<div id='box'>x</div>")
        .script(
            "addEventListener(getElementById('box'), 'click', function(e) { \
               setStyle(getElementById('box'), 'width', 3 * 7 + 1); markDirty(); });",
        )
        .build();
    let trace = Trace::builder().click_id(50.0, "box").end_ms(500.0).build();
    let run_on = |backend: ScriptBackend| {
        let mut browser = Browser::with_backend(
            &app,
            GovernorScheduler::new(greenweb_acmp::PerfGovernor),
            backend,
        )
        .unwrap();
        let report = browser.run(&trace).unwrap();
        RunMetrics::compute(&report, &HashMap::new()).render_json()
    };
    let vm = run_on(ScriptBackend::Vm);
    let tree = run_on(ScriptBackend::Tree);

    assert_ne!(vm, tree, "script counters failed to identify the backend");
    assert_eq!(
        strip_script(&vm),
        strip_script(&tree),
        "backends diverged outside the script counters"
    );
}

/// Engine-level differential oracle: on randomly composed handler
/// bodies, the bytecode VM and the tree-walking interpreter produce
/// identical observable effects — frames, input metadata, energy, and
/// the charged op count — across DOM writes, control flow, timers, and
/// rAF chains.
#[test]
fn script_backends_agree_on_observable_callback_effects() {
    use greenweb_engine::{App, Browser, GovernorScheduler, ScriptBackend, Trace};

    const STMTS: [&str; 8] = [
        "setStyle(getElementById('box'), 'width', n * 10);",
        "setStyle(getElementById('box'), 'height', n + 5);",
        "markDirty();",
        "work(n * 100000);",
        "if (n > 2) { markDirty(); } else { setStyle(getElementById('box'), 'width', 7); }",
        "var i = 0; while (i < n + 3) { i = i + 1; acc = acc + i; }",
        "setTimeout(function() { markDirty(); }, 16);",
        "requestAnimationFrame(function(t) { setStyle(getElementById('box'), 'width', 1 + 2); markDirty(); });",
    ];
    check(
        "script_backends_agree_on_observable_callback_effects",
        48,
        |g| {
            let mut body = format!("var n = {}; var acc = 0;", g.usize_in(0, 5));
            for _ in 0..g.usize_in(1, 5) {
                body.push_str(g.choose::<&str>(&STMTS));
            }
            let app = App::builder("backend-differential")
                .html("<div id='box'>x</div>")
                .script(format!(
                    "addEventListener(getElementById('box'), 'click', function(e) {{ {body} }});"
                ))
                .build();
            let trace = Trace::builder().click_id(50.0, "box").end_ms(600.0).build();
            let run_on = |backend: ScriptBackend| {
                let mut browser = Browser::with_backend(
                    &app,
                    GovernorScheduler::new(greenweb_acmp::PerfGovernor),
                    backend,
                )
                .unwrap();
                browser.run(&trace).unwrap()
            };
            let vm = run_on(ScriptBackend::Vm);
            let tree = run_on(ScriptBackend::Tree);
            assert_eq!(vm.frames, tree.frames, "frames diverged\nbody: {body}");
            assert_eq!(vm.inputs, tree.inputs, "inputs diverged\nbody: {body}");
            assert_eq!(
                vm.total_mj(),
                tree.total_mj(),
                "energy diverged\nbody: {body}"
            );
            assert_eq!(
                vm.script.ops, tree.script.ops,
                "tick parity broke\nbody: {body}\nvm {:?}\ntree {:?}",
                vm.script, tree.script
            );
        },
    );
}

/// Typed-error agreement: both backends meter the one shared fuel
/// implementation, so a runaway callback trips the same
/// [`BrowserError::Budget`] ceiling at the same charged-op count on
/// either backend.
#[test]
fn script_backends_trip_the_same_op_limit() {
    use greenweb_engine::{App, Browser, GovernorScheduler, RunBudget, ScriptBackend, Trace};

    let app = App::builder("budget-parity")
        .html("<div id='box'>x</div>")
        .script(
            "addEventListener(getElementById('box'), 'click', function(e) { \
               while (true) { markDirty(); } });",
        )
        .build();
    let trace = Trace::builder().click_id(50.0, "box").end_ms(500.0).build();
    let trip = |backend: ScriptBackend| {
        let mut browser = Browser::with_backend(
            &app,
            GovernorScheduler::new(greenweb_acmp::PerfGovernor),
            backend,
        )
        .unwrap();
        browser.set_budget(RunBudget {
            max_callback_ops: 10_000,
            max_sim_events: 1_000_000,
        });
        match browser.run(&trace) {
            Err(greenweb_engine::BrowserError::Budget(detail)) => detail,
            other => panic!("expected an op-limit trip on {backend:?}, got {other:?}"),
        }
    };
    assert_eq!(
        trip(ScriptBackend::Vm),
        trip(ScriptBackend::Tree),
        "backends reported different op-limit trips"
    );
}

// ---------------------------------------------------------------------------
// Incremental rendering: layout cache + retained display list (§6k)
// ---------------------------------------------------------------------------

/// Strips one flat trailing counter object (`,"name":{…}`) from a
/// metrics JSON rendering — the in-process double of the CI parity
/// gates' `sed 's/,"name":{[^}]*}//'`. The objects are flat (no nested
/// braces), so the first `}` closes them.
fn strip_counter_object(json: &str, name: &str) -> String {
    let needle = format!(",\"{name}\":{{");
    let start = json
        .find(&needle)
        .unwrap_or_else(|| panic!("{name} object missing in {json}"));
    let end = start + json[start..].find('}').unwrap() + 1;
    format!("{}{}", &json[..start], &json[end..])
}

/// The incremental render pipeline is invisible to behavior: a full
/// engine run with the layout cache and retained display list disabled
/// (the naive full-relayout oracle) produces the same frames, inputs,
/// energy, busy time, final geometry, and final display list as with
/// them enabled. Only the reuse-shaped counters may differ — and the
/// dirty/damage numbers the cost model prices must not.
#[test]
fn incremental_rendering_does_not_change_run_results() {
    use greenweb_engine::{App, Browser, GovernorScheduler, Trace};

    let app = App::builder("paint-parity")
        .html(
            "<div id='page'><div id='hub' class='card'><p>a</p><p>b</p></div>\
             <ul id='list'><li>1</li><li>2</li><li>3</li></ul></div>",
        )
        .css(
            ".card { margin: 4px; } p { height: 20px; } li { height: 14px; } \
             #hub { transition: width 80ms linear; }",
        )
        .script(
            "var n = 0; \
             addEventListener(getElementById('hub'), 'click', function(e) { \
               n = n + 1; \
               setStyle(getElementById('hub'), 'width', 100 + n * 20); \
               markDirty(); });",
        )
        .build();
    let trace = Trace::builder()
        .click_id(50.0, "hub")
        .click_id(300.0, "hub")
        .click_id(550.0, "hub")
        .end_ms(900.0)
        .build();

    let run_mode = |enabled: bool| {
        let mut browser =
            Browser::new(&app, GovernorScheduler::new(greenweb_acmp::PerfGovernor)).unwrap();
        browser.set_paint_incremental(enabled);
        let report = browser.run(&trace).unwrap();
        let boxes = browser.layout_boxes().to_vec();
        let items = browser.display_list().to_vec();
        (report, boxes, items)
    };
    let (on, on_boxes, on_items) = run_mode(true);
    let (off, off_boxes, off_items) = run_mode(false);

    assert_eq!(on.frames, off.frames, "mode changed frame records");
    assert_eq!(on.inputs, off.inputs, "mode changed input metadata");
    assert_eq!(on.total_mj(), off.total_mj(), "mode changed energy");
    assert_eq!(on.busy_time, off.busy_time, "mode changed busy time");
    assert_eq!(on_boxes, off_boxes, "mode changed final geometry");
    assert_eq!(on_items, off_items, "mode changed the display list");
    // The priced inputs are mode-independent…
    assert_eq!(
        on.layout.dirty_elements, off.layout.dirty_elements,
        "dirty accounting diverged"
    );
    assert_eq!(
        on.paint.damage_items, off.paint.damage_items,
        "damage accounting diverged"
    );
    // …and the machinery actually engaged: reuses on, none off.
    assert!(
        on.layout.subtree_reuses > 0,
        "cache never reused a subtree: {:?}",
        on.layout
    );
    assert_eq!(
        off.layout.subtree_reuses, 0,
        "oracle reused a subtree: {:?}",
        off.layout
    );
    assert!(
        on.layout.elements_laid_out < off.layout.elements_laid_out,
        "incremental measured no fewer elements ({} vs {})",
        on.layout.elements_laid_out,
        off.layout.elements_laid_out
    );
    assert!(
        on.paint.partial_repaints > 0,
        "no partial repaints: {:?}",
        on.paint
    );
}

/// The paint-incr parity gate's contract, in-process: the deterministic
/// metrics JSON of an incremental run and a naive-oracle run are
/// byte-identical once the `"style"`, `"layout"`, and `"paint"`
/// counter objects are stripped — and those counters do distinguish
/// the two renderings. (Style counters differ too because reused
/// subtrees skip style resolution entirely.)
#[test]
fn paint_mode_metrics_json_identical_modulo_render_counters() {
    use greenweb::metrics::RunMetrics;
    use greenweb_engine::{App, Browser, GovernorScheduler, Trace};
    use std::collections::HashMap;

    let app = App::builder("paint-json-parity")
        .html("<div id='box'><p>a</p><p>b</p></div>")
        .css("p { height: 12px; }")
        .script(
            "addEventListener(getElementById('box'), 'click', function(e) { \
               setStyle(getElementById('box'), 'width', 150); markDirty(); });",
        )
        .build();
    let trace = Trace::builder()
        .click_id(50.0, "box")
        .click_id(300.0, "box")
        .end_ms(700.0)
        .build();
    let run_mode = |enabled: bool| {
        let mut browser =
            Browser::new(&app, GovernorScheduler::new(greenweb_acmp::PerfGovernor)).unwrap();
        browser.set_paint_incremental(enabled);
        let report = browser.run(&trace).unwrap();
        RunMetrics::compute(&report, &HashMap::new()).render_json()
    };
    let on = run_mode(true);
    let off = run_mode(false);

    assert_ne!(on, off, "render counters failed to identify the mode");
    let strip = |json: &str| {
        let json = strip_counter_object(json, "style");
        let json = strip_counter_object(&json, "layout");
        strip_counter_object(&json, "paint")
    };
    assert_eq!(
        strip(&on),
        strip(&off),
        "modes diverged outside the style/layout/paint counters"
    );
}

/// The tentpole's correctness contract, engine-level: on random
/// documents × random stylesheets × random mutation sequences (DOM
/// writes, inline-style writes, class flips, text replacement,
/// transition-driven animation, rAF chains, and canvas-style
/// work-only frames), the incremental pipeline and the naive
/// full-relayout oracle agree on everything observable: frame records,
/// input metadata, energy, final geometry, the final display list, and
/// the metrics JSON modulo the style/layout/paint counter objects.
#[test]
fn rendering_modes_agree_on_random_documents_and_mutations() {
    use greenweb::metrics::RunMetrics;
    use greenweb_engine::{App, Browser, GovernorScheduler, Trace};
    use std::collections::HashMap;

    const MUTATIONS: [&str; 8] = [
        "setStyle(getElementById('hub'), 'width', n * 10 + 40);",
        "setStyle(getElementById('hub'), 'height', 30 + n);",
        "if (n > 1) { setAttribute(getElementById('hub'), 'class', 'hot'); } \
         else { setAttribute(getElementById('hub'), 'class', 'card'); }",
        "setAttribute(getElementById('hub'), 'data-n', n);",
        "setText(getElementById('hub'), n);",
        "work(150000);",
        "setStyle(getElementById('hub'), 'margin', 3);",
        "requestAnimationFrame(function(t) { \
           setStyle(getElementById('hub'), 'height', 9); markDirty(); });",
    ];
    check(
        "rendering_modes_agree_on_random_documents_and_mutations",
        32,
        |g| {
            let html = format!(
                "<div id='hub' class='card'>h{}</div>",
                gen_style_document(g)
            );
            let css = format!(
                "{} .hot {{ width: 120px; }} .card {{ margin: 2px; }} \
             #hub {{ transition: width 60ms linear; }}",
                gen_stylesheet_source(g)
            );
            let mut body = String::from("n = n + 1;");
            for _ in 0..g.usize_in(1, 4) {
                body.push_str(g.choose::<&str>(&MUTATIONS));
            }
            body.push_str("markDirty();");
            let app = App::builder("paint-differential")
                .html(html.clone())
                .css(css.clone())
                .script(format!(
                    "var n = 0; \
                 addEventListener(getElementById('hub'), 'click', function(e) {{ {body} }});"
                ))
                .build();
            let trace = Trace::builder()
                .click_id(50.0, "hub")
                .click_id(320.0, "hub")
                .click_id(590.0, "hub")
                .end_ms(950.0)
                .build();
            let run_mode = |enabled: bool| {
                let mut browser =
                    Browser::new(&app, GovernorScheduler::new(greenweb_acmp::PerfGovernor))
                        .unwrap();
                browser.set_paint_incremental(enabled);
                let report = browser.run(&trace).unwrap();
                let boxes = browser.layout_boxes().to_vec();
                let items = browser.display_list().to_vec();
                let json = RunMetrics::compute(&report, &HashMap::new()).render_json();
                (report, boxes, items, json)
            };
            let (on, on_boxes, on_items, on_json) = run_mode(true);
            let (off, off_boxes, off_items, off_json) = run_mode(false);

            assert_eq!(on.frames, off.frames, "frames diverged\nbody: {body}");
            assert_eq!(on.inputs, off.inputs, "inputs diverged\nbody: {body}");
            assert_eq!(
                on.total_mj(),
                off.total_mj(),
                "energy diverged\nbody: {body}\nhtml: {html}\ncss: {css}"
            );
            assert_eq!(
                on.busy_time, off.busy_time,
                "busy time diverged\nbody: {body}"
            );
            assert_eq!(
                on_boxes, off_boxes,
                "geometry diverged\nbody: {body}\nhtml: {html}"
            );
            assert_eq!(
                on_items, off_items,
                "display list diverged\nbody: {body}\nhtml: {html}"
            );
            assert_eq!(
                on.layout.dirty_elements, off.layout.dirty_elements,
                "dirty accounting diverged\nbody: {body}"
            );
            assert_eq!(
                on.paint.damage_items, off.paint.damage_items,
                "damage accounting diverged\nbody: {body}"
            );
            let strip = |json: &str| {
                let json = strip_counter_object(json, "style");
                let json = strip_counter_object(&json, "layout");
                strip_counter_object(&json, "paint")
            };
            assert_eq!(
                strip(&on_json),
                strip(&off_json),
                "metrics diverged outside render counters\nbody: {body}"
            );
        },
    );
}

/// Dropped inputs stay invisible: an input that never marks dirty gets no
/// frame records, and per-input sequence numbers stay contiguous from 0
/// for everyone else even when inputs vanish mid-sequence.
#[test]
fn frame_tracker_dropped_inputs_and_contiguous_seqs() {
    check(
        "frame_tracker_dropped_inputs_and_contiguous_seqs",
        DEFAULT_CASES,
        |g| {
            let inputs = gen_inputs(g);
            let mut tracker = FrameTracker::new();
            for (uid, event, _) in &inputs {
                tracker.register_input(*uid, *event);
            }
            let mut marked = std::collections::HashSet::new();
            for plan in gen_frames(g, inputs.len()) {
                for (i, dups) in &plan.marks {
                    let (uid, _, start) = inputs[*i];
                    marked.insert(uid);
                    for _ in 0..*dups {
                        tracker.mark_dirty(Msg {
                            uid,
                            start_ts: start,
                        });
                    }
                }
                if let Some(msgs) = tracker.begin_frame() {
                    tracker.complete_frame(&msgs, SimTime::from_millis(plan.complete_at_ms));
                }
            }
            for (uid, _, _) in &inputs {
                let count = tracker.records().iter().filter(|r| r.uid == *uid).count() as u32;
                if !marked.contains(uid) {
                    assert_eq!(count, 0, "dropped input acquired records");
                }
                assert_eq!(tracker.frames_for(*uid), count);
                let mut seqs: Vec<u32> = tracker
                    .records()
                    .iter()
                    .filter(|r| r.uid == *uid)
                    .map(|r| r.seq)
                    .collect();
                seqs.sort_unstable();
                assert_eq!(
                    seqs,
                    (0..count).collect::<Vec<u32>>(),
                    "seq gap for {uid:?}"
                );
            }
        },
    );
}

/// Merging histograms of arbitrary partitions of a value population is
/// indistinguishable from recording the whole population into one
/// histogram: exact for `count`, `min`, `max`, and every quantile
/// (shared bucket layout), and within f64 summation noise for `mean`.
/// This is the invariant that lets resumable sweeps keep one merged
/// aggregate instead of per-run reports.
#[test]
fn histogram_merge_of_parts_equals_record_of_whole() {
    use greenweb_trace::metrics::Histogram;
    check(
        "histogram_merge_of_parts_equals_record_of_whole",
        DEFAULT_CASES,
        |g| {
            let values = g.vec_of(400, |g| g.f64_in(0.0, 5_000.0));
            let mut whole = Histogram::new();
            for &v in &values {
                whole.record(v);
            }
            // Partition the population into randomly sized chunks, each
            // recorded into its own histogram, then fold them together
            // in order.
            let mut merged = Histogram::new();
            let mut rest = values.as_slice();
            while !rest.is_empty() {
                let take = g.usize_in(1, rest.len() + 1);
                let (chunk, tail) = rest.split_at(take);
                let mut part = Histogram::new();
                for &v in chunk {
                    part.record(v);
                }
                merged.merge(&part);
                rest = tail;
            }
            assert_eq!(merged.count(), whole.count());
            assert_eq!(merged.min(), whole.min());
            assert_eq!(merged.max(), whole.max());
            for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
                assert_eq!(
                    merged.quantile(q),
                    whole.quantile(q),
                    "quantile {q} drifted under merge"
                );
            }
            assert!(
                (merged.mean() - whole.mean()).abs() <= 1e-9 * whole.mean().abs().max(1.0),
                "mean drifted beyond f64 noise: {} vs {}",
                merged.mean(),
                whole.mean()
            );
            // And the sparse persistence round-trip composes with merge:
            // restoring a histogram from its checkpoint form then merging
            // behaves as merging the original.
            let sparse: Vec<(usize, u64)> = whole.nonzero_buckets().collect();
            let restored = Histogram::from_sparse(&sparse, whole.sum(), whole.min(), whole.max());
            assert_eq!(restored, whole);
        },
    );
}

// ---------------------------------------------------------------------------
// Effect-summary inference: dynamic ⊆ static on generated handlers,
// totality on hostile bytecode, and monotone branch joining.
// ---------------------------------------------------------------------------

/// Appends one random handler statement built from the host builtins the
/// effect pass models — writes, scheduling, branches, counted loops, and
/// dynamically bounded (statically uncountable) loops.
fn gen_effect_stmt(g: &mut Gen, depth: u32, fresh: &mut u32, out: &mut String) {
    match g.usize_in(0, 12) {
        0 => out.push_str("log('x'); "),
        1 => out.push_str("markDirty(); "),
        2 => out.push_str("setAttribute(e.target, 'data-k', 'v'); "),
        3 => out.push_str("setStyle(getElementById('box'), 'width', 12); "),
        4 => {
            let n = g.usize_in(1, 5000);
            out.push_str(&format!("work({n}); "));
        }
        5 => out.push_str("requestAnimationFrame(function(t) { markDirty(); }); "),
        6 => {
            let d = g.usize_in(0, 31);
            out.push_str(&format!("setTimeout(function() {{ markDirty(); }}, {d}); "));
        }
        7 => out.push_str("appendChild(getElementById('box'), createElement('span')); "),
        8 if depth > 0 => {
            out.push_str("if (now() > 3) { ");
            gen_effect_stmt(g, depth - 1, fresh, out);
            out.push_str("} else { ");
            gen_effect_stmt(g, depth - 1, fresh, out);
            out.push_str("} ");
        }
        9 if depth > 0 => {
            let v = *fresh;
            *fresh += 1;
            let n = g.usize_in(1, 5);
            out.push_str(&format!(
                "for (var i{v} = 0; i{v} < {n}; i{v} = i{v} + 1) {{ "
            ));
            gen_effect_stmt(g, depth - 1, fresh, out);
            out.push_str("} ");
        }
        10 if depth > 0 => {
            // Terminates dynamically (the bound is snapshotted first) but
            // is statically uncountable: the analyzer must go to ⊤, and
            // ⊤ must still admit the concrete run.
            let v = *fresh;
            *fresh += 1;
            out.push_str(&format!(
                "var n{v} = elementCount(); var j{v} = 0; while (j{v} < n{v}) {{ "
            ));
            gen_effect_stmt(g, depth - 1, fresh, out);
            out.push_str(&format!("j{v} = j{v} + 1; }} "));
        }
        _ => out.push_str("getAttribute(getElementById('box'), 'data-k'); "),
    }
}

/// The inferred summary of a one-listener app whose click handler body
/// is `body`.
fn click_summary(body: &str) -> greenweb_engine::EffectSummary {
    let app = greenweb_engine::App::builder("prop-effect")
        .html("<button id='btn'>b</button><div id='box'></div>")
        .script(format!(
            "addEventListener(getElementById('btn'), 'click', function(e) {{ {body} }});"
        ))
        .build();
    let summaries = greenweb_analyze::infer_effect_summaries(&app);
    assert_eq!(summaries.len(), 1, "{body}");
    summaries.into_iter().next().unwrap().summary
}

/// Soundness by fuzzing: whatever handler the generator produces, the
/// statically inferred summary admits everything the engine observes the
/// handler doing (`dynamic ⊆ static`, checked by the engine's own
/// containment ledger with debug assertions armed).
#[test]
fn effect_summaries_admit_observed_runs() {
    use greenweb_engine::{App, Browser, GovernorScheduler, TargetSpec, Trace};
    check("effect_summaries_admit_observed_runs", 48, |g| {
        let mut body = String::new();
        let mut fresh = 0u32;
        for _ in 0..g.usize_in(1, 6) {
            gen_effect_stmt(g, 2, &mut fresh, &mut body);
        }
        let mut app = App::builder("effect-fuzz")
            .html("<button id='btn'>b</button><div id='box'></div>")
            .script(format!(
                "addEventListener(getElementById('btn'), 'click', function(e) {{ {body} }});"
            ))
            .build();
        app.effect_summaries = greenweb_analyze::infer_effect_summaries(&app);
        let trace = Trace::builder()
            .event(10.0, EventType::Click, TargetSpec::Id("btn".to_string()))
            .end_ms(400.0)
            .build();
        let mut browser = Browser::new(&app, GovernorScheduler::new(greenweb_acmp::PerfGovernor))
            .expect("generated app loads");
        let report = browser.run(&trace).expect("generated app runs");
        assert!(report.effect_checks > 0, "no containment check ran: {body}");
        assert!(
            report.effect_violations.is_empty(),
            "{body}\n{:#?}",
            report.effect_violations
        );
    });
}

/// Totality: the effect analyzer terminates without panicking on
/// arbitrary bytecode — unreachable jump targets, stack underflow,
/// self-recursive closures, calls through garbage — and its must-counts
/// never exceed its may-counts.
#[test]
fn effect_analyzer_total_on_hostile_bytecode() {
    use greenweb_script::compiler::{Const, Op, Proto};
    use greenweb_script::interp::Scope;
    use greenweb_script::value::VmClosure;
    use greenweb_script::{BinaryOp, UnaryOp, Value};
    use std::cell::RefCell;
    use std::rc::Rc;
    fn random_op(g: &mut Gen) -> Op {
        let name = g.usize_in(0, 10) as u32;
        let argc = g.usize_in(0, 4) as u8;
        match g.usize_in(0, 26) {
            0 => Op::Const(g.usize_in(0, 6) as u32),
            1 => Op::GetVar(name),
            2 => Op::SetVar(name),
            3 => Op::DeclVar(name),
            4 => Op::Pop,
            5 => Op::Dup,
            6 => Op::PushScope,
            7 => Op::PopScope,
            8 => Op::Binary(BinaryOp::Add),
            9 => Op::Unary(UnaryOp::Not),
            10 => Op::Jump(g.usize_in(0, 64) as u32),
            11 => Op::JumpIfFalse(g.usize_in(0, 64) as u32),
            12 => Op::JumpIfFalsePeek(g.usize_in(0, 64) as u32),
            13 => Op::JumpIfTruePeek(g.usize_in(0, 64) as u32),
            14 => Op::MakeArray(g.usize_in(0, 4) as u16),
            15 => Op::MakeObject {
                base: name,
                count: g.usize_in(0, 3) as u16,
            },
            16 => Op::MakeClosure(g.usize_in(0, 4) as u32),
            17 => Op::CallName { name, argc },
            18 => Op::CallValue { argc },
            19 => Op::CallMethod { name, argc },
            20 => Op::CallMath { name, argc },
            21 => Op::GetMember(name),
            22 => Op::SetMember(name),
            23 => Op::GetIndex,
            24 => Op::SetIndex,
            _ => Op::Return,
        }
    }
    check("effect_analyzer_total_on_hostile_bytecode", 128, |g| {
        let proto_count = g.usize_in(1, 4);
        let protos: Vec<Proto> = (0..proto_count)
            .map(|_| Proto {
                name: String::new(),
                params: vec!["e".to_string()],
                code: (0..g.usize_in(1, 48)).map(|_| random_op(g)).collect(),
                consts: vec![
                    Const::Null,
                    Const::Bool(true),
                    Const::Number(0.0),
                    Const::Number(2.5),
                    Const::Str("s".to_string()),
                ],
                names: [
                    "work",
                    "markDirty",
                    "setTimeout",
                    "requestAnimationFrame",
                    "helper",
                    "e",
                    "target",
                    "push",
                    "abs",
                    "x",
                ]
                .iter()
                .map(ToString::to_string)
                .collect(),
                // Hostile bytecode carries none of the compiler's
                // side tables (spans, ticks, atoms): the analyzer and
                // VM must stay total without them.
                ..Proto::default()
            })
            .collect();
        let entry = g.usize_in(0, proto_count);
        let value = Value::VmFunction(Rc::new(VmClosure {
            proto: entry,
            protos: std::sync::Arc::new(protos),
            env: Rc::new(RefCell::new(Scope::default())),
        }));
        let analyzer = greenweb_analyze::EffectAnalyzer::new(&[]);
        let summary = analyzer
            .analyze_callback(&value)
            .expect("vm functions are analyzable");
        if let Some(rafs) = summary.rafs {
            assert!(summary.rafs_min <= rafs, "{summary:?}");
        }
        assert!(summary.leq(&greenweb_engine::EffectSummary::top()));
        assert!(!summary.leq(&greenweb_engine::EffectSummary::pure()) || summary.is_pure());
    });
}

/// Branch joining is monotone: each arm's standalone summary is admitted
/// by the summary of a handler that reaches that arm behind a statically
/// opaque condition.
#[test]
fn effect_branch_join_is_monotone() {
    check("effect_branch_join_is_monotone", 32, |g| {
        let mut fresh = 0u32;
        let mut arm_a = String::new();
        let mut arm_b = String::new();
        for _ in 0..g.usize_in(1, 4) {
            gen_effect_stmt(g, 1, &mut fresh, &mut arm_a);
        }
        for _ in 0..g.usize_in(1, 4) {
            gen_effect_stmt(g, 1, &mut fresh, &mut arm_b);
        }
        let sa = click_summary(&arm_a);
        let sb = click_summary(&arm_b);
        let branchy = click_summary(&format!("if (now() > 3) {{ {arm_a} }} else {{ {arm_b} }}"));
        assert!(
            sa.leq(&branchy),
            "arm A escapes the joined summary:\nA: {arm_a}\nB: {arm_b}\n{sa:?}\nvs\n{branchy:?}"
        );
        assert!(
            sb.leq(&branchy),
            "arm B escapes the joined summary:\nA: {arm_a}\nB: {arm_b}\n{sb:?}\nvs\n{branchy:?}"
        );
    });
}
