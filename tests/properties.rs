//! Cross-crate property-based tests: invariants that must hold for all
//! inputs, checked with the in-repo `greenweb_det::prop` harness.

use greenweb::lang::{Annotation, AnnotationTable};
use greenweb::metrics::RunMetrics;
use greenweb::qos::{QosSpec, QosTarget, QosType, Scenario};
use greenweb_acmp::{CoreType, Cpu, CpuConfig, Duration, Platform, PowerModel, SimTime, WorkUnit};
use greenweb_css::{parse_stylesheet, Selector, StyleEngine};
use greenweb_det::prop::{check, Gen, DEFAULT_CASES};
use greenweb_dom::{parse_html, EventType};
use greenweb_engine::{
    App, Browser, FrameTracker, InputId, Msg, SchedulerFactory, SimReport, Trace,
};
use greenweb_trace::json::{self, json_escape, JsonValue, ToJson};
use greenweb_workloads::harness::{expectations, Policy};
use style_gen::{
    gen_style_document, gen_style_selector, gen_stylesheet_source, STYLE_CLASSES, STYLE_PROPS,
    STYLE_TAGS,
};

// The style generators and differential check, shared with the
// `greenweb-css` integration tests.
#[path = "../crates/css/tests/style_gen/mod.rs"]
mod style_gen;

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
/// partition of an interval, with busy flips and a configuration switch
/// inside it, yields exactly the energy of advancing only at those state
/// changes.
#[test]
fn energy_additive_over_partitions() {
    check("energy_additive_over_partitions", DEFAULT_CASES, |g| {
        let mut cuts = Vec::new();
        let mut t = 0;
        for _ in 0..g.usize_in(1, 8) {
            t += g.usize_in(1, 10_000_000) as u64;
            cuts.push(t);
        }
        let total_ns = t;
        let platform = Platform::odroid_xu_e();
        let configs: Vec<CpuConfig> = platform.configs().collect();
        let start = *g.choose(&configs);
        // State changes at nanosecond times: `None` flips busy/idle,
        // `Some(config)` switches configuration.
        let mut changes: Vec<(u64, Option<CpuConfig>)> = (0..g.usize_in(0, 5))
            .map(|_| (g.usize_in(0, total_ns as usize) as u64, None))
            .collect();
        changes.push((
            g.usize_in(0, total_ns as usize) as u64,
            Some(*g.choose(&configs)),
        ));
        changes.sort_by_key(|&(at, _)| at);
        let apply = |cpu: &mut Cpu, at: u64, change: Option<CpuConfig>| {
            let at = SimTime::from_nanos(at);
            match change {
                None => cpu.set_busy(at, !cpu.is_busy()),
                Some(config) => {
                    cpu.switch(at, config);
                }
            }
        };

        let mut whole = Cpu::new(platform.clone(), PowerModel::odroid_xu_e()).with_config(start);
        for &(at, change) in &changes {
            apply(&mut whole, at, change);
        }
        whole.advance(SimTime::from_nanos(total_ns));

        let mut pieces = Cpu::new(platform, PowerModel::odroid_xu_e()).with_config(start);
        let mut pending = changes.iter().peekable();
        for &cut in &cuts {
            while let Some(&(at, change)) = pending.next_if(|&&(at, _)| at <= cut) {
                apply(&mut pieces, at, change);
            }
            pieces.advance(SimTime::from_nanos(cut));
        }
        assert_eq!(whole.energy(), pieces.energy());
        assert_eq!(whole.busy_time(), pieces.busy_time());
        assert_eq!(whole.residency(), pieces.residency());
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

/// Generated arithmetic programs evaluate identically on the script VM
/// and in a Rust-side reference evaluator.
#[test]
fn script_arithmetic_matches_reference() {
    check("script_arithmetic_matches_reference", 64, |g| {
        let expr = gen_expr(g, 3);
        let source = format!("var result = {};", expr.text);
        let mut vm = greenweb_script::Vm::new();
        vm.run_source(&source, &mut greenweb_script::NoHost)
            .unwrap();
        let got = vm.global("result").unwrap().as_number().unwrap();
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

/// The style system's correctness contract: on random documents × random
/// stylesheets, the production resolver agrees with the naive reference
/// property-for-property — for the whole tree, and for both per-node
/// views (with and without inline style). The two share neither matching
/// (bucketed + Bloom-filtered vs a full scan) nor layering (a first-wins
/// walk from the highest precedence down vs forward application, later
/// winning), so this checks both matching and the cascade: specificity,
/// source order, `!important`, inline style and inheritance.
#[test]
fn bucketed_style_resolver_matches_naive() {
    check(
        "bucketed_style_resolver_matches_naive",
        DEFAULT_CASES,
        style_gen::resolver_matches_naive,
    );
}

// ---------------------------------------------------------------------------
// Oracle pin: the naive rendering mode over the bundled workloads
// ---------------------------------------------------------------------------

/// Strips one flat trailing counter object (`,"name":{…}`) from a
/// metrics JSON rendering. The objects are flat (no nested braces), so
/// the first `}` closes them.
fn strip_counter_object(json: &str, name: &str) -> String {
    let needle = format!(",\"{name}\":{{");
    let start = json
        .find(&needle)
        .unwrap_or_else(|| panic!("{name} object missing in {json}"));
    let end = start + json[start..].find('}').unwrap() + 1;
    format!("{}{}", &json[..start], &json[end..])
}

/// The metrics JSON counter objects the rendering mode may move: reused
/// subtrees skip style resolution, so `style` moves with `layout` and
/// `paint`.
const RENDER_COUNTERS: [&str; 3] = ["style", "layout", "paint"];

/// A small app and trace built to exercise subtree reuse.
fn paint_fixture() -> (App, Trace) {
    (
        App::builder("paint-fixture")
            .html("<div id='box'><p>a</p><p>b</p></div>")
            .css("p { height: 12px; }")
            .script(
                "addEventListener(getElementById('box'), 'click', function(e) { \
                   setStyle(getElementById('box'), 'width', 150); markDirty(); });",
            )
            .build(),
        Trace::builder()
            .click_id(50.0, "box")
            .click_id(300.0, "box")
            .end_ms(700.0)
            .build(),
    )
}

/// Runs `app` over `trace` the way `evaluate metrics` does — GreenWeb-I,
/// inferred effect summaries attached, metrics judged against the
/// trace's expectations — rendering incrementally or on the naive
/// oracle. Returns the report and its metrics JSON.
fn parity_run(app: &App, trace: &Trace, incremental: bool) -> (SimReport, String) {
    let scenario = Scenario::Imperceptible;
    let mut browser = Browser::new(app, Policy::GreenWeb(scenario).build()).unwrap();
    browser.set_paint_incremental(incremental);
    let report = browser.run(trace).unwrap();
    let json = RunMetrics::compute(&report, &expectations(app, trace, scenario)).render_json();
    (report, json)
}

/// Checks the rendering mode on one subject — a bundled workload's full
/// trace, or else [`paint_fixture`]: the report (energy, frames, inputs,
/// residency, switches, busy and total time, containment checks) and
/// metrics JSON minus [`RENDER_COUNTERS`] are identical incremental and
/// naive; subtree reuses show that the incremental path actually
/// engaged; and the containment ledger stays empty on both sides.
fn assert_parity(name: &str) {
    let (mut app, trace) = match greenweb_workloads::by_name(name) {
        Some(w) => (w.app, w.full),
        None => paint_fixture(),
    };
    app.effect_summaries = greenweb_analyze::infer_effect_summaries(&app);
    let (on, on_json) = parity_run(&app, &trace, true);
    let (off, off_json) = parity_run(&app, &trace, false);
    let at = format!("paint mode on {name}");
    for (side, report) in [("incremental", &on), ("naive", &off)] {
        assert!(
            report.effect_violations.is_empty(),
            "{at} ({side}): containment violations {:#?}",
            report.effect_violations
        );
    }
    assert!(
        on.layout.subtree_reuses > 0,
        "{at}: incremental path never engaged"
    );
    assert_eq!(
        off.layout.subtree_reuses, 0,
        "{at}: oracle reused a subtree"
    );
    assert_eq!(on.energy, off.energy, "{at}: energy diverged");
    assert_eq!(on.frames, off.frames, "{at}: frames diverged");
    assert_eq!(on.inputs, off.inputs, "{at}: inputs diverged");
    assert_eq!(on.residency, off.residency, "{at}: residency diverged");
    assert_eq!(on.switches, off.switches, "{at}: switches diverged");
    assert_eq!(on.busy_time, off.busy_time, "{at}: busy time diverged");
    assert_eq!(on.total_time, off.total_time, "{at}: total time diverged");
    assert_eq!(on.effect_checks, off.effect_checks, "{at}: checks diverged");
    let strip = |json: &str| {
        RENDER_COUNTERS
            .iter()
            .fold(json.to_string(), |json, object| {
                strip_counter_object(&json, object)
            })
    };
    assert_eq!(
        strip(&on_json),
        strip(&off_json),
        "{at}: metrics diverged outside {RENDER_COUNTERS:?}"
    );
}

/// The one oracle pin left, the naive rendering mode, is invisible
/// outside its own counters on the bundled workloads: [`assert_parity`]
/// holds on Todo and Cnet.
#[test]
fn oracle_pins_leave_metrics_unchanged() {
    for name in ["Todo", "Cnet"] {
        assert_parity(name);
    }
}

/// The rendering mode is invisible in the metrics JSON of a small
/// fixture: only the `style`, `layout` and `paint` counters may differ.
#[test]
fn paint_mode_metrics_json_identical_modulo_render_counters() {
    assert_parity("paint-fixture");
}

// ---------------------------------------------------------------------------
// Incremental rendering: layout cache + retained display list (§6k)
// ---------------------------------------------------------------------------

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

/// The tentpole's correctness contract, engine-level: on random
/// documents × random stylesheets × random mutation sequences (DOM
/// writes, inline-style writes, class flips, text replacement,
/// transition-driven animation, rAF chains, canvas-style work-only
/// frames, and structural appends, removals, and identity swaps), the
/// incremental pipeline and the naive
/// full-relayout oracle agree on everything observable: frame records,
/// input metadata, energy, final geometry, the final display list, and
/// the metrics JSON modulo the style/layout/paint counter objects.
#[test]
fn rendering_modes_agree_on_random_documents_and_mutations() {
    use greenweb::metrics::RunMetrics;
    use greenweb_engine::{App, Browser, GovernorScheduler, Trace};
    use std::collections::HashMap;

    const MUTATIONS: [&str; 11] = [
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
        // Structural edits: an append, an append/remove toggle, and a
        // swap of a fresh element for a content-identical one.
        "appendChild(getElementById('hub'), createElement('p'));",
        "var k = getElementById('kid'); \
         if (k) { removeChild(k); } \
         else { k = createElement('p'); setAttribute(k, 'id', 'kid'); \
           appendChild(getElementById('hub'), k); }",
        "var old = getElementById('swap'); if (old) { removeChild(old); } \
         var s = createElement('span'); setAttribute(s, 'id', 'swap'); \
         appendChild(getElementById('hub'), s);",
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

/// The render pipeline's skipping contract, frame by frame: an
/// incremental pipeline (which jumps over unchanged subtrees) and the
/// oracle (which skips nothing) report the same pricing inputs, boxes
/// and display list after *every* frame of a random mutation sequence —
/// overlay values that appear, change and go away, writes deep inside
/// clean subtrees, height changes that move later siblings, text edits,
/// appends and removals, new rules and document clones. A fresh pipeline
/// checks the boxes both keep across frames.
#[test]
fn render_pipelines_agree_after_every_frame() {
    use greenweb_css::value::Length;
    use greenweb_css::CssValue;
    use greenweb_dom::{ElementData, NodeId, NodeKind};
    use greenweb_engine::RenderPipeline;
    use std::collections::BTreeMap;

    check("render_pipelines_agree_after_every_frame", 64, |g| {
        let html = gen_style_document(g);
        let css = gen_stylesheet_source(g);
        let mut doc = parse_html(&html).unwrap_or_else(|e| panic!("html {html:?}: {e}"));
        let mut engine =
            StyleEngine::new(parse_stylesheet(&css).unwrap_or_else(|e| panic!("css {css:?}: {e}")));
        let mut overlay: BTreeMap<(NodeId, String), CssValue> = BTreeMap::new();
        let mut incremental = RenderPipeline::new(true);
        let mut oracle = RenderPipeline::new(false);
        let mut log = Vec::new();
        for frame in 0..g.usize_in(6, 16) {
            let render = |pipe: &mut RenderPipeline| {
                pipe.render_frame(&doc, engine.generation(), &overlay, &mut |n| {
                    engine.compute_style(&doc, n, None)
                })
            };
            let a = render(&mut incremental);
            let b = render(&mut oracle);
            let context = || format!("frame {frame} after {log:?}\nhtml: {html}\ncss: {css}");
            assert_eq!(a, b, "pricing inputs diverged at {}", context());
            assert_eq!(
                incremental.layout_boxes(),
                oracle.layout_boxes(),
                "boxes diverged at {}",
                context()
            );
            assert_eq!(
                incremental.display_list(),
                oracle.display_list(),
                "display lists diverged at {}",
                context()
            );
            // Both modes keep their walk between structure changes; a
            // fresh pipeline builds one from scratch.
            let mut fresh = RenderPipeline::new(false);
            let c = render(&mut fresh);
            assert_eq!(
                (a.elements, a.total_items),
                (c.elements, c.total_items),
                "counts diverged from a fresh walk at {}",
                context()
            );
            assert_eq!(
                incremental.layout_boxes(),
                fresh.layout_boxes(),
                "boxes diverged from a fresh walk at {}",
                context()
            );

            let elements: Vec<NodeId> = doc.elements().collect();
            let texts: Vec<NodeId> = doc
                .descendants(doc.root())
                .filter(|&n| doc.kind(n).as_text().is_some())
                .collect();
            // Deep nodes first: the last element in document order sits
            // inside the most recently opened subtree.
            let pick = |g: &mut Gen| -> Option<NodeId> {
                if elements.is_empty() {
                    None
                } else if g.bool_with(0.5) {
                    elements.last().copied()
                } else {
                    Some(*g.choose(&elements))
                }
            };
            for _ in 0..g.usize_in(0, 3) {
                let op = g.usize_in(0, 13);
                log.push(op);
                match op {
                    0 => {
                        // An overlay value appears or changes.
                        if let Some(n) = pick(g) {
                            let property = *g.choose(&STYLE_PROPS);
                            let px = g.usize_in(0, 60) as f64;
                            overlay.insert(
                                (n, property.to_string()),
                                CssValue::Length(Length::px(px)),
                            );
                        }
                    }
                    1 => {
                        // An overlay value goes away.
                        let keys: Vec<(NodeId, String)> = overlay.keys().cloned().collect();
                        if !keys.is_empty() {
                            overlay.remove(g.choose(&keys));
                        }
                    }
                    2 | 3 => {
                        // An inline style write, often a height that moves
                        // every later sibling.
                        if let Some(n) = pick(g) {
                            let property = if op == 2 {
                                "height"
                            } else {
                                *g.choose(&STYLE_PROPS)
                            };
                            let style = format!("{property}: {}px", g.usize_in(0, 80));
                            doc.element_mut(n)
                                .expect("element")
                                .set_attribute("style", style);
                        }
                    }
                    4 if !texts.is_empty() => {
                        // A text edit in place.
                        let t = *g.choose(&texts);
                        *doc.kind_mut(t) = NodeKind::Text(format!("t{}", g.usize_in(0, 9)));
                    }
                    5 => {
                        // Append a fresh element, sometimes with text.
                        if let Some(parent) = pick(g) {
                            let child = doc.create_element(*g.choose(&STYLE_TAGS));
                            if g.bool_with(0.5) {
                                let text = doc.create_text("new");
                                doc.append_child(child, text);
                            }
                            doc.append_child(parent, child);
                        }
                    }
                    6 if !elements.is_empty() => {
                        doc.detach(*g.choose(&elements));
                    }
                    7 => {
                        // A new rule: the stylesheet generation moves.
                        let rule = format!(
                            "{} {{ {}: {}px; }}",
                            gen_style_selector(g),
                            *g.choose(&STYLE_PROPS),
                            g.usize_in(0, 80)
                        );
                        let sheet = parse_stylesheet(&rule).expect("generated rule parses");
                        engine.stylesheet_mut().extend(sheet);
                    }
                    8 => {
                        doc = doc.clone();
                    }
                    9 => {
                        // A class flip, or writing a value back: the
                        // version moves and nothing may change.
                        if let Some(n) = pick(g) {
                            let el = doc.element_mut(n).expect("element");
                            let class = if g.bool_with(0.5) {
                                el.attribute("class").unwrap_or("").to_string()
                            } else {
                                (*g.choose(&STYLE_CLASSES)).to_string()
                            };
                            el.set_attribute("class", class);
                        }
                    }
                    10 => {
                        // A write to a detached node.
                        let detached: Vec<NodeId> = (0..doc.len())
                            .filter_map(|i| doc.node_at(i))
                            .filter(|&n| n != doc.root() && doc.parent(n).is_none())
                            .collect();
                        if !detached.is_empty() {
                            let n = *g.choose(&detached);
                            if let Some(el) = doc.element_mut(n) {
                                el.set_attribute("style", "height: 7px");
                            }
                        }
                    }
                    11 if !texts.is_empty() => {
                        // A text node turned into an element: the
                        // walk's shape stands, its element count not.
                        let t = *g.choose(&texts);
                        *doc.kind_mut(t) = NodeKind::Element(ElementData::new("p"));
                    }
                    _ => {
                        // Nothing (op 12, or no node to act on): a clean
                        // frame.
                    }
                }
            }
        }
    });
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

/// The setup script of a fuzzed one-button app whose click handler runs
/// `body`. Half the cases register `body` as an inline closure. The
/// others register a named top-level function, BBC's `expandStory`
/// shape, that runs `body` in its first activation only (so a body that
/// grows the tree does not grow it again), then writes through
/// `e.target`, calls named top-level helpers with the event and calls
/// itself behind a guard, passing either the event or an object whose
/// `target` lies outside the listener's subtree.
fn effect_fuzz_script(g: &mut Gen, fresh: &mut u32, body: &str) -> String {
    if g.bool_with(0.5) {
        return format!(
            "addEventListener(getElementById('btn'), 'click', function(e) {{ {body} }});"
        );
    }
    let mut script = String::from("var depth = 0;\n");
    let mut calls = String::new();
    for h in 0..g.usize_in(1, 3) {
        let mut helper = String::new();
        for _ in 0..g.usize_in(1, 3) {
            gen_effect_stmt(g, 1, fresh, &mut helper);
        }
        script.push_str(&format!("function helper{h}(e) {{ {helper} }}\n"));
        calls.push_str(&format!("helper{h}(e); "));
    }
    let mut tail = String::from("setAttribute(e.target, 'data-k', 'v'); ");
    gen_effect_stmt(g, 0, fresh, &mut tail);
    let arg = if g.bool_with(0.5) {
        "e"
    } else {
        "{ target: getElementById('box') }"
    };
    script.push_str(&format!(
        "function handler(e) {{ if (depth == 0) {{ {body} }} {tail} {calls}\
         if (depth < 2) {{ depth = depth + 1; handler({arg}); }} }}\n\
         addEventListener(getElementById('btn'), 'click', handler);"
    ));
    script
}

/// Soundness on one generated app: the statically inferred summary
/// admits everything the engine observes the handler doing (`dynamic ⊆
/// static`, checked by the engine's own containment ledger with debug
/// assertions armed).
fn summaries_admit_observed_run(g: &mut Gen) {
    use greenweb_engine::{App, Browser, GovernorScheduler, TargetSpec, Trace};
    let mut body = String::new();
    let mut fresh = 0u32;
    for _ in 0..g.usize_in(1, 6) {
        gen_effect_stmt(g, 2, &mut fresh, &mut body);
    }
    let script = effect_fuzz_script(g, &mut fresh, &body);
    let mut app = App::builder("effect-fuzz")
        .html("<button id='btn'>b</button><div id='box'></div>")
        .script(script.as_str())
        .build();
    app.effect_summaries = greenweb_analyze::infer_effect_summaries(&app);
    let trace = Trace::builder()
        .event(10.0, EventType::Click, TargetSpec::Id("btn".to_string()))
        .end_ms(400.0)
        .build();
    let mut browser = Browser::new(&app, GovernorScheduler::new(greenweb_acmp::PerfGovernor))
        .expect("generated app loads");
    let report = browser.run(&trace).expect("generated app runs");
    assert!(
        report.effect_checks > 0,
        "no containment check ran: {script}"
    );
    assert!(
        report.effect_violations.is_empty(),
        "{script}\n{:#?}",
        report.effect_violations
    );
}

/// Soundness by fuzzing: whatever handler the generator produces, inline
/// or named, the inferred summary admits the observed run.
#[test]
fn effect_summaries_admit_observed_runs() {
    check(
        "effect_summaries_admit_observed_runs",
        48,
        summaries_admit_observed_run,
    );
}

#[test]
#[ignore = "extended fuzz; run with --ignored"]
fn effect_summaries_admit_observed_runs_extended() {
    check(
        "effect_summaries_admit_observed_runs_extended",
        50 * 48,
        summaries_admit_observed_run,
    );
}

fn random_op(g: &mut Gen) -> greenweb_script::compiler::Op {
    use greenweb_script::compiler::Op;
    use greenweb_script::{BinaryOp, UnaryOp};
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
/// Totality on one random prototype table: the effect and cost analyzers
/// terminate without panicking on arbitrary bytecode — unreachable jump
/// targets, stack underflow, self-recursive closures, calls through
/// garbage — the effect must-counts never exceed the may-counts, and no
/// cost figure is NaN or negative.
fn analyzers_total_on(g: &mut Gen) {
    use greenweb_script::compiler::{Const, Proto};
    use greenweb_script::runtime::Scope;
    use greenweb_script::value::VmClosure;
    use greenweb_script::Value;
    use std::cell::RefCell;
    use std::rc::Rc;
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
    let closure = VmClosure::new(
        entry,
        std::sync::Arc::new(protos),
        Rc::new(RefCell::new(Scope::default())),
    )
    .expect("the entry index is drawn in range");
    let value = Value::VmFunction(Rc::new(closure));
    let analyzer = greenweb_analyze::EffectAnalyzer::new(&[]);
    let summary = analyzer
        .analyze_callback(&value)
        .expect("vm functions are analyzable");
    if let Some(rafs) = summary.rafs {
        assert!(summary.rafs_min <= rafs, "{summary:?}");
    }
    assert!(summary.leq(&greenweb_engine::EffectSummary::top()));
    assert!(!summary.leq(&greenweb_engine::EffectSummary::pure()) || summary.is_pure());
    // The cost domain walks the same bytecode: its loop exit edge,
    // fuel flag and missing tick tables must never make a figure NaN
    // or negative.
    let cost = greenweb_analyze::CostAnalyzer::new(&[], 3.6e6)
        .analyze_callback(&value)
        .expect("vm functions are analyzable");
    for figure in [cost.ops, cost.work_cycles, cost.gpu_ms] {
        assert!(!figure.is_nan() && figure >= 0.0, "{cost:?}");
    }
}

#[test]
fn effect_analyzer_total_on_hostile_bytecode() {
    check(
        "effect_analyzer_total_on_hostile_bytecode",
        128,
        analyzers_total_on,
    );
}

#[test]
#[ignore = "extended fuzz; run with --ignored"]
fn effect_analyzer_total_on_hostile_bytecode_extended() {
    check(
        "effect_analyzer_total_on_hostile_bytecode_extended",
        50 * 128,
        analyzers_total_on,
    );
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

/// Renders a parsed tree back through the JSON writer, putting odd-sized
/// containers in the one-member-per-line layout.
struct Written<'a>(&'a JsonValue);

impl ToJson for Written<'_> {
    fn write_json(&self, out: &mut String) {
        match self.0 {
            JsonValue::Null => None::<u32>.write_json(out),
            JsonValue::Bool(b) => b.write_json(out),
            JsonValue::Num(n) => n.write_json(out),
            JsonValue::Str(s) => s.write_json(out),
            JsonValue::Arr(items) => json::array(out, |a| {
                if items.len() % 2 == 1 {
                    a.lines();
                }
                for item in items {
                    a.item(Written(item));
                }
            }),
            JsonValue::Obj(fields) => json::object(out, |o| {
                if fields.len() % 2 == 1 {
                    o.lines();
                }
                for (key, value) in fields {
                    o.field(key, Written(value));
                }
            }),
        }
    }
}

/// Structural equality with numbers compared bit for bit (`-0` is not
/// `0`).
fn same_json(a: &JsonValue, b: &JsonValue) -> bool {
    match (a, b) {
        (JsonValue::Num(x), JsonValue::Num(y)) => x.to_bits() == y.to_bits(),
        (JsonValue::Arr(x), JsonValue::Arr(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(a, b)| same_json(a, b))
        }
        (JsonValue::Obj(x), JsonValue::Obj(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((ka, va), (kb, vb))| ka == kb && same_json(va, vb))
        }
        _ => a == b,
    }
}

fn gen_json_string(g: &mut Gen) -> String {
    let mut alphabet: Vec<char> = (0u8..0x20).map(char::from).collect();
    alphabet.extend([
        '"', '\\', '/', 'a', 'Z', '0', ' ', 'é', '\u{7f}', '\u{2028}', '🦀',
    ]);
    g.string_from(&alphabet, 12)
}

fn gen_json_f64(g: &mut Gen) -> f64 {
    match g.usize_in(0, 8) {
        0 => *g.choose(&[
            0.0,
            -0.0,
            1e300,
            -1e300,
            1e-300,
            f64::MAX,
            f64::MIN_POSITIVE,
        ]),
        // Subnormals: any non-zero mantissa under a zero exponent.
        1 => f64::from_bits(1 + g.rng.u64_below((1 << 52) - 1)) * *g.choose(&[1.0, -1.0]),
        2 => g.rng.u64_below((1 << 53) + 1) as f64,
        3 => g.f64_in(-1e6, 1e6),
        _ => loop {
            let x = f64::from_bits(g.rng.next_u64());
            if x.is_finite() {
                break x;
            }
        },
    }
}

fn gen_json_value(g: &mut Gen, depth: u32) -> JsonValue {
    let leaf = depth == 0 || g.bool_with(0.4);
    match g.usize_in(0, if leaf { 4 } else { 6 }) {
        0 => JsonValue::Null,
        1 => JsonValue::Bool(g.bool_with(0.5)),
        2 => JsonValue::Num(gen_json_f64(g)),
        3 => JsonValue::Str(gen_json_string(g)),
        4 => JsonValue::Arr(g.vec_of(4, |g| gen_json_value(g, depth - 1))),
        _ => JsonValue::Obj(g.vec_of(4, |g| (gen_json_string(g), gen_json_value(g, depth - 1)))),
    }
}

/// Writer → reader is the identity: every string (quotes, backslashes,
/// each U+0000–U+001F, non-ASCII, empty), every finite `f64` (±0,
/// subnormals, 1e±300, integers up to 2^53, bit-exact), every integer
/// up to 2^53, and nested objects and arrays, empty ones included.
#[test]
fn json_writer_round_trips_through_the_reader() {
    // Exact escapes, as the one escaper writes them.
    for (text, escaped) in [
        ("a\"b\\c\nd", "a\\\"b\\\\c\\nd"),
        ("\u{1}", "\\u0001"),
        ("a\"b\\c\n\u{7}", "a\\\"b\\\\c\\n\\u0007"),
        ("\r\t\u{1f}é", "\\r\\t\\u001fé"),
        ("", ""),
    ] {
        assert_eq!(json_escape(text), escaped);
        let mut out = String::new();
        text.write_json(&mut out);
        assert_eq!(out, format!("\"{escaped}\""));
        assert_eq!(JsonValue::parse(&out), Ok(JsonValue::Str(text.to_string())));
    }
    for c in (0u8..0x20).map(char::from) {
        let mut out = String::new();
        c.to_string().write_json(&mut out);
        assert!(
            out.bytes().all(|b| b >= 0x20),
            "raw control byte in {out:?}"
        );
        assert_eq!(JsonValue::parse(&out), Ok(JsonValue::Str(c.to_string())));
    }
    let empty = JsonValue::Obj(vec![
        ("a".into(), JsonValue::Arr(vec![])),
        ("o".into(), JsonValue::Obj(vec![])),
    ]);
    check("json_writer_round_trips_through_the_reader", 256, |g| {
        for value in [gen_json_value(g, 4), empty.clone()] {
            let mut out = String::new();
            Written(&value).write_json(&mut out);
            let back = JsonValue::parse(&out).unwrap_or_else(|e| panic!("{e}: {out}"));
            assert!(
                same_json(&value, &back),
                "{value:?}\n -> {out}\n -> {back:?}"
            );
        }
        let n = g.rng.u64_below((1 << 53) + 1);
        let mut out = String::new();
        n.write_json(&mut out);
        assert_eq!(JsonValue::parse(&out).unwrap().as_u64(), Some(n));
    });
}
