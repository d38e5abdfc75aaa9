//! Cross-validation of the GreenLint static analyzer against the
//! dynamic simulator.
//!
//! The analyzer promises soundness in one direction: anything it calls
//! *statically unsatisfiable* (GW040) must really violate its QoS
//! target in a full-speed run, and no bundled workload — all of which
//! meet their targets dynamically — may be flagged. These tests check
//! both directions, plus byte-determinism of the JSON renderer and
//! agreement with the committed goldens the CI gate diffs.

use greenweb::metrics::{violation_for_input, InputExpectation};
use greenweb::qos::QosType;
use greenweb_analyze::{analyze, LintCode, Severity};
use greenweb_engine::{App, InputId, TargetSpec, Trace};
use greenweb_workloads::all;
use greenweb_workloads::harness::{run, Policy};
use std::path::Path;

/// An app exhibiting all four defect classes the analyzer hunts:
/// annotation-sanity defects (dead, conflicting, unknown-event),
/// an uncovered handler, an unbounded loop, and a statically
/// unsatisfiable target.
fn defective_app() -> App {
    App::builder("defective")
        .html("<button id='go'>go</button><div id='boat'></div><div id='slow'></div>")
        .css(
            "#ghost:QoS { onclick-qos: single, short; }
             #go:QoS { onclick-qos: single, short; }
             #go:QoS { onclick-qos: single, long; }
             #boat:QoS { onhover-qos: continuous; }
             #slow:QoS { onclick-qos: single, short; }",
        )
        .script(
            "addEventListener(getElementById('go'), 'click', function(e) {
                 var i = 0;
                 while (i < elementCount()) { i = i + 1; }
                 markDirty();
             });
             addEventListener(getElementById('slow'), 'click', function(e) {
                 work(8000000000); markDirty();
             });
             addEventListener(getElementById('boat'), 'touchstart', function(e) { markDirty(); });",
        )
        .build()
}

#[test]
fn fixture_triggers_all_four_defect_classes() {
    let report = analyze(&defective_app());
    // Pass 1: annotation sanity.
    assert!(!report.with_code(LintCode::DeadAnnotation).is_empty());
    assert!(!report
        .with_code(LintCode::ConflictingAnnotations)
        .is_empty());
    assert!(!report.with_code(LintCode::UnknownQosEvent).is_empty());
    // Pass 2: handler coverage.
    assert!(!report.with_code(LintCode::UncoveredHandler).is_empty());
    // Pass 3: cost bounds.
    assert!(!report.with_code(LintCode::UnboundedLoop).is_empty());
    assert!(!report.with_code(LintCode::HandlerCostBound).is_empty());
    // Pass 4: platform feasibility.
    assert!(!report.with_code(LintCode::UnsatisfiableTarget).is_empty());
    assert!(report.has_errors());
}

/// Every GW040 verdict must be witnessed dynamically: drive the flagged
/// input at the platform's peak configuration (Perf never throttles) and
/// the runtime's own violation judge must agree the target was missed.
#[test]
fn statically_unsatisfiable_annotations_violate_at_full_speed() {
    let app = defective_app();
    let report = analyze(&app);
    assert!(
        !report.unsatisfiable.is_empty(),
        "fixture must produce at least one GW040 finding"
    );
    for finding in &report.unsatisfiable {
        assert_eq!(finding.qos_type, QosType::Single, "GW040 is single-only");
        let id = finding
            .node_id
            .as_deref()
            .unwrap_or_else(|| panic!("{}: finding has no targetable id", finding.element));
        let trace = Trace::builder()
            .event(100.0, finding.event, TargetSpec::Id(id.into()))
            .end_ms(30_000.0)
            .build();
        let sim = run(&app, &trace, &Policy::Perf).expect("full-speed run");
        let violation = violation_for_input(
            &sim,
            InputId(0),
            InputExpectation {
                qos_type: finding.qos_type,
                target_ms: finding.usable_ms,
            },
        )
        .expect("flagged input produced no frames to judge");
        assert!(
            violation > 0.0,
            "{} on{}: flagged unsatisfiable (bound {:.1} ms > T_U {:.1} ms) \
             but met its target at full speed",
            finding.element,
            finding.event,
            finding.bound_ms,
            finding.usable_ms,
        );
    }
}

/// The other direction of soundness: the bundled workload suite meets
/// its targets dynamically, so a GW040 (or any error-severity verdict)
/// on it would be a false positive.
#[test]
fn no_bundled_workload_is_flagged_unsatisfiable() {
    for w in all() {
        let report = analyze(&w.app);
        assert!(
            report.unsatisfiable.is_empty(),
            "{}: false unsatisfiable verdict(s): {:?}",
            w.name,
            report.unsatisfiable
        );
        assert_eq!(
            report.count(Severity::Error),
            0,
            "{}: unexpected error-severity lint:\n{}",
            w.name,
            report.render_text()
        );
    }
}

#[test]
fn lint_json_is_byte_deterministic_across_runs() {
    for w in all() {
        let first = analyze(&w.app).render_json();
        let second = analyze(&w.app).render_json();
        assert_eq!(first, second, "{}: JSON differs between runs", w.name);
    }
}

/// The golden file name for a workload (kept in sync with the
/// `greenweb_lint` CLI): lowercase, non-alphanumerics mapped to `_`.
fn golden_name(workload: &str) -> String {
    let slug: String = workload
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect();
    format!("{slug}.json")
}

#[test]
fn lint_json_matches_committed_goldens() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/lint");
    for w in all() {
        let path = dir.join(golden_name(w.name));
        let expected = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: missing golden {} ({e})", w.name, path.display()));
        let actual = analyze(&w.app).render_json() + "\n";
        assert_eq!(
            expected,
            actual,
            "{}: lint output drifted from {} — regenerate with \
             `cargo run -p greenweb-bench --bin greenweb_lint -- --write tests/goldens/lint`",
            w.name,
            path.display()
        );
    }
}

// ---------------------------------------------------------------------------
// Effect-summary soundness: the dynamic ⊆ static gate on real workloads.
// ---------------------------------------------------------------------------

/// The fleet-wide soundness gate in miniature: on every bundled
/// workload's full trace under GreenWeb-I, each dynamically observed
/// callback effect is admitted by its handler's static summary, and the
/// check is non-vacuous (containment actually ran).
#[test]
fn fleet_dynamic_effects_stay_within_static_summaries() {
    use greenweb::qos::Scenario;
    let mut checks = 0u64;
    for w in all() {
        let mut app = w.app.clone();
        app.effect_summaries = greenweb_analyze::infer_effect_summaries(&app);
        let report = run(&app, &w.full, &Policy::GreenWeb(Scenario::Imperceptible))
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert!(
            report.effect_violations.is_empty(),
            "{}: dynamic effects escaped their static summaries: {:#?}",
            w.name,
            report.effect_violations
        );
        checks += report.effect_checks;
    }
    assert!(
        checks > 0,
        "no containment checks ran — the gate is vacuous"
    );
}

/// The gate's own detector is alive: deliberately poisoned (all-pure)
/// summaries on a mutating workload are flagged as violations rather
/// than silently trusted.
#[test]
fn poisoned_summaries_are_caught_by_the_containment_ledger() {
    use greenweb_acmp::PerfGovernor;
    use greenweb_engine::{Browser, EffectSummary, GovernorScheduler};
    let w = greenweb_workloads::by_name("Todo").expect("Todo workload");
    let mut app = w.app.clone();
    let mut summaries = greenweb_analyze::infer_effect_summaries(&app);
    for hs in &mut summaries {
        hs.summary = EffectSummary::pure();
    }
    app.effect_summaries = summaries;
    let mut browser = Browser::new(&app, GovernorScheduler::new(PerfGovernor)).expect("Todo loads");
    let report = browser.run(&w.full).expect("Todo runs");
    assert!(report.effect_checks > 0);
    assert!(
        !report.effect_violations.is_empty(),
        "pure-poisoned summaries went undetected — the violation detector is dead"
    );
}

/// The three effect lints fire on a fixture built to trip each one:
/// a covered click handler that only logs (GW050), a zero-delay
/// setTimeout chain (GW051), and structure mutation on touchmove
/// (GW060).
#[test]
fn effect_lints_fire_on_their_fixtures() {
    let app = App::builder("effect-lints")
        .html("<button id='inert'>i</button><button id='chain'>c</button><div id='hot'></div>")
        .css("#inert:QoS { onclick-qos: single, short; }")
        .script(
            "addEventListener(getElementById('inert'), 'click', function(e) {
                 log('tick');
             });
             function again() { setTimeout(again, 0); }
             addEventListener(getElementById('chain'), 'click', function(e) {
                 setTimeout(again, 0);
             });
             addEventListener(getElementById('hot'), 'touchmove', function(e) {
                 appendChild(e.target, createElement('span'));
                 markDirty();
             });",
        )
        .build();
    let report = analyze(&app);
    for (code, context) in [
        (LintCode::InertHandler, "button#inert"),
        (LintCode::ZeroDelayChain, "button#chain"),
        (LintCode::HotStructureMutation, "div#hot"),
    ] {
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.code == code && d.location.context.contains(context)),
            "{code:?} did not fire on {context}:\n{}",
            report.render_text()
        );
    }
}
