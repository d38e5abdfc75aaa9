//! Running workloads under policies and computing the paper's metrics.
//!
//! Every entry point here lowers to the same primitive: a [`Policy`] is
//! a [`SchedulerFactory`] (a `Send` recipe, not a live scheduler), so
//! `(app, trace, policy)` lowers to a self-contained
//! [`greenweb_engine::RunSpec`] via [`lower`]. [`run`] and
//! [`run_traced`] execute that one spec on the calling thread; the batch
//! API ([`run_many`], [`evaluate_batch`]) hands the specs to
//! [`greenweb_fleet::run_specs`], and [`evaluate`] is a one-cell batch at
//! [`greenweb_fleet::Jobs::serial`]. A parallel batch is byte-identical
//! to the serial one because each job is deterministic and results are
//! slotted back by index.

use crate::Workload;
use greenweb::metrics::{InputExpectation, RunMetrics};
use greenweb::qos::Scenario;
use greenweb::{EbsScheduler, EnergyBudgetUai, GreenWebScheduler};
use greenweb_acmp::{
    InteractiveGovernor, OndemandGovernor, PerfGovernor, Platform, PowersaveGovernor,
};
use greenweb_engine::{
    App, BrowserError, GovernorScheduler, InputId, RunSpec, Scheduler, SchedulerFactory, SimReport,
    TargetSpec, Trace,
};
use greenweb_fleet::{run_specs, Jobs};
use greenweb_trace::TraceBuffer;
use std::collections::HashMap;
use std::fmt;

/// The energy/QoS policies the evaluation compares (Sec. 7.1 plus the
/// ablation variants): the one description of a run's scheduler. Its
/// [`fmt::Display`] name is what sweep checkpoints and repro files store,
/// and [`Policy::from_name`] reads it back.
#[derive(Debug, Clone, PartialEq)]
pub enum Policy {
    /// Peak performance (the paper's *Perf* baseline).
    Perf,
    /// Android's default interactive governor.
    Interactive,
    /// The ondemand governor (extra reference point).
    Ondemand,
    /// Always-lowest (extra reference point).
    Powersave,
    /// The annotation-free event-based-scheduling baseline (Sec. 9).
    Ebs,
    /// The GreenWeb runtime for a scenario.
    GreenWeb(Scenario),
    /// GreenWeb with the feedback loop disabled (ablation).
    GreenWebNoFeedback(Scenario),
    /// GreenWeb behind the Sec. 8 UAI energy budget, in millijoules.
    GreenWebUai(Scenario, f64),
}

impl Policy {
    /// The canonical set the paper's figures compare: Perf, Interactive,
    /// GreenWeb-I, GreenWeb-U.
    pub fn paper_set() -> [Policy; 4] {
        [
            Policy::Perf,
            Policy::Interactive,
            Policy::GreenWeb(Scenario::Imperceptible),
            Policy::GreenWeb(Scenario::Usable),
        ]
    }

    /// The policies that go by a fixed name: every variant but the
    /// parameterized ablations.
    pub(crate) const NAMED: [Policy; 7] = [
        Policy::Perf,
        Policy::Interactive,
        Policy::Ondemand,
        Policy::Powersave,
        Policy::Ebs,
        Policy::GreenWeb(Scenario::Imperceptible),
        Policy::GreenWeb(Scenario::Usable),
    ];

    /// The policy whose [`fmt::Display`] name is `name`, among the seven
    /// with a fixed name (the parameterized ablations have none).
    pub fn from_name(name: &str) -> Option<Policy> {
        Policy::NAMED.into_iter().find(|p| p.to_string() == name)
    }
}

/// A [`Policy`] is a construction recipe, not a live scheduler: it is
/// plain `Send + Sync` data, and the scheduler it names is built on
/// whichever worker thread executes the lowered [`RunSpec`].
impl SchedulerFactory for Policy {
    fn build(&self) -> Box<dyn Scheduler> {
        match self {
            Policy::Perf => Box::new(GovernorScheduler::new(PerfGovernor)),
            Policy::Interactive => Box::new(GovernorScheduler::new(
                InteractiveGovernor::android_default(&Platform::odroid_xu_e()),
            )),
            Policy::Ondemand => Box::new(GovernorScheduler::new(OndemandGovernor)),
            Policy::Powersave => Box::new(GovernorScheduler::new(PowersaveGovernor)),
            Policy::Ebs => Box::new(EbsScheduler::new()),
            Policy::GreenWeb(scenario) => Box::new(GreenWebScheduler::new(*scenario)),
            Policy::GreenWebNoFeedback(scenario) => {
                let mut scheduler = GreenWebScheduler::new(*scenario);
                scheduler.feedback_enabled = false;
                Box::new(scheduler)
            }
            Policy::GreenWebUai(scenario, budget_mj) => Box::new(EnergyBudgetUai::new(
                GreenWebScheduler::new(*scenario),
                *budget_mj,
            )),
        }
    }
}

/// Lowers one `(app, trace, policy)` cell to a self-contained, `Send`
/// [`RunSpec`] — the unit of work every runner in this module feeds to
/// the executor.
pub fn lower(app: &App, trace: &Trace, policy: &Policy) -> RunSpec {
    RunSpec::new(app.clone(), trace.clone(), Box::new(policy.clone()))
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Policy::Perf => write!(f, "Perf"),
            Policy::Interactive => write!(f, "Interactive"),
            Policy::Ondemand => write!(f, "Ondemand"),
            Policy::Powersave => write!(f, "Powersave"),
            Policy::Ebs => write!(f, "EBS"),
            Policy::GreenWeb(Scenario::Imperceptible) => write!(f, "GreenWeb-I"),
            Policy::GreenWeb(Scenario::Usable) => write!(f, "GreenWeb-U"),
            Policy::GreenWebNoFeedback(s) => write!(f, "GreenWeb-nofb({s})"),
            Policy::GreenWebUai(s, b) => write!(f, "GreenWeb-uai({s},{b}mJ)"),
        }
    }
}

/// Runs `trace` against `app` under `policy`.
///
/// # Errors
///
/// Returns [`BrowserError`] if the app fails to load or a callback
/// errors.
pub fn run(app: &App, trace: &Trace, policy: &Policy) -> Result<SimReport, BrowserError> {
    lower(app, trace, policy).execute().map(|o| o.report)
}

/// Runs a batch of `(app, trace, policy)` cells on `jobs` workers and
/// returns the reports **in cell order**. Each cell lowers to a
/// [`RunSpec`] and is independent of every other, so the results are
/// byte-identical to running the cells one by one with [`run`].
pub fn run_many(
    cells: &[(&App, &Trace, &Policy)],
    jobs: Jobs,
) -> Vec<Result<SimReport, BrowserError>> {
    let specs = cells
        .iter()
        .map(|(app, trace, policy)| lower(app, trace, policy))
        .collect();
    run_specs(specs, jobs)
        .into_iter()
        .map(|outcome| outcome.map(|o| o.report))
        .collect()
}

/// Like [`run`], but with a trace recorder attached: returns the report
/// together with the full event trace of the run (pipeline spans,
/// scheduler decisions, energy samples, …) ready for export.
///
/// # Errors
///
/// Returns [`BrowserError`] if the app fails to load or a callback
/// errors.
pub fn run_traced(
    app: &App,
    trace: &Trace,
    policy: &Policy,
) -> Result<(SimReport, TraceBuffer), BrowserError> {
    let outcome = lower(app, trace, policy).with_recording().execute()?;
    let buffer = outcome.trace.expect("recording was requested");
    Ok((outcome.report, buffer))
}

/// Pre-computes, per input of `trace`, the QoS expectation the
/// evaluation judges it against (from the app's annotations under
/// `scenario`). Inputs on unannotated `(element, event)` pairs are
/// absent — they are not optimization targets (Table 3's note).
///
/// Each input is one lookup in [`App::qos_targets`], the table the app
/// builds from its initial document on first use. Annotations are read
/// the way the runtime reads them
/// ([`AnnotationTable::from_stylesheet_lossy`]): a malformed `:QoS`
/// value is judged against its event's Table 1 category default, the
/// same spec the runtime scheduled it under.
///
/// [`AnnotationTable::from_stylesheet_lossy`]: greenweb::lang::AnnotationTable::from_stylesheet_lossy
pub fn expectations(
    app: &App,
    trace: &Trace,
    scenario: Scenario,
) -> HashMap<InputId, InputExpectation> {
    let targets = app.qos_targets();
    let mut map = HashMap::new();
    for (index, event) in trace.events.iter().enumerate() {
        let id = match &event.target {
            TargetSpec::Id(id) => Some(id.as_str()),
            TargetSpec::Root => None,
        };
        if let Some(spec) = targets.lookup(id, event.event) {
            map.insert(
                InputId(index as u64),
                InputExpectation {
                    qos_type: spec.qos_type,
                    target_ms: spec.target.for_scenario(scenario),
                },
            );
        }
    }
    map
}

/// The fraction of trace events that carry an annotation (the measured
/// counterpart of Table 3's "Annotation" column).
pub fn annotated_fraction(app: &App, trace: &Trace) -> f64 {
    if trace.is_empty() {
        return 0.0;
    }
    let n = expectations(app, trace, Scenario::Usable).len();
    n as f64 / trace.len() as f64
}

/// One measured cell of an evaluation figure.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// The workload name.
    pub workload: &'static str,
    /// The policy.
    pub policy: Policy,
    /// The scenario the violations were judged under.
    pub scenario: Scenario,
    /// The run's metrics.
    pub metrics: RunMetrics,
}

/// Runs `policy` on a workload trace and judges it under `scenario`.
///
/// # Errors
///
/// Returns [`BrowserError`] on load or script failure.
pub fn evaluate(
    workload: &Workload,
    trace: &Trace,
    policy: &Policy,
    scenario: Scenario,
) -> Result<Measurement, BrowserError> {
    let mut batch = evaluate_batch(&[(workload, trace, policy, scenario)], Jobs::serial())?;
    Ok(batch.pop().expect("one cell in, one measurement out"))
}

/// Evaluates a batch of `(workload, trace, policy, scenario)` cells on
/// `jobs` workers, returning the measurements **in cell order**. The
/// simulations run on the executor; judging (annotation lookup and
/// metric aggregation) happens on the calling thread, so the
/// measurements are byte-identical to evaluating each cell with
/// [`evaluate`].
///
/// # Errors
///
/// Returns the first [`BrowserError`] in cell order, if any cell fails.
pub fn evaluate_batch(
    cells: &[(&Workload, &Trace, &Policy, Scenario)],
    jobs: Jobs,
) -> Result<Vec<Measurement>, BrowserError> {
    let runs: Vec<(&App, &Trace, &Policy)> = cells
        .iter()
        .map(|(workload, trace, policy, _)| (&workload.app, *trace, *policy))
        .collect();
    run_many(&runs, jobs)
        .into_iter()
        .zip(cells)
        .map(|(report, (workload, trace, policy, scenario))| {
            let expected = expectations(&workload.app, trace, *scenario);
            Ok(Measurement {
                workload: workload.name,
                policy: (*policy).clone(),
                scenario: *scenario,
                metrics: RunMetrics::compute(&report?, &expected),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::by_name;
    use greenweb::lang::AnnotationTable;
    use greenweb::qos::QosType;
    use greenweb_css::parse_stylesheet;
    use greenweb_dom::{parse_html, EventType};
    use std::sync::Arc;

    /// The reference for [`expectations`]: parse the app's sources on
    /// every call and resolve each input's element with
    /// [`AnnotationTable::lookup`], as judging did before the app kept a
    /// table.
    fn expectations_reparsed(
        app: &App,
        trace: &Trace,
        scenario: Scenario,
    ) -> HashMap<InputId, InputExpectation> {
        let doc = parse_html(&app.html).expect("workload html parses");
        let sheet = parse_stylesheet(&app.css_source()).expect("workload css parses");
        let (table, _errors) = AnnotationTable::from_stylesheet_lossy(&sheet);
        let document_element = doc
            .children(doc.root())
            .find(|&c| doc.element(c).is_some())
            .unwrap_or_else(|| doc.root());
        let mut map = HashMap::new();
        for (index, event) in trace.events.iter().enumerate() {
            let target = match &event.target {
                TargetSpec::Id(id) => doc.element_by_id(id).unwrap_or(document_element),
                TargetSpec::Root => document_element,
            };
            if let Some(spec) = table.lookup(&doc, target, event.event) {
                map.insert(
                    InputId(index as u64),
                    InputExpectation {
                        qos_type: spec.qos_type,
                        target_ms: spec.target.for_scenario(scenario),
                    },
                );
            }
        }
        map
    }

    #[test]
    fn expectations_match_the_reparsing_reference_on_every_workload() {
        for w in crate::all() {
            for (kind, trace) in [("full", &w.full), ("micro", &w.micro)] {
                for scenario in Scenario::ALL {
                    assert_eq!(
                        expectations(&w.app, trace, scenario),
                        expectations_reparsed(&w.app, trace, scenario),
                        "{} {kind} {scenario}",
                        w.name
                    );
                }
            }
        }
    }

    #[test]
    fn expectations_match_the_reference_on_annotation_corner_cases() {
        let app = App::builder("corners")
            .html(
                "<main><div id='dup'>a</div><p id='dup'>b</p>\
                 <ul id='list'><li id='item'>c</li></ul>\
                 <span id='tie'>d</span><button id='bad'>e</button></main>",
            )
            .css(
                "main:QoS { onclick-qos: continuous; onload-qos: single, long; }
                 #dup:QoS { onclick-qos: single, short; }
                 p#dup:QoS { onclick-qos: continuous, 20, 100; }
                 #bad:QoS { onclick-qos: sometimes; onhover-qos: continuous; ontouchend-qos: continuous; }
                 #list li:QoS { ontouchmove-qos: continuous, 25, 50; }
                 #tie:QoS { onclick-qos: single, short; }
                 #tie:QoS { onclick-qos: single, long; }",
            )
            .build();
        let id = |id: &str| TargetSpec::Id(id.to_string());
        let trace = Trace::builder()
            .event(10.0, EventType::Click, id("dup"))
            .event(20.0, EventType::Click, id("missing"))
            .event(30.0, EventType::Load, TargetSpec::Root)
            .event(40.0, EventType::Click, id("bad"))
            .event(50.0, EventType::TouchEnd, id("bad"))
            .event(60.0, EventType::TouchMove, id("item"))
            .event(70.0, EventType::TouchMove, id("list"))
            .event(80.0, EventType::Click, id("tie"))
            .end_ms(100.0)
            .build();
        for scenario in Scenario::ALL {
            assert_eq!(
                expectations(&app, &trace, scenario),
                expectations_reparsed(&app, &trace, scenario),
                "{scenario}"
            );
        }
        let map = expectations(&app, &trace, Scenario::Usable);
        let target = |i: u64| map.get(&InputId(i)).map(|e| (e.qos_type, e.target_ms));
        // The first `dup` (a div) wins over the later, more specific p.
        assert_eq!(target(0), Some((QosType::Single, 300.0)));
        // A missing id and the root both land on the document element.
        assert_eq!(target(1), Some((QosType::Continuous, 33.3)));
        assert_eq!(target(2), Some((QosType::Single, 10_000.0)));
        // A malformed value falls back to the category default; the
        // unknown event beside it drops without taking the rule along.
        assert_eq!(target(3), Some((QosType::Single, 300.0)));
        assert_eq!(target(4), Some((QosType::Continuous, 33.3)));
        // The descendant selector matches the item, not its list.
        assert_eq!(target(5), Some((QosType::Continuous, 50.0)));
        assert_eq!(target(6), None);
        // At equal specificity the later rule wins.
        assert_eq!(target(7), Some((QosType::Single, 10_000.0)));
    }

    #[test]
    fn judging_follows_edited_sources_and_filling_is_invisible() {
        let mut app = App::builder("stale")
            .html("<div><button id='a' class='hot'>a</button><button id='b'>b</button></div>")
            .css(".hot:QoS { onclick-qos: single, short; }")
            .build();
        let trace = Trace::builder()
            .click_id(10.0, "a")
            .click_id(20.0, "b")
            .end_ms(100.0)
            .build();
        let unfilled = app.clone();
        let debug = format!("{app:?}");
        let judge = |app: &App| {
            let map = expectations(app, &trace, Scenario::Usable);
            assert_eq!(map, expectations_reparsed(app, &trace, Scenario::Usable));
            [0, 1].map(|i| map.get(&InputId(i)).map(|e| e.target_ms))
        };
        assert_eq!(judge(&app), [Some(300.0), None]);
        // Filling the table changes neither equality nor the debug view,
        // and a clone of the filled app shares the table.
        assert_eq!(app, unfilled);
        assert_eq!(format!("{app:?}"), debug);
        let filled = app.clone();
        assert!(Arc::ptr_eq(&app.qos_targets(), &filled.qos_targets()));
        // A changed target in the CSS is followed...
        app.css[0] = ".hot:QoS { onclick-qos: single, long; }".to_string();
        assert_eq!(judge(&app), [Some(10_000.0), None]);
        // ...and so is an id moved in the HTML: `a` now names a cold
        // button, and the missing `b` falls back to the document element.
        app.html = "<div class='hot'><button>a</button><button id='a'>b</button></div>".to_string();
        assert_eq!(judge(&app), [None, Some(10_000.0)]);
        // The clone keeps the table of the sources it still holds.
        assert_eq!(judge(&filled), [Some(300.0), None]);
    }

    #[test]
    fn policy_names_round_trip() {
        // Checkpoints and repro files store the display name: each must
        // read back as the policy that printed it (so no two collide).
        for policy in Policy::NAMED {
            assert_eq!(Policy::from_name(&policy.to_string()), Some(policy));
        }
        // The stored names themselves are pinned too: a round trip holds
        // for any spelling, so a renamed variant would orphan old files.
        let names: Vec<String> = Policy::NAMED.iter().map(Policy::to_string).collect();
        assert_eq!(
            names,
            [
                "Perf",
                "Interactive",
                "Ondemand",
                "Powersave",
                "EBS",
                "GreenWeb-I",
                "GreenWeb-U"
            ]
        );
        assert_eq!(Policy::from_name("nope"), None);
        let nofb = Policy::GreenWebNoFeedback(Scenario::Usable);
        assert_eq!(Policy::from_name(&nofb.to_string()), None);
        assert_eq!(Policy::paper_set().len(), 4);
    }

    #[test]
    fn policies_build_the_named_schedulers() {
        let built = |p: Policy| p.build().name();
        assert_eq!(built(Policy::Perf), "perf");
        assert_eq!(built(Policy::Interactive), "interactive");
        assert_eq!(built(Policy::Ondemand), "ondemand");
        assert_eq!(built(Policy::Powersave), "powersave");
        assert_eq!(built(Policy::Ebs), "ebs");
        assert_eq!(built(Policy::GreenWeb(Scenario::Usable)), "greenweb-usable");
        assert_eq!(
            built(Policy::GreenWebNoFeedback(Scenario::Usable)),
            "greenweb-usable"
        );
        assert_eq!(
            built(Policy::GreenWebUai(Scenario::Imperceptible, 500.0)),
            "uai(greenweb-imperceptible)"
        );
    }

    #[test]
    fn feedback_is_off_only_in_the_no_feedback_variant() {
        let feedback = |p: Policy| {
            let scheduler = p.build();
            let greenweb = scheduler
                .as_any()
                .and_then(|any| any.downcast_ref::<GreenWebScheduler>())
                .expect("greenweb downcasts");
            greenweb.feedback_enabled
        };
        assert!(feedback(Policy::GreenWeb(Scenario::Imperceptible)));
        assert!(
            !feedback(Policy::GreenWebNoFeedback(Scenario::Imperceptible)),
            "no-feedback variant must build with feedback off"
        );
    }

    #[test]
    fn expectations_cover_annotated_events_only() {
        let w = by_name("Todo").unwrap();
        let map = expectations(&w.app, &w.full, Scenario::Usable);
        assert!(!map.is_empty());
        assert!(map.len() < w.full.len(), "todo is only partially annotated");
        let frac = annotated_fraction(&w.app, &w.full);
        assert!(frac > 0.0 && frac < 1.0);
    }

    #[test]
    fn fully_annotated_apps_cover_most_events() {
        // Paper.js is 100% annotated; its full trace is dominated by
        // touchmove on the annotated canvas (touchstart/touchend are
        // bookkeeping, not QoS-bearing, and some taps hit tool buttons).
        let w = by_name("Paper.js").unwrap();
        let frac = annotated_fraction(&w.app, &w.full);
        assert!(frac > 0.7, "paper.js annotated fraction {frac}");
    }

    #[test]
    fn malformed_annotation_is_judged_against_its_category_default() {
        use greenweb::qos::QosSpec;
        let app = App::builder("half-malformed")
            .html("<button id='ok'>a</button><button id='bad'>b</button>")
            .css(
                "#ok:QoS { onclick-qos: continuous; }
                 #bad:QoS { onclick-qos: sometimes, 7; }",
            )
            .script(
                "addEventListener(getElementById('ok'), 'click', function(e) { markDirty(); });
                 addEventListener(getElementById('bad'), 'click', function(e) { markDirty(); });",
            )
            .build();
        let trace = Trace::builder()
            .click_id(100.0, "ok")
            .click_id(600.0, "bad")
            .end_ms(1200.0)
            .build();
        let sheet = parse_stylesheet(&app.css_source()).unwrap();
        assert!(
            AnnotationTable::from_stylesheet(&sheet).is_err(),
            "the strict reader rejects the sheet"
        );
        let scenario = Scenario::Usable;
        let map = expectations(&app, &trace, scenario);
        let valid = QosSpec::continuous();
        assert_eq!(map[&InputId(0)].qos_type, QosType::Continuous);
        assert_eq!(
            map[&InputId(0)].target_ms,
            valid.target.for_scenario(scenario)
        );
        let fallback = QosSpec::default_for_event(EventType::Click);
        assert_eq!(map[&InputId(1)].qos_type, fallback.qos_type);
        assert_eq!(
            map[&InputId(1)].target_ms,
            fallback.target.for_scenario(scenario)
        );
        // The whole evaluation path judges the run without panicking.
        let workload = Workload {
            app,
            ..by_name("Todo").unwrap()
        };
        let m = evaluate(&workload, &trace, &Policy::Perf, scenario).unwrap();
        assert_eq!(m.metrics.judged_inputs, 2);
    }

    #[test]
    fn scenario_changes_targets_not_coverage() {
        let w = by_name("Amazon").unwrap();
        let i = expectations(&w.app, &w.full, Scenario::Imperceptible);
        let u = expectations(&w.app, &w.full, Scenario::Usable);
        assert_eq!(i.len(), u.len());
        let (uid, imp) = i.iter().next().unwrap();
        assert!(imp.target_ms < u[uid].target_ms);
    }

    #[test]
    fn evaluate_micro_runs_all_paper_policies() {
        let w = by_name("Todo").unwrap();
        for policy in Policy::paper_set() {
            let m = evaluate(&w, &w.micro, &policy, Scenario::Usable).unwrap();
            assert!(m.metrics.energy_mj > 0.0, "{policy}: no energy measured");
            assert!(m.metrics.frames > 0, "{policy}: no frames");
        }
    }
}
