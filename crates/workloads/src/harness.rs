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
use greenweb::lang::AnnotationTable;
use greenweb::metrics::{InputExpectation, RunMetrics};
use greenweb::qos::Scenario;
use greenweb::{EbsScheduler, EnergyBudgetUai, GreenWebScheduler};
use greenweb_acmp::{
    InteractiveGovernor, OndemandGovernor, PerfGovernor, Platform, PowersaveGovernor,
};
use greenweb_css::parse_stylesheet;
use greenweb_dom::parse_html;
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
/// Annotations are read the way the runtime reads them
/// ([`AnnotationTable::from_stylesheet_lossy`]): a malformed `:QoS`
/// value is judged against its event's Table 1 category default, the
/// same spec the runtime scheduled it under.
pub fn expectations(
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
        use greenweb::qos::{QosSpec, QosType};
        use greenweb_dom::EventType;
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
