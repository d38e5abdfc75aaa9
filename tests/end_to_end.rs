//! Cross-crate integration tests: the paper's whole pipeline — annotate
//! with GreenWeb CSS, run on the simulated browser + ACMP, measure
//! energy and QoS — exercised end to end, including the headline
//! orderings of the evaluation.

use greenweb::autogreen::AutoGreen;
use greenweb::metrics::violation_for_input;
use greenweb::qos::{QosType, Scenario};
use greenweb::GreenWebScheduler;
use greenweb_acmp::{InteractiveGovernor, PerfGovernor, Platform};
use greenweb_engine::{App, Browser, GovernorScheduler, InputId, Scheduler, SimReport, Trace};
use greenweb_workloads::harness::{evaluate, expectations, Policy};
use greenweb_workloads::{all, by_name};

fn run_with(app: &App, trace: &Trace, scheduler: impl Scheduler + 'static) -> SimReport {
    let mut browser =
        Browser::new(app, Box::new(scheduler) as Box<dyn Scheduler>).expect("app loads");
    browser.run(trace).expect("trace runs")
}

#[test]
fn headline_energy_ordering_on_a_continuous_workload() {
    // Fig. 10a's qualitative claim on one animation-heavy app:
    // Perf >= Interactive > GreenWeb-I > GreenWeb-U.
    let w = by_name("Goo.ne.jp").unwrap();
    let platform = Platform::odroid_xu_e();
    let perf = run_with(&w.app, &w.full, GovernorScheduler::new(PerfGovernor));
    let interactive = run_with(
        &w.app,
        &w.full,
        GovernorScheduler::new(InteractiveGovernor::android_default(&platform)),
    );
    let gwi = run_with(
        &w.app,
        &w.full,
        GreenWebScheduler::new(Scenario::Imperceptible),
    );
    let gwu = run_with(&w.app, &w.full, GreenWebScheduler::new(Scenario::Usable));
    assert!(
        interactive.total_mj() <= perf.total_mj() * 1.02,
        "interactive {} should track perf {}",
        interactive.total_mj(),
        perf.total_mj()
    );
    assert!(gwi.total_mj() < interactive.total_mj());
    assert!(gwu.total_mj() < gwi.total_mj());
}

#[test]
fn greenweb_meets_usable_targets_with_bounded_violations() {
    // Fig. 10c's claim: under the usable scenario GreenWeb's extra
    // violations over Perf stay small for most apps.
    for name in ["Todo", "Craigslist", "CamanJS", "BBC"] {
        let w = by_name(name).unwrap();
        let perf = evaluate(&w, &w.full, &Policy::Perf, Scenario::Usable).unwrap();
        let gwu = evaluate(
            &w,
            &w.full,
            &Policy::GreenWeb(Scenario::Usable),
            Scenario::Usable,
        )
        .unwrap();
        let extra = gwu.metrics.extra_violation_over(&perf.metrics);
        assert!(extra < 5.0, "{name}: extra usable violation {extra}%");
    }
}

#[test]
fn profiling_sequence_is_visible_in_single_event_latencies() {
    // Sec. 6.2: the first events of a class run at [big@max, big@min,
    // little@max, little@min]; latency must rise monotonically through
    // the profiling runs of a heavyweight tap class.
    let w = by_name("CamanJS").unwrap();
    let report = run_with(&w.app, &w.micro, GreenWebScheduler::new(Scenario::Usable));
    let latencies: Vec<f64> = (0..4)
        .map(|i| report.frames_for(InputId(i))[0].latency.as_millis_f64())
        .collect();
    for pair in latencies.windows(2) {
        assert!(
            pair[1] > pair[0] * 0.95,
            "profiling latencies should rise: {latencies:?}"
        );
    }
    // big@max vs little@min differ by roughly the performance ratio.
    assert!(latencies[3] > latencies[0] * 3.0, "{latencies:?}");
}

#[test]
fn autogreen_annotations_enable_the_runtime_on_every_workload() {
    // The paper's methodology: AUTOGREEN annotates each app, the runtime
    // consumes the annotations. Run the annotator on every unannotated
    // app and check it yields lookupable annotations.
    let annotator = AutoGreen::new();
    for w in all() {
        let report = annotator
            .detect(&w.unannotated_app)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert!(
            !report.annotations.is_empty(),
            "{}: autogreen found nothing",
            w.name
        );
    }
}

#[test]
fn autogreen_conservative_types_match_manual_for_animated_events() {
    // AUTOGREEN must classify the animation-driven events of the
    // continuous-tap apps as continuous, like the manual annotations do.
    for name in ["Cnet", "Goo.ne.jp", "W3School"] {
        let w = by_name(name).unwrap();
        let report = AutoGreen::new().detect(&w.unannotated_app).unwrap();
        assert!(
            report
                .annotations
                .annotations()
                .iter()
                .any(|a| a.spec.qos_type == QosType::Continuous),
            "{name}: no continuous annotation detected"
        );
    }
}

#[test]
fn violations_judge_only_annotated_inputs() {
    let w = by_name("BBC").unwrap();
    let exp = expectations(&w.app, &w.full, Scenario::Usable);
    assert!(!exp.is_empty());
    assert!(exp.len() < w.full.len(), "BBC is partially annotated");
    // Judged inputs must be resolvable against the run.
    let report = run_with(&w.app, &w.full, GovernorScheduler::new(PerfGovernor));
    for (&uid, expectation) in &exp {
        // Not every annotated input necessarily painted within the
        // window, but those that did yield a finite violation.
        if let Some(v) = violation_for_input(&report, uid, *expectation) {
            assert!(v.is_finite() && v >= 0.0);
        }
    }
}

#[test]
fn simulation_is_deterministic_across_policies_and_apps() {
    for name in ["Todo", "Paper.js"] {
        let w = by_name(name).unwrap();
        for policy in [Policy::Perf, Policy::GreenWeb(Scenario::Usable)] {
            let a = greenweb_workloads::harness::run(&w.app, &w.micro, &policy).unwrap();
            let b = greenweb_workloads::harness::run(&w.app, &w.micro, &policy).unwrap();
            assert_eq!(a.total_mj(), b.total_mj(), "{name}/{policy}");
            assert_eq!(a.frames.len(), b.frames.len(), "{name}/{policy}");
            assert_eq!(a.switches, b.switches, "{name}/{policy}");
            for (fa, fb) in a.frames.iter().zip(&b.frames) {
                assert_eq!(fa.latency, fb.latency, "{name}/{policy}");
            }
        }
    }
}

#[test]
fn scenario_split_shows_in_big_cluster_residency() {
    // Fig. 11's headline: GreenWeb-I leans on the big cluster where
    // GreenWeb-U stays little, for continuous workloads.
    let w = by_name("Paper.js").unwrap();
    let gwi = run_with(
        &w.app,
        &w.micro,
        GreenWebScheduler::new(Scenario::Imperceptible),
    );
    let gwu = run_with(&w.app, &w.micro, GreenWebScheduler::new(Scenario::Usable));
    assert!(
        gwi.big_residency_fraction() > gwu.big_residency_fraction() + 0.1,
        "I {} vs U {}",
        gwi.big_residency_fraction(),
        gwu.big_residency_fraction()
    );
}

#[test]
fn expectation_map_is_stable_against_report_inputs() {
    // The expectation map is keyed by trace order; the browser must
    // assign the same uids in the same order.
    let w = by_name("MSN").unwrap();
    let report = run_with(&w.app, &w.full, GovernorScheduler::new(PerfGovernor));
    assert_eq!(report.inputs.len(), w.full.len());
    for (i, input) in report.inputs.iter().enumerate() {
        assert_eq!(input.uid, InputId(i as u64));
    }
    let exp = expectations(&w.app, &w.full, Scenario::Imperceptible);
    for uid in exp.keys() {
        assert!(
            report.inputs.iter().any(|i| i.uid == *uid),
            "expectation for unknown input {uid:?}"
        );
    }
}

#[test]
fn mis_annotation_wastes_energy_and_uai_recovers_it() {
    // Sec. 8 end to end: a hostile 1 ms target pins the ACMP at peak;
    // the UAI budget restores sanity.
    let honest = by_name("Goo.ne.jp").unwrap();
    let mut hostile_app = honest.unannotated_app.clone();
    hostile_app
        .css
        .push(".navbtn:QoS { onclick-qos: continuous, 1, 1; }".to_string());
    let trusting = || GreenWebScheduler::new(Scenario::Imperceptible);
    let honest_run = run_with(&honest.app, &honest.micro, trusting());
    let hostile_run = run_with(&hostile_app, &honest.micro, trusting());
    assert!(
        hostile_run.total_mj() > honest_run.total_mj() * 1.2,
        "hostile {} vs honest {}",
        hostile_run.total_mj(),
        honest_run.total_mj()
    );
    let budget = honest_run.total_mj();
    let guarded = run_with(
        &hostile_app,
        &honest.micro,
        greenweb::EnergyBudgetUai::new(trusting(), budget),
    );
    assert!(guarded.total_mj() < hostile_run.total_mj());
}
