//! Chaos harness: runs a workload under a seeded [`FaultPlan`] next to
//! its fault-free twin and packages everything the robustness evaluation
//! needs — both reports, both degradation logs, and the run's
//! [`ChaosMetrics`].
//!
//! The two runs are built identically (same app, trace, and scheduler
//! construction), so any difference between them is attributable to the
//! injected faults alone, and a fixed seed makes the whole comparison
//! reproducible byte for byte.
//!
//! Like the rest of the harness, everything lowers to
//! [`greenweb_engine::RunSpec`]s: a chaos comparison is one fault-free
//! job plus one job per fault plan, and [`chaos_batch_with`] shares the
//! single baseline run across every plan in the batch. The scheduler's
//! [`DegradationLog`] — state that lives inside a non-`Send` scheduler
//! and can never leave its worker thread directly — is extracted on the
//! worker through a [`SchedulerProbe`] and shipped back as plain data.

use greenweb::metrics::{violation_rate_in_window_or_zero, ChaosMetrics};
use greenweb::qos::Scenario;
use greenweb::{DegradationLog, GreenWebScheduler};
use greenweb_acmp::SimTime;
use greenweb_engine::{
    App, BrowserError, FaultPlan, RunSpec, Scheduler, SchedulerProbe, SimReport, Trace,
};
use greenweb_fleet::{run_specs, Jobs};
use greenweb_trace::TraceBuffer;
use std::sync::Arc;

/// A faulted run paired with its fault-free twin.
#[derive(Debug, Clone)]
pub struct ChaosRun {
    /// The plan the faulted run executed.
    pub plan: FaultPlan,
    /// The fault-free run.
    pub baseline: SimReport,
    /// The faulted run (its `chaos` field holds the fault log).
    pub faulted: SimReport,
    /// Degradation-ladder transitions of the fault-free run (normally
    /// empty).
    pub baseline_log: DegradationLog,
    /// Degradation-ladder transitions of the faulted run.
    pub faulted_log: DegradationLog,
    /// Robustness metrics of the faulted run.
    pub metrics: ChaosMetrics,
}

impl ChaosRun {
    /// Violation-rate ratio (faulted / fault-free) at `target_ms` over
    /// the frames completing in `[from, to)`. A baseline rate of zero
    /// yields 1.0 when the faulted rate is also zero and infinity
    /// otherwise, so "within 2×" assertions stay meaningful.
    pub fn violation_ratio(&self, target_ms: f64, from: SimTime, to: SimTime) -> f64 {
        // For the *ratio*, a window with no frames counts as a zero rate:
        // producing no frames at all is certainly not producing violating
        // ones. (Callers needing to distinguish "no evidence" use
        // `violation_rate_in_window` directly.)
        let faulted = violation_rate_in_window_or_zero(&self.faulted, target_ms, from, to);
        let baseline = violation_rate_in_window_or_zero(&self.baseline, target_ms, from, to);
        if baseline > 0.0 {
            faulted / baseline
        } else if faulted == 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    }

    /// True when the faulted run degraded at some point and its watchdog
    /// walked all the way back to the annotated level.
    pub fn recovered(&self) -> bool {
        self.faulted_log.ever_degraded() && self.metrics.recovery_latency.is_some()
    }
}

/// The scheduler builder a chaos comparison shares between its runs;
/// `Send + Sync` because the build happens on a worker thread.
type Build = dyn Fn() -> GreenWebScheduler + Send + Sync;

/// A probe that pulls the [`DegradationLog`] out of the scheduler on the
/// worker, before the (non-`Send`) scheduler is dropped there.
fn degradation_probe() -> SchedulerProbe {
    Box::new(|scheduler: &dyn Scheduler| {
        scheduler
            .as_any()
            .and_then(|any| any.downcast_ref::<GreenWebScheduler>())
            .map(|greenweb| {
                Box::new(greenweb.degradation_log().clone()) as Box<dyn std::any::Any + Send>
            })
    })
}

/// Lowers one chaos leg (fault-free when `plan` is `None`) to a spec
/// carrying the degradation-log probe.
fn chaos_spec(app: &App, trace: &Trace, plan: Option<FaultPlan>, build: &Arc<Build>) -> RunSpec {
    let factory = Arc::clone(build);
    let mut spec = RunSpec::new(
        app.clone(),
        trace.clone(),
        Box::new(move || Box::new(factory()) as Box<dyn Scheduler>),
    )
    .with_probe(degradation_probe());
    if let Some(plan) = plan {
        spec = spec.with_faults(plan);
    }
    spec
}

/// Unpacks one executed chaos leg into its report and degradation log.
fn unpack(
    outcome: Result<greenweb_engine::RunOutcome, BrowserError>,
) -> Result<(SimReport, DegradationLog, Option<TraceBuffer>), BrowserError> {
    let outcome = outcome?;
    let log = outcome
        .artifact
        .and_then(|artifact| artifact.downcast::<DegradationLog>().ok())
        .map(|boxed| *boxed)
        .expect("chaos schedulers are GreenWebSchedulers with a degradation log");
    Ok((outcome.report, log, outcome.trace))
}

/// Runs `trace` on `app` twice — fault-free, then under `plan` — with a
/// stock [`GreenWebScheduler`] for `scenario`.
///
/// # Errors
///
/// Returns [`BrowserError`] if either run fails to load or execute.
pub fn chaos_run(
    app: &App,
    trace: &Trace,
    scenario: Scenario,
    plan: FaultPlan,
) -> Result<ChaosRun, BrowserError> {
    chaos_run_with(app, trace, plan, move || GreenWebScheduler::new(scenario))
}

/// Like [`chaos_run`], but the caller constructs the scheduler (e.g. to
/// tune watchdog thresholds). `build` is called once per run so both
/// runs start from identical state.
///
/// # Errors
///
/// Returns [`BrowserError`] if either run fails to load or execute.
pub fn chaos_run_with(
    app: &App,
    trace: &Trace,
    plan: FaultPlan,
    build: impl Fn() -> GreenWebScheduler + Send + Sync + 'static,
) -> Result<ChaosRun, BrowserError> {
    let mut runs = chaos_batch_with(app, trace, &[plan], build, Jobs::serial())?;
    Ok(runs.pop().expect("one plan in, one chaos run out"))
}

/// Runs one fault-free baseline plus one faulted run per plan in
/// `plans`, with a stock [`GreenWebScheduler`] for `scenario`, on `jobs`
/// workers. The single baseline is shared by every returned [`ChaosRun`]
/// (the fault-free run is deterministic, so re-running it per plan would
/// reproduce it bit for bit anyway).
///
/// # Errors
///
/// Returns [`BrowserError`] if any run fails to load or execute.
pub fn chaos_batch(
    app: &App,
    trace: &Trace,
    scenario: Scenario,
    plans: &[FaultPlan],
    jobs: Jobs,
) -> Result<Vec<ChaosRun>, BrowserError> {
    chaos_batch_with(
        app,
        trace,
        plans,
        move || GreenWebScheduler::new(scenario),
        jobs,
    )
}

/// [`chaos_batch`] with caller-constructed schedulers: `1 + plans.len()`
/// jobs in one batch — the shared baseline at index 0, one faulted run
/// per plan after it — paired up in plan order.
///
/// # Errors
///
/// Returns [`BrowserError`] if any run fails to load or execute.
pub fn chaos_batch_with(
    app: &App,
    trace: &Trace,
    plans: &[FaultPlan],
    build: impl Fn() -> GreenWebScheduler + Send + Sync + 'static,
    jobs: Jobs,
) -> Result<Vec<ChaosRun>, BrowserError> {
    let build: Arc<Build> = Arc::new(build);
    let mut specs = Vec::with_capacity(1 + plans.len());
    specs.push(chaos_spec(app, trace, None, &build));
    for plan in plans {
        specs.push(chaos_spec(app, trace, Some(*plan), &build));
    }
    let mut outcomes = run_specs(specs, jobs).into_iter();
    let (baseline, baseline_log, _) = unpack(outcomes.next().expect("baseline job ran"))?;
    plans
        .iter()
        .zip(outcomes)
        .map(|(plan, outcome)| {
            let (faulted, faulted_log, _) = unpack(outcome)?;
            let metrics = ChaosMetrics::compute(&faulted, &faulted_log);
            Ok(ChaosRun {
                plan: *plan,
                baseline: baseline.clone(),
                faulted,
                baseline_log: baseline_log.clone(),
                faulted_log,
                metrics,
            })
        })
        .collect()
}

/// Like [`chaos_run_with`], but with a trace recorder attached to the
/// *faulted* run, so the injected faults, the resulting latency spikes,
/// and the ladder's escalate/recover transitions are all visible on one
/// exportable timeline.
///
/// # Errors
///
/// Returns [`BrowserError`] if either run fails to load or execute.
pub fn chaos_run_traced(
    app: &App,
    trace: &Trace,
    plan: FaultPlan,
    build: impl Fn() -> GreenWebScheduler + Send + Sync + 'static,
) -> Result<(ChaosRun, TraceBuffer), BrowserError> {
    let build: Arc<Build> = Arc::new(build);
    let specs = vec![
        chaos_spec(app, trace, None, &build),
        chaos_spec(app, trace, Some(plan), &build).with_recording(),
    ];
    let mut outcomes = run_specs(specs, Jobs::serial()).into_iter();
    let (baseline, baseline_log, _) = unpack(outcomes.next().expect("baseline job ran"))?;
    let (faulted, faulted_log, buffer) = unpack(outcomes.next().expect("faulted job ran"))?;
    let metrics = ChaosMetrics::compute(&faulted, &faulted_log);
    Ok((
        ChaosRun {
            plan,
            baseline,
            faulted,
            baseline_log,
            faulted_log,
            metrics,
        },
        buffer.expect("recording was requested"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::by_name;

    #[test]
    fn chaos_run_pairs_reports_and_logs() {
        let w = by_name("Todo").unwrap();
        let run = chaos_run(&w.app, &w.micro, Scenario::Usable, FaultPlan::storm(17)).unwrap();
        assert!(run.baseline.chaos.is_none(), "baseline must be fault-free");
        let chaos = run.faulted.chaos.as_ref().expect("faulted run logs chaos");
        assert_eq!(chaos.seed, 17);
        assert_eq!(run.metrics.injected_faults, chaos.total());
        assert!(chaos.total() > 0, "a storm must inject something");
    }

    #[test]
    fn baseline_never_degrades_on_paper_workloads() {
        let w = by_name("Craigslist").unwrap();
        let run = chaos_run(&w.app, &w.micro, Scenario::Usable, FaultPlan::new(1)).unwrap();
        assert!(
            !run.baseline_log.ever_degraded(),
            "fault-free run escalated: {:?}",
            run.baseline_log.transitions()
        );
    }

    #[test]
    fn empty_plan_matches_baseline_energy() {
        // An empty plan still attaches an injector; it must not perturb
        // the simulation. (Sampling the sensor gain each VSync advances
        // the CPU more often, which energy priced from integer
        // per-configuration time does not see.)
        let w = by_name("Todo").unwrap();
        let run = chaos_run(&w.app, &w.micro, Scenario::Usable, FaultPlan::new(9)).unwrap();
        assert_eq!(run.faulted.chaos.as_ref().unwrap().total(), 0);
        assert_eq!(
            run.baseline.total_mj().to_bits(),
            run.faulted.total_mj().to_bits()
        );
        assert_eq!(run.baseline.frames.len(), run.faulted.frames.len());
        for (fa, fb) in run.baseline.frames.iter().zip(&run.faulted.frames) {
            assert_eq!(fa.latency, fb.latency);
        }
    }

    #[test]
    fn batch_shares_one_baseline_across_plans() {
        let w = by_name("Todo").unwrap();
        let plans = [FaultPlan::storm(17), FaultPlan::storm(18)];
        let runs = chaos_batch(&w.app, &w.micro, Scenario::Usable, &plans, Jobs::new(4)).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(
            runs[0].baseline.total_mj(),
            runs[1].baseline.total_mj(),
            "both runs see the same shared baseline"
        );
        assert_eq!(runs[0].faulted.chaos.as_ref().unwrap().seed, 17);
        assert_eq!(runs[1].faulted.chaos.as_ref().unwrap().seed, 18);
        // And the batch matches one-at-a-time execution exactly.
        let solo = chaos_run(&w.app, &w.micro, Scenario::Usable, plans[1]).unwrap();
        assert_eq!(solo.faulted.total_mj(), runs[1].faulted.total_mj());
        assert_eq!(solo.faulted.switches, runs[1].faulted.switches);
    }
}
