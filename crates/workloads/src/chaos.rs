//! Chaos harness: runs a workload under a seeded [`FaultPlan`] next to
//! its fault-free twin and packages both reports.
//!
//! The two runs are built identically (same app, trace, and a stock
//! [`greenweb::GreenWebScheduler`] for one scenario), so any difference
//! between them is attributable to the injected faults alone, and a
//! fixed seed makes the whole comparison reproducible byte for byte. The
//! faulted report's `chaos` field ([`greenweb_engine::ChaosReport`])
//! logs every fault that fired.
//!
//! Like the rest of the harness, everything lowers to
//! [`greenweb_engine::RunSpec`]s: a chaos comparison is one fault-free
//! job plus one job per fault plan, and [`chaos_batch`] shares the
//! single baseline run across every plan in the batch.

use crate::harness::{lower, Policy};
use greenweb::metrics::violation_rate_in_window_or_zero;
use greenweb::qos::Scenario;
use greenweb_acmp::SimTime;
use greenweb_engine::{App, BrowserError, FaultPlan, RunSpec, SimReport, Trace};
use greenweb_fleet::{run_specs, Jobs};
use greenweb_trace::TraceBuffer;

/// A faulted run paired with its fault-free twin.
#[derive(Debug, Clone)]
pub struct ChaosRun {
    /// The plan the faulted run executed.
    pub plan: FaultPlan,
    /// The fault-free run.
    pub baseline: SimReport,
    /// The faulted run (its `chaos` field holds the fault log).
    pub faulted: SimReport,
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
}

/// Lowers one chaos leg (fault-free when `plan` is `None`) to a spec for
/// the stock GreenWeb runtime under `scenario`.
fn chaos_spec(app: &App, trace: &Trace, scenario: Scenario, plan: Option<FaultPlan>) -> RunSpec {
    let spec = lower(app, trace, &Policy::GreenWeb(scenario));
    match plan {
        Some(plan) => spec.with_faults(plan),
        None => spec,
    }
}

/// Runs `trace` on `app` twice — fault-free, then under `plan` — with a
/// stock [`greenweb::GreenWebScheduler`] for `scenario`.
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
    let mut runs = chaos_batch(app, trace, scenario, &[plan], Jobs::serial())?;
    Ok(runs.pop().expect("one plan in, one chaos run out"))
}

/// Runs one fault-free baseline plus one faulted run per plan in
/// `plans`, with a stock [`greenweb::GreenWebScheduler`] for `scenario`, on `jobs`
/// workers: `1 + plans.len()` jobs in one batch, paired up in plan
/// order. The single baseline is shared by every returned [`ChaosRun`]
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
    let mut specs = Vec::with_capacity(1 + plans.len());
    specs.push(chaos_spec(app, trace, scenario, None));
    for plan in plans {
        specs.push(chaos_spec(app, trace, scenario, Some(*plan)));
    }
    let mut outcomes = run_specs(specs, jobs).into_iter();
    let baseline = outcomes.next().expect("baseline job ran")?.report;
    plans
        .iter()
        .zip(outcomes)
        .map(|(plan, outcome)| {
            Ok(ChaosRun {
                plan: *plan,
                baseline: baseline.clone(),
                faulted: outcome?.report,
            })
        })
        .collect()
}

/// Like [`chaos_run`], but with a trace recorder attached to the
/// *faulted* run, so the injected faults, the resulting latency spikes
/// and the scheduler's decisions are all visible on one exportable
/// timeline.
///
/// # Errors
///
/// Returns [`BrowserError`] if either run fails to load or execute.
pub fn chaos_run_traced(
    app: &App,
    trace: &Trace,
    scenario: Scenario,
    plan: FaultPlan,
) -> Result<(ChaosRun, TraceBuffer), BrowserError> {
    let specs = vec![
        chaos_spec(app, trace, scenario, None),
        chaos_spec(app, trace, scenario, Some(plan)).with_recording(),
    ];
    let mut outcomes = run_specs(specs, Jobs::serial()).into_iter();
    let baseline = outcomes.next().expect("baseline job ran")?.report;
    let faulted = outcomes.next().expect("faulted job ran")?;
    Ok((
        ChaosRun {
            plan,
            baseline,
            faulted: faulted.report,
        },
        faulted.trace.expect("recording was requested"),
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
        assert!(chaos.total() > 0, "a storm must inject something");
    }

    #[test]
    fn empty_plan_matches_baseline_energy() {
        // An empty plan still attaches an injector; it must not perturb
        // the simulation, so energy and every frame's latency match the
        // fault-free run bit for bit.
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
