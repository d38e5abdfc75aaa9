//! Data generation for every figure of the paper's evaluation.
//!
//! One [`run_apps`] call executes every workload under the four compared
//! policies (Perf, Interactive, GreenWeb-I, GreenWeb-U) on either the
//! microbenchmark or full-interaction traces; the per-figure accessors
//! slice that shared data, so `evaluate all` runs each simulation exactly
//! once.

use greenweb::metrics::RunMetrics;
use greenweb::qos::Scenario;
use greenweb_acmp::{CoreType, CpuConfig};
use greenweb_engine::{App, BrowserError, SimReport, Trace};
use greenweb_fleet::Jobs;
use greenweb_workloads::harness::{expectations, run_many, Policy};
use greenweb_workloads::Workload;

/// Which trace set a suite runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SuiteKind {
    /// Single-interaction microbenchmarks (Fig. 9).
    Micro,
    /// Full interaction sequences (Fig. 10–12).
    Full,
}

impl SuiteKind {
    fn trace(self, workload: &Workload) -> &Trace {
        match self {
            SuiteKind::Micro => &workload.micro,
            SuiteKind::Full => &workload.full,
        }
    }
}

/// One policy's run on one workload, judged under both scenarios.
#[derive(Debug, Clone)]
pub struct PolicyRun {
    /// The raw simulation report.
    pub report: SimReport,
    /// Metrics judged against the imperceptible targets.
    pub metrics_i: RunMetrics,
    /// Metrics judged against the usable targets.
    pub metrics_u: RunMetrics,
}

/// All four compared policies on one workload.
#[derive(Debug, Clone)]
pub struct AppRuns {
    /// Workload name.
    pub name: &'static str,
    /// The *Perf* baseline.
    pub perf: PolicyRun,
    /// Android's interactive governor.
    pub interactive: PolicyRun,
    /// GreenWeb under the imperceptible scenario.
    pub greenweb_i: PolicyRun,
    /// GreenWeb under the usable scenario.
    pub greenweb_u: PolicyRun,
}

impl AppRuns {
    /// Energy normalized to Perf for (interactive, greenweb-i,
    /// greenweb-u) — one Fig. 9a / Fig. 10a row.
    pub fn normalized_energy(&self) -> (f64, f64, f64) {
        let perf = self.perf.report.total_mj();
        (
            self.interactive.report.total_mj() / perf,
            self.greenweb_i.report.total_mj() / perf,
            self.greenweb_u.report.total_mj() / perf,
        )
    }

    /// Extra violations over Perf under the imperceptible scenario for
    /// (interactive, greenweb-i) — a Fig. 9b / Fig. 10b row.
    pub fn extra_violations_imperceptible(&self) -> (f64, f64) {
        (
            self.interactive
                .metrics_i
                .extra_violation_over(&self.perf.metrics_i),
            self.greenweb_i
                .metrics_i
                .extra_violation_over(&self.perf.metrics_i),
        )
    }

    /// Extra violations over Perf under the usable scenario for
    /// (interactive, greenweb-u) — a Fig. 9b / Fig. 10c row.
    pub fn extra_violations_usable(&self) -> (f64, f64) {
        (
            self.interactive
                .metrics_u
                .extra_violation_over(&self.perf.metrics_u),
            self.greenweb_u
                .metrics_u
                .extra_violation_over(&self.perf.metrics_u),
        )
    }
}

/// Judges one executed cell under both scenarios (panics on a failed
/// run, matching the suite's all-or-nothing contract).
fn judge(
    workload: &Workload,
    trace: &Trace,
    policy: &Policy,
    report: Result<SimReport, BrowserError>,
) -> PolicyRun {
    let report = report.unwrap_or_else(|e| panic!("{} under {policy}: {e}", workload.name));
    let exp_i = expectations(&workload.app, trace, Scenario::Imperceptible);
    let exp_u = expectations(&workload.app, trace, Scenario::Usable);
    PolicyRun {
        metrics_i: RunMetrics::compute(&report, &exp_i),
        metrics_u: RunMetrics::compute(&report, &exp_u),
        report,
    }
}

/// Runs `workloads` under the four compared policies on `jobs` workers:
/// the whole `workloads × policies` matrix is lowered into one batch, so
/// every cell is a free-running job. Judging happens on the calling
/// thread in cell order — the returned rows are byte-identical whatever
/// the worker count.
pub fn run_apps(workloads: &[Workload], kind: SuiteKind, jobs: Jobs) -> Vec<AppRuns> {
    let policies = Policy::paper_set();
    let cells: Vec<(&App, &Trace, &Policy)> = workloads
        .iter()
        .flat_map(|w| {
            let trace = kind.trace(w);
            policies.iter().map(move |p| (&w.app, trace, p))
        })
        .collect();
    let mut reports = run_many(&cells, jobs).into_iter();
    workloads
        .iter()
        .map(|w| {
            let trace = kind.trace(w);
            let mut next =
                |p: &Policy| judge(w, trace, p, reports.next().expect("one report per cell"));
            AppRuns {
                name: w.name,
                perf: next(&policies[0]),
                interactive: next(&policies[1]),
                greenweb_i: next(&policies[2]),
                greenweb_u: next(&policies[3]),
            }
        })
        .collect()
}

/// Geometric-free arithmetic mean helper.
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// One Fig. 11 row: the wall-clock fraction spent in each configuration.
#[derive(Debug, Clone)]
pub struct ResidencyRow {
    /// Workload name.
    pub app: &'static str,
    /// `(config, fraction of window)`, descending by core then
    /// frequency.
    pub shares: Vec<(CpuConfig, f64)>,
}

impl ResidencyRow {
    /// Fraction of the window on the big cluster.
    pub fn big_fraction(&self) -> f64 {
        self.shares
            .iter()
            .filter(|(c, _)| c.core == CoreType::Big)
            .map(|(_, f)| f)
            .sum()
    }
}

/// Fig. 11: architecture-configuration residency under one GreenWeb
/// scenario, from the full-interaction runs.
pub fn fig11(suite: &[AppRuns], scenario: Scenario) -> Vec<ResidencyRow> {
    suite
        .iter()
        .map(|app| {
            let report = match scenario {
                Scenario::Imperceptible => &app.greenweb_i.report,
                Scenario::Usable => &app.greenweb_u.report,
            };
            let total: f64 = report
                .residency
                .values()
                .map(|d| d.as_secs_f64())
                .sum::<f64>()
                .max(1e-9);
            let mut shares: Vec<(CpuConfig, f64)> = report
                .residency
                .iter()
                .map(|(c, d)| (*c, d.as_secs_f64() / total))
                .collect();
            shares.sort_by_key(|(c, _)| (c.core, c.freq_mhz));
            shares.reverse();
            ResidencyRow {
                app: app.name,
                shares,
            }
        })
        .collect()
}

/// One Fig. 12 row: configuration switches per frame, split by kind.
#[derive(Debug, Clone)]
pub struct SwitchRow {
    /// Workload name.
    pub app: &'static str,
    /// GreenWeb-I: (DVFS switches per frame, migrations per frame).
    pub imperceptible: (f64, f64),
    /// GreenWeb-U: (DVFS switches per frame, migrations per frame).
    pub usable: (f64, f64),
}

impl SwitchRow {
    fn per_frame(report: &SimReport) -> (f64, f64) {
        let frames = report.frames.len().max(1) as f64;
        (
            report.switches.0 as f64 / frames,
            report.switches.1 as f64 / frames,
        )
    }
}

/// Fig. 12: execution-configuration switching frequency.
pub fn fig12(suite: &[AppRuns]) -> Vec<SwitchRow> {
    suite
        .iter()
        .map(|app| SwitchRow {
            app: app.name,
            imperceptible: SwitchRow::per_frame(&app.greenweb_i.report),
            usable: SwitchRow::per_frame(&app.greenweb_u.report),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenweb_workloads::by_name;

    fn micro_runs(name: &str) -> Vec<AppRuns> {
        run_apps(
            &[by_name(name).unwrap()],
            SuiteKind::Micro,
            Jobs::from_env(),
        )
    }

    fn todo_runs() -> AppRuns {
        micro_runs("Todo").pop().unwrap()
    }

    #[test]
    fn normalized_energy_orders_policies() {
        let runs = todo_runs();
        let (inter, gwi, gwu) = runs.normalized_energy();
        assert!(inter <= 1.05, "interactive ≈ perf, got {inter}");
        assert!(gwi < inter, "greenweb-i must beat interactive");
        assert!(
            gwu <= gwi + 1e-9,
            "usable must not cost more than imperceptible"
        );
    }

    #[test]
    fn violations_are_finite_and_small_for_light_app() {
        let runs = todo_runs();
        let (_, gwi) = runs.extra_violations_imperceptible();
        let (_, gwu) = runs.extra_violations_usable();
        assert!(gwi < 5.0, "todo gwi violation {gwi}");
        assert!(gwu < 5.0, "todo gwu violation {gwu}");
    }

    #[test]
    fn fig11_shares_sum_to_one() {
        // MSN's micro taps carry a heavy (265M-cycle) callback, so the
        // imperceptible target still forces big-core residency even now
        // that incremental rendering keeps frame work small.
        let suite = micro_runs("MSN");
        for scenario in Scenario::ALL {
            let rows = fig11(&suite, scenario);
            let total: f64 = rows[0].shares.iter().map(|(_, f)| f).sum();
            assert!((total - 1.0).abs() < 1e-6, "{scenario}: shares sum {total}");
        }
        // Imperceptible biases bigger than usable (the Fig. 11a/11b
        // contrast).
        let i = fig11(&suite, Scenario::Imperceptible)[0].big_fraction();
        let u = fig11(&suite, Scenario::Usable)[0].big_fraction();
        assert!(i > u, "big residency I {i} vs U {u}");
    }

    #[test]
    fn fig12_switches_are_modest() {
        let suite = micro_runs("Goo.ne.jp");
        let rows = fig12(&suite);
        let (dvfs, mig) = rows[0].imperceptible;
        // "GreenWeb introduces only modest configuration switching (20%
        // on average)" — well under one switch per frame.
        assert!(dvfs + mig < 1.0, "switching {dvfs}+{mig} per frame");
    }

    #[test]
    fn mean_helper() {
        assert_eq!(mean([1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean([]), 0.0);
    }
}
