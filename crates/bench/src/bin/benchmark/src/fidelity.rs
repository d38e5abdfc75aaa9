//! Paper fidelity: how far the simulated figure means sit from the
//! values the paper reports. Simulated and deterministic — these numbers
//! repeat exactly, and a host-only change must leave them unchanged.

use greenweb_bench::figures::mean;
use greenweb_bench::{run_apps, AppRuns, SuiteKind};
use greenweb_fleet::Jobs;
use greenweb_workloads::Workload;

/// Mean absolute gaps to the paper, in percentage points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fidelity {
    /// Mean |GreenWeb-I/-U energy saving vs Interactive − paper|.
    pub energy_err_pp: f64,
    /// Mean |GreenWeb-I/-U extra violation over Perf − paper|.
    pub violation_err_pp: f64,
}

/// The paper's means for one suite: (GreenWeb-I saving, GreenWeb-U
/// saving) vs Interactive and (imperceptible, usable) extra violation
/// over Perf, all in percent.
fn paper(kind: SuiteKind) -> ((f64, f64), (f64, f64)) {
    match kind {
        // Fig. 9a / Fig. 9b.
        SuiteKind::Micro => ((31.9, 78.0), (1.3, 1.2)),
        // Fig. 10a / Fig. 10b and 10c.
        SuiteKind::Full => ((29.2, 66.0), (0.8, 0.6)),
    }
}

/// Fidelity of the figure regenerated from `runs`, with the same math as
/// `render::energy_figure` and `render::violation_figure`.
pub fn of_runs(runs: &[AppRuns], kind: SuiteKind) -> Fidelity {
    let mean_inter = mean(runs.iter().map(|a| a.normalized_energy().0));
    let mean_gwi = mean(runs.iter().map(|a| a.normalized_energy().1));
    let mean_gwu = mean(runs.iter().map(|a| a.normalized_energy().2));
    let saving_i = (1.0 - mean_gwi / mean_inter) * 100.0;
    let saving_u = (1.0 - mean_gwu / mean_inter) * 100.0;
    let violation_i = mean(runs.iter().map(|a| a.extra_violations_imperceptible().1));
    let violation_u = mean(runs.iter().map(|a| a.extra_violations_usable().1));
    let ((paper_saving_i, paper_saving_u), (paper_violation_i, paper_violation_u)) = paper(kind);
    Fidelity {
        energy_err_pp: ((saving_i - paper_saving_i).abs() + (saving_u - paper_saving_u).abs())
            / 2.0,
        violation_err_pp: ((violation_i - paper_violation_i).abs()
            + (violation_u - paper_violation_u).abs())
            / 2.0,
    }
}

/// Regenerates the figure of `kind` over `workloads` (serially, so the
/// numbers do not depend on the worker count) and measures its fidelity.
pub fn of_suite(workloads: &[Workload], kind: SuiteKind) -> Fidelity {
    of_runs(&run_apps(workloads, kind, Jobs::serial()), kind)
}

/// The mean of two fidelities, for workloads judged against both figures.
pub fn mean_of(a: Fidelity, b: Fidelity) -> Fidelity {
    Fidelity {
        energy_err_pp: (a.energy_err_pp + b.energy_err_pp) / 2.0,
        violation_err_pp: (a.violation_err_pp + b.violation_err_pp) / 2.0,
    }
}
