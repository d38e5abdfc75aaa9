//! # greenweb-bench
//!
//! The evaluation harness: regenerates every table and figure of the
//! GreenWeb paper's evaluation (Sec. 7) from the simulated substrate.
//!
//! * [`figures`] — Fig. 9a/9b (microbenchmarks), Fig. 10a/10b/10c (full
//!   interactions), Fig. 11a/11b (configuration residency), Fig. 12
//!   (switching frequency);
//! * [`tables`] — Tables 1–3;
//! * [`ablation`] — design-choice ablations (feedback loop, UAI budget,
//!   baseline governors, big-only vs. ACMP);
//! * [`profile`] — traced runs: per-stage latency percentiles, a text
//!   flamegraph, Perfetto-loadable Chrome trace-event export, and the
//!   `BENCH_evaluate.json` report;
//! * [`stylebench`] — the style microbenchmark suite: naive full-scan vs
//!   bucketed + Bloom-filtered selector matching (`BENCH_style.json`);
//! * [`scriptbench`] — the script-pipeline suite: the bytecode VM's
//!   compile-once counters over every workload (`BENCH_script.json`);
//! * [`paintbench`] — the render-pipeline suite: incremental layout /
//!   retained-display-list counters vs the naive full-relayout oracle
//!   over every workload (`BENCH_paint.json`);
//! * [`render`] — fixed-width text rendering used by the `evaluate`
//!   binary.
//!
//! [`bench_reports`] renders the four committed `BENCH_*.json` files:
//! `evaluate bench` writes them, and `tests/reports.rs` checks them byte
//! for byte, as it checks [`metrics_report`] for every workload against
//! `tests/goldens/metrics`. Run `cargo run --release -p greenweb-bench
//! --bin evaluate -- all` to print every table and figure.

#![forbid(unsafe_code)]

pub mod ablation;
pub mod figures;
pub mod paintbench;
pub mod profile;
pub mod render;
pub mod scriptbench;
pub mod stylebench;
pub mod tables;

use greenweb::qos::Scenario;
use greenweb_workloads::harness::{expectations, run, Policy};
use greenweb_workloads::Workload;

pub use figures::{
    fig11, fig12, run_app, run_apps, run_suite, run_suite_with, AppRuns, PolicyRun, ResidencyRow,
    SuiteKind, SwitchRow,
};

/// Every committed report as `(file name, freshly rendered JSON)`, in
/// the order `evaluate bench` writes them. Each value is simulated or
/// counted, so a fresh render equals the committed file byte for byte.
pub fn bench_reports() -> Vec<(&'static str, String)> {
    vec![
        ("BENCH_evaluate.json", profile::micro_bench().render_json()),
        ("BENCH_style.json", stylebench::run_suite().render_json()),
        ("BENCH_script.json", scriptbench::run_suite().render_json()),
        ("BENCH_paint.json", paintbench::run_suite().render_json()),
    ]
}

/// What `evaluate metrics --workload W` prints: the workload's full
/// trace under GreenWeb-I, with the inferred effect summaries attached
/// so the engine's containment checks are live, as one deterministic
/// [`RunMetrics`](greenweb::metrics::RunMetrics) JSON line. The workload
/// parity test in `tests/properties.rs` builds the same run under the
/// paint-mode oracle pin.
pub fn metrics_report(workload: &Workload) -> String {
    let mut app = workload.app.clone();
    app.effect_summaries = greenweb_analyze::infer_effect_summaries(&app);
    let scenario = Scenario::Imperceptible;
    let report = run(&app, &workload.full, &Policy::GreenWeb(scenario)).expect("run");
    let expected = expectations(&app, &workload.full, scenario);
    let metrics = greenweb::metrics::RunMetrics::compute(&report, &expected);
    format!("{}\n", metrics.render_json())
}

/// The golden file name for a workload: lowercase, non-alphanumerics
/// mapped to `_` (`Paper.js` → `paper_js.json`).
pub fn golden_name(workload: &str) -> String {
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
