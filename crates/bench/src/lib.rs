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
//! * [`diff`] — tolerance-aware JSON comparison behind `evaluate diff`,
//!   the CI regression gate over `BENCH_evaluate.json`;
//! * [`stylebench`] — the style microbenchmark suite: naive full-scan vs
//!   bucketed + Bloom-filtered selector matching with per-phase
//!   breakdowns (`evaluate bench --suite style`);
//! * [`scriptbench`] — the script-pipeline suite: the bytecode VM's
//!   compile-once counters over every workload (`evaluate bench --suite
//!   script`);
//! * [`paintbench`] — the render-pipeline suite: incremental layout /
//!   retained-display-list counters vs the naive full-relayout oracle
//!   over every workload (`evaluate bench --suite paint`);
//! * [`render`] — fixed-width text rendering used by the `evaluate`
//!   binary.
//!
//! Run `cargo run --release -p greenweb-bench --bin evaluate -- all` to
//! print everything; `cargo bench` wraps the same generators in Criterion
//! benchmarks.

#![forbid(unsafe_code)]

pub mod ablation;
pub mod diff;
pub mod figures;
pub mod paintbench;
pub mod profile;
pub mod render;
pub mod scriptbench;
pub mod stylebench;
pub mod tables;

pub use figures::{
    fig11, fig12, run_app, run_apps, run_suite, run_suite_with, AppRuns, PolicyRun, ResidencyRow,
    SuiteKind, SwitchRow,
};
