//! The script-pipeline microbenchmark suite (`evaluate bench --suite
//! script`).
//!
//! For each of the 12 workloads the suite runs the *full* interaction
//! trace and the *micro* trace through the engine's bytecode VM and
//! reports only deterministic counters — script compiles,
//! precompiled-table hits, handler-cache entries, callback dispatches,
//! charged ops, raw VM dispatches, and folded-constant wins. No
//! wall-clock number participates in any assertion.
//!
//! The suite's acceptance gate encodes the compile-once contract:
//!
//! * **compile work is bounded by code, not events** — every AST
//!   compile the VM path performs is counted, and the count must be
//!   identical between the micro and full traces (which differ only in
//!   event volume) and never exceed the handler count;
//! * **the precompiled table engages** — every setup script is served
//!   from the bytecode the [`App`](greenweb_engine::App) builder
//!   compiled at build time, so the load path performs zero AST walks.
//!
//! The VM's agreement with the tree-walking reference interpreter is a
//! language-level property, checked in `greenweb-script`'s differential
//! suite.

use greenweb_engine::{RunSpec, ScriptStats, Trace};
use greenweb_trace::json;
use greenweb_workloads::harness::Policy;
use std::fmt::Write as _;

/// One benchmarked workload: VM counters from both traces.
#[derive(Debug, Clone)]
pub struct ScriptBenchRow {
    /// Workload name.
    pub name: String,
    /// Script-pipeline counters of the full-trace VM run.
    pub full: ScriptStats,
    /// Script-pipeline counters of the micro-trace VM run.
    pub micro: ScriptStats,
}

/// The whole suite: per-workload rows plus aggregate accessors.
#[derive(Debug, Clone)]
pub struct ScriptBenchReport {
    /// One row per workload.
    pub rows: Vec<ScriptBenchRow>,
}

impl ScriptBenchReport {
    /// Total AST compiles the VM path performed across full-trace runs
    /// (load-path misses of the precompiled table plus handler-cache
    /// recompiles — zero is the ideal).
    pub fn total_compiles(&self) -> u64 {
        self.rows.iter().map(|r| r.full.compiles).sum()
    }

    /// Total handler-cache entries across full-trace runs.
    pub fn total_handlers(&self) -> u64 {
        self.rows.iter().map(|r| r.full.handlers).sum()
    }

    /// Total folded-constant wins across full-trace runs.
    pub fn total_fold_wins(&self) -> u64 {
        self.rows.iter().map(|r| r.full.fold_wins).sum()
    }

    /// Whether every row's compile count is identical between the micro
    /// and full traces — compile work depends on the app's code alone,
    /// never on how many events the trace delivers.
    pub fn compiles_event_independent(&self) -> bool {
        self.rows
            .iter()
            .all(|r| r.full.compiles == r.micro.compiles)
    }

    /// Renders the deterministic-counter JSON (everything here is a
    /// counter; there is nothing non-deterministic to exclude).
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        json::object(&mut out, |o| {
            o.field("suite", "script")
                .arr("rows", |a| {
                    for row in &self.rows {
                        a.obj(|r| {
                            r.field("workload", &row.name)
                                .field("programs", row.full.programs)
                                .field("precompiled_hits", row.full.precompiled_hits)
                                .field("compiles", row.full.compiles)
                                .field("handlers", row.full.handlers)
                                .field("handler_recompiles", row.full.handler_recompiles)
                                .field("callbacks", row.full.callbacks)
                                .field("ops", row.full.ops)
                                .field("dispatches", row.full.dispatches)
                                .field("fold_wins", row.full.fold_wins)
                                .field("micro_callbacks", row.micro.callbacks)
                                .field("micro_compiles", row.micro.compiles);
                        });
                    }
                })
                .obj("total", |t| {
                    t.field("compiles", self.total_compiles())
                        .field("handlers", self.total_handlers())
                        .field("fold_wins", self.total_fold_wins())
                        .field(
                            "compiles_event_independent",
                            self.compiles_event_independent(),
                        );
                });
        });
        out.push('\n');
        out
    }

    /// Fixed-width text table for the terminal.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "script microbenchmark: one compiled artifact per handler \
             (all counters deterministic)"
        );
        let _ = writeln!(
            out,
            "{:<11} {:>5} {:>7} {:>8} {:>8} {:>9} {:>10} {:>10} {:>9}",
            "workload",
            "progs",
            "precomp",
            "compiles",
            "handlers",
            "callbacks",
            "ops",
            "dispatches",
            "foldwins"
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{:<11} {:>5} {:>7} {:>8} {:>8} {:>9} {:>10} {:>10} {:>9}",
                row.name,
                row.full.programs,
                row.full.precompiled_hits,
                row.full.compiles,
                row.full.handlers,
                row.full.callbacks,
                row.full.ops,
                row.full.dispatches,
                row.full.fold_wins,
            );
        }
        let _ = writeln!(
            out,
            "total: {} AST compiles for {} handlers ({} constant folds), \
             compile count event-independent: {}",
            self.total_compiles(),
            self.total_handlers(),
            self.total_fold_wins(),
            self.compiles_event_independent(),
        );
        out
    }
}

/// Runs one workload trace under Perf and returns its script counters.
fn script_stats(app: &greenweb_engine::App, trace: &Trace) -> ScriptStats {
    RunSpec::new(app.clone(), trace.clone(), Box::new(Policy::Perf))
        .execute()
        .expect("workload runs")
        .report
        .script
}

/// Runs the suite over all 12 workloads.
pub fn run_suite() -> ScriptBenchReport {
    let rows = greenweb_workloads::all()
        .into_iter()
        .map(|w| ScriptBenchRow {
            name: w.name.to_string(),
            full: script_stats(&w.app, &w.full),
            micro: script_stats(&w.app, &w.micro),
        })
        .collect();
    ScriptBenchReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_counters_meet_the_acceptance_gate() {
        let report = run_suite();
        assert_eq!(report.rows.len(), 12, "all 12 workloads");
        assert!(
            report.total_compiles() <= report.total_handlers(),
            "compile count {} exceeds handler count {}",
            report.total_compiles(),
            report.total_handlers(),
        );
        assert!(
            report.compiles_event_independent(),
            "compile work scaled with event count"
        );
        for row in &report.rows {
            // Every setup script was served from the app's precompiled
            // bytecode table; the load path walked zero ASTs.
            assert_eq!(
                row.full.precompiled_hits, row.full.programs,
                "{}: load path missed the precompiled table: {:?}",
                row.name, row.full
            );
            assert!(
                row.full.dispatches > 0,
                "{}: vm never dispatched: {:?}",
                row.name,
                row.full
            );
        }
        // "Event-independent" is only a meaningful claim if the two
        // traces actually differ in callback volume somewhere.
        assert!(
            report
                .rows
                .iter()
                .any(|r| r.full.callbacks > r.micro.callbacks),
            "no workload's full trace out-delivered its micro trace"
        );
        // No fold-win floor here: the bundled workload scripts compute
        // from runtime values (event coordinates, loop counters), so
        // they legitimately contain no literal subtrees to collapse.
        // The folding pass's win/parity assertions live in the script
        // crate's unit tests, on sources built to exercise it.
    }

    #[test]
    fn suite_counters_are_deterministic() {
        let a = run_suite();
        let b = run_suite();
        for (ra, rb) in a.rows.iter().zip(&b.rows) {
            assert_eq!(ra.full, rb.full, "{}", ra.name);
            assert_eq!(ra.micro, rb.micro, "{}", ra.name);
        }
        assert_eq!(
            a.render_json(),
            include_str!("../../../BENCH_script.json"),
            "BENCH_script.json is stale: regenerate with `evaluate bench --suite script`"
        );
    }

    #[test]
    fn json_contains_totals_and_every_row() {
        let report = run_suite();
        let json = report.render_json();
        assert!(json.contains("\"suite\":\"script\""));
        assert!(json.contains("\"compiles_event_independent\""));
        assert!(json.contains("\"Paper.js\""));
        assert!(json.ends_with("}\n"));
    }
}
