//! The script-pipeline microbenchmark suite (`BENCH_script.json`).
//!
//! For each of the 12 workloads the suite runs the *full* interaction
//! trace and the *micro* trace through the engine's bytecode VM and
//! reports only deterministic counters — script compiles,
//! precompiled-table hits, handler-cache entries, callback dispatches,
//! charged ops and raw VM dispatches. No wall-clock number participates
//! in any assertion.
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
    /// (load-path misses of the precompiled table — zero is the ideal).
    pub fn total_compiles(&self) -> u64 {
        self.rows.iter().map(|r| r.full.compiles).sum()
    }

    /// Total handler-cache entries across full-trace runs.
    pub fn total_handlers(&self) -> u64 {
        self.rows.iter().map(|r| r.full.handlers).sum()
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
                                .field("callbacks", row.full.callbacks)
                                .field("ops", row.full.ops)
                                .field("dispatches", row.full.dispatches)
                                .field("micro_callbacks", row.micro.callbacks)
                                .field("micro_compiles", row.micro.compiles);
                        });
                    }
                })
                .obj("total", |t| {
                    t.field("compiles", self.total_compiles())
                        .field("handlers", self.total_handlers())
                        .field(
                            "compiles_event_independent",
                            self.compiles_event_independent(),
                        );
                });
        });
        out.push('\n');
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
        // Tick parity with the tree-walker rests on every compiled
        // instruction carrying 0 or 1 of its ticks.
        let mut instructions = 0;
        for w in greenweb_workloads::all() {
            for index in 0..w.app.scripts.len() {
                let compiled = w.app.compiled_script(index).expect("precompiled");
                for proto in compiled.protos.iter() {
                    instructions += proto.ticks.len();
                    assert!(
                        proto.ticks.iter().all(|&t| t <= 1),
                        "{}: tick weight above 1 in {:?}",
                        w.name,
                        proto.name
                    );
                }
            }
        }
        assert!(instructions > 0, "no workload script compiled");
    }

    #[test]
    fn suite_counters_are_deterministic() {
        let a = run_suite();
        let b = run_suite();
        for (ra, rb) in a.rows.iter().zip(&b.rows) {
            assert_eq!(ra.full, rb.full, "{}", ra.name);
            assert_eq!(ra.micro, rb.micro, "{}", ra.name);
        }
    }
}
