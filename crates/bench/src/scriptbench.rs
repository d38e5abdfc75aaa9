//! The script-pipeline microbenchmark suite (`evaluate bench --suite
//! script`).
//!
//! For each of the 12 workloads the suite runs the *full* interaction
//! trace and the *micro* trace through the engine's default bytecode-VM
//! backend, plus the full trace once more through the tree-walking
//! oracle, and reports only deterministic counters — script compiles,
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
//!   compiled at build time, so the load path performs zero AST walks;
//! * **the oracle agrees** — frames, inputs, energy, and the charged op
//!   count of the VM run equal the tree-walking interpreter's, per
//!   workload (the tick-parity contract, end to end).

use greenweb_engine::{RunSpec, ScriptBackend, ScriptStats, SimReport, Trace};
use greenweb_workloads::harness::Policy;
use std::fmt::Write as _;

/// One benchmarked workload: VM-path counters from both traces plus the
/// oracle comparison.
#[derive(Debug, Clone)]
pub struct ScriptBenchRow {
    /// Workload name.
    pub name: String,
    /// Script-pipeline counters of the full-trace VM run.
    pub full: ScriptStats,
    /// Script-pipeline counters of the micro-trace VM run.
    pub micro: ScriptStats,
    /// Whether the full-trace tree-walking oracle run produced the same
    /// frames, inputs, energy, and charged op count as the VM run.
    pub identical: bool,
}

/// The whole suite: per-workload rows plus aggregate accessors.
#[derive(Debug, Clone)]
pub struct ScriptBenchReport {
    /// One row per workload.
    pub rows: Vec<ScriptBenchRow>,
}

impl ScriptBenchReport {
    /// Whether every workload's VM run matched its oracle run.
    pub fn identical(&self) -> bool {
        self.rows.iter().all(|r| r.identical)
    }

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
        let mut out = String::from("{\"suite\":\"script\",\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"workload\":\"{}\",\"programs\":{},\"precompiled_hits\":{},\
                 \"compiles\":{},\"handlers\":{},\"handler_recompiles\":{},\
                 \"callbacks\":{},\"ops\":{},\"dispatches\":{},\"fold_wins\":{},\
                 \"micro_callbacks\":{},\"micro_compiles\":{}}}",
                row.name,
                row.full.programs,
                row.full.precompiled_hits,
                row.full.compiles,
                row.full.handlers,
                row.full.handler_recompiles,
                row.full.callbacks,
                row.full.ops,
                row.full.dispatches,
                row.full.fold_wins,
                row.micro.callbacks,
                row.micro.compiles,
            );
        }
        let _ = writeln!(
            out,
            "],\"total\":{{\"compiles\":{},\"handlers\":{},\"fold_wins\":{},\
             \"compiles_event_independent\":{}}},\"identical\":{}}}",
            self.total_compiles(),
            self.total_handlers(),
            self.total_fold_wins(),
            self.compiles_event_independent(),
            self.identical(),
        );
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
             compile count event-independent: {}, oracle {}",
            self.total_compiles(),
            self.total_handlers(),
            self.total_fold_wins(),
            self.compiles_event_independent(),
            if self.identical() {
                "identical"
            } else {
                "DIVERGED"
            },
        );
        out
    }
}

/// Runs one workload trace under Perf on an explicit script backend.
fn run_on(app: &greenweb_engine::App, trace: &Trace, backend: ScriptBackend) -> SimReport {
    RunSpec::new(app.clone(), trace.clone(), Box::new(Policy::Perf))
        .with_script_backend(backend)
        .execute()
        .expect("workload runs")
        .report
}

/// The oracle check: everything user-observable, plus the charged op
/// count the cost model consumed (backend-independent by tick parity).
fn reports_agree(vm: &SimReport, tree: &SimReport) -> bool {
    vm.frames == tree.frames
        && vm.inputs == tree.inputs
        && vm.total_mj() == tree.total_mj()
        && vm.busy_time == tree.busy_time
        && vm.script.ops == tree.script.ops
}

/// Runs the suite over all 12 workloads.
pub fn run_suite() -> ScriptBenchReport {
    let mut rows = Vec::new();
    for w in greenweb_workloads::all() {
        let full_vm = run_on(&w.app, &w.full, ScriptBackend::Auto);
        let micro_vm = run_on(&w.app, &w.micro, ScriptBackend::Auto);
        let full_tree = run_on(&w.app, &w.full, ScriptBackend::Tree);
        rows.push(ScriptBenchRow {
            name: w.name.to_string(),
            identical: reports_agree(&full_vm, &full_tree),
            full: full_vm.script,
            micro: micro_vm.script,
        });
    }
    ScriptBenchReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_counters_meet_the_acceptance_gate() {
        let report = run_suite();
        assert_eq!(report.rows.len(), 12, "all 12 workloads");
        assert!(report.identical(), "vm diverged from the oracle");
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
