//! The paint/layout microbenchmark suite (`evaluate bench --suite
//! paint`).
//!
//! For each of the 12 workloads the suite runs the *micro* interaction
//! trace twice — once with the incremental render pipeline disabled
//! (the naive full-relayout oracle, `RunSpec::with_paint_incremental(false)`) and once
//! enabled — and reports only deterministic counters: elements laid
//! out, subtree reuses, dirty elements, damage items, and the
//! full/partial repaint split. No wall-clock number participates in
//! any assertion.
//!
//! The suite's acceptance gate encodes the incremental-rendering
//! contract (DESIGN.md §6k):
//!
//! * **the oracle agrees** — frames, inputs, energy, and busy time of
//!   the incremental run equal the naive run's, per workload. Pricing
//!   inputs are computed identically in both modes; the flag only
//!   gates the cache-reuse machinery;
//! * **the caches engage** — across the suite the incremental path
//!   measures ≥ 3× fewer elements than the oracle, reuses at least one
//!   clean subtree, and performs at least one partial repaint;
//! * **the dirty/damage accounting is mode-independent** — both runs
//!   report identical `dirty_elements` and `damage_items`, the numbers
//!   the cost model prices.

use greenweb_engine::{LayoutStats, PaintStats, RunSpec, SimReport, Trace};
use greenweb_trace::json::{self, Fixed};
use greenweb_workloads::harness::Policy;
use std::fmt::Write as _;

/// One benchmarked workload: render counters from both modes plus the
/// oracle comparison.
#[derive(Debug, Clone)]
pub struct PaintBenchRow {
    /// Workload name.
    pub name: String,
    /// Elements in the workload's document at load.
    pub elements: usize,
    /// Layout counters of the naive (full-relayout) run.
    pub naive_layout: LayoutStats,
    /// Paint counters of the naive run.
    pub naive_paint: PaintStats,
    /// Layout counters of the incremental run.
    pub layout: LayoutStats,
    /// Paint counters of the incremental run.
    pub paint: PaintStats,
    /// Whether the two runs produced the same frames, inputs, energy,
    /// and busy time (the mode-independence contract).
    pub identical: bool,
}

/// The whole suite: per-workload rows plus aggregate accessors.
#[derive(Debug, Clone)]
pub struct PaintBenchReport {
    /// One row per workload.
    pub rows: Vec<PaintBenchRow>,
}

impl PaintBenchReport {
    /// Whether every workload's incremental run matched its oracle run.
    pub fn identical(&self) -> bool {
        self.rows.iter().all(|r| r.identical)
    }

    /// Whether every row's priced counters (`dirty_elements`,
    /// `damage_items`) are identical between the two modes.
    pub fn pricing_mode_independent(&self) -> bool {
        self.rows.iter().all(|r| {
            r.naive_layout.dirty_elements == r.layout.dirty_elements
                && r.naive_paint.damage_items == r.paint.damage_items
        })
    }

    /// Total elements the naive oracle measured across the suite.
    pub fn total_naive_laid_out(&self) -> u64 {
        self.rows
            .iter()
            .map(|r| r.naive_layout.elements_laid_out)
            .sum()
    }

    /// Total elements the incremental path measured across the suite.
    pub fn total_laid_out(&self) -> u64 {
        self.rows.iter().map(|r| r.layout.elements_laid_out).sum()
    }

    /// naive / incremental laid-out-element ratio — the suite's
    /// headline number.
    pub fn layout_ratio(&self) -> f64 {
        self.total_naive_laid_out() as f64 / (self.total_laid_out().max(1)) as f64
    }

    /// Total clean subtrees the incremental path served from cache.
    pub fn total_subtree_reuses(&self) -> u64 {
        self.rows.iter().map(|r| r.layout.subtree_reuses).sum()
    }

    /// Total partial repaints across the suite (incremental run; the
    /// full/partial split is mode-independent).
    pub fn total_partial_repaints(&self) -> u64 {
        self.rows.iter().map(|r| r.paint.partial_repaints).sum()
    }

    /// Renders the deterministic-counter JSON (everything here is a
    /// counter; there is nothing non-deterministic to exclude).
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        json::object(&mut out, |o| {
            o.field("suite", "paint")
                .arr("rows", |a| {
                    for row in &self.rows {
                        a.obj(|r| {
                            r.field("workload", &row.name)
                                .field("elements", row.elements)
                                .field("frames", row.layout.relayouts)
                                .field("naive_laid_out", row.naive_layout.elements_laid_out)
                                .field("laid_out", row.layout.elements_laid_out)
                                .field("subtree_reuses", row.layout.subtree_reuses)
                                .field("dirty_elements", row.layout.dirty_elements)
                                .field("damage_items", row.paint.damage_items)
                                .field("damage_area", row.paint.damage_area)
                                .field("items_reused", row.paint.items_reused)
                                .field("full_repaints", row.paint.full_repaints)
                                .field("partial_repaints", row.paint.partial_repaints);
                        });
                    }
                })
                .obj("total", |t| {
                    t.field("naive_laid_out", self.total_naive_laid_out())
                        .field("laid_out", self.total_laid_out())
                        .field("layout_ratio", Fixed(self.layout_ratio(), 2))
                        .field("subtree_reuses", self.total_subtree_reuses())
                        .field("partial_repaints", self.total_partial_repaints())
                        .field("pricing_mode_independent", self.pricing_mode_independent());
                })
                .field("identical", self.identical());
        });
        out.push('\n');
        out
    }

    /// Fixed-width text table for the terminal.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "paint microbenchmark: naive full relayout vs incremental \
             (all counters deterministic)"
        );
        let _ = writeln!(
            out,
            "{:<11} {:>5} {:>6} {:>9} {:>8} {:>7} {:>6} {:>7} {:>5} {:>8}",
            "workload",
            "elems",
            "frames",
            "naive-lay",
            "incr-lay",
            "reuses",
            "dirty",
            "damage",
            "full",
            "partial"
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{:<11} {:>5} {:>6} {:>9} {:>8} {:>7} {:>6} {:>7} {:>5} {:>8}",
                row.name,
                row.elements,
                row.layout.relayouts,
                row.naive_layout.elements_laid_out,
                row.layout.elements_laid_out,
                row.layout.subtree_reuses,
                row.layout.dirty_elements,
                row.paint.damage_items,
                row.paint.full_repaints,
                row.paint.partial_repaints,
            );
        }
        let _ = writeln!(
            out,
            "total: naive {} vs incremental {} elements laid out \
             ({:.1}x fewer), {} subtree reuses, {} partial repaints, \
             results {}",
            self.total_naive_laid_out(),
            self.total_laid_out(),
            self.layout_ratio(),
            self.total_subtree_reuses(),
            self.total_partial_repaints(),
            if self.identical() {
                "identical"
            } else {
                "DIVERGED"
            },
        );
        out
    }
}

/// Runs one workload trace under Perf with an explicit rendering mode.
fn run_on(app: &greenweb_engine::App, trace: &Trace, incremental: bool) -> SimReport {
    RunSpec::new(app.clone(), trace.clone(), Box::new(Policy::Perf))
        .with_paint_incremental(incremental)
        .execute()
        .expect("workload runs")
        .report
}

/// The oracle check: everything user-observable must be byte-identical
/// between the two rendering modes (machinery-independent pricing).
fn reports_agree(incr: &SimReport, naive: &SimReport) -> bool {
    incr.frames == naive.frames
        && incr.inputs == naive.inputs
        && incr.total_mj() == naive.total_mj()
        && incr.busy_time == naive.busy_time
}

/// Runs the suite over all 12 workloads' micro traces.
pub fn run_suite() -> PaintBenchReport {
    let mut rows = Vec::new();
    for w in greenweb_workloads::all() {
        let naive = run_on(&w.app, &w.micro, false);
        let incr = run_on(&w.app, &w.micro, true);
        let doc = greenweb_dom::parse_html(&w.app.html).expect("workload html parses");
        let elements = doc
            .descendants(doc.root())
            .filter(|&n| doc.element(n).is_some())
            .count();
        rows.push(PaintBenchRow {
            name: w.name.to_string(),
            elements,
            identical: reports_agree(&incr, &naive),
            naive_layout: naive.layout,
            naive_paint: naive.paint,
            layout: incr.layout,
            paint: incr.paint,
        });
    }
    PaintBenchReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_counters_meet_the_acceptance_gate() {
        let report = run_suite();
        assert_eq!(report.rows.len(), 12, "all 12 workloads");
        assert!(report.identical(), "incremental diverged from the oracle");
        assert!(
            report.pricing_mode_independent(),
            "dirty/damage counters differed between modes"
        );
        assert!(
            report.layout_ratio() >= 3.0,
            "incremental layout must measure >= 3x fewer elements, got {:.2}x \
             ({} naive vs {} incremental)",
            report.layout_ratio(),
            report.total_naive_laid_out(),
            report.total_laid_out(),
        );
        assert!(report.total_subtree_reuses() > 0, "no subtree reuses");
        assert!(report.total_partial_repaints() > 0, "no partial repaints");
        for row in &report.rows {
            // The oracle never reuses: its stats must show full-document
            // measurement every frame.
            assert_eq!(
                row.naive_layout.subtree_reuses, 0,
                "{}: oracle reused a subtree: {:?}",
                row.name, row.naive_layout
            );
            assert!(row.layout.relayouts > 0, "{}: no frames rendered", row.name);
        }
    }

    #[test]
    fn suite_counters_are_deterministic() {
        let a = run_suite();
        let b = run_suite();
        for (ra, rb) in a.rows.iter().zip(&b.rows) {
            assert_eq!(ra.layout, rb.layout, "{}", ra.name);
            assert_eq!(ra.paint, rb.paint, "{}", ra.name);
            assert_eq!(ra.naive_layout, rb.naive_layout, "{}", ra.name);
        }
        assert_eq!(
            a.render_json(),
            include_str!("../../../BENCH_paint.json"),
            "BENCH_paint.json is stale: regenerate with `evaluate bench --suite paint`"
        );
    }

    #[test]
    fn json_contains_totals_and_every_row() {
        let report = run_suite();
        let json = report.render_json();
        assert!(json.contains("\"suite\":\"paint\""));
        assert!(json.contains("\"layout_ratio\""));
        assert!(json.contains("\"Paper.js\""));
        assert!(json.ends_with("}\n"));
    }
}
