//! Traced profiling runs: per-stage percentile tables, a text
//! flamegraph summary, and Chrome trace-event export.
//!
//! This is the reporting layer over [`greenweb_trace`]: it runs one
//! workload with a recorder attached ([`run_traced`]), distills the
//! event buffer in one walk into per-stage span histograms, the
//! frame-commit latency histogram and per-kind record counts, and
//! renders the tables the `evaluate` binary prints. The exported JSON
//! loads directly into Perfetto / `chrome://tracing`.

use greenweb::metrics::RunMetrics;
use greenweb::qos::Scenario;
use greenweb_engine::BrowserError;
use greenweb_trace::json::{self, Fixed, Obj};
use greenweb_trace::{
    chrome_trace_json, EventKind, Histogram, LatencySummary, SpanKind, TraceBuffer,
};
use greenweb_workloads::harness::{expectations, run_traced, Policy};
use greenweb_workloads::Workload;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One traced run of a workload, ready for rendering or export.
#[derive(Debug, Clone)]
pub struct Profile {
    /// The workload that ran.
    pub workload: &'static str,
    /// Display name of the policy that ran it.
    pub policy: String,
    /// The scenario violations were judged under.
    pub scenario: Scenario,
    /// The run's aggregate metrics (energy, violations, percentiles).
    pub metrics: RunMetrics,
    /// The recorded event trace.
    pub buffer: TraceBuffer,
}

/// Runs `workload`'s full interaction trace under `policy` with a
/// recorder attached and judges it under `scenario`.
///
/// # Errors
///
/// Returns [`BrowserError`] if the app fails to load or a callback
/// errors.
pub fn profile(
    workload: &Workload,
    policy: &Policy,
    scenario: Scenario,
) -> Result<Profile, BrowserError> {
    let (report, buffer) = run_traced(&workload.app, &workload.full, policy)?;
    let expected = expectations(&workload.app, &workload.full, scenario);
    Ok(Profile {
        workload: workload.name,
        policy: policy.to_string(),
        scenario,
        metrics: RunMetrics::compute(&report, &expected),
        buffer,
    })
}

/// What the stage report reads of a trace, filled in one walk of its
/// events.
struct StageTable {
    /// Span durations per stage, indexed like [`SpanKind::ALL`] (its
    /// declaration order).
    stages: [Histogram; 6],
    /// Frame-commit latencies.
    frame: Histogram,
    /// Record counts by [`EventKind::name`], name-ordered.
    counts: BTreeMap<&'static str, u64>,
}

impl StageTable {
    fn from_trace(buffer: &TraceBuffer) -> Self {
        let mut table = StageTable {
            stages: Default::default(),
            frame: Histogram::new(),
            counts: BTreeMap::new(),
        };
        for record in &buffer.events {
            *table.counts.entry(record.kind.name()).or_insert(0) += 1;
            match &record.kind {
                EventKind::Span { kind, dur, .. } => {
                    table.stages[*kind as usize].record(dur.as_millis_f64());
                }
                EventKind::FrameCommit { latency, .. } => {
                    table.frame.record(latency.as_millis_f64());
                }
                _ => {}
            }
        }
        table
    }

    fn stage(&self, kind: SpanKind) -> &Histogram {
        &self.stages[kind as usize]
    }
}

fn percentile_row(out: &mut String, label: &str, s: LatencySummary) {
    let _ = writeln!(
        out,
        "{label:<12} {:>7} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
        s.count, s.p50_ms, s.p95_ms, s.p99_ms, s.max_ms
    );
}

/// The per-stage and frame-latency percentile table of a profile,
/// followed by its event counts.
fn percentile_table(profile: &Profile, table: &StageTable) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "latency percentiles: {} under {} ({})",
        profile.workload, profile.policy, profile.scenario
    );
    let _ = writeln!(
        out,
        "{:<12} {:>7} {:>9} {:>9} {:>9} {:>9}",
        "stage", "n", "p50 ms", "p95 ms", "p99 ms", "max ms"
    );
    for kind in SpanKind::ALL {
        percentile_row(&mut out, kind.name(), table.stage(kind).summary());
    }
    percentile_row(&mut out, "frame", table.frame.summary());
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "energy {:.1} mJ | mean violation {:.1}% over {} judged inputs \
         ({} expected but unjudged) | {} frames",
        profile.metrics.energy_mj,
        profile.metrics.violation_pct,
        profile.metrics.judged_inputs,
        profile.metrics.unjudged_expected,
        profile.metrics.frames,
    );
    let counts: Vec<String> = table
        .counts
        .iter()
        .map(|(kind, n)| format!("{kind} {n}"))
        .collect();
    let _ = writeln!(out, "events: {}", counts.join(", "));
    out
}

/// A compact flamegraph-style summary: main-thread self time per
/// pipeline stage with share bars and percentiles. The engine
/// serializes all stages on one thread, so self time equals span time.
fn flame_summary(table: &StageTable, dropped: u64) -> String {
    let stage_ms = SpanKind::ALL.map(|kind| table.stage(kind).sum());
    let total_ms: f64 = stage_ms.iter().sum();
    let max_ms = stage_ms.iter().copied().fold(0.0, f64::max);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "flame: pipeline time by stage (total {total_ms:.1} ms)"
    );
    for (kind, ms) in SpanKind::ALL.into_iter().zip(stage_ms) {
        let summary = table.stage(kind).summary();
        let share = if total_ms > 0.0 {
            100.0 * ms / total_ms
        } else {
            0.0
        };
        let width = if max_ms > 0.0 {
            ((ms / max_ms) * 24.0).round() as usize
        } else {
            0
        };
        let _ = writeln!(
            out,
            "  {:<9} {:<24} {:5.1}% {:9.1} ms  n={:<5} p50 {:6.2}  p95 {:6.2}  p99 {:6.2} ms",
            kind.name(),
            "#".repeat(width),
            share,
            ms,
            summary.count,
            summary.p50_ms,
            summary.p95_ms,
            summary.p99_ms,
        );
    }
    if dropped > 0 {
        let _ = writeln!(
            out,
            "  (ring dropped {dropped} oldest events; totals undercount)"
        );
    }
    out
}

/// Full text report of a profile: percentile table plus flamegraph
/// summary, both read from one walk of the trace.
pub fn render(profile: &Profile) -> String {
    let table = StageTable::from_trace(&profile.buffer);
    format!(
        "{}\n{}",
        percentile_table(profile, &table),
        flame_summary(&table, profile.buffer.dropped)
    )
}

/// Serializes a profile's event buffer as Chrome trace-event JSON,
/// named after the workload/policy pair.
pub fn export_json(profile: &Profile) -> String {
    chrome_trace_json(
        &profile.buffer,
        &format!("{} [{}]", profile.workload, profile.policy),
    )
}

/// Per-phase pipeline totals of a traced run, in simulated
/// milliseconds: style, layout, paint and script (the callback stage).
/// Span durations are simulated time, so the totals are deterministic.
pub fn phase_totals_ms(profile: &Profile) -> [f64; 4] {
    let table = StageTable::from_trace(&profile.buffer);
    [
        SpanKind::Style,
        SpanKind::Layout,
        SpanKind::Paint,
        SpanKind::Callback,
    ]
    .map(|kind| table.stage(kind).sum())
}

/// The `BENCH_evaluate.json` report: each workload's
/// [`phase_totals_ms`] under GreenWeb-I and their aggregate. Every value
/// is simulated, never host wall-clock, so the committed file is checked
/// byte for byte.
#[derive(Debug, Clone)]
pub struct MicroBench {
    /// `(workload, phase totals)` in workload order, simulated ms.
    pub phases_sim_ms: Vec<(&'static str, [f64; 4])>,
}

/// Builds the [`MicroBench`] report from one traced GreenWeb-I run of
/// each workload's full trace. Every workload gets its own breakdown
/// plus a labeled aggregate, so a per-app regression cannot hide behind
/// a suite-wide number.
pub fn micro_bench() -> MicroBench {
    let scenario = Scenario::Imperceptible;
    let phases_sim_ms = greenweb_workloads::all()
        .iter()
        .map(|w| {
            let profiled = profile(w, &Policy::GreenWeb(scenario), scenario).expect("traced run");
            (w.name, phase_totals_ms(&profiled))
        })
        .collect();
    MicroBench { phases_sim_ms }
}

impl MicroBench {
    /// Renders the report as the committed `BENCH_evaluate.json`.
    pub fn render_json(&self) -> String {
        let phase_entry = |o: &mut Obj<'_>, label: &str, phases: &[f64; 4]| {
            o.field("workload", label);
            for (name, ms) in ["style", "layout", "paint", "script"].iter().zip(phases) {
                o.field(name, Fixed(*ms, 3));
            }
        };
        let mut aggregate = [0.0f64; 4];
        for (_, phases) in &self.phases_sim_ms {
            for (total, phase) in aggregate.iter_mut().zip(phases) {
                *total += phase;
            }
        }
        let mut out = String::new();
        json::object(&mut out, |o| {
            o.field("suite", "micro")
                .arr("phases_sim_ms", |a| {
                    for (label, phases) in &self.phases_sim_ms {
                        a.obj(|o| phase_entry(o, label, phases));
                    }
                })
                .obj("phases_sim_ms_aggregate", |o| {
                    phase_entry(o, "aggregate", &aggregate);
                });
        });
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenweb_acmp::{Duration, SimTime};

    #[test]
    fn profile_renders_all_stages_and_counts() {
        let w = greenweb_workloads::by_name("Todo").unwrap();
        let p = profile(&w, &Policy::GreenWeb(Scenario::Usable), Scenario::Usable).unwrap();
        let table = percentile_table(&p, &StageTable::from_trace(&p.buffer));
        for stage in ["input", "callback", "style", "layout", "paint", "composite"] {
            assert!(table.contains(stage), "missing stage {stage}: {table}");
        }
        assert!(table.contains("expected but unjudged"));
        let report = render(&p);
        assert!(report.contains("flame: pipeline"), "{report}");
        let json = export_json(&p);
        assert!(
            json.contains("\"name\":\"decision\""),
            "no decisions in trace"
        );
    }

    #[test]
    fn flame_summary_lists_all_stages() {
        let trace = greenweb_trace::TraceHandle::with_capacity(8);
        trace.record(
            SimTime::from_millis(1),
            EventKind::Span {
                kind: SpanKind::Callback,
                start: SimTime::ZERO,
                dur: Duration::from_millis(1),
                uids: vec![0],
                label: Some("click"),
                ops: 42,
            },
        );
        trace.record(SimTime::from_millis(16), EventKind::Vsync);
        let text = flame_summary(&StageTable::from_trace(&trace.snapshot()), 0);
        for kind in SpanKind::ALL {
            assert!(text.contains(kind.name()), "{} missing", kind.name());
        }
        assert!(text.contains("n=1"));
    }
}
