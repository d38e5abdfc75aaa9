//! Traced profiling runs: per-stage percentile tables, a text
//! flamegraph summary, and Chrome trace-event export.
//!
//! This is the reporting layer over [`greenweb_trace`]: it runs one
//! workload with a recorder attached ([`run_traced`]), distills the
//! event buffer into a [`MetricsRegistry`], and renders the tables the
//! `evaluate` binary prints. The exported JSON loads directly into
//! Perfetto / `chrome://tracing`.

use greenweb::metrics::RunMetrics;
use greenweb::qos::Scenario;
use greenweb_engine::BrowserError;
use greenweb_trace::json::{self, Fixed, Obj};
use greenweb_trace::{
    chrome_trace_json, flame_summary, LatencySummary, MetricsRegistry, SpanKind, TraceBuffer,
};
use greenweb_workloads::harness::{expectations, run_traced, Policy};
use greenweb_workloads::Workload;
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

fn percentile_row(out: &mut String, label: &str, s: LatencySummary) {
    let _ = writeln!(
        out,
        "{label:<12} {:>7} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
        s.count, s.p50_ms, s.p95_ms, s.p99_ms, s.max_ms
    );
}

/// Renders the per-stage and frame-latency percentile table of a
/// profile, followed by its event counters.
pub fn percentile_table(profile: &Profile) -> String {
    let registry = MetricsRegistry::from_trace(&profile.buffer);
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
        percentile_row(&mut out, kind.name(), registry.stage_summary(kind));
    }
    let frame = registry
        .histogram("frame.latency")
        .map_or(LatencySummary::EMPTY, greenweb_trace::Histogram::summary);
    percentile_row(&mut out, "frame", frame);
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
    let mut counters = String::new();
    for (name, value) in registry.counters() {
        if let Some(kind) = name.strip_prefix("count.") {
            if !counters.is_empty() {
                counters.push_str(", ");
            }
            let _ = write!(counters, "{kind} {value}");
        }
    }
    let _ = writeln!(out, "events: {counters}");
    out
}

/// Full text report of a profile: percentile table plus flamegraph
/// summary.
pub fn render(profile: &Profile) -> String {
    format!(
        "{}\n{}",
        percentile_table(profile),
        flame_summary(&profile.buffer)
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
    let registry = MetricsRegistry::from_trace(&profile.buffer);
    [
        SpanKind::Style,
        SpanKind::Layout,
        SpanKind::Paint,
        SpanKind::Callback,
    ]
    .map(|kind| {
        registry
            .histogram(&format!("stage.{}", kind.name()))
            .map_or(0.0, |h| h.mean() * h.count() as f64)
    })
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

    #[test]
    fn profile_renders_all_stages_and_counts() {
        let w = greenweb_workloads::by_name("Todo").unwrap();
        let p = profile(&w, &Policy::GreenWeb(Scenario::Usable), Scenario::Usable).unwrap();
        let table = percentile_table(&p);
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
}
