//! End-to-end contracts of the tracing subsystem:
//!
//! 1. identical seeds (and identical `FaultPlan`s) export byte-identical
//!    Chrome trace-event JSON,
//! 2. a fault-free run emits no fault events,
//! 3. every frame the report records has matching pipeline-stage spans
//!    in the trace, and
//! 4. a traced GreenWeb run covers the full event vocabulary: all six
//!    pipeline stages, scheduler decisions, and energy samples, and
//! 5. the attribution profiler reproduces the CPU's own busy/idle
//!    energy split (idle = the CPU's idle energy, spans = its busy
//!    energy, nothing unattributed), also under fault storms, names
//!    exactly the spans that
//!    overlap every missed frame's window, and renders byte-identically
//!    across worker counts and repeated runs,
//! 6. attaching a recorder changes no metric, to the byte, and
//! 7. the engine's inline no-op VSync path reports what the full path
//!    reports, to the byte: a run with an empty fault plan attached
//!    (which sends every tick through the full path) against a
//!    detached one.

use greenweb::metrics::RunMetrics;
use greenweb::qos::Scenario;
use greenweb_engine::FaultPlan;
use greenweb_fleet::{run_specs, Jobs};
use greenweb_trace::{chrome_trace_json, AttributionProfile, EventKind, SpanKind, TraceBuffer};
use greenweb_workloads::by_name;
use greenweb_workloads::chaos::chaos_run_traced;
use greenweb_workloads::harness::{expectations, lower, run, run_traced, Policy};

fn traced_run(name: &str) -> (greenweb_engine::SimReport, TraceBuffer) {
    let w = by_name(name).expect("workload exists");
    run_traced(&w.app, &w.micro, &Policy::GreenWeb(Scenario::Usable)).expect("run")
}

#[test]
fn same_seed_same_plan_exports_identical_bytes() {
    let w = by_name("Todo").expect("workload exists");
    let export = || {
        let (_, buffer) =
            chaos_run_traced(&w.app, &w.micro, Scenario::Usable, FaultPlan::storm(23))
                .expect("chaos run");
        chrome_trace_json(&buffer, "determinism-check")
    };
    let first = export();
    let second = export();
    assert!(!first.is_empty());
    assert_eq!(
        first, second,
        "same seed + same plan must export identical bytes"
    );
}

#[test]
fn different_seeds_diverge() {
    // The determinism test above would pass vacuously if the export
    // ignored the faults; different storms must produce different bytes.
    let w = by_name("Todo").expect("workload exists");
    let export = |seed: u64| {
        let (_, buffer) =
            chaos_run_traced(&w.app, &w.micro, Scenario::Usable, FaultPlan::storm(seed))
                .expect("chaos run");
        chrome_trace_json(&buffer, "determinism-check")
    };
    assert_ne!(export(23), export(24));
}

#[test]
fn fault_free_run_emits_no_fault_events() {
    let (_, buffer) = traced_run("Todo");
    assert_eq!(buffer.count_of("fault"), 0, "clean run must not log faults");
    assert!(buffer.count_of("vsync") > 0);
}

#[test]
fn faulted_run_logs_its_faults() {
    let w = by_name("Todo").expect("workload exists");
    let (run, buffer) = chaos_run_traced(&w.app, &w.micro, Scenario::Usable, FaultPlan::storm(23))
        .expect("chaos run");
    let injected = run.faulted.chaos.as_ref().expect("chaos report").total();
    assert!(injected > 0, "storm must inject faults");
    assert_eq!(buffer.count_of("fault"), injected);
}

#[test]
fn every_frame_has_matching_stage_spans() {
    let (report, buffer) = traced_run("Todo");
    assert!(!report.frames.is_empty());
    for record in &report.frames {
        for stage in [
            SpanKind::Style,
            SpanKind::Layout,
            SpanKind::Paint,
            SpanKind::Composite,
        ] {
            let covered = buffer.events.iter().any(|r| match &r.kind {
                EventKind::Span { kind, uids, .. } => {
                    *kind == stage && uids.contains(&record.uid.0)
                }
                _ => false,
            });
            assert!(
                covered,
                "frame for input {:?} has no {} span",
                record.uid,
                stage.name()
            );
        }
    }
}

#[test]
fn greenweb_run_covers_the_event_vocabulary() {
    let (_, buffer) = traced_run("Todo");
    for stage in SpanKind::ALL {
        assert!(
            buffer.count_of(stage.name()) > 0,
            "no {} spans recorded",
            stage.name()
        );
    }
    assert!(
        buffer.count_of("decision") > 0,
        "scheduler logged no decisions"
    );
    assert!(buffer.count_of("energy-sample") > 0, "no energy samples");
    assert!(buffer.count_of("frame-commit") > 0, "no frame commits");
    assert_eq!(buffer.dropped, 0, "micro trace must fit the ring");
}

#[test]
fn attribution_conserves_energy_across_the_suite() {
    // The profiler reads the CPU's own ledger: for every workload, paper
    // policy and trace, its idle energy is the run's idle energy, and the
    // spans carry the run's busy energy (each one the busy energy drawn
    // since the span before it; the task in flight at the end is
    // recorded too), so at most f64 rounding is left unattributed.
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs());
    for w in greenweb_workloads::all() {
        for (trace, events) in [(&w.micro, "micro"), (&w.full, "full")] {
            for policy in Policy::paper_set() {
                let (report, buffer) = run_traced(&w.app, trace, &policy).expect("run");
                let profile = AttributionProfile::from_trace(&buffer);
                let run = format!("{} / {policy} / {events}", w.name);
                let energy = report.energy;
                assert!(profile.total_mj > 0.0, "{run}: no measured energy");
                assert!(
                    close(profile.idle_mj, energy.idle_mj),
                    "{run}: profile idle {} mJ vs CPU idle {} mJ",
                    profile.idle_mj,
                    energy.idle_mj
                );
                let busy = profile.attributed_mj() + profile.unattributed_mj;
                assert!(
                    close(busy, energy.active_mj),
                    "{run}: attributed + unattributed {busy} mJ vs CPU active {} mJ",
                    energy.active_mj
                );
                assert!(
                    profile.unattributed_mj <= 1e-9 * profile.total_mj,
                    "{run}: {} mJ of busy energy under no span",
                    profile.unattributed_mj
                );
                // The per-event rollup is the same energy re-keyed by
                // input: summing every event's phases must land on the
                // attributed total.
                let event_sum: f64 = profile
                    .events
                    .iter()
                    .map(greenweb_trace::EventAttribution::total_mj)
                    .sum();
                assert!(
                    close(event_sum, profile.attributed_mj()),
                    "{run}: per-event sum {event_sum} mJ vs attributed {} mJ",
                    profile.attributed_mj()
                );
                assert!(!profile.events.is_empty(), "{run}: no events attributed");
            }
        }
    }
}

#[test]
fn attribution_conserves_energy_under_fault_storms() {
    // Injected load spikes, dropped and jittered VSyncs and perturbed
    // inputs reshape the timeline, but the profiler
    // must still read the CPU's ledger exactly: idle is the CPU's idle
    // energy, and the spans plus the remainder are its busy energy.
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs());
    for w in greenweb_workloads::all() {
        for scenario in [Scenario::Imperceptible, Scenario::Usable] {
            for seed in [17, 42, 99] {
                let (run, buffer) =
                    chaos_run_traced(&w.app, &w.micro, scenario, FaultPlan::storm(seed))
                        .expect("chaos run");
                let name = format!("{} / {scenario} / storm {seed}", w.name);
                assert_eq!(buffer.dropped, 0, "{name}: the ring dropped records");
                let profile = AttributionProfile::from_trace(&buffer);
                let energy = run.faulted.energy;
                assert!(
                    close(profile.idle_mj, energy.idle_mj),
                    "{name}: profile idle {} mJ vs CPU idle {} mJ",
                    profile.idle_mj,
                    energy.idle_mj
                );
                let busy = profile.attributed_mj() + profile.unattributed_mj;
                assert!(
                    close(busy, energy.active_mj),
                    "{name}: attributed + unattributed {busy} mJ vs CPU active {} mJ",
                    energy.active_mj
                );
            }
        }
    }
}

#[test]
fn every_chaos_miss_has_forensics_naming_overlapping_spans() {
    // W3School under imperceptible targets with a fault storm reliably
    // misses deadlines; Usable targets would make this test vacuous.
    let w = by_name("W3School").expect("workload exists");
    let (_, buffer) = chaos_run_traced(
        &w.app,
        &w.micro,
        Scenario::Imperceptible,
        FaultPlan::storm(23),
    )
    .expect("chaos run");
    let profile = AttributionProfile::from_trace(&buffer);
    assert!(profile.misses() > 0, "storm produced no deadline misses");
    assert_eq!(
        profile.misses(),
        profile.forensics.len() as u64,
        "one forensics record per deadline miss"
    );
    for record in &profile.forensics {
        assert!(
            record.latency_ms > record.target_ms,
            "forensics for a frame that met its {} ms target",
            record.target_ms
        );
        assert!(
            !record.spans.is_empty(),
            "miss of input {} at {:?} names no culprit spans",
            record.uid,
            record.at
        );
        // Every named span must genuinely overlap the missed frame's
        // window [commit - latency, commit], and every span that does is
        // named (the profiler's binary searches skip none).
        let commit_ms = record.at.as_millis_f64();
        let window_start_ms = commit_ms - record.latency_ms;
        let commit_ns = record.at.as_nanos();
        let window_start_ns = commit_ns - (record.latency_ms * 1e6).round() as u64;
        let overlapping = buffer
            .events
            .iter()
            .filter(|r| match &r.kind {
                EventKind::Span { start, dur, .. } => {
                    start.as_nanos() < commit_ns
                        && start.as_nanos() + dur.as_nanos() > window_start_ns
                }
                _ => false,
            })
            .count();
        assert_eq!(
            record.spans.len(),
            overlapping,
            "miss of input {} names a subset of the overlapping spans",
            record.uid
        );
        for span in &record.spans {
            let start_ms = span.start.as_millis_f64();
            let end_ms = start_ms + span.dur.as_millis_f64();
            assert!(
                start_ms < commit_ms && end_ms > window_start_ms,
                "span {} [{start_ms}, {end_ms}] ms outside miss window \
                 [{window_start_ms}, {commit_ms}] ms",
                span.kind.name()
            );
        }
    }
}

#[test]
fn attribution_profiles_are_byte_identical_serial_vs_parallel() {
    // Same specs, 1 worker vs 4 workers vs a repeated run: the rendered
    // profile JSON must match byte for byte — the property the sweep's
    // corpus aggregation (and CI's diff gate) stands on.
    let render_all = |jobs: Jobs| {
        let specs = greenweb_workloads::all()
            .iter()
            .take(4)
            .map(|w| lower(&w.app, &w.micro, &Policy::GreenWeb(Scenario::Usable)).with_recording())
            .collect();
        run_specs(specs, jobs)
            .into_iter()
            .map(|outcome| {
                let outcome = outcome.expect("run");
                let buffer = outcome.trace.expect("recording was requested");
                AttributionProfile::from_trace(&buffer).render_json()
            })
            .collect::<String>()
    };
    let serial = render_all(Jobs::new(1));
    let parallel = render_all(Jobs::new(4));
    assert!(!serial.is_empty());
    assert_eq!(serial, parallel, "worker count changed the profile bytes");
    let repeated = render_all(Jobs::new(1));
    assert_eq!(
        serial, repeated,
        "same seed re-run changed the profile bytes"
    );
}

#[test]
fn detached_and_recorded_runs_report_the_same_metrics() {
    // Attaching a recorder changes no metric, `energy_mj` included.
    // Recorded and detached runs both handle no-op VSyncs inline (that
    // path's oracle is the next test); what differs is the recording
    // sites, whose energy samples advance the CPU at switches and
    // busy/idle edges. Energy is priced from integer per-configuration
    // time, so where the CPU is advanced must not move a number.
    let scenario = Scenario::Imperceptible;
    for w in greenweb_workloads::all() {
        let expected = expectations(&w.app, &w.full, scenario);
        for policy in Policy::paper_set() {
            let detached = run(&w.app, &w.full, &policy).expect("detached run");
            let (recorded, _) = run_traced(&w.app, &w.full, &policy).expect("recorded run");
            let detached = RunMetrics::compute(&detached, &expected);
            let recorded = RunMetrics::compute(&recorded, &expected);
            assert_eq!(
                detached.render_json(),
                recorded.render_json(),
                "{} / {policy}: recording changed a metric",
                w.name
            );
        }
    }
}

#[test]
fn inline_noop_vsyncs_match_the_full_vsync_path() {
    // The oracle of the engine's inline no-op VSync path: an attached
    // fault plan, even an empty one, sends every tick through the full
    // `on_vsync` path, and an empty plan injects nothing. So a detached
    // run (ticks that find the main thread busy or nothing to do handled
    // inline) must report every metric of the full-path run to the
    // byte.
    let scenario = Scenario::Imperceptible;
    for w in greenweb_workloads::all() {
        let expected = expectations(&w.app, &w.full, scenario);
        for policy in Policy::paper_set() {
            let detached = lower(&w.app, &w.full, &policy)
                .execute()
                .expect("detached run");
            let full_path = lower(&w.app, &w.full, &policy)
                .with_faults(FaultPlan::new(7))
                .execute()
                .expect("empty-plan run");
            assert_eq!(
                RunMetrics::compute(&detached.report, &expected).render_json(),
                RunMetrics::compute(&full_path.report, &expected).render_json(),
                "{} / {policy}: the inline VSync path changed a metric",
                w.name
            );
        }
    }
}
