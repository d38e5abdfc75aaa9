//! Every JSON report the workspace writes parses with the one reader,
//! `greenweb_trace::json::JsonValue`: metrics rows, lint and effect
//! reports, Chrome traces, attribution profiles, the sweep's checkpoint
//! lines and quarantine repros, and every `BENCH_*.json` document.

use greenweb::qos::Scenario;
use greenweb_analyze::analyze;
use greenweb_bench::profile::{self, MicroBench};
use greenweb_bench::{paintbench, scriptbench, stylebench};
use greenweb_fleet::{Jobs, RetryPolicy};
use greenweb_trace::json::JsonValue;
use greenweb_trace::AttributionProfile;
use greenweb_workloads::harness::Policy;
use greenweb_workloads::sweep::{parse_poison_list, run_sweep, Repro, SweepConfig, SweepPlan};

fn parses(what: &str, text: &str) -> JsonValue {
    JsonValue::parse(text).unwrap_or_else(|e| panic!("{what} is not JSON ({e}):\n{text}"))
}

#[test]
fn every_report_producer_emits_parseable_json() {
    let todo = greenweb_workloads::by_name("Todo").expect("bundled Todo workload");
    let scenario = Scenario::Imperceptible;
    let traced = profile::profile(&todo, &Policy::GreenWeb(scenario), scenario).expect("Todo runs");

    parses("RunMetrics", &traced.metrics.render_json());
    let trace = parses("Chrome trace", &profile::export_json(&traced));
    assert!(trace
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .is_some());
    let attribution = AttributionProfile::from_trace(&traced.buffer);
    parses("attribution profile", &attribution.render_json());
    parses("attribution flame", &attribution.flame_json("Todo"));

    let lint = analyze(&todo.app);
    let report = parses("lint report", &lint.render_json());
    assert_eq!(report.get("app").and_then(JsonValue::as_str), Some("Todo"));
    let effects = parses("effect summaries", &lint.render_effects_json());
    assert!(effects
        .get("handlers")
        .and_then(JsonValue::as_array)
        .is_some());

    let bench = MicroBench {
        cells: 4,
        identical: true,
        phases_sim_ms: vec![(todo.name, profile::phase_totals_ms(&traced))],
    };
    parses("BENCH_evaluate.json", &bench.render_json());
    parses("BENCH_script.json", &scriptbench::run_suite().render_json());
    parses("BENCH_style.json", &stylebench::run_suite().render_json());
    parses("BENCH_paint.json", &paintbench::run_suite().render_json());

    // The Todo cells of the canonical matrix plus one malformed cell:
    // a header, ok lines, a quarantine line, and a repro.
    let mut plan = SweepPlan::canonical();
    plan.cells.retain(|cell| cell.label.starts_with("Todo/"));
    let plan = plan.with_poison(&parse_poison_list("malformed:1").expect("poison list"));
    let dir = std::env::temp_dir().join(format!("greenweb-reports-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let mut config = SweepConfig::new(dir.join("sweep.jsonl"));
    config.jobs = Jobs::serial();
    config.repro_dir = Some(dir.join("repros"));
    config.retry = RetryPolicy {
        max_attempts: 1,
        ..RetryPolicy::default()
    };
    let result = run_sweep(&plan, &config).expect("sweep runs");
    assert_eq!(result.report.quarantined, 1);
    let lines = std::fs::read_to_string(&config.out).expect("read sweep results");
    for line in lines.lines() {
        parses("sweep line", line);
    }
    assert_eq!(lines.lines().count(), 1 + plan.cells.len());
    let failure = &result.report.failures[0];
    let repro = Repro::parse(
        &std::fs::read_to_string(dir.join("repros").join(format!(
            "job{:03}-{}.json",
            failure.index,
            failure.kind.name()
        )))
        .expect("read repro"),
    )
    .expect("repro parses");
    assert_eq!(Repro::parse(&repro.render_json()), Ok(repro));
    let _ = std::fs::remove_dir_all(&dir);
}
