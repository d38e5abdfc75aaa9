//! Every JSON report the workspace writes parses with the one reader,
//! `greenweb_trace::json::JsonValue`: metrics rows, lint and effect
//! reports, Chrome traces, attribution profiles, the sweep's checkpoint
//! lines and quarantine repros, and every `BENCH_*.json` document. The
//! committed `BENCH_*.json` files are also the one gate on those
//! reports: each must equal a fresh render byte for byte.

use greenweb::qos::Scenario;
use greenweb_analyze::analyze;
use greenweb_bench::{bench_reports, golden_name, metrics_report, profile};
use greenweb_fleet::Jobs;
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

/// The committed reports, in `bench_reports` order.
const COMMITTED: [(&str, &str); 4] = [
    (
        "BENCH_evaluate.json",
        include_str!("../BENCH_evaluate.json"),
    ),
    ("BENCH_style.json", include_str!("../BENCH_style.json")),
    ("BENCH_script.json", include_str!("../BENCH_script.json")),
    ("BENCH_paint.json", include_str!("../BENCH_paint.json")),
];

#[test]
fn committed_bench_files_match_a_fresh_render() {
    let fresh = bench_reports();
    assert_eq!(
        fresh.len(),
        COMMITTED.len(),
        "one committed file per report"
    );
    for ((file, json), (committed_file, committed)) in fresh.iter().zip(COMMITTED) {
        assert_eq!(*file, committed_file);
        parses(file, json);
        assert!(
            json == committed,
            "{file} is stale: regenerate it with `evaluate bench`\nfresh:\n{json}"
        );
    }
}

/// The frame-stage report `evaluate percentiles` prints for its default
/// workload (per-stage percentiles, event counts and the flame summary)
/// must appear verbatim in the committed `docs/evaluate_output.txt`.
#[test]
fn stage_report_matches_the_committed_evaluate_output() {
    let paper = greenweb_workloads::by_name("Paper.js").expect("bundled Paper.js workload");
    let scenario = Scenario::Imperceptible;
    let profiled =
        profile::profile(&paper, &Policy::GreenWeb(scenario), scenario).expect("Paper.js runs");
    let report = profile::render(&profiled);
    assert!(
        include_str!("../docs/evaluate_output.txt").contains(&report),
        "the stage report drifted from docs/evaluate_output.txt\nfresh:\n{report}"
    );
}

/// The style/layout/paint counters of every full-trace run, next to its
/// energy and QoS metrics: `evaluate metrics --workload W` must print
/// each of the 12 workloads' committed golden, named by `golden_name`.
/// Regenerate one intentionally with
/// `evaluate metrics --workload Paper.js > tests/goldens/metrics/paper_js.json`.
#[test]
fn metrics_json_matches_committed_goldens() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/metrics");
    for w in greenweb_workloads::all() {
        let path = dir.join(golden_name(w.name));
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        let fresh = metrics_report(&w);
        parses(w.name, &fresh);
        assert!(
            fresh == committed,
            "{} drifted from {}\nfresh:\n{fresh}",
            w.name,
            path.display()
        );
    }
}
