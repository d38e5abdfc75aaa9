//! Whole-benchmark tests: `BENCHMARK.json` is well formed, and a reduced
//! run of every workload emits exactly the metrics it lists, with their
//! units, and passes every correctness check.

use crate::run::{self, Metric, Options};
use crate::workloads::{Kind, Scale};
use greenweb_workloads::sweep::json::JsonValue;
use std::path::PathBuf;

/// The repository root, five levels above this package.
fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../../../..")
}

fn benchmark_json() -> JsonValue {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    JsonValue::parse(&text).unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"))
}

fn list<'a>(json: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    json.get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
}

fn str_field<'a>(entry: &'a JsonValue, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("entry without string `{key}`: {entry:?}"))
}

/// `(name, unit)` of every metric in list `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    list(&benchmark_json(), key)
        .iter()
        .map(|m| {
            (
                str_field(m, "name").to_string(),
                str_field(m, "unit").to_string(),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_is_well_formed() {
    let json = benchmark_json();
    let workloads = list(&json, "workloads");
    let e2e = list(&json, "end_to_end");
    let layers = list(&json, "per_layer");
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&e2e.len()));
    assert!((1..=128).contains(&layers.len()));
    let mut names: Vec<&str> = Vec::new();
    for entry in workloads.iter().chain(e2e).chain(layers) {
        let name = str_field(entry, "name");
        assert!(
            !name.is_empty()
                && name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
            "bad name `{name}`"
        );
        assert!(!names.contains(&name), "`{name}` is used twice");
        names.push(name);
    }
    for w in workloads {
        assert!(Kind::parse(str_field(w, "name")).is_some());
        assert!(str_field(w, "why").len() <= 200);
    }
    for m in e2e {
        let bound = m.get("bound").and_then(JsonValue::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
    }
    let setup = e2e
        .iter()
        .find(|m| str_field(m, "name") == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!(str_field(setup, "unit"), "s");
    assert_eq!(str_field(setup, "better"), "lower");
}

fn assert_emits(what: &str, emitted: &[Metric], key: &str) {
    let emitted: Vec<(String, String)> = emitted
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "{what}: {} is {}", m.name, m.value);
            (m.name.to_string(), m.unit.to_string())
        })
        .collect();
    assert_eq!(emitted, declared(key), "{what}: emitted {key} metrics");
}

fn smoke(kind: Kind) {
    let opts = Options {
        seed: 3,
        seconds: 0.0,
        traced: true,
        scale: Scale::Smoke,
        scratch: repo_root().join(format!("target/benchmark-tests/{}", kind.name())),
    };
    let report = run::run(kind, &opts);
    assert!(
        report.failures.is_empty(),
        "{}: {:#?}",
        kind.name(),
        report.failures
    );
    assert!(report.attempted > 0);
    assert_emits(kind.name(), &report.e2e, "end_to_end");
    assert_emits(kind.name(), &report.layers, "per_layer");
    let spans = report.spans_jsonl.expect("a traced run writes spans");
    for line in spans.lines() {
        JsonValue::parse(line).unwrap_or_else(|e| panic!("span line {line}: {e}"));
    }
}

#[test]
fn smoke_paper_full() {
    smoke(Kind::PaperFull);
}

#[test]
fn smoke_sweep_micro() {
    smoke(Kind::SweepMicro);
}

#[test]
fn smoke_dom_stable() {
    smoke(Kind::DomStable);
}

#[test]
fn smoke_dom_churn() {
    smoke(Kind::DomChurn);
}
