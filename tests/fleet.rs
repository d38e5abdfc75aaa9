//! Determinism-parity suite for the fleet executor.
//!
//! Every test runs the same batch twice — inline on the calling thread
//! (`Jobs::serial()`) and on four workers (`Jobs::new(4)`) — and
//! requires the results to be **byte-identical**: rendered
//! `RunMetrics` JSON across all 12 workloads, each recorded job's
//! Chrome trace-event export, chaos runs across 3 storm seeds, and
//! GreenLint reports against the committed goldens.

use greenweb::qos::Scenario;
use greenweb_bench::golden_name;
use greenweb_engine::{FaultPlan, RunSpec};
use greenweb_fleet::{run_jobs, run_specs, Jobs};
use greenweb_trace::chrome_trace_json;
use greenweb_workloads::chaos::{chaos_batch, chaos_run};
use greenweb_workloads::harness::{evaluate_batch, lower, Policy};
use greenweb_workloads::{all, by_name};
use std::path::Path;

const PARALLEL: usize = 4;

/// `RunSpec` must be `Send`: the executor moves it into worker threads,
/// and the `Rc`-laden browser state may only ever exist on-worker.
#[test]
fn run_spec_is_send() {
    fn assert_send<T: Send>() {}
    assert_send::<RunSpec>();
}

/// Rendered `RunMetrics` JSON for the full 12-workload x paper-policy
/// matrix on the microbenchmark traces.
fn micro_matrix_json(jobs: Jobs) -> Vec<String> {
    let workloads = all();
    let policies = Policy::paper_set();
    let mut cells = Vec::new();
    for w in &workloads {
        for p in &policies {
            cells.push((w, &w.micro, p, Scenario::Usable));
        }
    }
    evaluate_batch(&cells, jobs)
        .expect("every cell simulates")
        .iter()
        .map(|m| format!("{}: {}", m.workload, m.metrics.render_json()))
        .collect()
}

#[test]
fn run_metrics_json_is_byte_identical_across_worker_counts() {
    let serial = micro_matrix_json(Jobs::serial());
    let parallel = micro_matrix_json(Jobs::new(PARALLEL));
    assert_eq!(serial.len(), 48, "12 workloads x 4 policies");
    assert_eq!(serial, parallel);
}

/// Each job's Chrome trace-event export, for three recorded runs.
fn trace_exports(jobs: Jobs) -> Vec<String> {
    let workloads = all();
    let specs: Vec<RunSpec> = workloads
        .iter()
        .take(3)
        .map(|w| lower(&w.app, &w.micro, &Policy::GreenWeb(Scenario::Usable)).with_recording())
        .collect();
    run_specs(specs, jobs)
        .into_iter()
        .zip(&workloads)
        .map(|(outcome, w)| {
            let buffer = outcome
                .expect("recorded run succeeds")
                .trace
                .expect("spec asked for a recording");
            chrome_trace_json(&buffer, w.name)
        })
        .collect()
}

#[test]
fn merged_trace_export_is_byte_identical_across_worker_counts() {
    let serial = trace_exports(Jobs::serial());
    let parallel = trace_exports(Jobs::new(PARALLEL));
    assert_eq!(serial.len(), 3, "one export per job");
    assert!(serial.iter().all(|json| !json.is_empty()));
    assert_eq!(serial, parallel);
}

#[test]
fn chaos_batch_matches_serial_runs_across_seeds() {
    let w = by_name("Todo").expect("bundled workload");
    let scenario = Scenario::Usable;
    let plans: Vec<FaultPlan> = [17, 42, 99].map(FaultPlan::storm).to_vec();
    let batch = chaos_batch(&w.app, &w.micro, scenario, &plans, Jobs::new(PARALLEL))
        .expect("chaos batch runs");
    assert_eq!(batch.len(), plans.len());
    for (plan, run) in plans.iter().zip(&batch) {
        let solo = chaos_run(&w.app, &w.micro, scenario, *plan).expect("serial chaos run");
        assert_eq!(run.plan, solo.plan);
        assert_eq!(run.baseline.total_mj(), solo.baseline.total_mj());
        assert_eq!(run.faulted.total_mj(), solo.faulted.total_mj());
        assert_eq!(run.faulted.chaos, solo.faulted.chaos);
        assert_eq!(run.faulted.switches, solo.faulted.switches);
    }
}

#[test]
fn lint_reports_match_goldens_at_any_worker_count() {
    let workloads = all();
    let analyze_at = |jobs: Jobs| {
        run_jobs(
            workloads
                .iter()
                .map(|w| {
                    let app = &w.app;
                    move || greenweb_analyze::analyze(app)
                })
                .collect(),
            jobs,
        )
    };
    let serial = analyze_at(Jobs::serial());
    let parallel = analyze_at(Jobs::new(PARALLEL));
    let golden_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/lint");
    for ((w, s), p) in workloads.iter().zip(&serial).zip(&parallel) {
        assert_eq!(s.render_json(), p.render_json(), "{} lint drifted", w.name);
        let path = golden_dir.join(golden_name(w.name));
        let expected =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            expected,
            s.render_json() + "\n",
            "{} drifted from committed golden",
            w.name
        );
    }
}

// ---------------------------------------------------------------------
// Supervised-sweep suite: panic isolation, quarantine, checkpoint +
// resume. These are the chaos tests of the fault-tolerance layer; the
// parity tests above cover the trusted executor.
// ---------------------------------------------------------------------

use greenweb_fleet::{run_supervised, FailureKind, JobStatus, SupervisedJob};
use greenweb_workloads::sweep::{
    parse_poison_list, run_sweep, Repro, SweepConfig, SweepError, SweepPlan, SWEEP_FORMAT,
};
use std::ops::ControlFlow;

/// A scratch path under the target temp dir, unique per test.
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("greenweb-sweep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(name)
}

/// Strips the `"job":N` prefix so lines can be compared by label across
/// plans where poison insertion shifted the indices.
fn line_sans_index(line: &str) -> &str {
    line.split_once(",\"label\"").expect("line has a label").1
}

fn label_of(line: &str) -> &str {
    line.split("\"label\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .expect("line has a label")
}

/// The acceptance scenario: the canonical 48-job matrix with three
/// poisoned specs salted in completes, quarantines exactly the poisoned
/// jobs (classified correctly, with parseable repro files), and leaves
/// every healthy job's checkpoint line byte-identical to a clean
/// serial run's.
#[test]
fn poisoned_sweep_quarantines_only_the_poison_and_keeps_healthy_bytes() {
    let clean_out = scratch("clean.jsonl");
    let clean = run_sweep(&SweepPlan::canonical(), &SweepConfig::new(&clean_out))
        .expect("clean sweep runs");
    assert!(clean.report.all_ok(), "{}", clean.report.summary_table());
    assert_eq!(clean.report.ok, 48);

    let poisons = parse_poison_list("panic:3,spin:17,malformed:31").expect("poison list");
    let plan = SweepPlan::canonical().with_poison(&poisons);
    let out = scratch("poisoned.jsonl");
    let repro_dir = scratch("repros");
    let mut config = SweepConfig::new(&out);
    config.jobs = Jobs::new(PARALLEL);
    config.repro_dir = Some(repro_dir.clone());
    let result = run_sweep(&plan, &config).expect("poisoned sweep completes");

    // Exactly the three poisoned jobs are quarantined, correctly
    // classified, each on its one and only run.
    let report = &result.report;
    assert_eq!(report.total, 51);
    assert_eq!(report.ok, 48);
    assert_eq!(report.quarantined, 3);
    assert!(!report.all_ok());
    let expected: Vec<(usize, FailureKind)> = poisons
        .iter()
        .map(|p| (p.at, p.kind.expected_failure()))
        .collect();
    let got: Vec<(usize, FailureKind)> =
        report.failures.iter().map(|f| (f.index, f.kind)).collect();
    assert_eq!(got, expected);

    // Healthy lines are byte-identical to the clean serial sweep's,
    // modulo the index shift poison insertion causes.
    let clean_lines: std::collections::HashMap<&str, &str> = std::fs::read_to_string(&clean_out)
        .expect("read clean results")
        .lines()
        .skip(1)
        .map(|line| (label_of(line), line_sans_index(line)))
        .map(|(label, rest)| {
            (
                label.to_string().leak() as &str,
                rest.to_string().leak() as &str,
            )
        })
        .collect();
    let poisoned_file = std::fs::read_to_string(&out).expect("read poisoned results");
    let mut healthy = 0;
    for line in poisoned_file.lines().skip(1) {
        let label = label_of(line);
        if label.starts_with("poison-") {
            assert!(line.contains("\"status\":\"quarantined\""), "{line}");
            continue;
        }
        healthy += 1;
        assert_eq!(
            Some(&line_sans_index(line)),
            clean_lines.get(label),
            "{label}: healthy line drifted under chaos"
        );
    }
    assert_eq!(healthy, 48);

    // Each quarantined job left a parseable repro that lowers back to
    // a spec with the recorded digest and reproduces the same failure,
    // down to its detail — the determinism that makes one run enough.
    for failure in &report.failures {
        let path = repro_dir.join(format!(
            "job{:03}-{}.json",
            failure.index,
            failure.kind.name()
        ));
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let repro = Repro::parse(&text).expect("repro parses");
        assert_eq!(repro.job, failure.index);
        assert_eq!(repro.digest, failure.digest);
        let spec = repro.to_spec().expect("repro lowers to a spec");
        assert_eq!(spec.digest(), failure.digest, "repro digest round-trip");
        let job = SupervisedJob {
            label: repro.label.clone(),
            spec,
        };
        let mut rerun = None;
        run_supervised(vec![job], Jobs::serial(), |outcome| {
            rerun = Some(outcome.status);
            ControlFlow::Continue(())
        });
        match rerun.expect("the repro job ran") {
            JobStatus::Quarantined(refailure) => {
                assert_eq!(refailure.kind, failure.kind, "repro reproduces the failure");
                assert_eq!(refailure.detail, failure.detail, "repro fails identically");
            }
            JobStatus::Ok(_) => panic!("repro of {} unexpectedly succeeded", repro.label),
        }
    }
}

/// A 13-job plan (three workloads x four policies + one poison) used by
/// the resume tests — small enough to sweep several times.
fn small_plan() -> SweepPlan {
    let mut plan = SweepPlan::canonical();
    plan.cells.truncate(12);
    plan.with_poison(&parse_poison_list("spin:5").expect("poison list"))
}

/// Kill-and-resume: an aborted parallel sweep resumed to completion is
/// byte-for-byte the file an uninterrupted serial sweep writes.
#[test]
fn interrupted_sweep_resumes_byte_identically() {
    let uninterrupted = scratch("uninterrupted.jsonl");
    let full =
        run_sweep(&small_plan(), &SweepConfig::new(&uninterrupted)).expect("uninterrupted sweep");
    assert_eq!(full.report.total, 13);
    assert_eq!(full.report.quarantined, 1);

    let out = scratch("interrupted.jsonl");
    let mut config = SweepConfig::new(&out);
    config.jobs = Jobs::new(PARALLEL);
    config.abort_after = Some(7);
    let aborted = run_sweep(&small_plan(), &config).expect("aborted sweep");
    assert!(aborted.report.aborted);
    assert_eq!(aborted.exit_code(), 3);
    let partial = std::fs::read_to_string(&out).expect("read partial file");
    assert_eq!(partial.lines().count(), 1 + 7, "header + 7 job lines");

    // Simulate a torn write from a hard kill: the resume path must
    // discard the incomplete trailing line.
    let torn = format!("{partial}{{\"job\":7,\"label\":\"torn");
    std::fs::write(&out, &torn).expect("tear the file");

    let mut resume_config = SweepConfig::new(&out);
    resume_config.jobs = Jobs::new(PARALLEL);
    resume_config.resume = true;
    let resumed = run_sweep(&small_plan(), &resume_config).expect("resumed sweep");
    assert_eq!(resumed.resumed_jobs, 7);
    assert!(!resumed.report.aborted);
    assert_eq!(resumed.report.total, 13);
    assert_eq!(
        resumed.report.quarantined, 1,
        "prefix quarantine survives resume"
    );
    assert_eq!(resumed.exit_code(), 2);

    let a = std::fs::read_to_string(&uninterrupted).expect("read uninterrupted");
    let b = std::fs::read_to_string(&out).expect("read resumed");
    assert_eq!(a, b, "resumed file must be byte-identical");

    // The merged histogram also survives the resume: it equals the
    // uninterrupted sweep's aggregate.
    assert_eq!(resumed.merged, full.merged);

    // A kill before the header line was complete (or before anything
    // was written) leaves no completed job: resuming starts over and
    // writes the header, not a headerless file.
    for cut in [&a[..30], ""] {
        std::fs::write(&out, cut).expect("cut inside the header");
        let restarted = run_sweep(&small_plan(), &resume_config).expect("restarted sweep");
        assert_eq!(restarted.resumed_jobs, 0);
        assert_eq!(
            std::fs::read_to_string(&out).expect("reread"),
            a,
            "resume from {cut:?} must equal the uninterrupted file"
        );
    }

    // Resuming an already-complete file is a no-op that reports the
    // same totals and leaves the bytes alone.
    let again = run_sweep(&small_plan(), &resume_config).expect("no-op resume");
    assert_eq!(again.resumed_jobs, 13);
    assert_eq!(again.report.ok, 12);
    assert_eq!(again.report.quarantined, 1);
    assert_eq!(std::fs::read_to_string(&out).expect("reread"), b);
}

/// A checkpoint only resumes under the plan (and budget) that wrote it,
/// and in the line format it was written in. A refused file is left
/// byte-unchanged.
#[test]
fn resume_rejects_a_mismatched_plan() {
    let out = scratch("mismatch.jsonl");
    let mut config = SweepConfig::new(&out);
    config.abort_after = Some(2);
    run_sweep(&small_plan(), &config).expect("aborted sweep");
    let written = std::fs::read_to_string(&out).expect("read partial file");
    let mut other = small_plan();
    other.cells.truncate(12); // drop the poison cell -> new fingerprint
    let mut resume_config = SweepConfig::new(&out);
    resume_config.resume = true;
    let expect_refusal = |plan: &SweepPlan| match run_sweep(plan, &resume_config) {
        Err(SweepError::Corrupt(why)) => assert!(why.contains("header mismatch"), "{why}"),
        other => panic!("expected a corrupt-checkpoint rejection, got {other:?}"),
    };
    expect_refusal(&other);
    assert_eq!(std::fs::read_to_string(&out).expect("reread"), written);

    // A v3 checkpoint carries script counters v4 lines no longer have,
    // a v4 checkpoint splits `attr` and `energy_mj` the way v5 lines no
    // longer do, and a v5 checkpoint's per-phase `attr` energy is a time
    // share where v6 lines carry the spans' own energy: resuming any of
    // them would mix two line schemas in one file.
    assert_eq!(SWEEP_FORMAT, "greenweb-sweep-v6");
    for old in [
        "greenweb-sweep-v3",
        "greenweb-sweep-v4",
        "greenweb-sweep-v5",
    ] {
        let stale = written.replacen(SWEEP_FORMAT, old, 1);
        assert_ne!(stale, written);
        std::fs::write(&out, &stale).expect("write stale checkpoint");
        expect_refusal(&small_plan());
        assert_eq!(std::fs::read_to_string(&out).expect("reread"), stale);
    }
}
