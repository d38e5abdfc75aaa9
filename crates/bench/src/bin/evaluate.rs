//! The evaluation harness binary: regenerates every table and figure of
//! the GreenWeb paper (Sec. 7).
//!
//! ```text
//! evaluate table1|table2|table3       definitional tables
//! evaluate fig9a|fig9b                microbenchmark energy / violations
//! evaluate fig10a|fig10b|fig10c       full-interaction energy / violations
//! evaluate fig11|fig12                residency / switching
//! evaluate autogreen                  AUTOGREEN coverage per app
//! evaluate uai                        mis-annotation defense demo
//! evaluate ablation                   design-choice ablations
//! evaluate percentiles                per-stage latency percentiles + flame
//! evaluate all                        everything above
//! evaluate bench                      serial-vs-parallel wall-clock
//! evaluate bench --suite style        style resolver microbenchmark
//! evaluate bench --suite script       script-pipeline compile-once suite
//! evaluate bench --suite paint        incremental render-pipeline suite
//! evaluate metrics                    one workload's RunMetrics as JSON
//! evaluate soundness                  dynamic ⊆ static effect-summary gate
//! evaluate sweep --out F              supervised, checkpointed matrix sweep
//! evaluate attribute                  per-event energy attribution profile
//! evaluate diff OLD NEW               tolerance-aware JSON regression gate
//! ```
//!
//! Flags (combinable with any command):
//!
//! ```text
//! --trace out.json      write a Chrome trace-event JSON of the traced
//!                       run (open in https://ui.perfetto.dev); with no
//!                       command, implies `trace` (the traced run only)
//! --workload NAME       workload for percentiles/trace/metrics (default
//!                       Paper.js)
//! --suite NAME          bench suite: `micro` (default), `style`,
//!                       `script`, or `paint`
//! --jobs N              worker threads for simulation batches (default:
//!                       GREENWEB_JOBS, else hardware parallelism; 1 is
//!                       the legacy serial path — output is identical
//!                       either way)
//! ```
//!
//! `attribute` flags:
//!
//! ```text
//! --workload NAME       workload to profile (default Paper.js)
//! --json                emit the deterministic attribution JSON instead
//!                       of the top-N text tables
//! --flame               emit a Perfetto-loadable trace with one slice
//!                       per attributed span (mJ and ops in args)
//! ```
//!
//! `diff` flags:
//!
//! ```text
//! --tolerance T         max relative numeric drift, default 0.05 (5%)
//! --ignore a,b,c        key names skipped at any depth (use for
//!                       wall-clock fields like serial_s/speedup)
//! ```
//!
//! `diff` exits 0 when the documents agree within tolerance and 1 with
//! one line per differing field otherwise — CI's regression gate over
//! the committed `BENCH_evaluate.json`.
//!
//! `soundness` runs every workload's full trace under each paper policy
//! with the statically inferred effect summaries attached and fails if
//! any observed callback effect escapes its static summary (or if no
//! containment check ran at all). `--poison-summaries` attaches
//! deliberately under-approximated summaries and *expects* violations —
//! the self-check that the detector detects.
//!
//! `sweep` flags (see `EXPERIMENTS.md` for recipes):
//!
//! ```text
//! --out FILE            append-only JSONL results file (required)
//! --resume              validate FILE's prefix and append the remaining
//!                       jobs instead of starting over
//! --repro-dir DIR       dump a minimized JSON repro per quarantined job
//! --poison LIST         insert broken cells, e.g. panic:3,spin:7,malformed:11
//! --retries N           attempts per job before quarantine (default 3)
//! ```
//!
//! `sweep` exits 0 only when every job succeeded, 2 with a failure
//! summary table when any job was quarantined, and 3 when the sweep was
//! aborted mid-run (`GREENWEB_ABORT_AFTER=K` aborts after K new result
//! lines — the hook CI's resume-parity gate kills with).
//!
//! `bench` (micro) times the microbenchmark suite serially and at
//! `--jobs`, adds per-phase pipeline totals from one traced run per
//! workload (plus a labeled aggregate), and writes the comparison to
//! `BENCH_evaluate.json`. `bench --suite style` runs
//! the naive-vs-bucketed selector-matching suite and writes
//! `BENCH_style.json`. `bench --suite script` runs the script-pipeline
//! compile-once suite (bytecode VM vs tree-walking oracle, counters
//! only) and writes `BENCH_script.json`. `bench --suite paint` runs the
//! incremental-rendering suite (naive full relayout vs cached
//! subtrees + retained display list, counters only) and writes
//! `BENCH_paint.json`. `metrics` prints one workload's deterministic
//! [`RunMetrics`] JSON for inspection; the workload parity test
//! (`cargo test --test properties oracle_pins_leave_metrics_unchanged`)
//! computes the same JSON in-process under each oracle pin.
//!
//! [`RunMetrics`]: greenweb::metrics::RunMetrics

use greenweb::autogreen::AutoGreen;
use greenweb::qos::Scenario;
use greenweb_bench::figures::{run_apps, run_suite_with, AppRuns, SuiteKind};
use greenweb_bench::{ablation, profile, render, tables};
use greenweb_fleet::Jobs;
use greenweb_workloads::harness::{expectations, run, Policy};
use std::collections::HashMap;

fn main() {
    let mut command: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut workload = String::from("Paper.js");
    let mut suite_name = String::from("micro");
    let mut jobs = Jobs::from_env();
    let mut out_path: Option<String> = None;
    let mut resume = false;
    let mut repro_dir: Option<String> = None;
    let mut poison = String::new();
    let mut retries: u32 = 3;
    let mut positionals: Vec<String> = Vec::new();
    let mut json_output = false;
    let mut flame_output = false;
    let mut poison_summaries = false;
    let mut tolerance: f64 = 0.05;
    let mut ignore = String::new();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--trace" => trace_path = Some(argv.next().expect("--trace requires a file path")),
            "--workload" => {
                workload = argv.next().expect("--workload requires a workload name");
            }
            "--suite" => {
                suite_name = argv.next().expect("--suite requires a suite name");
            }
            "--jobs" => {
                jobs = argv
                    .next()
                    .expect("--jobs requires a worker count")
                    .parse()
                    .expect("--jobs requires a positive integer");
            }
            "--out" => out_path = Some(argv.next().expect("--out requires a file path")),
            "--resume" => resume = true,
            "--repro-dir" => {
                repro_dir = Some(argv.next().expect("--repro-dir requires a directory"));
            }
            "--poison" => poison = argv.next().expect("--poison requires a kind:index list"),
            "--retries" => {
                retries = argv
                    .next()
                    .expect("--retries requires a count")
                    .parse()
                    .expect("--retries requires a positive integer");
            }
            "--json" => json_output = true,
            "--flame" => flame_output = true,
            "--poison-summaries" => poison_summaries = true,
            "--tolerance" => {
                tolerance = argv
                    .next()
                    .expect("--tolerance requires a value")
                    .parse()
                    .expect("--tolerance requires a number");
            }
            "--ignore" => ignore = argv.next().expect("--ignore requires a key list"),
            other => {
                // First bare word is the command; the rest are its
                // positional operands (`diff OLD NEW`).
                if command.is_none() {
                    command = Some(other.to_string());
                } else {
                    positionals.push(other.to_string());
                }
            }
        }
    }
    // A bare `--trace out.json` means "just the traced run, exported".
    let command = command.unwrap_or_else(|| {
        if trace_path.is_some() {
            "trace".into()
        } else {
            "all".into()
        }
    });
    let mut cache: HashMap<SuiteKind, Vec<AppRuns>> = HashMap::new();
    let wants = |name: &str| command == name || command == "all";

    if command == "bench" {
        match suite_name.as_str() {
            "micro" => bench_report(jobs),
            "style" => style_bench_report(),
            "script" => script_bench_report(),
            "paint" => paint_bench_report(),
            other => {
                panic!("unknown bench suite {other:?} (expected micro, style, script, or paint)")
            }
        }
        return;
    }
    if command == "metrics" {
        metrics_report(&workload);
        return;
    }
    if command == "soundness" {
        std::process::exit(soundness_command(jobs, poison_summaries));
    }
    if command == "sweep" {
        let out = out_path.expect("sweep requires --out FILE");
        std::process::exit(sweep_command(
            &out, resume, repro_dir, &poison, retries, jobs,
        ));
    }
    if command == "attribute" {
        attribute_command(&workload, json_output, flame_output);
        return;
    }
    if command == "diff" {
        std::process::exit(diff_command(&positionals, tolerance, &ignore));
    }

    if wants("table1") {
        println!("{}", tables::table1());
    }
    if wants("table2") {
        println!("{}", tables::table2());
    }
    if wants("table3") {
        println!("{}", tables::table3());
    }
    if wants("fig9a") {
        let suite = suite(&mut cache, SuiteKind::Micro, jobs);
        println!(
            "{}",
            render::energy_figure(
                "Fig. 9a: microbenchmark energy normalized to Perf \
                 (paper: GreenWeb-I 31.9% / GreenWeb-U 78.0% mean saving)",
                suite
            )
        );
    }
    if wants("fig9b") {
        let suite = suite(&mut cache, SuiteKind::Micro, jobs);
        println!(
            "{}",
            render::violation_figure(
                "Fig. 9b (imperceptible): extra QoS violation over Perf (paper mean: 1.3%)",
                suite,
                Scenario::Imperceptible
            )
        );
        println!(
            "{}",
            render::violation_figure(
                "Fig. 9b (usable): extra QoS violation over Perf (paper mean: 1.2%)",
                suite,
                Scenario::Usable
            )
        );
    }
    if wants("fig10a") {
        let suite = suite(&mut cache, SuiteKind::Full, jobs);
        println!(
            "{}",
            render::energy_figure(
                "Fig. 10a: full-interaction energy normalized to Perf \
                 (paper: 29.2% / 66.0% mean saving vs Interactive)",
                suite
            )
        );
    }
    if wants("fig10b") {
        let suite = suite(&mut cache, SuiteKind::Full, jobs);
        println!(
            "{}",
            render::violation_figure(
                "Fig. 10b: extra QoS violation over Perf, imperceptible (paper mean: 0.8%)",
                suite,
                Scenario::Imperceptible
            )
        );
    }
    if wants("fig10c") {
        let suite = suite(&mut cache, SuiteKind::Full, jobs);
        println!(
            "{}",
            render::violation_figure(
                "Fig. 10c: extra QoS violation over Perf, usable (paper mean: 0.6%)",
                suite,
                Scenario::Usable
            )
        );
    }
    if wants("fig11") {
        let suite = suite(&mut cache, SuiteKind::Full, jobs);
        println!(
            "{}",
            render::residency_figure(
                "Fig. 11a: configuration residency, GreenWeb-I",
                suite,
                Scenario::Imperceptible
            )
        );
        println!(
            "{}",
            render::residency_figure(
                "Fig. 11b: configuration residency, GreenWeb-U",
                suite,
                Scenario::Usable
            )
        );
        println!("{}", render::residency_contrast(suite));
    }
    if wants("fig12") {
        let suite = suite(&mut cache, SuiteKind::Full, jobs);
        println!("{}", render::switching_figure(suite));
    }
    if wants("autogreen") {
        autogreen_report();
    }
    if wants("uai") {
        uai_demo();
    }
    if wants("ablation") {
        let workloads = greenweb_workloads::all();
        let surgy: Vec<_> = workloads
            .iter()
            .filter(|w| matches!(w.name, "W3School" | "Cnet" | "Amazon"))
            .cloned()
            .collect();
        let cells = ablation::feedback_ablation_with(&surgy, jobs);
        println!("{}", ablation::render_feedback_ablation(&cells));
        println!(
            "{}",
            ablation::granularity_ablation_with(
                &greenweb_workloads::by_name("Goo.ne.jp").expect("workload exists"),
                jobs
            )
        );
        let continuous: Vec<_> = workloads
            .iter()
            .filter(|w| matches!(w.name, "Goo.ne.jp" | "Craigslist" | "W3School"))
            .cloned()
            .collect();
        println!("{}", ablation::acmp_ablation_with(&continuous, jobs));
    }
    if wants("ebs") {
        let chosen: Vec<_> = greenweb_workloads::all()
            .iter()
            .filter(|w| matches!(w.name, "MSN" | "Todo" | "CamanJS" | "Goo.ne.jp"))
            .cloned()
            .collect();
        println!("{}", ablation::ebs_comparison_with(&chosen, jobs));
    }
    if wants("multiapp") {
        println!("{}", ablation::background_load_experiment_with(jobs));
    }
    if wants("percentiles") || command == "trace" {
        let w = greenweb_workloads::by_name(&workload)
            .unwrap_or_else(|| panic!("unknown workload {workload:?}"));
        let scenario = Scenario::Imperceptible;
        let profiled =
            profile::profile(&w, &Policy::GreenWeb(scenario), scenario).expect("traced run");
        println!("{}", profile::render(&profiled));
        if let Some(path) = &trace_path {
            std::fs::write(path, profile::export_json(&profiled)).expect("write trace file");
            println!(
                "wrote Chrome trace-event JSON ({} events, {} dropped) to {path}",
                profiled.buffer.events.len(),
                profiled.buffer.dropped
            );
            println!("open it in https://ui.perfetto.dev or chrome://tracing");
        }
    }
}

/// Runs (or resumes) the supervised canonical sweep and returns the
/// process exit code: 0 all ok, 2 quarantined failures (summary table
/// on stderr), 3 aborted mid-run.
fn sweep_command(
    out: &str,
    resume: bool,
    repro_dir: Option<String>,
    poison: &str,
    retries: u32,
    jobs: Jobs,
) -> i32 {
    use greenweb_workloads::sweep::{parse_poison_list, run_sweep, SweepConfig, SweepPlan};
    let poisons = parse_poison_list(poison).expect("--poison");
    let plan = SweepPlan::canonical().with_poison(&poisons);
    #[allow(clippy::disallowed_methods)] // the kill hook of CI's resume-parity gate
    let abort_after = std::env::var("GREENWEB_ABORT_AFTER")
        .ok()
        .map(|k| k.parse().expect("GREENWEB_ABORT_AFTER must be a count"));
    let config = SweepConfig {
        out: out.into(),
        resume,
        repro_dir: repro_dir.map(Into::into),
        retry: greenweb_fleet::RetryPolicy {
            max_attempts: retries.max(1),
            ..greenweb_fleet::RetryPolicy::default()
        },
        jobs,
        abort_after,
    };
    eprintln!(
        "sweeping {} jobs ({} worker(s)) into {out}{}...",
        plan.cells.len(),
        jobs,
        if resume { ", resuming" } else { "" }
    );
    let result = match run_sweep(&plan, &config) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("sweep failed: {e}");
            return 1;
        }
    };
    let report = &result.report;
    if result.resumed_jobs > 0 {
        eprintln!("resumed past {} checkpointed job(s)", result.resumed_jobs);
    }
    eprintln!(
        "merged frame-latency histogram: {} frames, mean {:.2} ms, p50 {:.2} ms, p99 {:.2} ms, max {:.2} ms",
        result.merged.count(),
        result.merged.mean(),
        result.merged.quantile(0.50),
        result.merged.quantile(0.99),
        result.merged.max(),
    );
    // Corpus-level "where does the energy go": the merge of every ok
    // job's sparse attribution summary, identical serial or parallel.
    let attr = &result.attribution;
    let phases: Vec<String> = greenweb_trace::SpanKind::ALL
        .iter()
        .zip(&attr.phase_mj)
        .map(|(kind, mj)| format!("{} {mj:.1}", kind.name()))
        .collect();
    eprintln!(
        "corpus attribution: {:.1} mJ total ({} in-span, idle {:.1}, unattributed {:.1}); {} deadline miss(es)",
        attr.total_mj,
        phases.join(", "),
        attr.idle_mj,
        attr.unattributed_mj,
        attr.misses,
    );
    eprintln!(
        "per-event energy: {} events, mean {:.3} mJ, p99 {:.3} mJ, max {:.3} mJ",
        attr.event_mj.count(),
        attr.event_mj.mean(),
        attr.event_mj.quantile(0.99),
        attr.event_mj.max(),
    );
    if report.aborted {
        eprintln!(
            "sweep aborted after {} of {} jobs; rerun with --resume to finish",
            report.ok + report.quarantined,
            report.total
        );
    } else if !report.all_ok() {
        eprint!("{}", report.summary_table());
    } else {
        eprintln!("all {} jobs ok", report.total);
    }
    result.exit_code()
}

/// Profiles one workload under GreenWeb-I and prints its energy/QoS
/// attribution: top-N text tables by default, the deterministic profile
/// JSON with `--json`, or a Perfetto-loadable slice trace (one slice
/// per attributed span, mJ and ops in args) with `--flame`.
fn attribute_command(workload: &str, json_output: bool, flame_output: bool) {
    let w = greenweb_workloads::by_name(workload)
        .unwrap_or_else(|| panic!("unknown workload {workload:?}"));
    let scenario = Scenario::Imperceptible;
    let profiled = profile::profile(&w, &Policy::GreenWeb(scenario), scenario).expect("traced run");
    let attribution = greenweb_trace::AttributionProfile::from_trace(&profiled.buffer);
    if json_output {
        print!("{}", attribution.render_json());
    } else if flame_output {
        print!("{}", attribution.flame_json(workload));
    } else {
        print!("{}", attribution.render_tables(10));
    }
}

/// Compares two JSON files field by field and returns the process exit
/// code: 0 when they agree within tolerance, 1 otherwise (one stdout
/// line per differing field).
fn diff_command(paths: &[String], tolerance: f64, ignore: &str) -> i32 {
    use greenweb_bench::diff::{diff_json, DiffOptions};
    let [old_path, new_path] = paths else {
        eprintln!("diff requires exactly two paths: evaluate diff OLD.json NEW.json");
        return 1;
    };
    let read = |path: &String| {
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"))
    };
    let options = DiffOptions {
        tolerance,
        ignore: ignore
            .split(',')
            .filter(|key| !key.is_empty())
            .map(str::to_string)
            .collect(),
    };
    match diff_json(&read(old_path), &read(new_path), &options) {
        Ok(differences) if differences.is_empty() => {
            println!(
                "{old_path} and {new_path} agree within {:.1}% tolerance",
                tolerance * 100.0
            );
            0
        }
        Ok(differences) => {
            for difference in &differences {
                println!("{difference}");
            }
            eprintln!(
                "{} field(s) drifted beyond {:.1}% tolerance",
                differences.len(),
                tolerance * 100.0
            );
            1
        }
        Err(e) => {
            eprintln!("diff failed: {e}");
            1
        }
    }
}

fn suite(
    cache: &mut HashMap<SuiteKind, Vec<AppRuns>>,
    kind: SuiteKind,
    jobs: Jobs,
) -> &Vec<AppRuns> {
    cache.entry(kind).or_insert_with(|| {
        eprintln!("running {kind:?} suite (12 apps x 4 policies, {jobs} worker(s))...");
        run_suite_with(kind, jobs)
    })
}

/// Times the microbenchmark suite serially and at `jobs`, checks the two
/// results agree bit for bit, and writes `BENCH_evaluate.json`.
fn bench_report(jobs: Jobs) {
    use std::time::Instant;
    let workloads = greenweb_workloads::all();
    eprintln!("timing micro suite serially...");
    let started = Instant::now();
    let serial = run_apps(&workloads, SuiteKind::Micro, Jobs::serial());
    let serial_s = started.elapsed().as_secs_f64();
    eprintln!("timing micro suite at {jobs} worker(s)...");
    let started = Instant::now();
    let parallel = run_apps(&workloads, SuiteKind::Micro, jobs);
    let parallel_s = started.elapsed().as_secs_f64();
    let identical = serial.len() == parallel.len()
        && serial.iter().zip(&parallel).all(|(a, b)| {
            a.perf.report.total_mj() == b.perf.report.total_mj()
                && a.interactive.report.total_mj() == b.interactive.report.total_mj()
                && a.greenweb_i.metrics_i.render_json() == b.greenweb_i.metrics_i.render_json()
                && a.greenweb_u.metrics_u.render_json() == b.greenweb_u.metrics_u.render_json()
        });
    assert!(identical, "serial and parallel suites diverged");
    // Per-phase pipeline totals from one traced run per workload:
    // simulated-time span durations, so these are deterministic (unlike
    // the wall-clock numbers above). "script" is the callback stage.
    // Every workload gets its own breakdown plus a labeled aggregate —
    // a suite-wide number used to hide per-app regressions behind
    // Paper.js, the only app the old report covered.
    let mut per_workload = Vec::with_capacity(workloads.len());
    let mut aggregate = [0.0f64; 4];
    for w in &workloads {
        let profiled = profile::profile(
            w,
            &Policy::GreenWeb(Scenario::Imperceptible),
            Scenario::Imperceptible,
        )
        .expect("traced run");
        let registry = greenweb_trace::MetricsRegistry::from_trace(&profiled.buffer);
        let stage_total_ms = |kind: greenweb_trace::SpanKind| {
            registry
                .histogram(&format!("stage.{}", kind.name()))
                .map_or(0.0, |h| h.mean() * h.count() as f64)
        };
        let phases = [
            stage_total_ms(greenweb_trace::SpanKind::Style),
            stage_total_ms(greenweb_trace::SpanKind::Layout),
            stage_total_ms(greenweb_trace::SpanKind::Paint),
            stage_total_ms(greenweb_trace::SpanKind::Callback),
        ];
        for (total, phase) in aggregate.iter_mut().zip(&phases) {
            *total += phase;
        }
        per_workload.push(phase_entry(w.name, &phases));
    }
    let json = format!(
        "{{\"suite\":\"micro\",\"cells\":{},\"hardware_parallelism\":{},\"jobs\":{},\
         \"serial_s\":{serial_s:.3},\"parallel_s\":{parallel_s:.3},\"speedup\":{:.2},\
         \"identical\":{identical},\
         \"phases_ms\":[{}],\
         \"phases_ms_aggregate\":{}}}\n",
        workloads.len() * 4,
        Jobs::auto(),
        jobs,
        serial_s / parallel_s.max(1e-9),
        per_workload.join(","),
        phase_entry("aggregate", &aggregate),
    );
    std::fs::write("BENCH_evaluate.json", &json).expect("write BENCH_evaluate.json");
    println!(
        "serial {serial_s:.3}s, {jobs} worker(s) {parallel_s:.3}s, speedup {:.2}x \
         (results bit-identical); wrote BENCH_evaluate.json",
        serial_s / parallel_s.max(1e-9)
    );
}

/// One `phases_ms` object for `BENCH_evaluate.json`: a workload label
/// plus its style/layout/paint/script totals in simulated milliseconds.
fn phase_entry(label: &str, phases: &[f64; 4]) -> String {
    format!(
        "{{\"workload\":\"{label}\",\"style\":{:.3},\"layout\":{:.3},\
         \"paint\":{:.3},\"script\":{:.3}}}",
        phases[0], phases[1], phases[2], phases[3],
    )
}

/// Runs the style microbenchmark suite, asserts the counter-based
/// acceptance gate (≥ 3× fewer exact matches than naive), and writes
/// `BENCH_style.json`.
fn style_bench_report() {
    use greenweb_bench::stylebench;
    let report = stylebench::run_suite();
    print!("{}", report.render_text());
    assert!(report.identical, "bucketed resolver diverged from naive");
    assert!(
        report.match_ratio() >= 3.0,
        "expected >= 3x fewer exact matches, got {:.2}x",
        report.match_ratio()
    );
    std::fs::write("BENCH_style.json", report.render_json()).expect("write BENCH_style.json");
    println!("wrote BENCH_style.json");
}

/// Runs the script-pipeline suite, asserts the compile-once acceptance
/// gate (compile count ≤ handler count, independent of event volume;
/// results identical to the tree-walking oracle), and writes
/// `BENCH_script.json`.
fn script_bench_report() {
    use greenweb_bench::scriptbench;
    let report = scriptbench::run_suite();
    print!("{}", report.render_text());
    assert!(report.identical(), "bytecode VM diverged from the oracle");
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
    std::fs::write("BENCH_script.json", report.render_json()).expect("write BENCH_script.json");
    println!("wrote BENCH_script.json");
}

/// Runs the render-pipeline suite, asserts the incremental-rendering
/// acceptance gate (naive oracle identical; ≥ 3× fewer elements
/// measured; subtree reuses and partial repaints observed; dirty/damage
/// counters mode-independent), and writes `BENCH_paint.json`.
fn paint_bench_report() {
    use greenweb_bench::paintbench;
    let report = paintbench::run_suite();
    print!("{}", report.render_text());
    assert!(
        report.identical(),
        "incremental rendering diverged from the naive oracle"
    );
    assert!(
        report.pricing_mode_independent(),
        "dirty/damage counters differed between rendering modes"
    );
    assert!(
        report.layout_ratio() >= 3.0,
        "expected >= 3x fewer elements laid out, got {:.2}x",
        report.layout_ratio()
    );
    assert!(report.total_subtree_reuses() > 0, "no subtree reuses");
    assert!(report.total_partial_repaints() > 0, "no partial repaints");
    std::fs::write("BENCH_paint.json", report.render_json()).expect("write BENCH_paint.json");
    println!("wrote BENCH_paint.json");
}

/// Runs one workload's full trace under GreenWeb-I and prints its
/// deterministic metrics JSON. The inferred effect summaries are
/// attached, so summary-gated invalidation downgrades (and their
/// containment checks) are live. The workload parity test in
/// `tests/properties.rs` builds the same run with each oracle pin.
fn metrics_report(workload: &str) {
    let w = greenweb_workloads::by_name(workload)
        .unwrap_or_else(|| panic!("unknown workload {workload:?}"));
    let mut app = w.app.clone();
    app.effect_summaries = greenweb_analyze::infer_effect_summaries(&app);
    let scenario = Scenario::Imperceptible;
    let report = run(&app, &w.full, &Policy::GreenWeb(scenario)).expect("run");
    let expected = expectations(&app, &w.full, scenario);
    let metrics = greenweb::metrics::RunMetrics::compute(&report, &expected);
    println!("{}", metrics.render_json());
}

/// The fleet-scale `dynamic ⊆ static` soundness gate: every workload's
/// full-interaction trace under each paper policy, with the statically
/// inferred effect summaries attached. Exit 0 requires zero containment
/// violations *and* a non-zero number of containment checks (a silently
/// detached gate must not pass). With `poison`, each summary is replaced
/// by the all-pure bottom — a deliberate under-approximation — and the
/// exit codes invert: violations are *required*.
fn soundness_command(jobs: Jobs, poison: bool) -> i32 {
    use greenweb_engine::{App, EffectSummary};
    use greenweb_workloads::harness::run_many;
    let workloads = greenweb_workloads::all();
    let policies = Policy::paper_set();
    let apps: Vec<App> = workloads
        .iter()
        .map(|w| {
            let mut app = w.app.clone();
            let mut summaries = greenweb_analyze::infer_effect_summaries(&app);
            if poison {
                for hs in &mut summaries {
                    hs.summary = EffectSummary::pure();
                }
            }
            app.effect_summaries = summaries;
            app
        })
        .collect();
    let mut cells = Vec::new();
    let mut labels = Vec::new();
    for (w, app) in workloads.iter().zip(&apps) {
        for policy in &policies {
            cells.push((app, &w.full, policy));
            labels.push(format!("{} under {policy}", w.name));
        }
    }
    eprintln!(
        "soundness: {} cell(s) ({} workloads x {} policies, {jobs} worker(s)){}...",
        cells.len(),
        workloads.len(),
        policies.len(),
        if poison { ", poisoned summaries" } else { "" },
    );
    let reports = run_many(&cells, jobs);
    let mut checks = 0u64;
    let mut violations = Vec::new();
    let mut failures = 0usize;
    for (label, report) in labels.iter().zip(reports) {
        match report {
            Ok(r) => {
                checks += r.effect_checks;
                violations.extend(r.effect_violations.iter().map(|v| format!("{label}: {v}")));
            }
            Err(e) => {
                eprintln!("{label}: run failed: {e}");
                failures += 1;
            }
        }
    }
    println!(
        "soundness: {} run(s), {checks} containment check(s), {} violation(s)",
        labels.len(),
        violations.len(),
    );
    if failures > 0 {
        eprintln!("{failures} run(s) failed outright");
        return 1;
    }
    if checks == 0 {
        eprintln!("no containment checks ran — summaries were never attached or consumed");
        return 1;
    }
    if poison {
        if violations.is_empty() {
            eprintln!(
                "poisoned (all-pure) summaries produced no violations — the detector is dead"
            );
            return 1;
        }
        println!(
            "poison self-check ok: {} violation(s) caught as expected",
            violations.len()
        );
        return 0;
    }
    if violations.is_empty() {
        println!("dynamic ⊆ static holds across the fleet");
        0
    } else {
        for v in &violations {
            eprintln!("{v}");
        }
        eprintln!("static effect summaries are unsound for the runs above");
        1
    }
}

fn autogreen_report() {
    println!("AUTOGREEN: automatic annotation coverage (Sec. 5)\n");
    println!(
        "{:<11} {:>10} {:>8} {:>11}",
        "app", "annotated", "skipped", "continuous"
    );
    let annotator = AutoGreen::new();
    for w in greenweb_workloads::all() {
        match annotator.detect(&w.unannotated_app) {
            Ok(report) => {
                let continuous = report
                    .annotations
                    .annotations()
                    .iter()
                    .filter(|a| a.spec.qos_type == greenweb::qos::QosType::Continuous)
                    .count();
                println!(
                    "{:<11} {:>10} {:>8} {:>11}",
                    w.name,
                    report.annotations.len(),
                    report.skipped.len(),
                    continuous
                );
            }
            Err(e) => println!("{:<11} failed: {e}", w.name),
        }
    }
    println!();
}

fn uai_demo() {
    println!("UAI mis-annotation defense (Sec. 8)\n");
    // Hostile annotation: force every event to a 1 ms target.
    let w = greenweb_workloads::by_name("Goo.ne.jp").expect("workload exists");
    let mut hostile = w.unannotated_app.clone();
    hostile
        .css
        .push("*:QoS { onclick-qos: continuous, 1, 1; }".to_string());
    let unprotected = run(
        &hostile,
        &w.full,
        &Policy::GreenWeb(Scenario::Imperceptible),
    )
    .expect("run");
    let budget = unprotected.total_mj() * 0.4;
    let protected = run(
        &hostile,
        &w.full,
        &Policy::GreenWebUai(Scenario::Imperceptible, budget),
    )
    .expect("run");
    let honest = run(&w.app, &w.full, &Policy::GreenWeb(Scenario::Imperceptible)).expect("run");
    let _ = expectations(&hostile, &w.full, Scenario::Imperceptible);
    println!(
        "honest annotations:              {:>8.0} mJ",
        honest.total_mj()
    );
    println!(
        "hostile 1 ms targets:            {:>8.0} mJ",
        unprotected.total_mj()
    );
    println!(
        "hostile + UAI budget ({budget:.0} mJ): {:>8.0} mJ",
        protected.total_mj()
    );
    println!();
}
