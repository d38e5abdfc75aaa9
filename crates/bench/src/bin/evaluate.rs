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
//! evaluate bench                      write the four BENCH_*.json reports
//! evaluate metrics                    one workload's RunMetrics as JSON
//! evaluate soundness                  dynamic ⊆ static effect-summary gate
//! evaluate sweep --out F              supervised, checkpointed matrix sweep
//! evaluate attribute                  per-event energy attribution profile
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
//! --jobs N              worker threads for simulation batches (default:
//!                       GREENWEB_JOBS, else hardware parallelism; 1 runs
//!                       every job inline — output is identical either
//!                       way)
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
//! An unknown command, an unknown flag or a second bare word prints the
//! usage line to stderr and exits 2.
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
//! ```
//!
//! Each job runs once: a failing job is quarantined on its first
//! failure, since the same spec would fail the same way again. `sweep`
//! exits 0 only when every job succeeded, 2 with a failure
//! summary table when any job was quarantined, and 3 when the sweep was
//! aborted mid-run (`GREENWEB_ABORT_AFTER=K` aborts after K new result
//! lines — the hook CI's resume-parity gate kills with).
//!
//! `bench` writes every report of [`bench_reports`]: per-phase pipeline
//! totals in simulated ms (`BENCH_evaluate.json`) and the style, script
//! and paint suites' counters (`BENCH_style.json`, `BENCH_script.json`,
//! `BENCH_paint.json`); `tests/reports.rs` checks the committed files
//! against a fresh render byte for byte. `metrics` prints one workload's
//! deterministic [`RunMetrics`] JSON ([`metrics_report`]), which the same
//! test file checks against `tests/goldens/metrics`; the workload parity
//! test (`cargo test --test properties
//! oracle_pins_leave_metrics_unchanged`) computes the same JSON
//! in-process under the paint-mode oracle pin.
//!
//! [`RunMetrics`]: greenweb::metrics::RunMetrics
//! [`bench_reports`]: greenweb_bench::bench_reports
//! [`metrics_report`]: greenweb_bench::metrics_report

use greenweb::autogreen::AutoGreen;
use greenweb::qos::Scenario;
use greenweb_bench::figures::{run_apps, AppRuns, SuiteKind};
use greenweb_bench::{ablation, bench_reports, metrics_report, profile, render, tables};
use greenweb_fleet::Jobs;
use greenweb_workloads::harness::{expectations, run, Policy};
use std::collections::HashMap;

/// Every command `evaluate` accepts, as the usage line lists them.
const COMMANDS: &str = "all|table1|table2|table3|fig9a|fig9b|fig10a|fig10b|fig10c|fig11|fig12|\
                        autogreen|uai|ablation|ebs|multiapp|percentiles|trace|bench|metrics|\
                        soundness|sweep|attribute";

/// Prints the usage line to stderr and exits 2.
fn usage_error(problem: &str) -> ! {
    eprintln!("evaluate: {problem}");
    eprintln!(
        "usage: evaluate [{COMMANDS}] [--workload NAME] [--jobs N] [--trace FILE] \
         [--json|--flame] [--poison-summaries] \
         [--out FILE [--resume] [--repro-dir DIR] [--poison LIST]]"
    );
    std::process::exit(2);
}

fn main() {
    let mut command: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut workload = String::from("Paper.js");
    let mut jobs = Jobs::from_env();
    let mut out_path: Option<String> = None;
    let mut resume = false;
    let mut repro_dir: Option<String> = None;
    let mut poison = String::new();
    let mut json_output = false;
    let mut flame_output = false;
    let mut poison_summaries = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--trace" => trace_path = Some(argv.next().expect("--trace requires a file path")),
            "--workload" => {
                workload = argv.next().expect("--workload requires a workload name");
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
            "--json" => json_output = true,
            "--flame" => flame_output = true,
            "--poison-summaries" => poison_summaries = true,
            flag if flag.starts_with("--") => usage_error(&format!("unknown flag {flag:?}")),
            word if !COMMANDS.split('|').any(|c| c == word) => {
                usage_error(&format!("unknown command {word:?}"));
            }
            word => {
                if let Some(first) = &command {
                    usage_error(&format!("unexpected {word:?} after command {first:?}"));
                }
                command = Some(word.to_string());
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
        for (file, json) in bench_reports() {
            std::fs::write(file, json).unwrap_or_else(|e| panic!("write {file}: {e}"));
            println!("wrote {file}");
        }
        return;
    }
    if command == "metrics" {
        let w = greenweb_workloads::by_name(&workload)
            .unwrap_or_else(|| panic!("unknown workload {workload:?}"));
        print!("{}", metrics_report(&w));
        return;
    }
    if command == "soundness" {
        std::process::exit(soundness_command(jobs, poison_summaries));
    }
    if command == "sweep" {
        let out = out_path.expect("sweep requires --out FILE");
        std::process::exit(sweep_command(&out, resume, repro_dir, &poison, jobs));
    }
    if command == "attribute" {
        attribute_command(&workload, json_output, flame_output);
        return;
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
        let cells = ablation::feedback_ablation(&surgy, jobs);
        println!("{}", ablation::render_feedback_ablation(&cells));
        println!(
            "{}",
            ablation::granularity_ablation(
                &greenweb_workloads::by_name("Goo.ne.jp").expect("workload exists"),
                jobs
            )
        );
        let continuous: Vec<_> = workloads
            .iter()
            .filter(|w| matches!(w.name, "Goo.ne.jp" | "Craigslist" | "W3School"))
            .cloned()
            .collect();
        println!("{}", ablation::acmp_ablation(&continuous, jobs));
    }
    if wants("ebs") {
        let chosen: Vec<_> = greenweb_workloads::all()
            .iter()
            .filter(|w| matches!(w.name, "MSN" | "Todo" | "CamanJS" | "Goo.ne.jp"))
            .cloned()
            .collect();
        println!("{}", ablation::ebs_comparison(&chosen, jobs));
    }
    if wants("multiapp") {
        println!("{}", ablation::background_load_experiment(jobs));
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

fn suite(
    cache: &mut HashMap<SuiteKind, Vec<AppRuns>>,
    kind: SuiteKind,
    jobs: Jobs,
) -> &Vec<AppRuns> {
    cache.entry(kind).or_insert_with(|| {
        eprintln!("running {kind:?} suite (12 apps x 4 policies, {jobs} worker(s))...");
        run_apps(&greenweb_workloads::all(), kind, jobs)
    })
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
