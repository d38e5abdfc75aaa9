//! `greenweb-lint`: the GreenLint CLI.
//!
//! Statically analyzes bundled workload apps (or all of them) and prints
//! lint-coded diagnostics as text or deterministic JSON. Golden modes
//! back the CI gate:
//!
//! ```text
//! greenweb_lint                         lint every bundled workload (text)
//! greenweb_lint --workload Todo         lint one workload
//! greenweb_lint --json                  JSON, one document per app line
//! greenweb_lint --write tests/goldens/lint    (re)write golden JSON files
//! greenweb_lint --check tests/goldens/lint    diff against goldens
//! greenweb_lint --jobs N                analyze on N worker threads
//! greenweb_lint --effects [--json]      inferred per-handler effect summaries
//! ```
//!
//! `--effects` switches the payload from diagnostics to the inferred
//! effect-summary table (the same table `evaluate` attaches to engine
//! runs); it composes with `--write`/`--check` against a separate golden
//! directory (`tests/goldens/effects`).
//!
//! Analyses run on the deterministic executor (default worker count from
//! `GREENWEB_JOBS`, else hardware parallelism); reports are emitted in
//! workload order regardless, so output and goldens are byte-identical
//! at any `--jobs` value.
//!
//! Exit status is non-zero when any error-severity diagnostic fires, or
//! in `--check` mode when output differs from the committed goldens.
//! `--help` (or `-h`) prints the usage block above and exits 0; an
//! unknown word, or a flag missing its value, prints it to stderr and
//! exits 2.

use greenweb_analyze::analyze;
use greenweb_bench::golden_name;
use greenweb_fleet::{run_jobs, Jobs};
use greenweb_workloads::{all, by_name, Workload};
use std::path::Path;
use std::process::{exit, ExitCode};

/// The usage block of the module doc, verbatim.
const USAGE: &str = "\
greenweb_lint                         lint every bundled workload (text)
greenweb_lint --workload Todo         lint one workload
greenweb_lint --json                  JSON, one document per app line
greenweb_lint --write tests/goldens/lint    (re)write golden JSON files
greenweb_lint --check tests/goldens/lint    diff against goldens
greenweb_lint --jobs N                analyze on N worker threads
greenweb_lint --effects [--json]      inferred per-handler effect summaries
";

/// Prints `problem` and the usage block to stderr and exits 2.
fn usage_error(problem: &str) -> ! {
    eprint!("{problem}\nusage:\n{USAGE}");
    exit(2)
}

fn main() -> ExitCode {
    let mut json = false;
    let mut effects = false;
    let mut write_dir: Option<String> = None;
    let mut check_dir: Option<String> = None;
    let mut workload: Option<String> = None;
    let mut jobs = Jobs::from_env();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = || {
            argv.next()
                .unwrap_or_else(|| usage_error(&format!("{arg} requires a value")))
        };
        match arg.as_str() {
            "--help" | "-h" => {
                print!("usage:\n{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--json" => json = true,
            "--effects" => effects = true,
            "--all" => workload = None,
            "--write" => write_dir = Some(value()),
            "--check" => check_dir = Some(value()),
            "--workload" => workload = Some(value()),
            "--jobs" => {
                jobs = match value().parse::<Jobs>() {
                    Ok(jobs) => jobs,
                    Err(e) => {
                        eprintln!("--jobs requires a positive integer: {e}");
                        return ExitCode::FAILURE;
                    }
                };
            }
            other => usage_error(&format!("unknown argument `{other}`")),
        }
    }

    let workloads: Vec<Workload> = match &workload {
        Some(name) => match by_name(name) {
            Some(w) => vec![w],
            None => {
                eprintln!("unknown workload `{name}`");
                return ExitCode::FAILURE;
            }
        },
        None => all(),
    };

    // Analyze every app on the executor; reports come back in workload
    // order, so the emission loop below is identical at any --jobs.
    let analyses = workloads
        .iter()
        .map(|w| {
            let app = &w.app;
            move || analyze(app)
        })
        .collect();
    let reports = run_jobs(analyses, jobs);

    let mut failed = false;
    for (w, report) in workloads.iter().zip(reports) {
        if report.has_errors() {
            failed = true;
        }
        let payload = if effects {
            report.render_effects_json()
        } else {
            report.render_json()
        };
        if let Some(dir) = &write_dir {
            let path = Path::new(dir).join(golden_name(w.name));
            if let Err(e) = std::fs::write(&path, payload + "\n") {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("wrote {}", path.display());
        } else if let Some(dir) = &check_dir {
            failed |= !check_golden(dir, w.name, &payload);
        } else if json || effects {
            println!("{payload}");
        } else {
            print!("{}", report.render_text());
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Compares the rendered payload against the committed golden; reports
/// drift.
fn check_golden(dir: &str, name: &str, payload: &str) -> bool {
    let path = Path::new(dir).join(golden_name(name));
    let expected = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{name}: missing golden {} ({e})", path.display());
            return false;
        }
    };
    let actual = format!("{payload}\n");
    if expected == actual {
        println!("{name}: ok");
        true
    } else {
        eprintln!(
            "{name}: lint output drifted from {} — run `cargo run -p greenweb-bench --bin \
             greenweb_lint -- --write {dir}` and review the diff",
            path.display()
        );
        eprintln!("--- expected\n{expected}--- actual\n{actual}");
        false
    }
}
