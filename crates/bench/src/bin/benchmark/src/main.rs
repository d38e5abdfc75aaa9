//! The repository benchmark: host throughput, latency, memory and
//! paper-fidelity error of the GreenWeb reproduction on four workloads,
//! plus a traced run that splits host time and allocations by layer.
//!
//! ```text
//! cargo run --release --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! ```
//!
//! Without `--workload` every workload runs; without `--trace` both the
//! end-to-end and the per-layer metrics are reported. Every metric is
//! printed with its unit, clock and sample count; the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Results and spans go under
//! `target/benchmark/`. The exit code is 0 only when every correctness
//! check passed. See `README.md` beside this package for the metrics.

mod alloc;
mod calib;
mod fidelity;
mod gen;
mod hostinfo;
mod run;
mod sched;
mod spans;
mod stats;
#[cfg(test)]
mod tests;
mod workloads;

use run::{Metric, Options, Report};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Kind, Scale};

/// Measured when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;
/// Where results, spans and scratch files go, relative to the working
/// directory.
const OUT_DIR: &str = "target/benchmark";

/// Which metric sets a run reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sets {
    EndToEnd,
    Layers,
    Both,
}

#[derive(Debug)]
struct Args {
    workloads: Vec<Kind>,
    seed: u64,
    seconds: f64,
    sets: Sets,
    out: PathBuf,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Kind::ALL.to_vec(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        sets: Sets::Both,
        out: PathBuf::from(OUT_DIR).join("results.json"),
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let kind = Kind::parse(&name).ok_or_else(|| {
                    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!(
                        "unknown workload `{name}` (expected one of {})",
                        names.join(", ")
                    )
                })?;
                parsed.workloads = vec![kind];
            }
            "--seed" => {
                parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&seconds) {
                    return Err(format!("--seconds {seconds} is outside 0..=600"));
                }
                parsed.seconds = seconds;
            }
            "--trace" => {
                parsed.sets = match value()?.as_str() {
                    "0" => Sets::EndToEnd,
                    "1" => Sets::Layers,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--out" => parsed.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// Reasons the measurement would not mean what it claims.
fn refusal() -> Option<String> {
    if cfg!(debug_assertions) {
        return Some("refusing to measure a debug build; pass --release".to_string());
    }
    // Each of these silently switches a code path (style cache, script
    // backend, paint mode, effect gate, worker count, sweep abort).
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("GREENWEB_"))
        .collect();
    (!set.is_empty()).then(|| {
        format!(
            "refusing to run with {} set: each GREENWEB_* variable switches a code path",
            set.join(", ")
        )
    })
}

fn render_metric(out: &mut String, m: &Metric) {
    let _ = writeln!(
        out,
        "  {:<28} {:>16.6} {:<8} n={:<6} [{}]",
        m.name,
        m.value,
        m.unit,
        m.samples,
        m.clock.name()
    );
}

/// A JSON number with every digit the value has (non-finite values,
/// which no metric should produce, become `null`).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn metrics_json(metrics: &[&Metric], prefix: &str, with_detail: bool) -> Vec<String> {
    metrics
        .iter()
        .map(|m| {
            let detail = if with_detail {
                format!(
                    ",\"samples\":{},\"clock\":\"{}\"",
                    m.samples,
                    m.clock.name()
                )
            } else {
                String::new()
            };
            format!(
                "\"{prefix}{}\":{{\"value\":{},\"unit\":\"{}\"{detail}}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect()
}

fn reported(report: &Report, sets: Sets) -> Vec<&Metric> {
    let e2e = sets != Sets::Layers;
    let layers = sets != Sets::EndToEnd;
    report
        .e2e
        .iter()
        .filter(|_| e2e)
        .chain(report.layers.iter().filter(|_| layers))
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(why) = refusal() {
        eprintln!("benchmark: {why}");
        return ExitCode::from(2);
    }
    let out_dir = PathBuf::from(OUT_DIR);
    let loadavg_start = hostinfo::load_average();
    let ticks_start = hostinfo::cpu_ticks();
    println!(
        "# greenweb benchmark: seed={} seconds={} trace={:?} nproc={} jobs={} loadavg={}",
        args.seed,
        args.seconds,
        args.sets,
        hostinfo::nproc(),
        workloads::sweep_jobs(),
        loadavg_start
    );

    let mut reports = Vec::new();
    for &kind in &args.workloads {
        eprintln!("benchmark: measuring {} ...", kind.name());
        let opts = Options {
            seed: args.seed,
            seconds: args.seconds,
            traced: args.sets != Sets::EndToEnd,
            scale: Scale::Full,
            scratch: out_dir.join(format!("scratch-{}", std::process::id())),
        };
        let report = run::run(kind, &opts);
        let mut text = format!(
            "\n## {}: {} timed passes of {} cells, jobs={}, calib={:.4} ms, attempted={}, failed={}, \
             fail_share={}\n",
            kind.name(),
            report.passes,
            report.cells_per_pass,
            report.jobs,
            report.calib_ms,
            report.attempted,
            report.failures.len(),
            report.fail_share(),
        );
        for m in reported(&report, args.sets) {
            render_metric(&mut text, m);
        }
        for failure in &report.failures {
            let _ = writeln!(text, "  FAILED: {failure}");
        }
        print!("{text}");
        if let Some(spans) = &report.spans_jsonl {
            let path = out_dir.join(format!("spans-{}.jsonl", kind.name()));
            if let Err(e) =
                std::fs::create_dir_all(&out_dir).and_then(|()| std::fs::write(&path, spans))
            {
                eprintln!("benchmark: cannot write {}: {e}", path.display());
            }
        }
        reports.push(report);
    }

    let steal = hostinfo::steal_pct(ticks_start, hostinfo::cpu_ticks());
    let loadavg_end = hostinfo::load_average();
    println!("\n# host: steal={steal:.3}% loadavg start={loadavg_start} end={loadavg_end}");

    let prefixed = reports.len() > 1;
    let workload_json: Vec<String> = reports
        .iter()
        .map(|r| {
            let failures: Vec<String> = r
                .failures
                .iter()
                .map(|f| format!("\"{}\"", greenweb_analyze::json_escape(f)))
                .collect();
            format!(
                "{{\"workload\":\"{}\",\"passes\":{},\"cells_per_pass\":{},\"jobs\":{},\
                 \"calib_ms\":{},\"attempted\":{},\"failed\":{},\"fail_share\":{},\"failures\":[{}],\
                 \"metrics\":{{{}}}}}",
                r.kind.name(),
                r.passes,
                r.cells_per_pass,
                r.jobs,
                json_number(r.calib_ms),
                r.attempted,
                r.failures.len(),
                json_number(r.fail_share()),
                failures.join(","),
                metrics_json(&reported(r, args.sets), "", true).join(","),
            )
        })
        .collect();
    let results = format!(
        "{{\"benchmark\":\"greenweb-benchmark-v1\",\"manifest\":{{\"seed\":{},\"seconds\":{},\
         \"nproc\":{},\"jobs\":{},\"steal_pct\":{},\"loadavg_start\":\"{}\",\"loadavg_end\":\"{}\"}},\
         \"workloads\":[{}]}}\n",
        args.seed,
        json_number(args.seconds),
        hostinfo::nproc(),
        workloads::sweep_jobs(),
        json_number(steal),
        loadavg_start,
        loadavg_end,
        workload_json.join(","),
    );
    if let Some(dir) = args.out.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&args.out, results) {
        eprintln!("benchmark: cannot write {}: {e}", args.out.display());
    }

    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let failed: usize = reports.iter().map(|r| r.failures.len()).sum();
    let metrics: Vec<String> = reports
        .iter()
        .flat_map(|r| {
            let prefix = if prefixed {
                format!("{}/", r.kind.name())
            } else {
                String::new()
            };
            metrics_json(&reported(r, args.sets), &prefix, false)
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        failed == 0,
        attempted.max(1),
        failed,
        metrics.join(","),
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
