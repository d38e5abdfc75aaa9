//! Measuring one workload: set-up repetitions, a warm-up pass, timed
//! passes with tracing off, the correctness checks, and two traced rounds
//! whose spans give the per-layer numbers.

use crate::alloc;
use crate::calib::{Calibrator, REFERENCE_MS};
use crate::fidelity::{self, Fidelity};
use crate::hostinfo;
use crate::sched::{HookStats, TimedFactory};
use crate::spans::Tracer;
use crate::stats::{median, percentile};
use crate::workloads::{self, policy_named, Inputs, Kind, Scale};
use greenweb::metrics::RunMetrics;
use greenweb::qos::Scenario;
use greenweb_acmp::{Platform, PowerModel};
use greenweb_bench::SuiteKind;
use greenweb_css::{parse_stylesheet, StyleEngine};
use greenweb_dom::parse_html;
use greenweb_engine::{Browser, RunBudget, SchedulerFactory, ScriptBackend, SimReport};
use greenweb_fleet::{run_specs, Jobs};
use greenweb_script::{compile, parse_program};
use greenweb_trace::{recorder::DEFAULT_CAPACITY, AttributionProfile, TraceHandle};
use greenweb_workloads::harness::{expectations, lower};
use greenweb_workloads::sweep::json::JsonValue;
use greenweb_workloads::sweep::{run_sweep, SweepCell, SweepConfig, SweepPlan, SweepResult};
use std::fs;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Repetitions of the input construction behind `setup_s`.
const SETUP_REPS: usize = 25;
/// Timed passes stop being started after this long even if the minimum
/// pass count is not reached, so a run always ends within three minutes;
/// the missing samples then fail the percentile check.
const MEASURE_CAP: Duration = Duration::from_secs(120);
/// Cells of a pass are calibrated in segments of at least this much
/// host time: often enough to follow the machine's speed changes, which
/// last from a fraction of a second to minutes, rarely enough that the
/// kernel adds about 2% to a run's length.
const CALIBRATE_EVERY_S: f64 = 0.1;
/// Timed passes, after the warm-up, that `peak_rss_mb` covers. With two
/// sweep workers, which glibc arena ends up holding which cell varies
/// run to run; over several passes every arena meets the largest cells.
const RSS_PASSES: usize = 5;
/// `bench.unattributed_ms` may be at most this share of the traced pass
/// on `paper-full`, where every cell's work sits inside a span.
const MAX_UNATTRIBUTED_SHARE: f64 = 0.10;

/// How to run one workload.
#[derive(Debug, Clone)]
pub struct Options {
    /// Seed for generated inputs and cell order.
    pub seed: u64,
    /// Keep starting timed passes until this much time has passed.
    pub seconds: f64,
    /// Run the traced rounds and report the per-layer metrics.
    pub traced: bool,
    /// Input sizes and pass counts.
    pub scale: Scale,
    /// Scratch space for sweep checkpoint files.
    pub scratch: PathBuf,
}

/// Which clock a metric reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host time or host resources: varies run to run.
    Host,
    /// Simulated quantities and deterministic counts: repeat exactly.
    Sim,
}

impl Clock {
    /// The clock's name in reports.
    pub fn name(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
        }
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The clock it reads.
    pub clock: Clock,
    /// The value.
    pub value: f64,
    /// How many samples (passes, cells, spans) it summarises.
    pub samples: usize,
}

/// Everything one workload run produced.
#[derive(Debug)]
pub struct Report {
    /// The workload.
    pub kind: Kind,
    /// End-to-end metrics, measured with tracing off.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics from the traced round (empty unless traced).
    pub layers: Vec<Metric>,
    /// Cells run and whole-run checks made.
    pub attempted: u64,
    /// One line per failed cell or check.
    pub failures: Vec<String>,
    /// Timed passes run.
    pub passes: usize,
    /// Cells per pass.
    pub cells_per_pass: usize,
    /// Worker threads of the sweep and the parallel fleet probe.
    pub jobs: usize,
    /// Median raw time of the calibration kernel, milliseconds.
    pub calib_ms: f64,
    /// The first traced round's spans as JSON lines (traced runs only).
    pub spans_jsonl: Option<String>,
}

impl Report {
    /// Failed cells and checks over everything attempted.
    pub fn fail_share(&self) -> f64 {
        self.failures.len() as f64 / self.attempted.max(1) as f64
    }
}

/// One cell's simulation and its judged metrics.
struct CellRun {
    report: SimReport,
    metrics: Vec<RunMetrics>,
}

/// Counts of attempts and failures, plus the reference digest each cell
/// must reproduce on every later pass.
struct Ledger {
    attempted: u64,
    failures: Vec<String>,
    reference: Vec<Option<u64>>,
}

impl Ledger {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Records cell `c`'s digest, failing it when it differs from the
    /// digest an earlier pass produced.
    fn digest(&mut self, c: usize, label: &str, digest: u64) {
        match self.reference[c] {
            None => self.reference[c] = Some(digest),
            Some(first) if first != digest => self
                .failures
                .push(format!("{label}: output differs from an earlier pass")),
            Some(_) => {}
        }
    }

    fn cell(&mut self, inputs: &Inputs, c: usize, run: Result<CellRun, String>) {
        self.attempted += 1;
        let label = label(inputs, c);
        let run = match run {
            Ok(run) => run,
            Err(e) => {
                self.failures.push(format!("{label}: {e}"));
                return;
            }
        };
        self.digest(c, &label, digest(&run.metrics));
        if inputs.kind.is_generated() {
            if run.report.effect_checks == 0 {
                self.failures.push(format!(
                    "{label}: no callback was checked against its summary"
                ));
            }
            if let Some(v) = run.report.effect_violations.first() {
                self.failures.push(format!(
                    "{label}: dynamic effects escaped the static summary: {v}"
                ));
            }
        }
    }
}

fn label(inputs: &Inputs, c: usize) -> String {
    format!("{}/{}", inputs.subject(c).app.name, inputs.cells[c].policy)
}

/// FNV-1a over the cell's rendered metrics, one rendering per scenario.
fn digest(metrics: &[RunMetrics]) -> u64 {
    fnv(metrics.iter().map(RunMetrics::render_json))
}

fn fnv(parts: impl IntoIterator<Item = String>) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for part in parts {
        for b in part.bytes().chain([0xFF]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Runs `f`, turning a panic into an error so one bad cell costs one
/// failure, not the run.
fn guarded<R>(f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        Err(format!("panicked: {message}"))
    })
}

fn judge(inputs: &Inputs, c: usize, report: &SimReport) -> Vec<RunMetrics> {
    let s = inputs.subject(c);
    inputs
        .scenarios
        .iter()
        .map(|&scenario| RunMetrics::compute(report, &expectations(&s.app, &s.trace, scenario)))
        .collect()
}

/// One cell on the product path: lower to a `RunSpec`, execute, judge.
fn execute_cell(inputs: &Inputs, c: usize) -> Result<CellRun, String> {
    let s = inputs.subject(c);
    let outcome = lower(&s.app, &s.trace, &inputs.cells[c].policy)
        .execute()
        .map_err(|e| e.to_string())?;
    Ok(CellRun {
        metrics: judge(inputs, c, &outcome.report),
        report: outcome.report,
    })
}

/// One cell with the load/run split `RunSpec::execute` hides: the same
/// calls it makes, each inside a span, and scheduler hooks timed by a
/// [`TimedFactory`]. `recorded` adds the sweep's recorder, budget and
/// attribution.
fn traced_cell(
    tracer: &mut Tracer,
    inputs: &Inputs,
    c: usize,
    hooks: &Arc<HookStats>,
    recorded: bool,
) -> Result<CellRun, String> {
    let s = inputs.subject(c);
    let factory = TimedFactory {
        policy: inputs.cells[c].policy.clone(),
        stats: Arc::clone(hooks),
    };
    let handle = recorded.then(|| TraceHandle::with_capacity(DEFAULT_CAPACITY));
    let browser = tracer.span("engine.load", Some(c), |t| {
        let before = hooks.snapshot();
        let browser = Browser::with_hardware_backend(
            &s.app,
            factory.build(),
            Platform::odroid_xu_e(),
            PowerModel::odroid_xu_e(),
            ScriptBackend::Auto,
        )
        .map(|mut browser| {
            if let Some(handle) = &handle {
                browser.set_budget(RunBudget::SWEEP_DEFAULT);
                browser.set_trace(handle.clone());
            }
            browser
        });
        let after = hooks.snapshot();
        t.aggregate("sched", after.0 - before.0, after.2 - before.2);
        browser
    });
    let mut browser = browser.map_err(|e| e.to_string())?;
    let (report, buffer) = tracer.span("engine.run", Some(c), |t| {
        let before = hooks.snapshot();
        let report = browser.run(&s.trace);
        let buffer = handle.map(|h| h.snapshot());
        drop(browser);
        let after = hooks.snapshot();
        t.aggregate("sched", after.0 - before.0, after.2 - before.2);
        (report, buffer)
    });
    let report = report.map_err(|e| e.to_string())?;
    if let Some(buffer) = buffer {
        tracer.span("trace.attribution", Some(c), |_| {
            black_box(AttributionProfile::from_trace(&buffer).summary());
        });
    }
    let metrics = tracer.span("metrics.judge", Some(c), |_| judge(inputs, c, &report));
    Ok(CellRun { report, metrics })
}

fn sweep_once(
    plan: &SweepPlan,
    jobs: usize,
    out: &Path,
    resume: bool,
) -> Result<SweepResult, String> {
    let mut config = SweepConfig::new(out);
    config.jobs = Jobs::new(jobs);
    config.resume = resume;
    let result = run_sweep(plan, &config).map_err(|e| e.to_string())?;
    if result.report.ok != plan.cells.len() {
        return Err(format!(
            "sweep completed {} of {} cells ({} quarantined)",
            result.report.ok,
            plan.cells.len(),
            result.report.quarantined
        ));
    }
    Ok(result)
}

/// Checks one sweep pass's checkpoint file: one ok line per cell, each
/// identical to the same cell's line on every other pass.
fn sweep_lines(
    ledger: &mut Ledger,
    inputs: &Inputs,
    out: &Path,
    result: Result<SweepResult, String>,
) {
    if let Err(e) = result {
        ledger.check(false, || format!("sweep: {e}"));
        return;
    }
    let text = fs::read_to_string(out).unwrap_or_default();
    let lines: Vec<&str> = text.lines().skip(1).collect();
    ledger.check(lines.len() == inputs.cells.len(), || {
        format!(
            "sweep wrote {} lines for {} cells",
            lines.len(),
            inputs.cells.len()
        )
    });
    for (c, line) in lines.iter().enumerate().take(inputs.cells.len()) {
        ledger.attempted += 1;
        ledger.digest(c, &label(inputs, c), fnv([(*line).to_string()]));
    }
}

/// Whether two rendered `RunMetrics` agree: every field equal, numbers
/// to a relative 1e-9. Recording adds energy samples, which split the
/// power integration, so a recorded run's `energy_mj` differs from an
/// unrecorded one's in the last bits (about 1e-13 relative).
fn same_metrics(a: &JsonValue, b: &JsonValue) -> bool {
    match (a, b) {
        (JsonValue::Num(x), JsonValue::Num(y)) => (x - y).abs() <= 1e-9 * x.abs().max(y.abs()),
        (JsonValue::Arr(x), JsonValue::Arr(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(x, y)| same_metrics(x, y))
        }
        (JsonValue::Obj(x), JsonValue::Obj(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((kx, x), (ky, y))| kx == ky && same_metrics(x, y))
        }
        _ => a == b,
    }
}

/// A sweep plan running `inputs`' cells, as `evaluate sweep` would.
fn plan_of(inputs: &Inputs) -> SweepPlan {
    SweepPlan {
        cells: inputs
            .cells
            .iter()
            .enumerate()
            .map(|(c, cell)| {
                let s = inputs.subject(c);
                SweepCell {
                    label: label(inputs, c),
                    policy: cell.policy.to_string(),
                    scenario: Scenario::Usable,
                    app: s.app.clone(),
                    trace: s.trace.clone(),
                    poison: None,
                }
            })
            .collect(),
        budget: RunBudget::SWEEP_DEFAULT,
    }
}

/// Runs `plan` into a fresh checkpoint and checks it: every line's
/// metrics equal an untraced run of the same cell, every line's
/// attribution conserves energy to 1%, and a copy cut to half resumes
/// byte-identical. Records `sweep.run` and `sweep.resume` probe spans
/// and returns the checkpoint's size in bytes.
fn sweep_check(
    tracer: &mut Tracer,
    ledger: &mut Ledger,
    plan: &SweepPlan,
    jobs: usize,
    scratch: &Path,
) -> u64 {
    let full = scratch.join("check.jsonl");
    let cut = scratch.join("cut.jsonl");
    let result = tracer.probe(|t| {
        t.span("sweep.run", None, |_| {
            guarded(|| sweep_once(plan, jobs, &full, false))
        })
    });
    if let Err(e) = result {
        ledger.check(false, || format!("sweep check: {e}"));
        return 0;
    }
    let text = fs::read_to_string(&full).unwrap_or_default();
    let lines: Vec<&str> = text.lines().collect();
    ledger.check(lines.len() == plan.cells.len() + 1, || {
        format!(
            "sweep check wrote {} lines for {} cells",
            lines.len(),
            plan.cells.len()
        )
    });
    for (cell, line) in plan.cells.iter().zip(lines.iter().skip(1)) {
        let untraced = guarded(|| {
            let policy = policy_named(&cell.policy)
                .ok_or_else(|| format!("unknown policy `{}`", cell.policy))?;
            let outcome = lower(&cell.app, &cell.trace, &policy)
                .execute()
                .map_err(|e| e.to_string())?;
            let expected = expectations(&cell.app, &cell.trace, cell.scenario);
            JsonValue::parse(&RunMetrics::compute(&outcome.report, &expected).render_json())
        });
        let line = JsonValue::parse(line).ok();
        let metrics = line.as_ref().and_then(|l| l.get("metrics"));
        let same = matches!((&untraced, metrics), (Ok(a), Some(b)) if same_metrics(a, b));
        ledger.check(same, || {
            format!(
                "{}: sweep line metrics differ from an untraced run",
                cell.label
            )
        });
        let conserved = line.as_ref().zip(metrics).and_then(|(line, metrics)| {
            let attr = line.get("attr")?;
            let JsonValue::Obj(phases) = attr.get("phase_mj")? else {
                return None;
            };
            let attributed: f64 = phases.iter().filter_map(|(_, mj)| mj.as_f64()).sum();
            let total = attributed
                + attr.get("idle_mj")?.as_f64()?
                + attr.get("unattributed_mj")?.as_f64()?;
            let energy = metrics.get("energy_mj")?.as_f64()?;
            Some((total - energy).abs() <= 0.01 * energy.abs())
        });
        ledger.check(conserved == Some(true), || {
            format!(
                "{}: attributed + idle + unattributed energy is not within 1% of energy_mj",
                cell.label
            )
        });
    }
    let half = plan.cells.len() / 2;
    let prefix: String = lines
        .iter()
        .take(1 + half)
        .map(|l| format!("{l}\n"))
        .collect();
    let resumed = fs::write(&cut, prefix)
        .map_err(|e| e.to_string())
        .and_then(|()| {
            tracer.probe(|t| {
                t.span("sweep.resume", None, |_| {
                    guarded(|| sweep_once(plan, jobs, &cut, true))
                })
            })
        });
    let identical = resumed.is_ok() && fs::read(&cut).ok().as_deref() == Some(text.as_bytes());
    ledger.check(identical, || {
        "sweep cut to half did not resume byte-identical".to_string()
    });
    text.len() as u64
}

/// Deterministic counters summed over a round's simulations.
#[derive(Debug, Default)]
struct Counters {
    frames: u64,
    inputs: u64,
    ops: u64,
    callbacks: u64,
    dispatches: u64,
    matches: u64,
    resolves: u64,
    cache_hits: u64,
    cache_misses: u64,
    bloom_rejects: u64,
    laid_out: u64,
    subtree_reuses: u64,
    full_repaints: u64,
    partial_repaints: u64,
    damage_items: u64,
    switches: u64,
}

impl Counters {
    fn add(&mut self, r: &SimReport) {
        self.frames += r.frames.len() as u64;
        self.inputs += r.inputs.len() as u64;
        self.ops += r.script.ops;
        self.callbacks += r.script.callbacks;
        self.dispatches += r.script.dispatches;
        self.matches += r.style.matches;
        self.resolves += r.style.resolves;
        self.cache_hits += r.style.cache_hits;
        self.cache_misses += r.style.cache_misses;
        self.bloom_rejects += r.style.bloom_rejects;
        self.laid_out += r.layout.elements_laid_out;
        self.subtree_reuses += r.layout.subtree_reuses;
        self.full_repaints += r.paint.full_repaints;
        self.partial_repaints += r.paint.partial_repaints;
        self.damage_items += r.paint.damage_items;
        self.switches += r.switches.0 + r.switches.1;
    }
}

/// What one traced round measured besides its spans.
#[derive(Debug, Default)]
struct Round {
    /// Host time of the traced pass.
    wall_ns: u64,
    counters: Counters,
    hook_calls: u64,
    elements: u64,
    trace_events: u64,
    trace_dropped: u64,
}

/// One traced round: the traced pass (on-path spans), then probes that
/// re-run single layers on the same inputs.
fn round(
    tracer: &mut Tracer,
    ledger: &mut Ledger,
    inputs: &Inputs,
    jobs: usize,
    scratch: &Path,
) -> Round {
    let mut out = Round::default();
    let hooks = Arc::new(HookStats::default());
    let start = tracer.now_ns();
    if let Some(plan) = &inputs.plan {
        let path = scratch.join("traced.jsonl");
        let result = tracer.span("sweep.run", None, |_| {
            guarded(|| sweep_once(plan, jobs, &path, false))
        });
        out.wall_ns = tracer.now_ns() - start;
        sweep_lines(ledger, inputs, &path, result);
    } else {
        for c in 0..inputs.cells.len() {
            let run = guarded(|| traced_cell(tracer, inputs, c, &hooks, false));
            if let Ok(run) = &run {
                out.counters.add(&run.report);
            }
            ledger.cell(inputs, c, run);
        }
        out.wall_ns = tracer.now_ns() - start;
    }
    tracer.probe(|t| {
        for c in 0..inputs.cells.len() {
            if inputs.plan.is_some() {
                // The sweep's per-cell work, replicated from the calls it
                // makes, so its load/run/attribution/judge split shows.
                match guarded(|| traced_cell(t, inputs, c, &hooks, true)) {
                    Ok(run) => out.counters.add(&run.report),
                    Err(e) => ledger.check(false, || format!("{}: {e}", label(inputs, c))),
                }
            }
            parse_probes(t, ledger, inputs, c, &mut out);
            record_probe(t, ledger, inputs, c, &mut out);
        }
    });
    out.hook_calls = hooks.snapshot().1;
    out
}

/// Re-runs the front ends `Browser` construction calls: HTML parse, CSS
/// parse, a full cascade, and script compilation.
fn parse_probes(t: &mut Tracer, ledger: &mut Ledger, inputs: &Inputs, c: usize, out: &mut Round) {
    let app = &inputs.subject(c).app;
    let doc = t.span("dom.parse", Some(c), |_| parse_html(&app.html));
    let sheet = t.span("css.parse", Some(c), |_| {
        parse_stylesheet(&app.css_source())
    });
    let (Ok(doc), Ok(sheet)) = (doc, sheet) else {
        ledger.check(false, || {
            format!("{}: html or css failed to parse", app.name)
        });
        return;
    };
    out.elements += doc.elements().count() as u64;
    let engine = StyleEngine::new(sheet);
    t.span("css.cascade", Some(c), |_| {
        black_box(engine.compute_all(&doc));
    });
    let compiled = t.span("script.compile", Some(c), |_| {
        app.scripts
            .iter()
            .map(|src| {
                let program = parse_program(src).map_err(|e| e.to_string())?;
                compile(&program).map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, String>>()
    });
    if let Err(e) = compiled {
        ledger.check(false, || {
            format!("{}: script failed to compile: {e}", app.name)
        });
    }
}

/// Executes the cell through `RunSpec::execute` with and without the
/// trace recorder; the recorded buffer feeds attribution (outside the
/// sweep, whose replica attributes already).
fn record_probe(t: &mut Tracer, ledger: &mut Ledger, inputs: &Inputs, c: usize, out: &mut Round) {
    let s = inputs.subject(c);
    let policy = &inputs.cells[c].policy;
    let untraced = t.span("trace.untraced", Some(c), |_| {
        lower(&s.app, &s.trace, policy).execute()
    });
    let recorded = t.span("trace.recorded", Some(c), |_| {
        lower(&s.app, &s.trace, policy).with_recording().execute()
    });
    let buffer = match (untraced, recorded) {
        (Ok(_), Ok(outcome)) => outcome.trace,
        _ => {
            ledger.check(false, || {
                format!("{}: recording probe failed", label(inputs, c))
            });
            return;
        }
    };
    let Some(buffer) = buffer else {
        ledger.check(false, || {
            format!("{}: recording produced no trace", label(inputs, c))
        });
        return;
    };
    out.trace_events += buffer.events.len() as u64;
    out.trace_dropped += buffer.dropped;
    if inputs.plan.is_none() {
        t.span("trace.attribution", Some(c), |_| {
            black_box(AttributionProfile::from_trace(&buffer).summary());
        });
    }
}

/// `run_specs` over the cells on one worker and on `jobs` workers.
fn fleet_probe(t: &mut Tracer, ledger: &mut Ledger, inputs: &Inputs, jobs: usize) -> f64 {
    let specs = || {
        (0..inputs.cells.len())
            .map(|c| {
                let s = inputs.subject(c);
                lower(&s.app, &s.trace, &inputs.cells[c].policy)
            })
            .collect()
    };
    let mut elapsed = [0.0; 2];
    for (slot, name, workers) in [(0, "fleet.serial", 1), (1, "fleet.parallel", jobs)] {
        let started = Instant::now();
        let outcomes = t.probe(|t| t.span(name, None, |_| run_specs(specs(), Jobs::new(workers))));
        elapsed[slot] = started.elapsed().as_secs_f64();
        let failed = outcomes.iter().filter(|o| o.is_err()).count();
        ledger.check(failed == 0, || {
            format!("fleet probe: {failed} cells failed")
        });
    }
    elapsed[0] / (jobs as f64 * elapsed[1])
}

/// Builder for the metric lists.
struct Metrics(Vec<Metric>);

impl Metrics {
    fn push(
        &mut self,
        name: &'static str,
        unit: &'static str,
        clock: Clock,
        value: f64,
        samples: usize,
    ) {
        self.0.push(Metric {
            name,
            unit,
            clock,
            value,
            samples,
        });
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Requests timed back to back, and the calibration kernel run right
/// after them. A sweep keeps `jobs` cores busy, so its kernel runs on as
/// many; a cell keeps one.
struct Segment {
    request_s: Vec<f64>,
    kernel_ms: f64,
}

/// What the set-up repetitions and timed passes measured. Host times
/// are calibrated to the reference speed (see [`crate::calib`]) unless
/// named `raw_`.
#[derive(Debug, Default)]
struct Timed {
    /// Input construction, per repetition, in seconds.
    setup_s: Vec<f64>,
    /// The app/trace part of each repetition, raw milliseconds.
    raw_build_ms: Vec<f64>,
    /// The effect-inference part of each repetition, raw milliseconds.
    raw_effects_ms: Vec<f64>,
    /// Each timed pass, in seconds.
    pass_s: Vec<f64>,
    /// Each timed pass, raw seconds.
    raw_pass_s: Vec<f64>,
    /// Each request (a cell, or a whole sweep), in milliseconds.
    latency_ms: Vec<f64>,
    /// Every calibration kernel run, raw milliseconds.
    kernel_ms: Vec<f64>,
    /// Peak resident set size over the warm-up and first timed passes, MiB.
    peak_rss_mb: f64,
}

/// Runs workload `kind` and measures it.
pub fn run(kind: Kind, opts: &Options) -> Report {
    let ticks_before = hostinfo::cpu_ticks();
    let jobs = workloads::sweep_jobs();
    let calibrator = Calibrator::default();
    let mut timed = Timed::default();

    let reps = match opts.scale {
        Scale::Full => SETUP_REPS,
        Scale::Smoke => 2,
    };
    let mut built = None;
    for _ in 0..reps {
        let (inputs, time) = workloads::setup(kind, opts.seed, opts.scale);
        let kernel = calibrator.measure(1);
        let raw_s = (time.build_ms + time.effects_ms) / 1e3;
        timed.setup_s.push(raw_s * Calibrator::factor(kernel));
        timed.raw_build_ms.push(time.build_ms);
        timed.raw_effects_ms.push(time.effects_ms);
        timed.kernel_ms.push(kernel);
        built = Some(inputs);
    }
    let inputs = built.expect("at least one set-up repetition");
    let n = inputs.cells.len();
    let mut ledger = Ledger {
        attempted: 0,
        failures: Vec::new(),
        reference: vec![None; n],
    };
    let _ = fs::create_dir_all(&opts.scratch);
    let pass_path = opts.scratch.join("pass.jsonl");

    // A pass is a list of segments: requests timed back to back, then
    // one calibration kernel run that scales them. The warm-up skips the
    // kernel, whose buffers would count in its peak memory.
    let timed_pass = |ledger: &mut Ledger, pass: usize| -> Vec<Segment> {
        let kernel = |threads: usize| {
            if pass == 0 {
                REFERENCE_MS
            } else {
                calibrator.measure(threads)
            }
        };
        if let Some(plan) = &inputs.plan {
            let started = Instant::now();
            let result = guarded(|| sweep_once(plan, jobs, &pass_path, false));
            let secs = started.elapsed().as_secs_f64();
            let kernel_ms = kernel(jobs);
            sweep_lines(ledger, &inputs, &pass_path, result);
            return vec![Segment {
                request_s: vec![secs],
                kernel_ms,
            }];
        }
        let mut order: Vec<usize> = (0..n).collect();
        greenweb_det::DetRng::new(opts.seed)
            .fork(&format!("pass-{pass}"))
            .shuffle(&mut order);
        let mut segments = Vec::new();
        let mut request_s = Vec::new();
        for (i, c) in order.into_iter().enumerate() {
            let started = Instant::now();
            let run = guarded(|| execute_cell(&inputs, c));
            request_s.push(started.elapsed().as_secs_f64());
            ledger.cell(&inputs, c, run);
            if request_s.iter().sum::<f64>() >= CALIBRATE_EVERY_S || i + 1 == n {
                segments.push(Segment {
                    request_s: std::mem::take(&mut request_s),
                    kernel_ms: kernel(1),
                });
            }
        }
        segments
    };

    // One untimed warm-up pass fills caches and fixes every cell's
    // reference digest. Peak memory is taken over it and the first
    // RSS_PASSES timed passes: a fixed amount of work, so the number does
    // not grow with how many passes fit into the run.
    let rss_reset = hostinfo::reset_peak_rss();
    timed_pass(&mut ledger, 0);

    let min_passes = workloads::min_passes(&inputs, opts.scale);
    let started = Instant::now();
    while timed.pass_s.len() < min_passes || started.elapsed().as_secs_f64() < opts.seconds {
        if started.elapsed() > MEASURE_CAP {
            break;
        }
        let (mut raw_s, mut pass_s) = (0.0, 0.0);
        for segment in timed_pass(&mut ledger, timed.pass_s.len() + 1) {
            let factor = Calibrator::factor(segment.kernel_ms);
            timed.kernel_ms.push(segment.kernel_ms);
            for secs in segment.request_s {
                raw_s += secs;
                pass_s += secs * factor;
                timed.latency_ms.push(secs * factor * 1e3);
            }
        }
        timed.raw_pass_s.push(raw_s);
        timed.pass_s.push(pass_s);
        if timed.pass_s.len() == RSS_PASSES.min(min_passes) {
            timed.peak_rss_mb = hostinfo::peak_rss_mb().unwrap_or(0.0);
        }
    }
    ledger.check(rss_reset && timed.peak_rss_mb > 0.0, || {
        "peak RSS could not be reset or read".to_string()
    });

    if let Some(plan) = &inputs.plan {
        if !opts.traced {
            sweep_check(
                &mut Tracer::default(),
                &mut ledger,
                plan,
                jobs,
                &opts.scratch,
            );
        }
    }

    let fidelity = match kind {
        Kind::PaperFull => fidelity::of_suite(&greenweb_workloads::all(), SuiteKind::Full),
        Kind::SweepMicro => fidelity::of_suite(&greenweb_workloads::all(), SuiteKind::Micro),
        Kind::DomStable | Kind::DomChurn => {
            let paper = greenweb_workloads::all();
            fidelity::mean_of(
                fidelity::of_suite(&paper, SuiteKind::Micro),
                fidelity::of_suite(&paper, SuiteKind::Full),
            )
        }
    };

    let e2e = end_to_end(&mut ledger, opts, &timed, n, fidelity);
    let (mut layers, spans_jsonl) = if opts.traced {
        let (layers, spans) = traced(&mut ledger, &inputs, opts, jobs, &timed);
        (layers, Some(spans))
    } else {
        (Vec::new(), None)
    };
    if opts.traced {
        let mut m = Metrics(layers);
        m.push(
            "host.calib_ms",
            "ms",
            Clock::Host,
            median(&timed.kernel_ms).unwrap_or(0.0),
            timed.kernel_ms.len(),
        );
        m.push(
            "host.steal_pct",
            "%",
            Clock::Host,
            hostinfo::steal_pct(ticks_before, hostinfo::cpu_ticks()),
            1,
        );
        layers = m.0;
    }
    let _ = fs::remove_dir_all(&opts.scratch);
    Report {
        kind,
        e2e,
        layers,
        attempted: ledger.attempted,
        failures: ledger.failures,
        passes: timed.pass_s.len(),
        cells_per_pass: n,
        jobs,
        calib_ms: median(&timed.kernel_ms).unwrap_or(0.0),
        spans_jsonl,
    }
}

fn end_to_end(
    ledger: &mut Ledger,
    opts: &Options,
    timed: &Timed,
    cells: usize,
    fidelity: Fidelity,
) -> Vec<Metric> {
    let mut m = Metrics(Vec::new());
    m.push(
        "setup_s",
        "s",
        Clock::Host,
        median(&timed.setup_s).unwrap_or(0.0),
        timed.setup_s.len(),
    );
    let throughput: Vec<f64> = timed.pass_s.iter().map(|s| cells as f64 / s).collect();
    m.push(
        "cells_per_s",
        "cells/s",
        Clock::Host,
        median(&throughput).unwrap_or(0.0),
        throughput.len(),
    );
    for (name, p) in [("latency_ms.p50", 0.5), ("latency_ms.p90", 0.9)] {
        let q = percentile(&timed.latency_ms, p);
        let (value, samples) = q.map_or((0.0, 0), |q| (q.value, q.samples));
        if opts.scale == Scale::Full {
            ledger.check(q.is_some_and(|q| q.resolved()), || {
                format!("{name}: only {samples} samples, fewer than ten beyond the percentile")
            });
        }
        m.push(name, "ms", Clock::Host, value, samples);
    }
    m.push("peak_rss_mb", "MB", Clock::Host, timed.peak_rss_mb, 1);
    m.push("energy_err_pp", "pp", Clock::Sim, fidelity.energy_err_pp, 1);
    m.push(
        "violation_err_pp",
        "pp",
        Clock::Sim,
        fidelity.violation_err_pp,
        1,
    );
    m.0
}

/// Two traced rounds (their allocation counts must agree), the sweep and
/// fleet probes, and the per-layer metrics of the first round.
fn traced(
    ledger: &mut Ledger,
    inputs: &Inputs,
    opts: &Options,
    jobs: usize,
    timed: &Timed,
) -> (Vec<Metric>, String) {
    let kind = inputs.kind;
    let mut tracer = Tracer::default();
    alloc::set_counting(true);
    let r = round(&mut tracer, ledger, inputs, jobs, &opts.scratch);
    alloc::set_counting(false);

    // Probes outside the counted round: they run worker threads.
    let own_plan;
    let plan = match &inputs.plan {
        Some(plan) => plan,
        None => {
            own_plan = plan_of(inputs);
            &own_plan
        }
    };
    let sweep_bytes = sweep_check(&mut tracer, ledger, plan, jobs, &opts.scratch);
    let efficiency = fleet_probe(&mut tracer, ledger, inputs, jobs);
    let effects_ms = if kind.is_generated() {
        median(&timed.raw_effects_ms).unwrap_or(0.0)
    } else {
        let started = Instant::now();
        tracer.probe(|t| {
            t.span("analyze.effects", None, |_| {
                for s in &inputs.subjects {
                    black_box(greenweb_analyze::infer_effect_summaries(&s.app));
                }
            });
        });
        started.elapsed().as_secs_f64() * 1e3
    };

    let mut again = Tracer::default();
    alloc::set_counting(true);
    round(&mut again, ledger, inputs, jobs, &opts.scratch);
    alloc::set_counting(false);

    const ALLOC_LAYERS: [(&str, &str); 6] = [
        ("engine.load", "engine.load.allocs"),
        ("engine.run", "engine.run.allocs"),
        ("dom.parse", "dom.parse.allocs"),
        ("css.cascade", "css.cascade.allocs"),
        ("script.compile", "script.compile.allocs"),
        ("trace.attribution", "trace.attribution.allocs"),
    ];
    for (span, _) in ALLOC_LAYERS {
        let (a, b) = (tracer.layer_allocs(span), again.layer_allocs(span));
        ledger.check(a == b, || {
            format!("{span}: {a} allocations in one traced round, {b} in the next")
        });
    }

    let wall_ms = r.wall_ns as f64 / 1e6;
    let unattributed_ms = (r.wall_ns as f64 - tracer.on_path_self_ns() as f64) / 1e6;
    ledger.check(unattributed_ms >= 0.0, || {
        format!(
            "on-path spans cover {:.3} ms more than the traced pass",
            -unattributed_ms
        )
    });
    if kind == Kind::PaperFull {
        ledger.check(unattributed_ms <= MAX_UNATTRIBUTED_SHARE * wall_ms, || {
            format!("bench.unattributed_ms {unattributed_ms:.3} exceeds 10% of the {wall_ms:.3} ms traced pass")
        });
    }

    let c = &r.counters;
    let spans_named = |name: &str| tracer.layer_count(name);
    let run_ms = tracer.layer_ms("engine.run");
    let sched_ms = tracer.layer_ms("sched");
    let untraced_ms = tracer.layer_ms("trace.untraced");
    let mut m = Metrics(Vec::new());
    let cells = inputs.cells.len();
    m.push(
        "engine.load_ms",
        "ms",
        Clock::Host,
        tracer.layer_ms("engine.load"),
        spans_named("engine.load"),
    );
    m.push(
        "engine.run_ms",
        "ms",
        Clock::Host,
        run_ms,
        spans_named("engine.run"),
    );
    m.push(
        "engine.ns_per_event",
        "ns",
        Clock::Host,
        run_ms * 1e6 / (c.frames + c.inputs).max(1) as f64,
        spans_named("engine.run"),
    );
    m.push("engine.frames", "count", Clock::Sim, c.frames as f64, cells);
    m.push("engine.inputs", "count", Clock::Sim, c.inputs as f64, cells);
    m.push("script.ops", "count", Clock::Sim, c.ops as f64, cells);
    m.push(
        "script.callbacks",
        "count",
        Clock::Sim,
        c.callbacks as f64,
        cells,
    );
    m.push(
        "script.dispatches",
        "count",
        Clock::Sim,
        c.dispatches as f64,
        cells,
    );
    m.push(
        "script.compile_ms",
        "ms",
        Clock::Host,
        tracer.layer_ms("script.compile"),
        spans_named("script.compile"),
    );
    m.push(
        "sched.ms",
        "ms",
        Clock::Host,
        sched_ms,
        spans_named("sched"),
    );
    m.push(
        "sched.calls",
        "count",
        Clock::Sim,
        r.hook_calls as f64,
        cells,
    );
    m.push(
        "sched.ns_per_call",
        "ns",
        Clock::Host,
        sched_ms * 1e6 / r.hook_calls.max(1) as f64,
        r.hook_calls as usize,
    );
    m.push(
        "sched.switches",
        "count",
        Clock::Sim,
        c.switches as f64,
        cells,
    );
    m.push(
        "metrics.judge_ms",
        "ms",
        Clock::Host,
        tracer.layer_ms("metrics.judge"),
        spans_named("metrics.judge"),
    );
    m.push(
        "dom.parse_ms",
        "ms",
        Clock::Host,
        tracer.layer_ms("dom.parse"),
        spans_named("dom.parse"),
    );
    m.push(
        "dom.elements",
        "count",
        Clock::Sim,
        r.elements as f64,
        cells,
    );
    m.push(
        "css.parse_ms",
        "ms",
        Clock::Host,
        tracer.layer_ms("css.parse"),
        spans_named("css.parse"),
    );
    m.push(
        "css.cascade_ms",
        "ms",
        Clock::Host,
        tracer.layer_ms("css.cascade"),
        spans_named("css.cascade"),
    );
    m.push("css.matches", "count", Clock::Sim, c.matches as f64, cells);
    m.push(
        "css.resolves",
        "count",
        Clock::Sim,
        c.resolves as f64,
        cells,
    );
    m.push(
        "css.cache_hit_ratio",
        "ratio",
        Clock::Sim,
        ratio(c.cache_hits, c.cache_hits + c.cache_misses),
        cells,
    );
    m.push(
        "css.bloom_reject_ratio",
        "ratio",
        Clock::Sim,
        ratio(c.bloom_rejects, c.bloom_rejects + c.matches),
        cells,
    );
    m.push(
        "layout.laid_out",
        "count",
        Clock::Sim,
        c.laid_out as f64,
        cells,
    );
    m.push(
        "layout.reuse_ratio",
        "ratio",
        Clock::Sim,
        ratio(c.subtree_reuses, c.subtree_reuses + c.laid_out),
        cells,
    );
    m.push(
        "paint.partial_ratio",
        "ratio",
        Clock::Sim,
        ratio(c.partial_repaints, c.partial_repaints + c.full_repaints),
        cells,
    );
    m.push(
        "paint.damage_items",
        "count",
        Clock::Sim,
        c.damage_items as f64,
        cells,
    );
    m.push(
        "trace.record_overhead_pct",
        "%",
        Clock::Host,
        (tracer.layer_ms("trace.recorded") - untraced_ms) / untraced_ms.max(1e-9) * 100.0,
        spans_named("trace.recorded"),
    );
    m.push(
        "trace.events",
        "count",
        Clock::Sim,
        r.trace_events as f64,
        cells,
    );
    m.push(
        "trace.dropped",
        "count",
        Clock::Sim,
        r.trace_dropped as f64,
        cells,
    );
    m.push(
        "trace.attribution_ms",
        "ms",
        Clock::Host,
        tracer.layer_ms("trace.attribution"),
        spans_named("trace.attribution"),
    );
    m.push(
        "sweep.run_ms",
        "ms",
        Clock::Host,
        tracer.layer_ms("sweep.run"),
        spans_named("sweep.run"),
    );
    m.push(
        "sweep.resume_ms",
        "ms",
        Clock::Host,
        tracer.layer_ms("sweep.resume"),
        spans_named("sweep.resume"),
    );
    m.push("sweep.bytes", "bytes", Clock::Sim, sweep_bytes as f64, 1);
    m.push("fleet.jobs", "count", Clock::Host, jobs as f64, 1);
    m.push(
        "fleet.parallel_efficiency",
        "ratio",
        Clock::Host,
        efficiency,
        2,
    );
    m.push(
        "workloads.build_ms",
        "ms",
        Clock::Host,
        median(&timed.raw_build_ms).unwrap_or(0.0),
        timed.raw_build_ms.len(),
    );
    m.push(
        "analyze.effects_ms",
        "ms",
        Clock::Host,
        effects_ms,
        inputs.subjects.len(),
    );
    let median_pass = median(&timed.raw_pass_s).unwrap_or(0.0);
    m.push(
        "bench.trace_overhead_pct",
        "%",
        Clock::Host,
        (wall_ms / 1e3 - median_pass) / median_pass.max(1e-9) * 100.0,
        1,
    );
    m.push(
        "bench.unattributed_ms",
        "ms",
        Clock::Host,
        unattributed_ms,
        1,
    );
    for (span, name) in ALLOC_LAYERS {
        m.push(
            name,
            "count",
            Clock::Sim,
            tracer.layer_allocs(span) as f64,
            spans_named(span),
        );
    }
    (m.0, tracer.render_jsonl(kind.name()))
}
