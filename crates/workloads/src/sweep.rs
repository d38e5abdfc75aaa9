//! Checkpointed, resumable, fault-tolerant evaluation sweeps.
//!
//! The paper's evaluation is 48 independent cells, and one bad cell (a
//! panicking policy, a runaway or malformed script) must not abort the
//! sweep and lose the healthy results; nor may an interrupted process.
//! So this module layers three things over
//! [`greenweb_fleet::run_supervised`]:
//!
//! * **A canonical plan** ([`SweepPlan::canonical`]): the Table 3
//!   microbenchmark matrix (12 workloads × the paper's 4 policies),
//!   optionally salted with [`PoisonSpec`]s — deliberately broken cells
//!   (panicking policy, infinite-loop script, malformed script) used by
//!   chaos tests and CI to prove isolation.
//! * **An append-only JSONL checkpoint** ([`run_sweep`]): one header
//!   line fingerprinting the plan, then exactly one line per job, in
//!   job order, flushed as produced. A killed sweep leaves a valid
//!   prefix; rerunning with [`SweepConfig::resume`] validates the
//!   prefix and appends the remaining jobs, producing a file
//!   *byte-identical* to an uninterrupted run.
//! * **A bounded-memory aggregate**: each completed job's frame-latency
//!   histogram is persisted sparsely on its line and folded into one
//!   merged [`Histogram`] ([`Histogram::merge`] is exact for counts and
//!   quantiles), so the sweep-wide latency distribution survives both
//!   quarantines and resumes without retaining per-run reports.
//!
//! Quarantined jobs are additionally dumped as minimized JSON repros
//! ([`Repro`]) that round-trip back into an executable [`RunSpec`].

use crate::harness::{expectations, Policy};
use greenweb::metrics::RunMetrics;
use greenweb::qos::Scenario;
use greenweb_det::{fnv1a_field, FNV1A_BASIS};
use greenweb_engine::{
    App, RunBudget, RunSpec, Scheduler, SchedulerFactory, SimReport, TargetSpec, Trace,
};
use greenweb_fleet::{
    run_supervised, FailureKind, FleetReport, JobFailure, JobStatus, Jobs, SupervisedJob,
};
use greenweb_trace::attribution::write_phases;
use greenweb_trace::metrics::Histogram;
use greenweb_trace::{AttributionProfile, AttributionSummary, SpanKind};
use std::fmt;
use std::fs;
use std::io::{Seek, SeekFrom, Write};
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// The JSON reader and writer the checkpoint and repro files use.
pub use greenweb_trace::json;

use json::{JsonValue, Obj};

/// The checkpoint format tag written in the header line; bump when the
/// line schema changes incompatibly. v2 added the per-job `attr`
/// attribution summary to ok lines (and recording to every cell, which
/// also changes the plan fingerprint); v3 dropped the per-job
/// `attempts` count when jobs stopped being retried; v4 dropped the
/// constant-folding and handler-recompile script counters from ok
/// lines; v5 split `attr` by the CPU's exact busy/idle energy and
/// priced `energy_mj` from its per-configuration ledger; v6 prices
/// `attr`'s per-phase energy from the energy each span carries rather
/// than a time share of the busy energy between VSync samples.
pub const SWEEP_FORMAT: &str = "greenweb-sweep-v6";

/// The kinds of deliberately broken cells chaos runs inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoisonKind {
    /// The scheduler factory panics when the worker builds it.
    Panic,
    /// A callback spins forever; only the watchdog budget ends it.
    Spin,
    /// The app's script does not parse, so the cell fails to load.
    Malformed,
}

impl PoisonKind {
    /// Stable name used in labels, flags, and repro files.
    pub fn name(self) -> &'static str {
        match self {
            PoisonKind::Panic => "panic",
            PoisonKind::Spin => "spin",
            PoisonKind::Malformed => "malformed",
        }
    }

    /// The [`FailureKind`] this poison must be classified as.
    pub fn expected_failure(self) -> FailureKind {
        match self {
            PoisonKind::Panic => FailureKind::Panic,
            PoisonKind::Spin => FailureKind::BudgetExceeded,
            PoisonKind::Malformed => FailureKind::Load,
        }
    }
}

impl FromStr for PoisonKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "panic" => Ok(PoisonKind::Panic),
            "spin" => Ok(PoisonKind::Spin),
            "malformed" => Ok(PoisonKind::Malformed),
            other => Err(format!(
                "unknown poison kind `{other}` (expected panic, spin, or malformed)"
            )),
        }
    }
}

/// One poisoned cell to insert into a plan: `kind` at job index `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoisonSpec {
    /// Job index to insert at (clamped to the end of the plan).
    pub at: usize,
    /// What is broken about the cell.
    pub kind: PoisonKind,
}

/// Parses a `kind:index[,kind:index...]` poison list (the `--poison`
/// flag), e.g. `panic:3,spin:7,malformed:11`.
///
/// # Errors
///
/// Returns a description of the first malformed entry.
pub fn parse_poison_list(s: &str) -> Result<Vec<PoisonSpec>, String> {
    let mut poisons = Vec::new();
    for part in s.split(',').filter(|p| !p.trim().is_empty()) {
        let (kind, at) = part
            .trim()
            .split_once(':')
            .ok_or_else(|| format!("poison entry `{part}` is not `kind:index`"))?;
        poisons.push(PoisonSpec {
            at: at
                .parse()
                .map_err(|e| format!("poison index `{at}`: {e}"))?,
            kind: kind.parse()?,
        });
    }
    Ok(poisons)
}

/// A scheduler factory that panics on build — the poisoned-policy cell.
struct PanicFactory;

impl SchedulerFactory for PanicFactory {
    fn build(&self) -> Box<dyn Scheduler> {
        panic!("poisoned cell: scheduler factory panic");
    }
}

/// The name the panicking pseudo-policy goes by in repro files.
const PANIC_POLICY: &str = "panic-factory";

/// Parses the policy names [`run_sweep`] and repro files emit: a
/// [`Policy::from_name`] name, or the poison pseudo-policy.
pub fn policy_by_name(name: &str) -> Option<Box<dyn SchedulerFactory>> {
    if name == PANIC_POLICY {
        return Some(Box::new(PanicFactory));
    }
    Some(Box::new(Policy::from_name(name)?))
}

/// One cell of a sweep: everything needed to lower a [`RunSpec`], judge
/// its report, and describe it in checkpoints and repros.
#[derive(Debug)]
pub struct SweepCell {
    /// Display label (`"BBC/Perf"`, `"poison-spin@7"`).
    pub label: String,
    /// Policy name as [`policy_by_name`] accepts it.
    pub policy: String,
    /// Scenario healthy cells are judged under.
    pub scenario: Scenario,
    /// The application.
    pub app: App,
    /// The input trace.
    pub trace: Trace,
    /// Set when this is a deliberately broken cell.
    pub poison: Option<PoisonKind>,
}

impl SweepCell {
    fn factory(&self) -> Box<dyn SchedulerFactory> {
        policy_by_name(&self.policy)
            .unwrap_or_else(|| panic!("unknown policy `{}` in sweep cell", self.policy))
    }

    fn to_spec(&self, budget: RunBudget) -> RunSpec {
        // Cells record their trace so each job can contribute a sparse
        // attribution summary to the corpus report.
        RunSpec::new(self.app.clone(), self.trace.clone(), self.factory())
            .with_budget(budget)
            .with_recording()
    }
}

fn poison_cell(spec: PoisonSpec) -> SweepCell {
    let label = format!("poison-{}@{}", spec.kind.name(), spec.at);
    let (app, trace, policy) = match spec.kind {
        PoisonKind::Panic => (
            App::builder("poison-panic").html("<p>x</p>").build(),
            Trace::builder().end_ms(100.0).build(),
            PANIC_POLICY.to_string(),
        ),
        PoisonKind::Spin => (
            App::builder("poison-spin")
                .html("<button id='go'>go</button>")
                .script(
                    "addEventListener(getElementById('go'), 'click', function(e) {
                         while (1 < 2) { markDirty(); }
                     });",
                )
                .build(),
            Trace::builder().click_id(50.0, "go").end_ms(300.0).build(),
            Policy::Perf.to_string(),
        ),
        PoisonKind::Malformed => (
            App::builder("poison-malformed")
                .html("<p>x</p>")
                .script("function ( { this is not a script")
                .build(),
            Trace::builder().end_ms(100.0).build(),
            Policy::Perf.to_string(),
        ),
    };
    SweepCell {
        label,
        policy,
        scenario: Scenario::Usable,
        app,
        trace,
        poison: Some(spec.kind),
    }
}

/// An ordered list of sweep cells plus the watchdog budget every cell
/// runs under.
#[derive(Debug)]
pub struct SweepPlan {
    /// The cells, in job order.
    pub cells: Vec<SweepCell>,
    /// Budget ceilings applied to every cell.
    pub budget: RunBudget,
}

impl SweepPlan {
    /// The canonical evaluation matrix: the twelve Table 3 workloads ×
    /// the paper's four policies, each on its microbenchmark trace,
    /// judged under [`Scenario::Usable`], with the default sweep
    /// budget. 48 jobs, workload-major order.
    pub fn canonical() -> Self {
        let mut cells = Vec::new();
        for workload in crate::all() {
            for policy in Policy::paper_set() {
                cells.push(SweepCell {
                    label: format!("{}/{}", workload.name, policy),
                    policy: policy.to_string(),
                    scenario: Scenario::Usable,
                    app: workload.app.clone(),
                    trace: workload.micro.clone(),
                    poison: None,
                });
            }
        }
        SweepPlan {
            cells,
            budget: RunBudget::SWEEP_DEFAULT,
        }
    }

    /// Inserts poisoned cells at their requested indices (processed in
    /// ascending `at` order; indices past the end append). Healthy
    /// cells keep their relative order.
    #[must_use]
    pub fn with_poison(mut self, poisons: &[PoisonSpec]) -> Self {
        let mut sorted = poisons.to_vec();
        sorted.sort_by_key(|p| p.at);
        for poison in sorted {
            let at = poison.at.min(self.cells.len());
            self.cells.insert(at, poison_cell(poison));
        }
        self
    }

    /// An order-sensitive FNV-1a fingerprint of the plan: every cell's
    /// label and [`RunSpec::digest`] plus the budget. Two plans with
    /// the same fingerprint run the same jobs, so a checkpoint file is
    /// only resumable under the fingerprint it was started with.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FNV1A_BASIS;
        let mut eat = |bytes: &[u8]| h = fnv1a_field(h, bytes);
        for cell in &self.cells {
            eat(cell.label.as_bytes());
            eat(&cell.to_spec(self.budget).digest().to_le_bytes());
        }
        eat(format!("{:?}", self.budget).as_bytes());
        h
    }

    fn header_line(&self) -> String {
        let mut line = String::new();
        json::object(&mut line, |o| {
            o.field("sweep", SWEEP_FORMAT)
                .field("jobs", self.cells.len())
                .field("fingerprint", format_args!("{:016x}", self.fingerprint()));
        });
        line
    }
}

/// How [`run_sweep`] should execute and checkpoint a plan.
#[derive(Debug)]
pub struct SweepConfig {
    /// The append-only JSONL results file.
    pub out: PathBuf,
    /// Resume from an existing results file instead of starting over.
    pub resume: bool,
    /// Where to dump quarantine repro files (created if missing).
    pub repro_dir: Option<PathBuf>,
    /// Worker threads.
    pub jobs: Jobs,
    /// Abort (cleanly, mid-sweep) after writing this many new result
    /// lines — the hook CI's resume-parity gate and kill tests use.
    pub abort_after: Option<usize>,
}

impl SweepConfig {
    /// A fresh single-threaded sweep writing to `out`, no repros.
    pub fn new(out: impl Into<PathBuf>) -> Self {
        SweepConfig {
            out: out.into(),
            resume: false,
            repro_dir: None,
            jobs: Jobs::serial(),
            abort_after: None,
        }
    }
}

/// What a sweep (or a resumed tail of one) produced.
#[derive(Debug)]
pub struct SweepResult {
    /// Aggregate over the *whole* plan: resumed prefix plus this run.
    pub report: FleetReport,
    /// Merged frame-latency histogram over every completed job.
    pub merged: Histogram,
    /// Corpus-level attribution: every completed job's sparse summary
    /// folded together — "where does the energy go" across the sweep.
    pub attribution: AttributionSummary,
    /// Jobs skipped because the resumed checkpoint already held them.
    pub resumed_jobs: usize,
}

impl SweepResult {
    /// The process exit code the CLI maps this result to: 0 all ok,
    /// 2 quarantined failures, 3 aborted before completion.
    pub fn exit_code(&self) -> i32 {
        if self.report.aborted {
            3
        } else if self.report.quarantined > 0 {
            2
        } else {
            0
        }
    }
}

/// A sweep that could not run or could not trust its checkpoint.
#[derive(Debug)]
pub enum SweepError {
    /// Filesystem failure on the results file or repro dir.
    Io(std::io::Error),
    /// The checkpoint file exists but does not match the plan.
    Corrupt(String),
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Io(e) => write!(f, "sweep i/o error: {e}"),
            SweepError::Corrupt(why) => write!(f, "sweep checkpoint rejected: {why}"),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<std::io::Error> for SweepError {
    fn from(e: std::io::Error) -> Self {
        SweepError::Io(e)
    }
}

/// One parsed line of a resumed checkpoint prefix.
struct PrefixLine {
    index: usize,
    ok: bool,
    hist: Option<Histogram>,
    attr: Option<AttributionSummary>,
    failure: Option<JobFailure>,
}

/// Parses a sparse histogram object (`{"sum":..,"min":..,"max":..,
/// "buckets":[[i,n],..]}`) back into a [`Histogram`].
fn parse_hist(hist: &JsonValue) -> Option<Histogram> {
    let sparse: Vec<(usize, u64)> = hist
        .get("buckets")
        .and_then(JsonValue::as_array)?
        .iter()
        .filter_map(|pair| {
            let pair = pair.as_array()?;
            Some((pair.first()?.as_u64()? as usize, pair.get(1)?.as_u64()?))
        })
        .collect();
    let field = |name: &str| hist.get(name).and_then(JsonValue::as_f64);
    Some(Histogram::from_sparse(
        &sparse,
        field("sum")?,
        field("min")?,
        field("max")?,
    ))
}

fn parse_attr(attr: &JsonValue) -> Option<AttributionSummary> {
    let phases = attr.get("phase_mj")?;
    let mut phase_mj = [0.0; 6];
    for (slot, kind) in phase_mj.iter_mut().zip(SpanKind::ALL) {
        *slot = phases.get(kind.name()).and_then(JsonValue::as_f64)?;
    }
    Some(AttributionSummary {
        phase_mj,
        idle_mj: attr.get("idle_mj").and_then(JsonValue::as_f64)?,
        unattributed_mj: attr.get("unattributed_mj").and_then(JsonValue::as_f64)?,
        total_mj: attr.get("total_mj").and_then(JsonValue::as_f64)?,
        misses: attr.get("misses").and_then(JsonValue::as_u64)?,
        event_mj: parse_hist(attr.get("event_mj")?)?,
    })
}

fn parse_prefix_line(line: &str, lineno: usize) -> Result<PrefixLine, SweepError> {
    let corrupt = |why: String| SweepError::Corrupt(format!("line {lineno}: {why}"));
    let value = JsonValue::parse(line).map_err(|e| corrupt(format!("bad JSON: {e}")))?;
    let index = value
        .get("job")
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| corrupt("missing \"job\"".into()))? as usize;
    let label = value
        .get("label")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| corrupt("missing \"label\"".into()))?
        .to_string();
    match value.get("status").and_then(JsonValue::as_str) {
        Some("ok") => {
            let hist = value
                .get("hist")
                .ok_or_else(|| corrupt("ok line without \"hist\"".into()))?;
            let hist =
                parse_hist(hist).ok_or_else(|| corrupt("malformed \"hist\" object".into()))?;
            let attr = value
                .get("attr")
                .ok_or_else(|| corrupt("ok line without \"attr\"".into()))?;
            let attr =
                parse_attr(attr).ok_or_else(|| corrupt("malformed \"attr\" object".into()))?;
            Ok(PrefixLine {
                index,
                ok: true,
                hist: Some(hist),
                attr: Some(attr),
                failure: None,
            })
        }
        Some("quarantined") => {
            let kind = value
                .get("kind")
                .and_then(JsonValue::as_str)
                .and_then(FailureKind::from_name)
                .ok_or_else(|| corrupt("bad \"kind\"".into()))?;
            let digest = value
                .get("digest")
                .and_then(JsonValue::as_str)
                .and_then(|d| u64::from_str_radix(d, 16).ok())
                .ok_or_else(|| corrupt("bad \"digest\"".into()))?;
            let detail = value
                .get("detail")
                .and_then(JsonValue::as_str)
                .unwrap_or_default()
                .to_string();
            Ok(PrefixLine {
                index,
                ok: false,
                hist: None,
                attr: None,
                failure: Some(JobFailure {
                    index,
                    label,
                    kind,
                    detail,
                    digest,
                }),
            })
        }
        other => Err(corrupt(format!("unknown status {other:?}"))),
    }
}

/// The validated prefix of an existing checkpoint file.
struct ResumeState {
    /// Bytes of the valid prefix (header + complete lines).
    valid_len: u64,
    /// Lines recovered, in job order `0..lines.len()`.
    lines: Vec<PrefixLine>,
}

/// Validates an existing checkpoint against the plan's `header`.
/// `None` when the file holds no complete header line (empty, or torn
/// inside the header by a kill): no job has completed, so the sweep
/// starts over.
fn load_resume_state(path: &Path, header: &str) -> Result<Option<ResumeState>, SweepError> {
    let content = fs::read_to_string(path)?;
    let mut segments = content.split_inclusive('\n');
    let Some(first) = segments.next().and_then(|s| s.strip_suffix('\n')) else {
        return Ok(None);
    };
    if first != header {
        return Err(SweepError::Corrupt(format!(
            "header mismatch: file has {first:?}, plan expects {header:?} \
             (different plan, poison set, or budget?)"
        )));
    }
    let mut valid_len = first.len() as u64 + 1;
    let mut lines = Vec::new();
    for (lineno, segment) in (1..).zip(segments) {
        let Some(line) = segment.strip_suffix('\n') else {
            break; // torn trailing line from a kill: drop it
        };
        let parsed = parse_prefix_line(line, lineno)?;
        if parsed.index != lines.len() {
            return Err(SweepError::Corrupt(format!(
                "line {lineno} holds job {} but job {} was expected — \
                 the file is not a gapless prefix",
                parsed.index,
                lines.len()
            )));
        }
        lines.push(parsed);
        valid_len += segment.len() as u64;
    }
    Ok(Some(ResumeState { valid_len, lines }))
}

fn per_job_histogram(report: &SimReport) -> Histogram {
    let mut hist = Histogram::new();
    for frame in &report.frames {
        hist.record(frame.latency.as_millis_f64());
    }
    hist
}

fn write_hist(o: &mut Obj<'_>, hist: &Histogram) {
    o.field("sum", hist.sum())
        .field("min", hist.min())
        .field("max", hist.max())
        .arr("buckets", |a| {
            for (bucket, n) in hist.nonzero_buckets() {
                a.arr(|pair| {
                    pair.item(bucket).item(n);
                });
            }
        });
}

fn write_attr(o: &mut Obj<'_>, attr: &AttributionSummary) {
    o.obj("phase_mj", |p| write_phases(p, &attr.phase_mj))
        .field("idle_mj", attr.idle_mj)
        .field("unattributed_mj", attr.unattributed_mj)
        .field("total_mj", attr.total_mj)
        .field("misses", attr.misses)
        .obj("event_mj", |h| write_hist(h, &attr.event_mj));
}

fn render_ok_line(
    index: usize,
    label: &str,
    hist: &Histogram,
    attr: &AttributionSummary,
    metrics: &RunMetrics,
) -> String {
    let mut line = String::with_capacity(1024);
    json::object(&mut line, |o| {
        o.field("job", index)
            .field("label", label)
            .field("status", "ok")
            .obj("hist", |h| write_hist(h, hist))
            .obj("attr", |a| write_attr(a, attr))
            .field("metrics", metrics);
    });
    line
}

fn render_quarantine_line(failure: &JobFailure) -> String {
    let mut line = String::new();
    json::object(&mut line, |o| {
        o.field("job", failure.index)
            .field("label", &failure.label)
            .field("status", "quarantined")
            .field("kind", failure.kind.name())
            .field("digest", format_args!("{:016x}", failure.digest))
            .field("detail", &failure.detail);
    });
    line
}

/// Executes (or resumes) `plan`, streaming one checkpoint line per job
/// to [`SweepConfig::out`] and quarantine repros to
/// [`SweepConfig::repro_dir`]. See the module docs for the format and
/// the byte-identity guarantees.
///
/// # Errors
///
/// [`SweepError::Io`] on filesystem failures; [`SweepError::Corrupt`]
/// when resuming from a file that does not match the plan.
pub fn run_sweep(plan: &SweepPlan, config: &SweepConfig) -> Result<SweepResult, SweepError> {
    let header = plan.header_line();
    let mut merged = Histogram::new();
    let mut attribution = AttributionSummary::new();
    let mut report = FleetReport {
        total: plan.cells.len(),
        ..FleetReport::default()
    };

    // Open the checkpoint: validate + truncate-to-valid on resume,
    // start fresh otherwise (or when no header line survived).
    let state = if config.resume && config.out.exists() {
        load_resume_state(&config.out, &header)?
    } else {
        None
    };
    let (mut file, completed) = if let Some(state) = state {
        if state.lines.len() > plan.cells.len() {
            return Err(SweepError::Corrupt(format!(
                "file holds {} jobs but the plan has {}",
                state.lines.len(),
                plan.cells.len()
            )));
        }
        for line in &state.lines {
            if line.ok {
                report.ok += 1;
            } else {
                report.quarantined += 1;
            }
            if let Some(hist) = &line.hist {
                merged.merge(hist);
            }
            if let Some(attr) = &line.attr {
                attribution.merge(attr);
            }
            if let Some(failure) = &line.failure {
                report.failures.push(failure.clone());
            }
        }
        let mut file = fs::OpenOptions::new().write(true).open(&config.out)?;
        file.set_len(state.valid_len)?;
        file.seek(SeekFrom::End(0))?;
        (file, state.lines.len())
    } else {
        let mut file = fs::File::create(&config.out)?;
        file.write_all(header.as_bytes())?;
        file.write_all(b"\n")?;
        (file, 0)
    };

    if let Some(dir) = &config.repro_dir {
        fs::create_dir_all(dir)?;
    }

    // The remaining jobs keep their plan indices via `completed +
    // local`; the supervisor numbers its own batch from zero.
    let remaining: Vec<SupervisedJob> = plan.cells[completed..]
        .iter()
        .map(|cell| SupervisedJob {
            label: cell.label.clone(),
            spec: cell.to_spec(plan.budget),
        })
        .collect();

    let mut io_error: Option<std::io::Error> = None;
    let mut written = 0usize;
    let tail = run_supervised(remaining, config.jobs, |outcome| {
        let index = completed + outcome.index;
        let cell = &plan.cells[index];
        let line = match &outcome.status {
            JobStatus::Ok(run) => {
                let hist = per_job_histogram(&run.report);
                let expected = expectations(&cell.app, &cell.trace, cell.scenario);
                let metrics = RunMetrics::compute(&run.report, &expected);
                // Every cell runs with recording (see `SweepCell::to_spec`),
                // so a missing trace means an empty attribution summary,
                // never a skipped line.
                let attr = run
                    .trace
                    .as_ref()
                    .map(|trace| AttributionProfile::from_trace(trace).summary())
                    .unwrap_or_default();
                merged.merge(&hist);
                attribution.merge(&attr);
                render_ok_line(index, &outcome.label, &hist, &attr, &metrics)
            }
            JobStatus::Quarantined(failure) => {
                let failure = JobFailure {
                    index,
                    ..failure.clone()
                };
                if let Some(dir) = &config.repro_dir {
                    let repro = Repro::for_cell(cell, &failure, plan.budget);
                    if let Err(e) = repro.write_to(dir) {
                        io_error = Some(e);
                        return ControlFlow::Break(());
                    }
                }
                render_quarantine_line(&failure)
            }
        };
        if let Err(e) = file
            .write_all(line.as_bytes())
            .and_then(|()| file.write_all(b"\n"))
            .and_then(|()| file.flush())
        {
            io_error = Some(e);
            return ControlFlow::Break(());
        }
        written += 1;
        if config.abort_after.is_some_and(|limit| written >= limit)
            && completed + written < plan.cells.len()
        {
            return ControlFlow::Break(());
        }
        ControlFlow::Continue(())
    });
    if let Some(e) = io_error {
        return Err(SweepError::Io(e));
    }

    report.ok += tail.ok;
    report.quarantined += tail.quarantined;
    report.aborted = tail.aborted;
    report
        .failures
        .extend(tail.failures.into_iter().map(|failure| JobFailure {
            index: completed + failure.index,
            ..failure
        }));

    Ok(SweepResult {
        report,
        merged,
        attribution,
        resumed_jobs: completed,
    })
}

/// A minimized, self-contained reproduction of one quarantined job:
/// the app sources, the input trace, the policy name, the watchdog
/// budget, and the recorded failure. [`Repro::parse`] +
/// [`Repro::to_spec`] turn the file back into an executable
/// [`RunSpec`] with the same [`RunSpec::digest`].
#[derive(Debug, Clone, PartialEq)]
pub struct Repro {
    /// Plan index of the quarantined job.
    pub job: usize,
    /// Job label.
    pub label: String,
    /// Classified failure kind name.
    pub kind: String,
    /// Failure detail (error display or panic payload).
    pub detail: String,
    /// [`RunSpec::digest`] of the failing spec, in hex.
    pub digest: u64,
    /// Policy name as [`policy_by_name`] accepts it.
    pub policy: String,
    /// Scenario name (informational).
    pub scenario: String,
    /// Run budget the job ran under.
    pub budget: RunBudget,
    /// App name.
    pub app_name: String,
    /// App HTML source.
    pub html: String,
    /// App stylesheets.
    pub css: Vec<String>,
    /// App scripts.
    pub scripts: Vec<String>,
    /// Trace events as `(at_ms, event name, target display)`.
    pub events: Vec<(f64, String, String)>,
    /// Trace end, in milliseconds.
    pub end_ms: f64,
}

impl Repro {
    /// Builds the repro for a quarantined cell.
    pub fn for_cell(cell: &SweepCell, failure: &JobFailure, budget: RunBudget) -> Repro {
        Repro {
            job: failure.index,
            label: failure.label.clone(),
            kind: failure.kind.name().to_string(),
            detail: failure.detail.clone(),
            digest: failure.digest,
            policy: cell.policy.clone(),
            scenario: cell.scenario.to_string(),
            budget,
            app_name: cell.app.name.clone(),
            html: cell.app.html.clone(),
            css: cell.app.css.clone(),
            scripts: cell.app.scripts.clone(),
            events: cell
                .trace
                .events
                .iter()
                .map(|event| {
                    (
                        event.at.as_millis_f64(),
                        event.event.name().to_string(),
                        event.target.to_string(),
                    )
                })
                .collect(),
            end_ms: cell.trace.end.as_millis_f64(),
        }
    }

    /// The repro's file name inside a repro directory.
    pub fn file_name(&self) -> String {
        format!("job{:03}-{}.json", self.job, self.kind)
    }

    /// Serializes the repro as a JSON document, one top-level field
    /// per line.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        json::object(&mut out, |o| {
            o.lines()
                .field("job", self.job)
                .field("label", &self.label)
                .field("kind", &self.kind)
                .field("detail", &self.detail)
                .field("digest", format_args!("{:016x}", self.digest))
                .field("policy", &self.policy)
                .field("scenario", &self.scenario)
                .obj("budget", |b| {
                    b.field("max_callback_ops", self.budget.max_callback_ops)
                        .field("max_sim_events", self.budget.max_sim_events);
                })
                .obj("app", |a| {
                    a.field("name", &self.app_name)
                        .field("html", &self.html)
                        .field("css", self.css.as_slice())
                        .field("scripts", self.scripts.as_slice());
                })
                .obj("trace", |t| {
                    t.field("end_ms", self.end_ms).arr("events", |a| {
                        for (at_ms, event, target) in &self.events {
                            a.obj(|e| {
                                e.field("at_ms", at_ms)
                                    .field("event", event)
                                    .field("target", target);
                            });
                        }
                    });
                });
        });
        out.push('\n');
        out
    }

    /// Writes the repro into `dir` and returns its path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        let path = dir.join(self.file_name());
        fs::write(&path, self.render_json())?;
        Ok(path)
    }

    /// Parses a repro document produced by [`Repro::render_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or malformed field.
    pub fn parse(text: &str) -> Result<Repro, String> {
        let value = JsonValue::parse(text)?;
        let str_field = |v: &JsonValue, key: &str| {
            v.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field \"{key}\""))
        };
        let u64_field = |v: &JsonValue, key: &str| {
            v.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("missing numeric field \"{key}\""))
        };
        let app = value.get("app").ok_or("missing \"app\"")?;
        let budget = value.get("budget").ok_or("missing \"budget\"")?;
        let trace = value.get("trace").ok_or("missing \"trace\"")?;
        let string_list = |key: &str| -> Result<Vec<String>, String> {
            app.get(key)
                .and_then(JsonValue::as_array)
                .ok_or_else(|| format!("missing app list \"{key}\""))?
                .iter()
                .map(|s| {
                    s.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("non-string entry in \"{key}\""))
                })
                .collect()
        };
        let events = trace
            .get("events")
            .and_then(JsonValue::as_array)
            .ok_or("missing trace \"events\"")?
            .iter()
            .map(|event| {
                let at_ms = event
                    .get("at_ms")
                    .and_then(JsonValue::as_f64)
                    .ok_or("event without \"at_ms\"")?;
                Ok((
                    at_ms,
                    str_field(event, "event")?,
                    str_field(event, "target")?,
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Repro {
            job: u64_field(&value, "job")? as usize,
            label: str_field(&value, "label")?,
            kind: str_field(&value, "kind")?,
            detail: str_field(&value, "detail")?,
            digest: u64::from_str_radix(&str_field(&value, "digest")?, 16)
                .map_err(|e| format!("bad digest: {e}"))?,
            policy: str_field(&value, "policy")?,
            scenario: str_field(&value, "scenario")?,
            budget: RunBudget {
                max_callback_ops: u64_field(budget, "max_callback_ops")?,
                max_sim_events: u64_field(budget, "max_sim_events")?,
            },
            app_name: str_field(app, "name")?,
            html: str_field(app, "html")?,
            css: string_list("css")?,
            scripts: string_list("scripts")?,
            events,
            end_ms: trace
                .get("end_ms")
                .and_then(JsonValue::as_f64)
                .ok_or("missing trace \"end_ms\"")?,
        })
    }

    /// Lowers the repro back into an executable [`RunSpec`] (same
    /// app sources, trace, policy, and budget — so the same digest).
    ///
    /// # Errors
    ///
    /// Reports unknown policy names, event types, or target syntax.
    pub fn to_spec(&self) -> Result<RunSpec, String> {
        let factory = policy_by_name(&self.policy)
            .ok_or_else(|| format!("unknown policy `{}`", self.policy))?;
        let mut app = App::builder(self.app_name.clone()).html(self.html.clone());
        for css in &self.css {
            app = app.css(css.clone());
        }
        for script in &self.scripts {
            app = app.script(script.clone());
        }
        let mut trace = Trace::builder();
        for (at_ms, event, target) in &self.events {
            let event_type = event
                .parse::<greenweb_dom::EventType>()
                .map_err(|e| e.to_string())?;
            let target = if target == ":root" {
                TargetSpec::Root
            } else if let Some(id) = target.strip_prefix('#') {
                TargetSpec::Id(id.to_string())
            } else {
                return Err(format!("unknown target syntax `{target}`"));
            };
            trace = trace.event(*at_ms, event_type, target);
        }
        // Recording mirrors `SweepCell::to_spec`, keeping the rebuilt
        // spec's digest equal to the quarantined job's.
        Ok(
            RunSpec::new(app.build(), trace.end_ms(self.end_ms).build(), factory)
                .with_budget(self.budget)
                .with_recording(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poison_list_parses_and_rejects() {
        let poisons = parse_poison_list("panic:3,spin:7,malformed:11").unwrap();
        assert_eq!(poisons.len(), 3);
        assert_eq!(poisons[0].kind, PoisonKind::Panic);
        assert_eq!(poisons[2].at, 11);
        assert!(parse_poison_list("bogus:1").is_err());
        assert!(parse_poison_list("panic").is_err());
        assert!(parse_poison_list("panic:x").is_err());
        assert!(parse_poison_list("").unwrap().is_empty());
    }

    #[test]
    fn canonical_plan_is_the_48_cell_matrix() {
        let plan = SweepPlan::canonical();
        assert_eq!(plan.cells.len(), 48);
        assert_eq!(plan.cells[0].label, "BBC/Perf");
        assert!(plan.cells.iter().all(|c| c.poison.is_none()));
        assert_eq!(plan.budget, RunBudget::SWEEP_DEFAULT);
        // The fingerprint is stable run to run and changes with poison.
        assert_eq!(plan.fingerprint(), SweepPlan::canonical().fingerprint());
        let poisoned = SweepPlan::canonical().with_poison(&[PoisonSpec {
            at: 3,
            kind: PoisonKind::Panic,
        }]);
        assert_eq!(poisoned.cells.len(), 49);
        assert_eq!(poisoned.cells[3].label, "poison-panic@3");
        assert_ne!(plan.fingerprint(), poisoned.fingerprint());
    }

    #[test]
    fn poison_insertion_is_order_insensitive() {
        let a = SweepPlan::canonical().with_poison(&parse_poison_list("spin:7,panic:3").unwrap());
        let b = SweepPlan::canonical().with_poison(&parse_poison_list("panic:3,spin:7").unwrap());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.cells[3].label, "poison-panic@3");
        assert_eq!(a.cells[7].label, "poison-spin@7");
    }

    #[test]
    fn repro_round_trips_to_the_same_digest() {
        for kind in [PoisonKind::Panic, PoisonKind::Spin, PoisonKind::Malformed] {
            let cell = poison_cell(PoisonSpec { at: 5, kind });
            let spec = cell.to_spec(RunBudget::SWEEP_DEFAULT);
            let failure = JobFailure {
                index: 5,
                label: cell.label.clone(),
                kind: kind.expected_failure(),
                detail: "quoted \"detail\"\nwith newline".into(),
                digest: spec.digest(),
            };
            let repro = Repro::for_cell(&cell, &failure, RunBudget::SWEEP_DEFAULT);
            let parsed = Repro::parse(&repro.render_json()).unwrap();
            assert_eq!(parsed, repro, "{kind:?} repro JSON round-trip");
            let rebuilt = parsed.to_spec().unwrap();
            assert_eq!(
                rebuilt.digest(),
                spec.digest(),
                "{kind:?} rebuilt spec digest"
            );
        }
    }

    #[test]
    fn repro_of_a_canonical_cell_round_trips_sources() {
        let plan = SweepPlan::canonical();
        let cell = &plan.cells[0];
        let failure = JobFailure {
            index: 0,
            label: cell.label.clone(),
            kind: FailureKind::Script,
            detail: "synthetic".into(),
            digest: cell.to_spec(plan.budget).digest(),
        };
        let repro = Repro::for_cell(cell, &failure, plan.budget);
        let parsed = Repro::parse(&repro.render_json()).unwrap();
        assert_eq!(parsed.html, cell.app.html);
        assert_eq!(parsed.css, cell.app.css);
        assert_eq!(parsed.events.len(), cell.trace.events.len());
        let spec = parsed.to_spec().unwrap();
        assert_eq!(spec.trace.events, cell.trace.events);
        assert_eq!(spec.trace.end, cell.trace.end);
    }

    #[test]
    fn policy_names_round_trip_through_the_registry() {
        for policy in Policy::NAMED {
            assert!(
                policy_by_name(&policy.to_string()).is_some(),
                "{policy} must be recoverable from its display name"
            );
        }
        assert!(policy_by_name(PANIC_POLICY).is_some());
        assert!(policy_by_name("nope").is_none());
    }
}
