//! Supervised fleet execution: panic isolation and quarantine.
//!
//! [`run_jobs`](crate::run_jobs) is the right executor when every job is
//! trusted — a panic anywhere aborts the whole batch. A sweep cannot
//! afford that: one malformed page, one pathological workload, one
//! buggy policy must cost *one cell*, not the whole sweep.
//! [`run_supervised`] runs each job once, on the crate's one
//! worker pool, inside [`std::panic::catch_unwind`], classifies every
//! failure into a [`FailureKind`], and streams outcomes to a sink **in
//! job-index order** so callers can checkpoint them as an append-only
//! log.
//!
//! The failure taxonomy (see `DESIGN.md` §6g):
//!
//! | kind | source |
//! |------|--------|
//! | [`FailureKind::Panic`] | job code panicked (caught, payload kept) |
//! | [`FailureKind::BudgetExceeded`] | watchdog ceiling ([`RunBudget`](greenweb_engine::RunBudget)) |
//! | [`FailureKind::Load`] | HTML/CSS/script failed to parse or load |
//! | [`FailureKind::Script`] | a callback raised a genuine script error |
//!
//! A job that fails is *quarantined* on its first failure: the sweep
//! continues, and the caller receives a [`JobFailure`] with enough data
//! (spec digest, kind, detail) to emit a minimized repro. Nothing is
//! retried. A job is a pure function of its [`RunSpec`] — simulated
//! time and energy, seeded randomness, no host I/O — so a second
//! attempt would repeat the same computation and fail the same way.

use crate::Jobs;
use greenweb_engine::{BrowserError, RunOutcome, RunSpec};
use std::cell::Cell;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

/// Why a supervised job failed. See the module docs for the taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FailureKind {
    /// The job panicked; the payload was caught and stringified.
    Panic,
    /// A watchdog ceiling tripped ([`BrowserError::Budget`]).
    BudgetExceeded,
    /// The app failed to load (HTML, CSS, or script parse error).
    Load,
    /// A callback raised a genuine script error at runtime.
    Script,
}

impl FailureKind {
    /// Stable lower-case name used in checkpoint and repro JSON.
    pub fn name(self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::BudgetExceeded => "budget-exceeded",
            FailureKind::Load => "load",
            FailureKind::Script => "script",
        }
    }

    /// Parses the stable name emitted by [`FailureKind::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "panic" => Some(FailureKind::Panic),
            "budget-exceeded" => Some(FailureKind::BudgetExceeded),
            "load" => Some(FailureKind::Load),
            "script" => Some(FailureKind::Script),
            _ => None,
        }
    }
}

/// Maps an engine error onto the supervision taxonomy.
pub fn classify(error: &BrowserError) -> FailureKind {
    match error {
        BrowserError::Budget(_) => FailureKind::BudgetExceeded,
        BrowserError::Script(_) => FailureKind::Script,
        _ => FailureKind::Load,
    }
}

/// The record a quarantined job leaves behind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// Index of the job in the submitted batch.
    pub index: usize,
    /// Caller-supplied job label (e.g. `"animation/GreenWeb"`).
    pub label: String,
    /// Classified failure kind.
    pub kind: FailureKind,
    /// Human-readable detail (error display or panic payload).
    pub detail: String,
    /// [`RunSpec::digest`] of the failing spec, for repro matching.
    pub digest: u64,
}

/// One job for the supervised executor: a spec plus a display label.
#[derive(Debug)]
pub struct SupervisedJob {
    /// Display label, carried into checkpoints and failure reports.
    pub label: String,
    /// The run to execute.
    pub spec: RunSpec,
}

/// Terminal status of one supervised job.
#[derive(Debug)]
pub enum JobStatus {
    /// The job produced an outcome.
    Ok(Box<RunOutcome>),
    /// The job failed and was quarantined.
    Quarantined(JobFailure),
}

/// One delivered result: jobs arrive at the sink in index order.
#[derive(Debug)]
pub struct SupervisedOutcome {
    /// Index of the job in the submitted batch.
    pub index: usize,
    /// Caller-supplied label.
    pub label: String,
    /// Success or quarantine.
    pub status: JobStatus,
}

/// Aggregate accounting for one supervised batch.
#[derive(Debug, Default)]
pub struct FleetReport {
    /// Jobs submitted.
    pub total: usize,
    /// Jobs that produced an outcome.
    pub ok: usize,
    /// Jobs quarantined.
    pub quarantined: usize,
    /// True when the sink stopped the batch early.
    pub aborted: bool,
    /// The quarantine list, in job-index order.
    pub failures: Vec<JobFailure>,
}

impl FleetReport {
    /// True when every submitted job completed successfully.
    pub fn all_ok(&self) -> bool {
        !self.aborted && self.quarantined == 0 && self.ok == self.total
    }

    /// Count of quarantined jobs with the given failure kind.
    pub fn count_of(&self, kind: FailureKind) -> usize {
        self.failures.iter().filter(|f| f.kind == kind).count()
    }

    /// A plain-text failure summary table for operator output.
    pub fn summary_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fleet: {} jobs, {} ok, {} quarantined{}",
            self.total,
            self.ok,
            self.quarantined,
            if self.aborted { " (aborted)" } else { "" },
        );
        if !self.failures.is_empty() {
            let _ = writeln!(out, "{:>5}  {:<28} {:<16}  detail", "job", "label", "kind");
            for failure in &self.failures {
                let _ = writeln!(
                    out,
                    "{:>5}  {:<28} {:<16}  {}",
                    failure.index,
                    failure.label,
                    failure.kind.name(),
                    failure.detail.lines().next().unwrap_or(""),
                );
            }
        }
        out
    }

    fn absorb(&mut self, outcome: &SupervisedOutcome) {
        match &outcome.status {
            JobStatus::Ok(_) => self.ok += 1,
            JobStatus::Quarantined(failure) => {
                self.quarantined += 1;
                self.failures.push(failure.clone());
            }
        }
    }
}

thread_local! {
    /// True while this thread is inside a supervised job, so the
    /// process panic hook stays silent (the payload is caught and
    /// reported through [`JobFailure`] instead of stderr).
    static IN_SUPERVISED_JOB: Cell<bool> = const { Cell::new(false) };
}

static QUIET_HOOK: Once = Once::new();

/// Installs (once per process) a panic hook that suppresses output for
/// panics caught by the supervisor and defers to the previous hook for
/// everything else.
fn install_quiet_hook() {
    QUIET_HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !IN_SUPERVISED_JOB.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

/// Renders a caught panic payload the way the default hook would.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs one job to its terminal status: catch panics, classify errors.
fn run_one(index: usize, job: SupervisedJob) -> SupervisedOutcome {
    IN_SUPERVISED_JOB.with(|flag| flag.set(true));
    // `AssertUnwindSafe` is sound: `execute` takes `&self` and builds
    // every piece of mutable state (browser, interpreter, scheduler)
    // fresh inside the call, so nothing observable survives an unwind.
    let caught = catch_unwind(AssertUnwindSafe(|| job.spec.execute()));
    IN_SUPERVISED_JOB.with(|flag| flag.set(false));
    let quarantine = |kind, detail| {
        JobStatus::Quarantined(JobFailure {
            index,
            label: job.label.clone(),
            kind,
            detail,
            digest: job.spec.digest(),
        })
    };
    let status = match caught {
        Ok(Ok(outcome)) => JobStatus::Ok(Box::new(outcome)),
        Ok(Err(error)) => quarantine(classify(&error), error.to_string()),
        Err(payload) => quarantine(FailureKind::Panic, panic_message(payload.as_ref())),
    };
    SupervisedOutcome {
        index,
        label: job.label,
        status,
    }
}

/// Executes `jobs` under supervision, delivering every terminal
/// [`SupervisedOutcome`] to `sink` **in job-index order** (regardless
/// of worker count or completion order), and returns the aggregate
/// [`FleetReport`].
///
/// Failures never cross the supervision boundary: each job runs once,
/// panics are caught, engine errors are classified, and either way the
/// job is quarantined. The sink may return [`ControlFlow::Break`] to
/// abort the batch — workers stop claiming jobs, already-running jobs
/// finish but are not delivered, and the report is marked
/// [`FleetReport::aborted`]. Because delivery is a gapless index
/// prefix, an aborted batch's checkpoint file is always a valid resume
/// point.
pub fn run_supervised<F>(jobs: Vec<SupervisedJob>, workers: Jobs, mut sink: F) -> FleetReport
where
    F: FnMut(SupervisedOutcome) -> ControlFlow<()>,
{
    install_quiet_hook();
    let mut report = FleetReport {
        total: jobs.len(),
        ..FleetReport::default()
    };
    let tasks: Vec<_> = jobs
        .into_iter()
        .enumerate()
        .map(|(index, job)| move || run_one(index, job))
        .collect();
    report.aborted = crate::pool(tasks, workers, |outcome| {
        report.absorb(&outcome);
        sink(outcome)
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenweb_engine::{App, GovernorScheduler, RunBudget, Scheduler, SchedulerFactory, Trace};

    fn perf_factory() -> Box<dyn SchedulerFactory> {
        Box::new(|| {
            Box::new(GovernorScheduler::new(greenweb_acmp::PerfGovernor)) as Box<dyn Scheduler>
        })
    }

    /// A factory whose `build` panics — models a buggy policy.
    struct PanicFactory;
    impl SchedulerFactory for PanicFactory {
        fn build(&self) -> Box<dyn Scheduler> {
            panic!("poisoned: scheduler factory panic");
        }
    }

    fn healthy_spec() -> RunSpec {
        let app = App::builder("healthy")
            .html("<button id='go'>go</button>")
            .script(
                "addEventListener(getElementById('go'), 'click', function(e) {
                     work(2000000); markDirty();
                 });",
            )
            .build();
        let trace = Trace::builder().click_id(100.0, "go").end_ms(600.0).build();
        RunSpec::new(app, trace, perf_factory())
    }

    fn panicking_spec() -> RunSpec {
        let app = App::builder("poison-panic").html("<p>x</p>").build();
        let trace = Trace::builder().end_ms(100.0).build();
        RunSpec::new(app, trace, Box::new(PanicFactory))
    }

    fn spinning_spec() -> RunSpec {
        let app = App::builder("poison-spin")
            .html("<button id='go'>go</button>")
            .script(
                "addEventListener(getElementById('go'), 'click', function(e) {
                     while (1 < 2) { markDirty(); }
                 });",
            )
            .build();
        let trace = Trace::builder().click_id(50.0, "go").end_ms(300.0).build();
        RunSpec::new(app, trace, perf_factory()).with_budget(RunBudget {
            max_callback_ops: 20_000,
            max_sim_events: 100_000,
        })
    }

    fn malformed_spec() -> RunSpec {
        let app = App::builder("poison-malformed")
            .html("<p>x</p>")
            .script("function ( { this is not a script")
            .build();
        let trace = Trace::builder().end_ms(100.0).build();
        RunSpec::new(app, trace, perf_factory())
    }

    /// Supervises `jobs` with a sink that keeps every outcome.
    fn collect(jobs: Vec<SupervisedJob>, workers: Jobs) -> (Vec<SupervisedOutcome>, FleetReport) {
        let mut outcomes = Vec::new();
        let report = run_supervised(jobs, workers, |outcome| {
            outcomes.push(outcome);
            ControlFlow::Continue(())
        });
        (outcomes, report)
    }

    #[test]
    fn panicking_job_is_quarantined_not_fatal() {
        let jobs = vec![
            SupervisedJob {
                label: "ok".into(),
                spec: healthy_spec(),
            },
            SupervisedJob {
                label: "bad".into(),
                spec: panicking_spec(),
            },
        ];
        let (outcomes, report) = collect(jobs, Jobs::serial());
        assert_eq!(outcomes.len(), 2);
        assert!(matches!(outcomes[0].status, JobStatus::Ok(_)));
        let JobStatus::Quarantined(failure) = &outcomes[1].status else {
            panic!("poisoned job must be quarantined");
        };
        assert_eq!(failure.kind, FailureKind::Panic);
        assert!(failure.detail.contains("poisoned"));
        assert_eq!(report.ok, 1);
        assert_eq!(report.quarantined, 1);
        assert!(!report.all_ok());
    }

    #[test]
    fn failure_kinds_classify_spin_and_malformed() {
        let jobs = vec![
            SupervisedJob {
                label: "spin".into(),
                spec: spinning_spec(),
            },
            SupervisedJob {
                label: "malformed".into(),
                spec: malformed_spec(),
            },
        ];
        let (outcomes, report) = collect(jobs, Jobs::new(2));
        let kinds: Vec<_> = outcomes
            .iter()
            .map(|o| match &o.status {
                JobStatus::Quarantined(f) => f.kind,
                JobStatus::Ok(_) => panic!("poison must not succeed"),
            })
            .collect();
        assert_eq!(kinds, vec![FailureKind::BudgetExceeded, FailureKind::Load]);
        assert_eq!(report.quarantined, 2);
        assert_eq!(report.count_of(FailureKind::BudgetExceeded), 1);
        assert_eq!(report.count_of(FailureKind::Load), 1);
    }

    #[test]
    fn outcomes_arrive_in_index_order_under_parallelism() {
        let jobs: Vec<_> = (0..12)
            .map(|i| SupervisedJob {
                label: format!("job{i}"),
                spec: healthy_spec(),
            })
            .collect();
        let (outcomes, report) = collect(jobs, Jobs::new(4));
        let indices: Vec<_> = outcomes.iter().map(|o| o.index).collect();
        assert_eq!(indices, (0..12).collect::<Vec<_>>());
        assert!(report.all_ok());
    }

    #[test]
    fn sink_break_aborts_with_gapless_prefix() {
        let jobs: Vec<_> = (0..10)
            .map(|i| SupervisedJob {
                label: format!("job{i}"),
                spec: healthy_spec(),
            })
            .collect();
        let mut seen = Vec::new();
        let report = run_supervised(jobs, Jobs::new(4), |outcome| {
            seen.push(outcome.index);
            if seen.len() == 3 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(seen, vec![0, 1, 2]);
        assert!(report.aborted);
        assert!(!report.all_ok());
    }

    #[test]
    fn failure_kind_names_round_trip() {
        for kind in [
            FailureKind::Panic,
            FailureKind::BudgetExceeded,
            FailureKind::Load,
            FailureKind::Script,
        ] {
            assert_eq!(FailureKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(FailureKind::from_name("nope"), None);
    }

    #[test]
    fn summary_table_lists_quarantined_jobs() {
        let jobs = vec![SupervisedJob {
            label: "bad".into(),
            spec: panicking_spec(),
        }];
        let (_, report) = collect(jobs, Jobs::serial());
        let table = report.summary_table();
        assert!(table.contains("1 quarantined"));
        assert!(table.contains("panic"));
        assert!(table.contains("bad"));
    }
}
