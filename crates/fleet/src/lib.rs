//! # greenweb-fleet
//!
//! A deterministic parallel executor for batches of simulation jobs.
//!
//! The evaluation of the paper is a matrix — workloads × policies ×
//! chaos seeds — and every cell is an independent, deterministic
//! simulation. This crate runs such a batch on one pool of scoped
//! worker threads (no `unsafe`) while guaranteeing that the
//! *observable output is identical to a serial run*:
//!
//! * jobs are claimed from the queue **by index** (an atomic cursor),
//! * results reach the caller **in job-index order** (a reorder buffer
//!   on the calling thread), and
//! * each job is a pure function of its inputs (a
//!   [`greenweb_engine::RunSpec`] builds its browser on the worker, so
//!   no `Rc`-backed state ever crosses a thread).
//!
//! Worker scheduling therefore only affects wall-clock time, never
//! ordering, metrics, goldens, or exported traces. With
//! [`Jobs::serial`] (or a single-job batch) no thread is spawned at
//! all: every job runs inline on the calling thread.
//!
//! ## One pool, two failure models
//!
//! * [`run_jobs`] / [`run_specs`] — the *trusted* path. Every job is
//!   expected to succeed; a panic in any job aborts the whole batch
//!   (the unwind reaches the caller). Use it for goldens and matrices
//!   over known-good workloads.
//! * [`supervise::run_supervised`] — the *hardened* path for corpus
//!   sweeps over untrusted inputs. Failures are contained per job and
//!   classified into a small taxonomy ([`supervise::FailureKind`]):
//!   **panic** (caught via `catch_unwind`, payload preserved),
//!   **budget-exceeded** (a [`greenweb_engine::RunBudget`] watchdog
//!   ceiling tripped), **load** (HTML/CSS/script parse failure), and
//!   **script** (runtime callback error). Each job runs once — a spec
//!   fails the same way every time, so a retry could not help — and a
//!   failing job is quarantined, not fatal, while outcomes stream to
//!   the caller in job order for append-only checkpointing.

#![forbid(unsafe_code)]

pub mod supervise;

pub use supervise::{
    run_supervised, FailureKind, FleetReport, JobFailure, JobStatus, SupervisedJob,
    SupervisedOutcome,
};

use greenweb_engine::{BrowserError, RunOutcome, RunSpec};
use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::ops::ControlFlow;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

/// The environment variable overriding the default worker count
/// (`GREENWEB_JOBS=1` runs every batch inline on the calling thread).
pub const JOBS_ENV: &str = "GREENWEB_JOBS";

/// How many worker threads a batch may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Jobs(NonZeroUsize);

impl Jobs {
    /// Exactly one worker: every job runs inline on the calling
    /// thread, spawning nothing.
    pub fn serial() -> Self {
        Jobs(NonZeroUsize::MIN)
    }

    /// Exactly `n` workers; zero is clamped to one.
    pub fn new(n: usize) -> Self {
        Jobs(NonZeroUsize::new(n).unwrap_or(NonZeroUsize::MIN))
    }

    /// One worker per available hardware thread (the `--jobs` default).
    pub fn auto() -> Self {
        Jobs(std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN))
    }

    /// [`Jobs::auto`], unless the `GREENWEB_JOBS` environment variable
    /// names an explicit count. This worker-count deployment setting is
    /// the one environment read a library crate may make; it changes
    /// throughput only, never an output byte.
    ///
    /// # Panics
    ///
    /// When `GREENWEB_JOBS` is set to something other than a worker
    /// count. A typo must stop the run: falling back to the hardware
    /// count would hide it from every worker-count parity check.
    #[allow(clippy::disallowed_methods)]
    pub fn from_env() -> Self {
        match std::env::var(JOBS_ENV) {
            Ok(value) => value
                .parse()
                .unwrap_or_else(|e| panic!("{JOBS_ENV}={value:?} is not a worker count: {e}")),
            Err(_) => Self::auto(),
        }
    }

    /// The worker count.
    pub fn count(self) -> usize {
        self.0.get()
    }

    /// True for the one-worker serial path.
    pub fn is_serial(self) -> bool {
        self.count() == 1
    }
}

impl FromStr for Jobs {
    type Err = std::num::ParseIntError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(Jobs::new(s.trim().parse::<usize>()?))
    }
}

impl std::fmt::Display for Jobs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.count())
    }
}

/// The one worker pool behind both executors: runs `jobs` and hands
/// each result to `sink` **in job-index order**, whichever worker
/// finished first. Returns true when the sink stopped the batch with
/// [`ControlFlow::Break`]: workers then claim no further job, and
/// results still in flight are dropped undelivered.
///
/// With one worker (or at most one job) everything runs inline on the
/// calling thread. Otherwise `min(workers, jobs)` scoped threads claim
/// jobs through an atomic index cursor and send results back over a
/// channel; a reorder buffer on the calling thread restores index
/// order, so the sink needs no `Send` bound. A panicking job is not
/// caught: the unwind resumes on the caller when the scope joins.
fn pool<J, R>(jobs: Vec<J>, workers: Jobs, mut sink: impl FnMut(R) -> ControlFlow<()>) -> bool
where
    J: FnOnce() -> R + Send,
    R: Send,
{
    if workers.is_serial() || jobs.len() <= 1 {
        return jobs.into_iter().any(|job| sink(job()).is_break());
    }
    let total = jobs.len();
    // The queue: jobs parked at their index, claimed via the cursor.
    // (A Mutex'd Vec<Option<J>> rather than a job channel: claims are
    // index-ordered, and the lock is held only for a `take`, never a
    // run.)
    let queue: Mutex<Vec<Option<J>>> = Mutex::new(jobs.into_iter().map(Some).collect());
    let cursor = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for _ in 0..workers.count().min(total) {
            let tx = tx.clone();
            let (queue, cursor, stop) = (&queue, &cursor, &stop);
            scope.spawn(move || loop {
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                if index >= total {
                    return;
                }
                let job = queue.lock().expect("queue lock poisoned")[index]
                    .take()
                    .expect("each index is claimed exactly once");
                if tx.send((index, job())).is_err() {
                    return;
                }
            });
        }
        drop(tx);
        let mut pending: BTreeMap<usize, R> = BTreeMap::new();
        let mut next = 0usize;
        for (index, result) in rx {
            pending.insert(index, result);
            while let Some(ready) = pending.remove(&next) {
                next += 1;
                if sink(ready).is_break() {
                    stop.store(true, Ordering::Relaxed);
                    return true;
                }
            }
        }
        false
    })
}

/// Runs `jobs` and returns their results **in job order**, regardless
/// of the worker count or which worker finished first.
///
/// This is the *trusted* executor: a panicking job takes down the whole
/// batch (the panic resumes on the caller — with workers, once the
/// remaining ones have drained the queue). Batches that must survive
/// poisoned jobs belong on [`supervise::run_supervised`], which catches
/// the unwind per job and quarantines instead.
pub fn run_jobs<J, R>(jobs: Vec<J>, workers: Jobs) -> Vec<R>
where
    J: FnOnce() -> R + Send,
    R: Send,
{
    let mut results = Vec::with_capacity(jobs.len());
    pool(jobs, workers, |result| {
        results.push(result);
        ControlFlow::Continue(())
    });
    results
}

/// Executes a batch of [`RunSpec`]s, one job per spec, returning the
/// outcomes in spec order. The browser for each spec is constructed on
/// the worker that runs it ([`RunSpec::execute`]).
pub fn run_specs(specs: Vec<RunSpec>, workers: Jobs) -> Vec<Result<RunOutcome, BrowserError>> {
    run_jobs(
        specs
            .into_iter()
            .map(|spec| move || spec.execute())
            .collect(),
        workers,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_parsing_and_clamping() {
        assert_eq!("4".parse::<Jobs>().unwrap().count(), 4);
        assert_eq!(" 2 ".parse::<Jobs>().unwrap().count(), 2);
        assert!("x".parse::<Jobs>().is_err());
        assert_eq!(Jobs::new(0).count(), 1);
        assert!(Jobs::serial().is_serial());
        assert!(Jobs::auto().count() >= 1);
        assert_eq!(Jobs::new(3).to_string(), "3");
    }

    #[test]
    fn results_are_in_job_order() {
        let jobs: Vec<_> = (0..37usize).map(|i| move || i * i).collect();
        let serial = run_jobs(jobs, Jobs::serial());
        let jobs: Vec<_> = (0..37usize).map(|i| move || i * i).collect();
        let parallel = run_jobs(jobs, Jobs::new(4));
        assert_eq!(serial, parallel);
        assert_eq!(serial[6], 36);
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let jobs: Vec<_> = (0..2usize).map(|i| move || i + 1).collect();
        assert_eq!(run_jobs(jobs, Jobs::new(16)), vec![1, 2]);
    }

    #[test]
    fn empty_batch_yields_empty_results() {
        let jobs: Vec<Box<dyn FnOnce() -> u8 + Send>> = Vec::new();
        assert!(run_jobs(jobs, Jobs::new(4)).is_empty());
    }

    #[test]
    fn every_index_runs_exactly_once_under_contention() {
        use std::sync::atomic::AtomicU64;
        let hits = AtomicU64::new(0);
        let jobs: Vec<_> = (0..100usize)
            .map(|i| {
                let hits = &hits;
                move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                    i
                }
            })
            .collect();
        let out = run_jobs(jobs, Jobs::new(8));
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    /// A batch whose middle job panics, for the trusted-path tests.
    fn batch_with_a_panic() -> Vec<Box<dyn FnOnce() -> usize + Send>> {
        (0..8usize)
            .map(|i| -> Box<dyn FnOnce() -> usize + Send> {
                Box::new(move || {
                    assert_ne!(i, 5, "job 5 panics");
                    i
                })
            })
            .collect()
    }

    #[test]
    #[should_panic(expected = "job 5 panics")]
    fn trusted_path_panics_propagate_serially() {
        run_jobs(batch_with_a_panic(), Jobs::serial());
    }

    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn trusted_path_panics_propagate_from_workers() {
        run_jobs(batch_with_a_panic(), Jobs::new(4));
    }
}
