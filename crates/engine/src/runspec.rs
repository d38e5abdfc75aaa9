//! Self-contained run descriptions: everything needed to execute one
//! simulation, with no live browser state attached.
//!
//! The split this module implements is *describing* a run versus
//! *executing* it. A [`RunSpec`] owns parsed-input sources (the [`App`]
//! and input [`Trace`]), the hardware description, an optional fault
//! plan, and a [`SchedulerFactory`] — a recipe for the policy rather
//! than the policy itself. Everything in a spec is `Send` (enforced at
//! compile time below), so a batch of specs can be handed to worker
//! threads; the [`Browser`] — which leans on `Rc` internally and must
//! never cross a thread boundary — is constructed *inside*
//! [`RunSpec::execute`], on whichever thread runs the job.
//!
//! The outputs ([`RunOutcome`]: report, optional trace snapshot,
//! optional policy artifact) are plain data and `Send` again, so a
//! parallel executor can slot them back by job index and reproduce a
//! serial run byte for byte.

use crate::app::App;
use crate::browser::{Browser, BrowserError};
use crate::events::Trace;
use crate::fault::FaultPlan;
use crate::report::SimReport;
use crate::scheduler::Scheduler;
use greenweb_acmp::{Platform, PowerModel};
use greenweb_trace::{TraceBuffer, TraceHandle};
use std::any::Any;
use std::fmt;

/// A construction recipe for a [`Scheduler`].
///
/// Policies themselves are not `Send` once built (the GreenWeb runtime
/// holds an `Rc`-backed trace handle after attach), so a spec carries
/// this factory instead and builds the scheduler on the worker thread.
/// Implementors are typically serializable enums (a policy name plus
/// its parameters) or closures over plain data.
pub trait SchedulerFactory: Send + Sync {
    /// Builds a fresh scheduler. Called once per run, on the thread
    /// that executes the run, so repeated builds must start from
    /// identical state.
    fn build(&self) -> Box<dyn Scheduler>;
}

impl<F> SchedulerFactory for F
where
    F: Fn() -> Box<dyn Scheduler> + Send + Sync,
{
    fn build(&self) -> Box<dyn Scheduler> {
        self()
    }
}

/// Whether (and how) a run records a [`greenweb_trace`] event timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// No recorder attached: instrumentation sites stay zero-cost.
    Off,
    /// Attach a ring recorder of the given capacity; the outcome
    /// carries the snapshot.
    Ring(usize),
}

/// The per-run watchdog budget: deterministic execution ceilings that
/// convert a runaway workload into a typed
/// [`crate::BrowserError::Budget`] outcome instead
/// of a hang.
///
/// Both ceilings are counted in *simulation* quantities (script fuel
/// ops and discrete-event pops), never wall-clock, so the same
/// spec trips the same ceiling at the same point on every machine —
/// supervised sweeps stay byte-reproducible even for their failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunBudget {
    /// Fuel ceiling per script callback, in charged evaluation steps
    /// (the VM's tick weights, metered through
    /// [`greenweb_script::Fuel`]). The engine resets the counter at each
    /// callback entry; an infinite `while (true)` loop burns this in
    /// bounded time.
    pub max_callback_ops: u64,
    /// Ceiling on discrete events popped by one run's event loop. A
    /// zero-delay timer bomb (each callback re-arming `setTimeout(f, 0)`)
    /// advances simulated time glacially and would otherwise take an
    /// astronomical number of steps to reach the trace end; this bounds
    /// it.
    pub max_sim_events: u64,
}

impl RunBudget {
    /// The sweep default: roomy enough that no canonical workload comes
    /// within an order of magnitude of either ceiling, tight enough that
    /// a hostile job dies in well under a second of host time.
    pub const SWEEP_DEFAULT: RunBudget = RunBudget {
        max_callback_ops: 5_000_000,
        max_sim_events: 1_000_000,
    };
}

/// Extracts a policy-specific artifact from the scheduler after a run
/// (via [`Scheduler::as_any`] downcasting), e.g. a degradation log.
/// The artifact must be `Send` so it can leave the worker thread even
/// though the scheduler itself cannot.
pub type SchedulerProbe = Box<dyn Fn(&dyn Scheduler) -> Option<Box<dyn Any + Send>> + Send + Sync>;

/// An immutable, thread-portable description of one simulation run.
///
/// Construct with [`RunSpec::new`] and refine with the builder-style
/// `with_*` methods; hand batches of specs to an executor (or call
/// [`RunSpec::execute`] inline for the serial path).
pub struct RunSpec {
    /// The application to load.
    pub app: App,
    /// The input trace to replay.
    pub trace: Trace,
    /// The simulated hardware platform.
    pub platform: Platform,
    /// The power model priced against `platform`.
    pub power: PowerModel,
    /// Seeded fault plan, if this is a chaos run.
    pub faults: Option<FaultPlan>,
    /// The scheduling-policy recipe.
    pub scheduler: Box<dyn SchedulerFactory>,
    /// Event-timeline recording mode.
    pub recording: TraceMode,
    /// Post-run scheduler-state extractor, if the caller needs one.
    pub probe: Option<SchedulerProbe>,
    /// Watchdog ceilings, if this run is supervised.
    pub budget: Option<RunBudget>,
    /// Whether the browser renders incrementally (`true`, the default)
    /// or on the naive full-relayout oracle (`false`). Deliberately
    /// excluded from [`RunSpec::digest`]: the two modes produce
    /// byte-identical results (only reuse counters differ), so a spec's
    /// identity must not depend on which one runs it — the paint-mode
    /// parity row leans on exactly that.
    pub paint_incremental: bool,
}

// The whole point of the spec: it must be able to cross into a worker
// thread. `Browser`, `TraceHandle`, and script `Value`s are not `Send`
// and must never appear in a spec field.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<RunSpec>();
    assert_send::<RunOutcome>();
};

impl RunSpec {
    /// A spec for `app` replaying `trace` under the policy `scheduler`
    /// builds, on the default ODroid XU+E hardware, with no faults, no
    /// recording, and no probe.
    pub fn new(app: App, trace: Trace, scheduler: Box<dyn SchedulerFactory>) -> Self {
        RunSpec {
            app,
            trace,
            platform: Platform::odroid_xu_e(),
            power: PowerModel::odroid_xu_e(),
            faults: None,
            scheduler,
            recording: TraceMode::Off,
            probe: None,
            budget: None,
            paint_incremental: true,
        }
    }

    /// Replaces the hardware description.
    #[must_use]
    pub fn with_hardware(mut self, platform: Platform, power: PowerModel) -> Self {
        self.platform = platform;
        self.power = power;
        self
    }

    /// Attaches a seeded fault plan.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Turns on event-timeline recording with the default ring capacity.
    #[must_use]
    pub fn with_recording(mut self) -> Self {
        self.recording = TraceMode::Ring(greenweb_trace::recorder::DEFAULT_CAPACITY);
        self
    }

    /// Sets an explicit recording mode.
    #[must_use]
    pub fn with_trace_mode(mut self, mode: TraceMode) -> Self {
        self.recording = mode;
        self
    }

    /// Attaches a post-run scheduler probe.
    #[must_use]
    pub fn with_probe(mut self, probe: SchedulerProbe) -> Self {
        self.probe = Some(probe);
        self
    }

    /// Attaches a watchdog budget: the run fails with
    /// [`BrowserError::Budget`] instead of running away when either
    /// ceiling is hit.
    #[must_use]
    pub fn with_budget(mut self, budget: RunBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Pins the rendering mode (default: incremental). Parity harnesses
    /// run the same spec once per mode and diff the reports.
    #[must_use]
    pub fn with_paint_incremental(mut self, enabled: bool) -> Self {
        self.paint_incremental = enabled;
        self
    }

    /// A deterministic FNV-1a fingerprint of the spec's *data* parts —
    /// app sources, cost model, input trace, fault plan, recording mode,
    /// and budget. The scheduler factory and probe are opaque closures
    /// and deliberately excluded; quarantine repros carry the policy by
    /// name alongside this digest instead.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            // Field separator so ("ab","c") and ("a","bc") differ.
            h ^= 0xFF;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        };
        eat(self.app.name.as_bytes());
        eat(self.app.html.as_bytes());
        for css in &self.app.css {
            eat(css.as_bytes());
        }
        for script in &self.app.scripts {
            eat(script.as_bytes());
        }
        eat(format!("{:?}", self.app.cost).as_bytes());
        eat(format!("{:?}", self.app.effect_summaries).as_bytes());
        for event in &self.trace.events {
            eat(format!("{:?}@{:?}->{}", event.event, event.at, event.target).as_bytes());
        }
        eat(format!("end:{:?}", self.trace.end).as_bytes());
        eat(format!("faults:{:?}", self.faults).as_bytes());
        eat(format!("recording:{:?}", self.recording).as_bytes());
        eat(format!("budget:{:?}", self.budget).as_bytes());
        h
    }

    /// Executes the run described by this spec: builds the scheduler
    /// and browser *on the calling thread*, replays the trace, and
    /// packages the outputs. Identical specs produce identical
    /// outcomes regardless of which thread executes them.
    ///
    /// # Errors
    ///
    /// Returns [`BrowserError`] if the app fails to load or a callback
    /// errors.
    pub fn execute(&self) -> Result<RunOutcome, BrowserError> {
        let mut browser = Browser::with_hardware(
            &self.app,
            self.scheduler.build(),
            self.platform.clone(),
            self.power.clone(),
        )?;
        browser.set_paint_incremental(self.paint_incremental);
        if let Some(plan) = self.faults {
            browser.set_fault_plan(plan);
        }
        if let Some(budget) = self.budget {
            browser.set_budget(budget);
        }
        let recorder = match self.recording {
            TraceMode::Off => None,
            TraceMode::Ring(capacity) => {
                let handle = TraceHandle::with_capacity(capacity);
                browser.set_trace(handle.clone());
                Some(handle)
            }
        };
        let report = browser.run(&self.trace)?;
        let artifact = self
            .probe
            .as_ref()
            .and_then(|probe| probe(&**browser.scheduler()));
        Ok(RunOutcome {
            report,
            trace: recorder.map(|handle| handle.snapshot()),
            artifact,
        })
    }
}

impl fmt::Debug for RunSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunSpec")
            .field("app", &self.app.name)
            .field("trace_events", &self.trace.len())
            .field("faults", &self.faults)
            .field("recording", &self.recording)
            .field("budget", &self.budget)
            .finish_non_exhaustive()
    }
}

/// Everything one executed [`RunSpec`] produces.
#[derive(Debug)]
pub struct RunOutcome {
    /// The simulation report.
    pub report: SimReport,
    /// The recorded event timeline, when the spec asked for one.
    pub trace: Option<TraceBuffer>,
    /// The probe's extraction, when the spec carried one.
    pub artifact: Option<Box<dyn Any + Send>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::GovernorScheduler;
    use greenweb_acmp::PerfGovernor;

    fn demo_app() -> App {
        App::builder("spec-demo")
            .html("<button id='go'>go</button>")
            .script(
                "addEventListener(getElementById('go'), 'click', function(e) {
                     work(2000000); markDirty();
                 });",
            )
            .build()
    }

    fn perf_factory() -> Box<dyn SchedulerFactory> {
        Box::new(|| Box::new(GovernorScheduler::new(PerfGovernor)) as Box<dyn Scheduler>)
    }

    #[test]
    fn spec_executes_like_a_hand_built_browser() {
        let app = demo_app();
        let trace = Trace::builder().click_id(100.0, "go").end_ms(600.0).build();
        let spec = RunSpec::new(app.clone(), trace.clone(), perf_factory());
        let outcome = spec.execute().unwrap();
        let mut browser = Browser::new(&app, GovernorScheduler::new(PerfGovernor)).unwrap();
        let direct = browser.run(&trace).unwrap();
        assert_eq!(outcome.report.frames.len(), direct.frames.len());
        assert_eq!(outcome.report.total_mj(), direct.total_mj());
        assert!(outcome.trace.is_none());
        assert!(outcome.artifact.is_none());
    }

    #[test]
    fn recording_mode_yields_a_buffer() {
        let app = demo_app();
        let trace = Trace::builder().click_id(100.0, "go").end_ms(600.0).build();
        let spec = RunSpec::new(app, trace, perf_factory()).with_recording();
        let outcome = spec.execute().unwrap();
        let buffer = outcome.trace.expect("recording was requested");
        assert!(buffer.count_of("vsync") > 0, "timeline must hold ticks");
    }

    #[test]
    fn budget_converts_runaway_callback_into_typed_outcome() {
        let app = App::builder("spinner")
            .html("<button id='go'>go</button>")
            .script(
                "addEventListener(getElementById('go'), 'click', function(e) {
                     while (true) { var x = 1; }
                 });",
            )
            .build();
        let trace = Trace::builder().click_id(100.0, "go").end_ms(600.0).build();
        let spec = RunSpec::new(app, trace, perf_factory()).with_budget(RunBudget {
            max_callback_ops: 10_000,
            max_sim_events: 1_000_000,
        });
        match spec.execute() {
            Err(crate::BrowserError::Budget(detail)) => {
                assert!(detail.contains("op limit"), "detail: {detail}");
            }
            other => panic!("expected a budget trip, got {other:?}"),
        }
    }

    #[test]
    fn budget_caps_sim_event_count() {
        // A zero-delay timer bomb: each firing re-arms itself, so the
        // run would pop events for eons of simulated microseconds.
        let app = App::builder("timer-bomb")
            .html("<button id='go'>go</button>")
            .script(
                "function rearm() { setTimeout(rearm, 0); markDirty(); }
                 addEventListener(getElementById('go'), 'click', function(e) { rearm(); });",
            )
            .build();
        let trace = Trace::builder()
            .click_id(100.0, "go")
            .end_ms(60_000.0)
            .build();
        let spec = RunSpec::new(app, trace, perf_factory()).with_budget(RunBudget {
            max_callback_ops: 5_000_000,
            max_sim_events: 2_000,
        });
        match spec.execute() {
            Err(crate::BrowserError::Budget(detail)) => {
                assert!(detail.contains("event"), "detail: {detail}");
            }
            other => panic!("expected a budget trip, got {other:?}"),
        }
    }

    #[test]
    fn healthy_run_is_identical_with_a_roomy_budget() {
        let app = demo_app();
        let trace = Trace::builder().click_id(100.0, "go").end_ms(600.0).build();
        let plain = RunSpec::new(app.clone(), trace.clone(), perf_factory())
            .execute()
            .unwrap();
        let budgeted = RunSpec::new(app, trace, perf_factory())
            .with_budget(RunBudget::SWEEP_DEFAULT)
            .execute()
            .unwrap();
        assert_eq!(plain.report.total_mj(), budgeted.report.total_mj());
        assert_eq!(plain.report.frames.len(), budgeted.report.frames.len());
    }

    #[test]
    fn digest_tracks_data_not_identity() {
        let app = demo_app();
        let trace = Trace::builder().click_id(100.0, "go").end_ms(600.0).build();
        let a = RunSpec::new(app.clone(), trace.clone(), perf_factory());
        let b = RunSpec::new(app.clone(), trace.clone(), perf_factory());
        assert_eq!(a.digest(), b.digest(), "same data, same digest");
        let c = RunSpec::new(app, trace, perf_factory()).with_budget(RunBudget::SWEEP_DEFAULT);
        assert_ne!(a.digest(), c.digest(), "budget participates in digest");
    }

    #[test]
    fn repeated_execution_is_deterministic() {
        let app = demo_app();
        let trace = Trace::builder().click_id(100.0, "go").end_ms(600.0).build();
        let spec = RunSpec::new(app, trace, perf_factory()).with_recording();
        let a = spec.execute().unwrap();
        let b = spec.execute().unwrap();
        assert_eq!(a.report.total_mj(), b.report.total_mj());
        assert_eq!(a.trace, b.trace);
    }
}
