//! # greenweb-engine
//!
//! A discrete-event simulation of a mobile Web browser, faithful to the
//! frame lifetime the GreenWeb paper instruments in Chromium (Fig. 7):
//!
//! ```text
//! input → IPC → callback → (VSync) → rAF → style → layout → paint → composite → frame
//! ```
//!
//! The engine reproduces the two properties that make frame-latency
//! tracking non-trivial (Sec. 6.3): *interleaved inputs* (a new input can
//! arrive while an earlier frame is still in the pipeline) and *VSync
//! batching* (multiple callbacks before one VSync produce a single frame,
//! coordinated through a dirty bit). Attribution uses the paper's Fig. 8
//! algorithm: every input carries unique-ID metadata that propagates
//! through an augmented dirty-bit message queue, and each produced frame
//! reports a latency for every input batched into it.
//!
//! All browser work executes on a simulated ACMP CPU
//! ([`greenweb_acmp::Cpu`]); a pluggable [`Scheduler`] decides the
//! ⟨core, frequency⟩ configuration at each hook (input arrival, frame
//! start, frame completion, governor timer, idle). Baseline cpufreq
//! governors adapt through [`GovernorScheduler`]; the GreenWeb runtime in
//! the `greenweb` crate implements [`Scheduler`] directly.
//!
//! ```
//! use greenweb_engine::{App, Browser, GovernorScheduler, Trace};
//! use greenweb_acmp::PerfGovernor;
//!
//! let app = App::builder("demo")
//!     .html("<button id='go'>go</button>")
//!     .script("addEventListener(getElementById('go'), 'click', function(e) { work(2000000); markDirty(); });")
//!     .build();
//! let trace = Trace::builder().click_id(100.0, "go").end_ms(600.0).build();
//! let mut browser = Browser::new(&app, GovernorScheduler::new(PerfGovernor)).unwrap();
//! let report = browser.run(&trace).unwrap();
//! assert_eq!(report.frames.len(), 1);
//! ```

#![forbid(unsafe_code)]

pub mod app;
pub mod browser;
pub mod cost;
pub mod effects;
pub mod events;
pub mod fault;
pub mod frame;
pub mod host;
pub mod layout;
pub mod report;
pub mod runspec;
pub mod scheduler;

pub use app::{App, AppBuilder};
pub use browser::{Browser, BrowserError, ScriptBackend};
pub use cost::FrameCostModel;
pub use effects::{EffectSummary, EffectTarget, HandlerSummary, TargetSet};
pub use events::{InputId, TargetSpec, Trace, TraceBuilder, TraceEvent};
pub use fault::{
    ChaosReport, FaultInjector, FaultKind, FaultPlan, FaultSpec, InjectedFault, InputFaultSpec,
    LoadSpikeSpec, VsyncDisposition, VsyncFaultSpec,
};
pub use frame::{FrameRecord, FrameTracker, Msg};
pub use greenweb_script::ScriptStats;
pub use layout::{
    DisplayItem, FrameRenderInfo, LayoutBox, LayoutStats, PaintStats, RenderPipeline,
};
pub use report::{InputRecord, SimReport};
pub use runspec::{RunBudget, RunOutcome, RunSpec, SchedulerFactory, TraceMode};
pub use scheduler::{GovernorScheduler, Scheduler, SchedulerCtx};
