//! The browser simulation: event loop, main-thread executor, VSync
//! batching, animation ticking, and frame production.
//!
//! One simulated CPU executes main-thread work (callbacks and pipeline
//! stages) in FIFO order; a [`Scheduler`] picks the ACMP configuration at
//! the paper's decision points. Time is discrete-event: the loop pops the
//! earliest of {input arrival, VSync, task completion, timer, governor
//! tick} and reacts. Configuration switches mid-task re-scale the task's
//! remaining work and charge the platform's switch penalty. The two
//! periodic events each have one slot beside the event heap (only one of
//! each is ever pending), and a VSync that would only re-arm itself is
//! handled inline in the loop.

use crate::app::App;
use crate::cost::{FrameCostModel, Stage};
use crate::effects::HandlerSummary;
use crate::events::{InputId, TargetSpec, Trace, TraceEvent};
use crate::fault::{FaultInjector, FaultPlan, VsyncDisposition};
use crate::frame::{FrameTracker, Msg};
use crate::host::{CallbackEffects, ScriptHost};
use crate::layout::{
    DisplayItem, FrameRenderInfo, LayoutBox, LayoutStats, PaintStats, RenderPipeline,
};
use crate::report::{InputRecord, SimReport};
use crate::runspec::RunBudget;
use crate::scheduler::{Scheduler, SchedulerCtx};
use greenweb_acmp::{Cpu, CpuConfig, Duration, Platform, PowerModel, SimTime, WorkUnit};
use greenweb_css::animation::{AnimationSpec, AnimationState};
use greenweb_css::stylesheet::parse_stylesheet;
use greenweb_css::transition::{TransitionSpec, TransitionState};
use greenweb_css::value::{CssValue, Length};
use greenweb_css::{PropertyId, StyleEngine, StyleStats};
use greenweb_dom::{parse_html, Document, Event, EventType, ListenerSet, NodeId};
use greenweb_script::{
    compile, parse_program, CompiledProgram, ScriptError, ScriptStats, Value, Vm,
};
use greenweb_trace::{record_into, EventKind as TraceKind, SpanKind, TraceHandle};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// The VSync period: 60 Hz, like the paper's mobile display.
pub const VSYNC_PERIOD: Duration = Duration::from_nanos(16_666_667);

/// Which script backend a browser executes callbacks on.
///
/// The engine always runs the bytecode VM: every setup program and
/// handler body is compiled once at app load and every event dispatch
/// executes that artifact — the same one the analyzers walk. The
/// tree-walking interpreter stays in `greenweb-script` as the
/// language-level reference the differential suites compare against.
/// This one-variant type survives only because the repository benchmark
/// package (`crates/bench/src/bin/benchmark`) passes it to
/// [`Browser::with_hardware_backend`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ScriptBackend {
    /// The bytecode VM.
    #[default]
    Auto,
}

/// Maps an engine pipeline stage to its trace span kind.
fn stage_span(stage: Stage) -> SpanKind {
    match stage {
        Stage::Style => SpanKind::Style,
        Stage::Layout => SpanKind::Layout,
        Stage::Paint => SpanKind::Paint,
        Stage::Composite => SpanKind::Composite,
    }
}

/// Error constructing or running a [`Browser`].
#[derive(Debug)]
pub enum BrowserError {
    /// HTML failed to parse.
    Html(greenweb_dom::HtmlError),
    /// CSS failed to parse.
    Css(greenweb_css::CssError),
    /// A script failed to parse.
    Parse(greenweb_script::ParseError),
    /// A script failed at runtime.
    Script(greenweb_script::ScriptError),
    /// A watchdog ceiling ([`crate::RunBudget`]) tripped: the run was a
    /// runaway (infinite loop, timer bomb), not a program bug. Counted
    /// in deterministic simulation quantities, so the same spec trips
    /// at the same point on every machine.
    Budget(String),
}

impl fmt::Display for BrowserError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BrowserError::Html(e) => write!(f, "{e}"),
            BrowserError::Css(e) => write!(f, "{e}"),
            BrowserError::Parse(e) => write!(f, "{e}"),
            BrowserError::Script(e) => write!(f, "{e}"),
            BrowserError::Budget(detail) => write!(f, "watchdog budget exceeded: {detail}"),
        }
    }
}

impl std::error::Error for BrowserError {}

impl From<greenweb_dom::HtmlError> for BrowserError {
    fn from(e: greenweb_dom::HtmlError) -> Self {
        BrowserError::Html(e)
    }
}

impl From<greenweb_css::CssError> for BrowserError {
    fn from(e: greenweb_css::CssError) -> Self {
        BrowserError::Css(e)
    }
}

impl From<greenweb_script::ParseError> for BrowserError {
    fn from(e: greenweb_script::ParseError) -> Self {
        BrowserError::Parse(e)
    }
}

impl From<greenweb_script::ScriptError> for BrowserError {
    fn from(e: greenweb_script::ScriptError) -> Self {
        // Fuel exhaustion is the script-side arm of the watchdog: it is
        // a budget outcome, not a script bug, wherever it surfaces.
        if e.is_op_limit() {
            BrowserError::Budget(e.to_string())
        } else {
            BrowserError::Script(e)
        }
    }
}

/// The events that go through the heap. VSync and the governor tick
/// are periodic, with one of each pending at most, so each lives in its
/// own slot on [`Browser`] instead.
#[derive(Debug, Clone, PartialEq)]
enum SimEventKind {
    Input(TraceEvent),
    TaskDone { gen: u64 },
    Timer { id: u64 },
}

/// Where the earliest pending event lives.
#[derive(Debug, Clone, Copy)]
enum NextEvent {
    Queue,
    VSync,
    GovTick,
}

#[derive(Debug, Clone, PartialEq)]
struct QueuedEvent {
    at: SimTime,
    seq: u64,
    kind: SimEventKind,
}

impl Eq for QueuedEvent {}

impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

#[derive(Debug)]
enum Task {
    Callback {
        callback: Value,
        arg: Option<Value>,
        origin: Msg,
        /// The static effect summary for this registration, if the
        /// analyzer produced one (`None` for timer/rAF continuations and
        /// runtime-registered listeners — they are simply unchecked).
        summary: Option<Rc<HandlerSummary>>,
    },
    BeginFrame,
    Stage {
        stage: Stage,
        msgs: Rc<Vec<Msg>>,
        seq: u32,
    },
}

#[derive(Debug)]
enum RunningKind {
    Callback {
        effects: Box<CallbackEffects>,
        origin: Msg,
        /// VM opcodes the callback executed — captured at dispatch so
        /// the traced span can carry the script-work breadcrumb the
        /// attribution profiler ranks callbacks by.
        ops: u64,
        /// The static effect summary to check the observed effects
        /// against when the task completes.
        summary: Option<Rc<HandlerSummary>>,
    },
    Stage {
        stage: Stage,
        msgs: Rc<Vec<Msg>>,
    },
}

#[derive(Debug)]
struct Running {
    kind: RunningKind,
    remaining: WorkUnit,
    since: SimTime,
    /// When the task first started executing. Unlike `since` (which
    /// resets on every mid-task configuration switch), this survives
    /// switches, so the traced span covers the task's full extent.
    started: SimTime,
    gen: u64,
}

#[derive(Debug)]
struct ActiveTransition {
    node: NodeId,
    state: TransitionState,
    origin: InputId,
}

#[derive(Debug)]
struct ActiveCssAnimation {
    node: NodeId,
    state: AnimationState,
    origin: InputId,
}

#[derive(Debug)]
struct ActiveHostAnimation {
    node: NodeId,
    property: String,
    from_px: f64,
    to_px: f64,
    start_ms: f64,
    duration_ms: f64,
    origin: InputId,
}

/// The simulated browser, generic over the scheduling policy.
pub struct Browser<S: Scheduler> {
    app_name: String,
    doc: Document,
    style: StyleEngine,
    /// The bytecode VM every setup program and callback runs on.
    script: Vm,
    /// Script-pipeline counters accumulated across setup and callbacks;
    /// a snapshot lands in the report.
    script_stats: ScriptStats,
    listeners: ListenerSet<Value>,
    /// Incremental rendering pipeline: subtree fingerprints, measure
    /// cache, retained display list, damage diff (the oracle mode, see
    /// [`Browser::set_paint_incremental`], recomputes everything but
    /// prices identically).
    render: RenderPipeline,
    /// Pricing inputs of the frame currently in the pipeline, computed
    /// once per frame by [`Browser::run_render_pass`] — the stages of
    /// one frame run back-to-back (pushed to the front of the ready
    /// queue together), so no other render pass can intervene.
    frame_render: FrameRenderInfo,
    cost: FrameCostModel,
    cpu: Cpu,
    scheduler: S,
    now: SimTime,
    queue: BinaryHeap<Reverse<QueuedEvent>>,
    /// The pending VSync as `(at, seq)`, outside the heap.
    vsync: Option<(SimTime, u64)>,
    /// The pending governor tick as `(at, seq)`, outside the heap.
    gov_tick: Option<(SimTime, u64)>,
    /// The one counter every event's `seq` is drawn from, heap or slot,
    /// so `(at, seq)` orders all pending events as a single queue would.
    seq: u64,
    running: Option<Running>,
    ready: VecDeque<Task>,
    gen: u64,
    tracker: FrameTracker,
    raf_queue: Vec<(Value, InputId)>,
    timers: HashMap<u64, (Value, InputId)>,
    next_timer: u64,
    transitions: Vec<ActiveTransition>,
    css_animations: Vec<ActiveCssAnimation>,
    host_animations: Vec<ActiveHostAnimation>,
    /// Animated values by (node, property). Ordered, so the render pass
    /// reads each node's values as one contiguous, sorted run.
    overlay: BTreeMap<(NodeId, String), CssValue>,
    input_meta: Vec<InputRecord>,
    /// Scroll/touchmove inputs waiting for VSync-aligned dispatch
    /// (Chromium aligns move-type input delivery to BeginFrame).
    pending_moves: Vec<TraceEvent>,
    next_uid: u64,
    util_mark: Duration,
    logs: Vec<String>,
    injector: Option<FaultInjector>,
    trace: Option<TraceHandle>,
    /// While recording: the CPU ledger's cumulative busy energy when the
    /// last main-thread span was recorded. The next span carries the
    /// busy energy drawn since.
    span_mark_mj: f64,
    /// Budget ceilings, when this browser runs supervised.
    budget: Option<RunBudget>,
    /// Discrete events popped by [`Browser::run`] so far (across runs),
    /// checked against `budget.max_sim_events`.
    events_popped: u64,
    /// Static effect summaries keyed the way dispatch finds callbacks:
    /// `(registered node, event, index within that node's listener
    /// list)`. Built from [`App::effect_summaries`] at load.
    effect_summaries: HashMap<(NodeId, EventType, usize), Rc<HandlerSummary>>,
    /// Every `dynamic ⊆ static` violation observed, in occurrence order.
    effect_violations: Vec<String>,
    /// Number of callback returns checked against a static summary.
    effect_checks: u64,
}

impl<S: Scheduler> Browser<S> {
    /// Loads `app` and attaches `scheduler`, using the default ODroid
    /// XU+E platform and power model.
    ///
    /// # Errors
    ///
    /// Returns [`BrowserError`] if any of the app's sources fail to parse
    /// or a setup script fails.
    pub fn new(app: &App, scheduler: S) -> Result<Self, BrowserError> {
        Self::with_hardware(
            app,
            scheduler,
            Platform::odroid_xu_e(),
            PowerModel::odroid_xu_e(),
        )
    }

    /// Loads `app` on custom hardware.
    ///
    /// # Errors
    ///
    /// Same as [`Browser::new`].
    pub fn with_hardware(
        app: &App,
        mut scheduler: S,
        platform: Platform,
        power: PowerModel,
    ) -> Result<Self, BrowserError> {
        let doc = parse_html(&app.html)?;
        let stylesheet = parse_stylesheet(&app.css_source())?;
        scheduler.on_attach(&stylesheet, &doc);
        let style = StyleEngine::new(stylesheet);
        let cpu = Cpu::new(platform, power);
        let mut browser = Browser {
            app_name: app.name.clone(),
            doc,
            style,
            script: Vm::new(),
            script_stats: ScriptStats::default(),
            listeners: ListenerSet::new(),
            render: RenderPipeline::new(true),
            frame_render: FrameRenderInfo::default(),
            cost: app.cost.clone(),
            cpu,
            scheduler,
            now: SimTime::ZERO,
            queue: BinaryHeap::new(),
            vsync: None,
            gov_tick: None,
            seq: 0,
            running: None,
            ready: VecDeque::new(),
            gen: 0,
            tracker: FrameTracker::new(),
            raf_queue: Vec::new(),
            timers: HashMap::new(),
            next_timer: 0,
            transitions: Vec::new(),
            css_animations: Vec::new(),
            host_animations: Vec::new(),
            overlay: BTreeMap::new(),
            input_meta: Vec::new(),
            pending_moves: Vec::new(),
            next_uid: 0,
            util_mark: Duration::ZERO,
            logs: Vec::new(),
            injector: None,
            trace: None,
            span_mark_mj: 0.0,
            budget: None,
            events_popped: 0,
            effect_summaries: HashMap::new(),
            effect_violations: Vec::new(),
            effect_checks: 0,
        };
        browser.set_effect_summaries(&app.effect_summaries);
        // Run setup scripts: they register listeners and may set initial
        // styles. Scheduling effects (dirty/rAF/timers) are ignored at
        // setup — loading work is modeled by the `load` trace event. Each
        // program executes the bytecode compiled once at `App::build`
        // (fingerprint-validated; recompiled here only if the sources
        // were mutated after build). The functions it defines close over
        // that same prototype table, so every later event dispatch — and
        // GreenLint, which reads the same `App::compiled_script` — reuses
        // this one artifact.
        for (index, src) in app.scripts.iter().enumerate() {
            browser.script_stats.programs += 1;
            let mut host = ScriptHost::new(&mut browser.doc, 0.0);
            let compiled: CompiledProgram = match app.compiled_script(index) {
                Some(compiled) => {
                    browser.script_stats.precompiled_hits += 1;
                    compiled.clone() // an `Arc` alias, not a copy
                }
                None => {
                    browser.script_stats.compiles += 1;
                    let program = parse_program(src)?;
                    compile(&program)
                        .map_err(|e| ScriptError::new(e.to_string()))
                        .map_err(BrowserError::Script)?
                }
            };
            browser.script.run(&compiled, &mut host)?;
            for (node, event, callback) in host.effects.listeners.drain(..) {
                browser.listeners.add(node, event, callback);
            }
        }
        browser.script_stats.ops += browser.script.ops();
        browser.script_stats.dispatches += browser.script.dispatches();
        browser.script.reset_ops();
        // Distinct handler bodies the setup scripts registered: one per
        // `(prototype table, proto index)`, however many nodes share it.
        // Sorted rather than hashed: a hash set's growth would follow the
        // listener map's random iteration order, and with it the
        // allocation count the benchmark requires to repeat exactly.
        let mut bodies: Vec<_> = browser
            .listeners
            .targets()
            .flat_map(|(node, event)| browser.listeners.get(node, event))
            .filter_map(|callback| match callback {
                Value::VmFunction(closure) => {
                    Some((Arc::as_ptr(closure.protos()), closure.proto()))
                }
                _ => None,
            })
            .collect();
        bodies.sort_unstable();
        bodies.dedup();
        browser.script_stats.handlers = bodies.len() as u64;
        Ok(browser)
    }

    /// [`Browser::with_hardware`] under the name the repository benchmark
    /// package calls; `ScriptBackend` has one variant, so `_backend`
    /// selects nothing.
    ///
    /// # Errors
    ///
    /// Same as [`Browser::new`].
    pub fn with_hardware_backend(
        app: &App,
        scheduler: S,
        platform: Platform,
        power: PowerModel,
        _backend: ScriptBackend,
    ) -> Result<Self, BrowserError> {
        Self::with_hardware(app, scheduler, platform, power)
    }

    /// Attaches a seeded fault-injection plan. The next [`Browser::run`]
    /// perturbs input delivery, VSync timing and callback cost per the
    /// plan; every fault that fires is recorded in the report's
    /// [`crate::ChaosReport`]. Runs with the same plan (and same
    /// app/trace/scheduler) are byte-for-byte reproducible.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.injector = Some(FaultInjector::new(plan));
    }

    /// Attaches a watchdog budget. The VM's per-callback fuel ceiling
    /// takes effect immediately; the sim-event ceiling is enforced by
    /// the next [`Browser::run`]. See [`RunBudget`] for why both ceilings
    /// are deterministic.
    pub fn set_budget(&mut self, budget: RunBudget) {
        self.script.set_op_limit(budget.max_callback_ops);
        self.budget = Some(budget);
    }

    /// Attaches a trace recorder. The browser emits pipeline-stage
    /// spans, VSync ticks, configuration switches, energy samples, frame
    /// commits, and injected faults into it; the handle is also passed
    /// to the scheduler (via [`Scheduler::attach_trace`]) so policies
    /// can add their decision events to the same timeline. Without a recorder attached, all instrumentation sites
    /// are branches on a `None` — no payloads are built, nothing
    /// allocates.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.scheduler.attach_trace(trace.clone());
        self.trace = Some(trace);
    }

    /// The live document.
    pub fn document(&self) -> &Document {
        &self.doc
    }

    /// The style engine (stylesheet + resolver).
    pub fn style_engine(&self) -> &StyleEngine {
        &self.style
    }

    /// Switches the rendering pipeline between the incremental path (the
    /// default) and the naive full-relayout/full-repaint oracle.
    /// Semantics-preserving: geometry, display lists,
    /// and every energy/QoS metric are identical between modes — only
    /// the `layout`/`paint` reuse counters (and the style counters,
    /// since reused subtrees skip style resolution) differ.
    pub fn set_paint_incremental(&mut self, enabled: bool) {
        self.render.set_enabled(enabled);
    }

    /// The retained display list after the last produced frame, in
    /// document order. Differential tests compare this across modes.
    pub fn display_list(&self) -> &[DisplayItem] {
        self.render.display_list()
    }

    /// The positioned layout boxes of the last produced frame.
    pub fn layout_boxes(&self) -> &[LayoutBox] {
        self.render.layout_boxes()
    }

    /// Layout counters accumulated so far.
    pub fn layout_stats(&self) -> LayoutStats {
        self.render.layout_stats()
    }

    /// Paint counters accumulated so far.
    pub fn paint_stats(&self) -> PaintStats {
        self.render.paint_stats()
    }

    /// Replaces the static effect-summary table (normally injected via
    /// [`App::effect_summaries`]; tests use this to attach hand-built or
    /// intentionally wrong summaries after construction).
    pub fn set_effect_summaries(&mut self, summaries: &[HandlerSummary]) {
        self.effect_summaries = summaries
            .iter()
            .map(|hs| ((hs.node, hs.event, hs.index), Rc::new(hs.clone())))
            .collect();
    }

    /// The static summaries attached for the callbacks registered at
    /// `(node, event)`, in callback order. Empty when no summary table
    /// is attached or the target has none; shorter than the callback
    /// list when listeners were added dynamically after inference.
    pub fn effect_summaries_for(&self, node: NodeId, event: EventType) -> Vec<&HandlerSummary> {
        let mut out = Vec::new();
        for index in 0.. {
            match self.effect_summaries.get(&(node, event, index)) {
                Some(hs) => out.push(hs.as_ref()),
                None => break,
            }
        }
        out
    }

    /// Every `dynamic ⊆ static` containment violation observed so far.
    pub fn effect_violations(&self) -> &[String] {
        &self.effect_violations
    }

    /// Number of callback returns checked against a static summary.
    pub fn effect_checks(&self) -> u64 {
        self.effect_checks
    }

    /// Script-pipeline counters so far.
    pub fn script_stats(&self) -> ScriptStats {
        self.script_stats
    }

    /// The style system's counters so far.
    pub fn style_stats(&self) -> StyleStats {
        self.style.stats()
    }

    /// Every `(node, event)` pair with a registered listener — what
    /// AUTOGREEN's DOM-discovery phase enumerates.
    pub fn listener_targets(&self) -> Vec<(NodeId, EventType)> {
        let mut targets: Vec<_> = self.listeners.targets().collect();
        targets.sort();
        targets
    }

    /// The callbacks registered for `event` directly on `node`, in
    /// registration order — what the static analyzer's cost-bound pass
    /// compiles and walks.
    pub fn listener_callbacks(&self, node: NodeId, event: EventType) -> &[Value] {
        self.listeners.get(node, event)
    }

    /// The current animated value of `property` on `node`, if an
    /// animation overlay is active.
    pub fn animated_value(&self, node: NodeId, property: &str) -> Option<&CssValue> {
        self.overlay.get(&(node, property.to_string()))
    }

    /// Collected `log()` output.
    pub fn logs(&self) -> &[String] {
        &self.logs
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    fn push_event(&mut self, at: SimTime, kind: SimEventKind) {
        let seq = self.next_seq();
        self.queue.push(Reverse(QueuedEvent { at, seq, kind }));
    }

    fn arm_vsync(&mut self, at: SimTime) {
        self.vsync = Some((at, self.next_seq()));
    }

    /// Arms the VSync one period after this one, unless it falls past
    /// the trace's end.
    fn rearm_vsync(&mut self, end: SimTime) {
        let next = self.now + VSYNC_PERIOD;
        if next <= end {
            self.arm_vsync(next);
        }
    }

    fn arm_gov_tick(&mut self, at: SimTime) {
        self.gov_tick = Some((at, self.next_seq()));
    }

    /// The earliest pending event by `(at, seq)` across the heap and the
    /// two periodic slots, and where it lives.
    fn next_event(&self) -> Option<(SimTime, NextEvent)> {
        let mut best = self
            .queue
            .peek()
            .map(|Reverse(event)| ((event.at, event.seq), NextEvent::Queue));
        for (slot, source) in [
            (self.vsync, NextEvent::VSync),
            (self.gov_tick, NextEvent::GovTick),
        ] {
            if let Some(key) = slot {
                if best.is_none_or(|(best_key, _)| key < best_key) {
                    best = Some((key, source));
                }
            }
        }
        best.map(|((at, _), source)| (at, source))
    }

    /// Whether the VSync due now would do nothing in [`Browser::on_vsync`]
    /// but re-arm itself: no fault injector is attached (it acts on every
    /// tick), and the main thread is either busy (the tick is skipped as
    /// congested) or has nothing to deliver, tick or draw.
    fn vsync_is_noop(&self) -> bool {
        self.injector.is_none()
            && (self.running.is_some()
                || (self.ready.is_empty()
                    && self.pending_moves.is_empty()
                    && self.raf_queue.is_empty()
                    && self.transitions.is_empty()
                    && self.css_animations.is_empty()
                    && self.host_animations.is_empty()
                    && !self.tracker.is_dirty()))
    }

    fn next_gen(&mut self) -> u64 {
        self.gen += 1;
        self.gen
    }

    /// Runs the trace to completion and produces the report.
    ///
    /// A browser accumulates state across runs; evaluation code should
    /// construct a fresh browser per measured run.
    ///
    /// # Errors
    ///
    /// Returns [`BrowserError::Script`] if a callback raises an error.
    pub fn run(&mut self, trace: &Trace) -> Result<SimReport, BrowserError> {
        let events = match self.injector.as_mut() {
            Some(injector) => injector.perturb_inputs(&trace.events),
            None => trace.events.clone(),
        };
        for event in events {
            self.push_event(event.at, SimEventKind::Input(event));
        }
        self.arm_vsync(SimTime::ZERO + VSYNC_PERIOD);
        if let Some(period) = self.scheduler.timer_period() {
            self.arm_gov_tick(SimTime::ZERO + period);
        }
        let end = trace.end;
        while let Some((at, source)) = self.next_event() {
            if at > end {
                break;
            }
            // Inline no-op VSyncs count too, so a budget trips at the
            // same event whichever path a tick takes.
            self.events_popped += 1;
            if let Some(budget) = self.budget {
                if self.events_popped > budget.max_sim_events {
                    return Err(BrowserError::Budget(format!(
                        "sim-event ceiling exceeded: popped more than {} events \
                         by t={:?} (trace ends at {:?})",
                        budget.max_sim_events, at, end
                    )));
                }
            }
            debug_assert!(at >= self.now, "event queue went backwards");
            self.now = at;
            match source {
                NextEvent::VSync => {
                    self.vsync = None;
                    if self.vsync_is_noop() {
                        if let Some(trace) = self.trace.as_ref() {
                            trace.record_idle_vsync(self.now, VSYNC_PERIOD);
                        }
                        self.rearm_vsync(end);
                    } else {
                        self.on_vsync(end)?;
                    }
                }
                NextEvent::GovTick => {
                    self.gov_tick = None;
                    self.on_gov_tick(end);
                }
                NextEvent::Queue => {
                    let Reverse(event) = self.queue.pop().expect("next_event peeked it");
                    match event.kind {
                        // Move-type inputs are VSync-aligned: the browser
                        // coalesces them into the next frame rather than
                        // waking the main thread mid-frame (Chromium's
                        // input pipeline).
                        SimEventKind::Input(input)
                            if matches!(input.event, EventType::Scroll | EventType::TouchMove) =>
                        {
                            self.pending_moves.push(input);
                        }
                        SimEventKind::Input(input) => self.on_input(input)?,
                        SimEventKind::TaskDone { gen } => self.on_task_done(gen)?,
                        SimEventKind::Timer { id } => self.on_timer_fired(id)?,
                    }
                }
            }
        }
        self.now = end;
        self.cpu.advance(end);
        Ok(self.build_report(end))
    }

    fn build_report(&mut self, end: SimTime) -> SimReport {
        if let Some(trace) = self.trace.clone() {
            // The task still running at `end`, cut there, and one last
            // energy sample close the trace: every busy nanosecond's
            // energy is carried by a span, and the sample holds the run's
            // busy and idle totals.
            if let Some(running) = self.running.take() {
                self.record_span(&running);
                self.running = Some(running);
            }
            self.record_energy_sample();
            // Injected faults are appended to the trace in one
            // deterministic batch at report time (the exporter's consumers
            // sort by timestamp, so insertion order does not matter).
            if let Some(injector) = self.injector.as_ref() {
                for fault in &injector.report().faults {
                    trace.record(
                        fault.at,
                        TraceKind::Fault {
                            category: fault.kind.category(),
                            detail: fault.kind.to_string(),
                        },
                    );
                }
            }
        }
        let style = self.style_stats();
        let layout = self.render.layout_stats();
        let paint = self.render.paint_stats();
        if let Some(trace) = self.trace.as_ref() {
            trace.record(
                end,
                TraceKind::RenderStats {
                    relayouts: layout.relayouts,
                    elements_laid_out: layout.elements_laid_out,
                    subtree_reuses: layout.subtree_reuses,
                    dirty_elements: layout.dirty_elements,
                    full_repaints: paint.full_repaints,
                    partial_repaints: paint.partial_repaints,
                    items_emitted: paint.items_emitted,
                    items_reused: paint.items_reused,
                    damage_items: paint.damage_items,
                    damage_area: paint.damage_area,
                },
            );
            trace.record(
                end,
                TraceKind::StyleStats {
                    resolves: style.resolves,
                    matches: style.matches,
                    matches_id: style.matches_id,
                    matches_class: style.matches_class,
                    matches_tag: style.matches_tag,
                    matches_universal: style.matches_universal,
                    bloom_rejects: style.bloom_rejects,
                },
            );
        }
        let mut inputs = self.input_meta.clone();
        for input in &mut inputs {
            input.frames = self.tracker.frames_for(input.uid);
        }
        SimReport {
            app: self.app_name.clone(),
            scheduler: self.scheduler.name(),
            energy: self.cpu.energy(),
            frames: self.tracker.records().to_vec(),
            inputs,
            residency: self.cpu.residency(),
            switches: self.cpu.switch_counts(),
            busy_time: self.cpu.busy_time(),
            total_time: end.since(SimTime::ZERO),
            chaos: self.injector.as_ref().map(FaultInjector::report),
            style,
            script: self.script_stats(),
            layout,
            paint,
            effect_checks: self.effect_checks,
            effect_violations: self.effect_violations.clone(),
        }
    }

    fn resolve_target(&self, spec: &TargetSpec) -> NodeId {
        match spec {
            TargetSpec::Id(id) => self
                .doc
                .element_by_id(id)
                .unwrap_or_else(|| self.doc.root()),
            // Root events (load, page scroll) target the document
            // element, like real browsers; listeners registered on the
            // document root still fire via the propagation path.
            TargetSpec::Root => {
                let root = self.doc.root();
                self.doc
                    .children(root)
                    .find(|&c| self.doc.element(c).is_some())
                    .unwrap_or(root)
            }
        }
    }

    fn on_input(&mut self, input: TraceEvent) -> Result<(), BrowserError> {
        let uid = InputId(self.next_uid);
        self.next_uid += 1;
        let target = self.resolve_target(&input.target);
        self.tracker.register_input(uid, input.event);
        self.cpu.advance(self.now);
        let desired = {
            let ctx = SchedulerCtx {
                doc: &self.doc,
                cpu: &self.cpu,
            };
            self.scheduler
                .on_input(self.now, uid, input.event, target, &ctx)
        };
        self.apply_config(desired);
        let event = Event::new(input.event, target);
        let callbacks: Vec<(Option<Rc<HandlerSummary>>, Value)> = self
            .listeners
            .dispatch_entries(&self.doc, &event)
            .into_iter()
            .map(|(node, index, callback)| {
                let summary = self
                    .effect_summaries
                    .get(&(node, input.event, index))
                    .cloned();
                (summary, callback.clone())
            })
            .collect();
        let had_listener = !callbacks.is_empty();
        self.input_meta.push(InputRecord {
            uid,
            event: input.event,
            target_id: self
                .doc
                .element(target)
                .and_then(|el| el.id())
                .map(str::to_string),
            at: self.now,
            had_listener,
            used_raf: false,
            used_animate: false,
            armed_css_animation: false,
            frames: 0,
        });
        record_into(&self.trace, self.now, || TraceKind::Span {
            kind: SpanKind::Input,
            start: self.now,
            dur: Duration::ZERO,
            uids: vec![uid.0],
            label: Some(input.event.name()),
            ops: 0,
            mj: 0.0,
        });
        let origin = Msg {
            uid,
            start_ts: self.now,
        };
        if had_listener {
            let arg = self.event_arg(input.event, target);
            for (summary, callback) in callbacks {
                self.ready.push_back(Task::Callback {
                    callback,
                    arg: Some(arg.clone()),
                    origin,
                    summary,
                });
            }
        } else if matches!(input.event, EventType::Scroll | EventType::TouchMove) {
            // Compositor-driven scrolling: a frame without script.
            self.tracker.mark_dirty(origin);
        }
        self.try_start()?;
        Ok(())
    }

    /// Registers a move input that was coalesced into a later one: it
    /// runs no callback of its own but is attributed the shared frame.
    fn register_coalesced_move(&mut self, input: &TraceEvent) {
        let uid = InputId(self.next_uid);
        self.next_uid += 1;
        let target = self.resolve_target(&input.target);
        self.tracker.register_input(uid, input.event);
        self.input_meta.push(InputRecord {
            uid,
            event: input.event,
            target_id: self
                .doc
                .element(target)
                .and_then(|el| el.id())
                .map(str::to_string),
            at: self.now,
            had_listener: self.listeners.has(target, input.event),
            used_raf: false,
            used_animate: false,
            armed_css_animation: false,
            frames: 0,
        });
        self.tracker.mark_dirty(Msg {
            uid,
            start_ts: self.now,
        });
        record_into(&self.trace, self.now, || TraceKind::Span {
            kind: SpanKind::Input,
            start: self.now,
            dur: Duration::ZERO,
            uids: vec![uid.0],
            label: Some(input.event.name()),
            ops: 0,
            mj: 0.0,
        });
    }

    fn event_arg(&self, event: EventType, target: NodeId) -> Value {
        let obj = Value::object();
        if let Value::Object(map) = &obj {
            let mut map = map.borrow_mut();
            map.insert("type".into(), Value::str(event.name()));
            map.insert("target".into(), Value::Number(target.index() as f64));
        }
        obj
    }

    fn on_vsync(&mut self, end: SimTime) -> Result<(), BrowserError> {
        if let Some(injector) = self.injector.as_mut() {
            match injector.on_vsync(self.now) {
                VsyncDisposition::Deliver => {}
                VsyncDisposition::Drop => {
                    // The display swallowed the tick: no input delivery,
                    // no rAF, no frame — but the clock keeps beating.
                    self.rearm_vsync(end);
                    return Ok(());
                }
                VsyncDisposition::Defer(delay) => {
                    // The tick arrives late; its work (and the schedule of
                    // the following tick) shifts with it.
                    self.arm_vsync(self.now + delay);
                    return Ok(());
                }
            }
        }
        // Only delivered ticks are traced: the display actually beat.
        if let Some(trace) = self.trace.as_ref() {
            trace.record(self.now, TraceKind::Vsync);
        }
        // If the main thread is still chewing on the previous frame, skip
        // this VSync entirely — real browsers do not dispatch rAF or
        // begin a frame under main-thread congestion; the animation
        // simply drops to the next achievable frame rate. Dispatching
        // here anyway would anchor latencies one VSync early and charge
        // the runtime for queueing delay it cannot control.
        let congested = self.running.is_some() || !self.ready.is_empty();
        if !congested {
            // Deliver the move-type inputs first (input handlers run
            // ahead of rAF within a frame). Like Chromium, moves that
            // queued up behind a slow frame are *coalesced*: one callback
            // fires per (event, target) with the latest sample, while
            // every absorbed input still gets a latency record for the
            // shared frame (they are all "answered" by it).
            let moves: Vec<TraceEvent> = self.pending_moves.drain(..).collect();
            let moved = !moves.is_empty();
            for (i, input) in moves.iter().enumerate() {
                let is_last_of_kind = !moves[i + 1..]
                    .iter()
                    .any(|m| m.event == input.event && m.target == input.target);
                if is_last_of_kind {
                    self.on_input(input.clone())?;
                } else {
                    self.register_coalesced_move(input);
                }
            }
            // A continuation frame's work begins with its rAF callbacks
            // at this VSync — give the scheduler its per-frame decision
            // point *before* the callbacks run, so the whole frame
            // (callback + pipeline stages) executes at one configuration
            // (the paper's runtime operates per-frame, Sec. 6.1).
            let mut upcoming: Vec<InputId> = self
                .raf_queue
                .iter()
                .map(|(_, uid)| *uid)
                .chain(self.transitions.iter().map(|t| t.origin))
                .chain(self.css_animations.iter().map(|a| a.origin))
                .chain(self.host_animations.iter().map(|a| a.origin))
                .collect();
            upcoming.sort();
            upcoming.dedup();
            if !upcoming.is_empty() {
                let origins: Vec<(InputId, EventType)> = upcoming
                    .into_iter()
                    .map(|uid| (uid, self.origin_event(uid)))
                    .collect();
                self.cpu.advance(self.now);
                let desired = {
                    let ctx = SchedulerCtx {
                        doc: &self.doc,
                        cpu: &self.cpu,
                    };
                    self.scheduler.on_frame_start(self.now, &origins, &ctx)
                };
                self.apply_config(desired);
            }
            self.tick_animations();
            let rafs: Vec<(Value, InputId)> = self.raf_queue.drain(..).collect();
            let ticked = !rafs.is_empty();
            for (callback, uid) in rafs {
                let origin = Msg {
                    uid,
                    start_ts: self.now,
                };
                self.ready.push_back(Task::Callback {
                    callback,
                    arg: Some(Value::Number(self.now.as_millis_f64())),
                    origin,
                    summary: None,
                });
            }
            if self.tracker.is_dirty() || ticked || moved {
                // The dirty bit for move callbacks is only set when their
                // simulated execution completes; BeginFrame sits behind
                // them in the FIFO queue, so the frame still commits
                // within this VSync's work batch.
                self.ready.push_back(Task::BeginFrame);
            }
        }
        self.rearm_vsync(end);
        self.try_start()?;
        Ok(())
    }

    /// Samples every active animation at the current VSync, updates the
    /// overlay, marks the frame dirty on behalf of each animation's root
    /// input, and fires `transitionend`/`animationend` for finished ones.
    fn tick_animations(&mut self) {
        let now_ms = self.now.as_millis_f64();
        let mut end_events: Vec<(NodeId, EventType, InputId)> = Vec::new();
        let mut dirty_origins: Vec<InputId> = Vec::new();

        let mut transitions = std::mem::take(&mut self.transitions);
        transitions.retain_mut(|t| {
            let value = t.state.value_at(now_ms);
            self.overlay
                .insert((t.node, t.state.property.clone()), value);
            dirty_origins.push(t.origin);
            if t.state.is_finished(now_ms) {
                end_events.push((t.node, EventType::TransitionEnd, t.origin));
                false
            } else {
                true
            }
        });
        self.transitions = transitions;

        let mut animations = std::mem::take(&mut self.css_animations);
        animations.retain_mut(|a| {
            if let Some(keyframes) = self
                .style
                .stylesheet()
                .keyframes_by_name(&a.state.spec.name)
            {
                // Sample every property the keyframes animate.
                let mut properties: Vec<PropertyId> = keyframes
                    .frames
                    .iter()
                    .flat_map(|f| f.declarations.iter().map(|d| d.property))
                    .collect();
                properties.sort();
                properties.dedup();
                for property in properties {
                    if let Some(value) = a.state.sample(keyframes, property.as_str(), now_ms) {
                        self.overlay
                            .insert((a.node, property.as_str().to_string()), value);
                    }
                }
            }
            dirty_origins.push(a.origin);
            if a.state.is_finished(now_ms) {
                end_events.push((a.node, EventType::AnimationEnd, a.origin));
                false
            } else {
                true
            }
        });
        self.css_animations = animations;

        let mut host_anims = std::mem::take(&mut self.host_animations);
        host_anims.retain_mut(|a| {
            let t = if a.duration_ms <= 0.0 {
                1.0
            } else {
                ((now_ms - a.start_ms) / a.duration_ms).clamp(0.0, 1.0)
            };
            let px = a.from_px + (a.to_px - a.from_px) * t;
            self.overlay.insert(
                (a.node, a.property.clone()),
                CssValue::Length(Length::px(px)),
            );
            dirty_origins.push(a.origin);
            t < 1.0
        });
        self.host_animations = host_anims;

        for origin in dirty_origins {
            self.tracker.mark_dirty(Msg {
                uid: origin,
                start_ts: self.now,
            });
        }
        for (node, event_type, origin) in end_events {
            let event = Event::new(event_type, node);
            let callbacks: Vec<(Option<Rc<HandlerSummary>>, Value)> = self
                .listeners
                .dispatch_entries(&self.doc, &event)
                .into_iter()
                .map(|(listener_node, index, callback)| {
                    let summary = self
                        .effect_summaries
                        .get(&(listener_node, event_type, index))
                        .cloned();
                    (summary, callback.clone())
                })
                .collect();
            let arg = self.event_arg(event_type, node);
            for (summary, callback) in callbacks {
                self.ready.push_back(Task::Callback {
                    callback,
                    arg: Some(arg.clone()),
                    origin: Msg {
                        uid: origin,
                        start_ts: self.now,
                    },
                    summary,
                });
            }
        }
    }

    fn on_timer_fired(&mut self, id: u64) -> Result<(), BrowserError> {
        if let Some((callback, uid)) = self.timers.remove(&id) {
            self.ready.push_back(Task::Callback {
                callback,
                arg: None,
                origin: Msg {
                    uid,
                    start_ts: self.now,
                },
                summary: None,
            });
            self.try_start()?;
        }
        Ok(())
    }

    fn on_gov_tick(&mut self, end: SimTime) {
        let Some(period) = self.scheduler.timer_period() else {
            return;
        };
        self.cpu.advance(self.now);
        let busy = self.cpu.busy_time();
        let delta = busy - self.util_mark;
        self.util_mark = busy;
        let utilization = (delta.as_secs_f64() / period.as_secs_f64()).clamp(0.0, 1.0);
        let desired = {
            let ctx = SchedulerCtx {
                doc: &self.doc,
                cpu: &self.cpu,
            };
            self.scheduler.on_timer(self.now, utilization, &ctx)
        };
        self.apply_config(desired);
        let next = self.now + period;
        if next <= end {
            self.arm_gov_tick(next);
        }
    }

    /// Records, when a recorder is attached, the span of `running` from
    /// its start to `self.now`. It carries the busy energy the CPU drew
    /// since the previous span was recorded: the task's own, plus any
    /// busy time the CPU spent with no task running before it started.
    fn record_span(&mut self, running: &Running) {
        let Some(trace) = self.trace.as_ref() else {
            return;
        };
        let busy_mj = self.cpu.energy().active_mj;
        let (kind, uids, label, ops) = match &running.kind {
            RunningKind::Callback { origin, ops, .. } => (
                SpanKind::Callback,
                vec![origin.uid.0],
                Some(self.origin_event(origin.uid).name()),
                *ops,
            ),
            RunningKind::Stage { stage, msgs } => (
                stage_span(*stage),
                msgs.iter().map(|m| m.uid.0).collect(),
                None,
                0,
            ),
        };
        trace.record(
            self.now,
            TraceKind::Span {
                kind,
                start: running.started,
                dur: self.now.saturating_since(running.started),
                uids,
                label,
                ops,
                mj: busy_mj - self.span_mark_mj,
            },
        );
        self.span_mark_mj = busy_mj;
    }

    /// Records, when a recorder is attached, the state the energy,
    /// power and frequency counter tracks draw as of `self.now`: the
    /// CPU's cumulative busy/idle energy split, its power draw and its
    /// configuration. Called wherever that state changes slope or level
    /// (a switch, a busy/idle edge), and once at the end of the run.
    fn record_energy_sample(&mut self) {
        let Some(trace) = self.trace.as_ref() else {
            return;
        };
        self.cpu.advance(self.now);
        let energy = self.cpu.energy();
        trace.record(
            self.now,
            TraceKind::EnergySample {
                active_mj: energy.active_mj,
                idle_mj: energy.idle_mj,
                power_mw: self.cpu.power_mw(),
                config: self.cpu.config(),
            },
        );
    }

    fn on_task_done(&mut self, gen: u64) -> Result<(), BrowserError> {
        let matches = self.running.as_ref().is_some_and(|r| r.gen == gen);
        if !matches {
            return Ok(()); // Stale completion from before a config switch.
        }
        self.cpu.advance(self.now);
        let running = self.running.take().expect("checked above");
        self.record_span(&running);
        match running.kind {
            RunningKind::Callback {
                effects,
                origin,
                ops: _,
                summary,
            } => {
                self.apply_effects(*effects, origin, summary);
            }
            RunningKind::Stage { stage, msgs } => {
                if stage == Stage::Composite {
                    let records = self.tracker.complete_frame(&msgs, self.now);
                    if let Some(trace) = self.trace.clone() {
                        for record in &records {
                            trace.record(
                                self.now,
                                TraceKind::FrameCommit {
                                    uid: record.uid.0,
                                    seq: record.seq,
                                    latency: record.latency,
                                    event: record.event.name(),
                                },
                            );
                        }
                    }
                    let desired = {
                        let ctx = SchedulerCtx {
                            doc: &self.doc,
                            cpu: &self.cpu,
                        };
                        self.scheduler.on_frames_complete(self.now, &records, &ctx)
                    };
                    self.apply_config(desired);
                }
            }
        }
        if self.ready.is_empty() && self.running.is_none() {
            self.cpu.set_busy(self.now, false);
            self.record_energy_sample();
            let desired = {
                let ctx = SchedulerCtx {
                    doc: &self.doc,
                    cpu: &self.cpu,
                };
                self.scheduler.on_idle(self.now, &ctx)
            };
            self.apply_config(desired);
        }
        self.try_start()?;
        Ok(())
    }

    fn apply_effects(
        &mut self,
        effects: CallbackEffects,
        origin: Msg,
        summary: Option<Rc<HandlerSummary>>,
    ) {
        // The analyzer's correctness contract: everything the callback
        // actually did must be admitted by its static summary
        // (dynamic ⊆ static). A violation is recorded in the ledger.
        if let Some(hs) = summary.as_deref() {
            self.effect_checks += 1;
            let violations = hs.summary.admits(&effects, &self.doc, Some(hs.node));
            if !violations.is_empty() {
                for v in &violations {
                    self.effect_violations.push(format!(
                        "{}: on{} handler #{} at {}: {v}",
                        self.app_name, hs.event, hs.index, hs.node
                    ));
                }
            }
        }
        let meta = self.input_meta.iter_mut().find(|m| m.uid == origin.uid);
        if let Some(meta) = meta {
            meta.used_raf |= effects.used_raf();
            meta.used_animate |= effects.used_animate();
        }
        for (node, event, callback) in effects.listeners {
            self.listeners.add(node, event, callback);
        }
        for (callback, delay_ms) in effects.timers {
            self.next_timer += 1;
            let id = self.next_timer;
            self.timers.insert(id, (callback, origin.uid));
            self.push_event(
                self.now + Duration::from_millis_f64(delay_ms),
                SimEventKind::Timer { id },
            );
        }
        for callback in effects.raf {
            self.raf_queue.push((callback, origin.uid));
        }
        for call in effects.animates {
            let from_px = self
                .overlay
                .get(&(call.node, call.property.clone()))
                .and_then(CssValue::as_number)
                .unwrap_or(0.0);
            self.host_animations.push(ActiveHostAnimation {
                node: call.node,
                property: call.property,
                from_px,
                to_px: call.to_px,
                start_ms: self.now.as_millis_f64(),
                duration_ms: call.duration_ms,
                origin: origin.uid,
            });
        }
        let mut armed_css = false;
        for write in effects.style_writes {
            armed_css |= self.maybe_arm_animation(&write, origin.uid);
        }
        if armed_css {
            if let Some(meta) = self.input_meta.iter_mut().find(|m| m.uid == origin.uid) {
                meta.armed_css_animation = true;
            }
        }
        self.logs.extend(effects.logs);
        if effects.dirty {
            self.tracker.mark_dirty(origin);
        }
    }

    /// Arms a CSS transition or keyframe animation for a style write, per
    /// the element's computed `transition` / `animation` properties.
    fn maybe_arm_animation(&mut self, write: &crate::host::StyleWrite, origin: InputId) -> bool {
        let now_ms = self.now.as_millis_f64();
        if write.property == "animation" {
            if let Some(spec) = AnimationSpec::parse(&write.new) {
                if self
                    .style
                    .stylesheet()
                    .keyframes_by_name(&spec.name)
                    .is_some()
                {
                    self.css_animations.push(ActiveCssAnimation {
                        node: write.node,
                        state: AnimationState::start(spec, now_ms),
                        origin,
                    });
                    return true;
                }
            }
            return false;
        }
        // One resolve yields both views: the full computed style (to read
        // `transition`) and the cascade without the just-written inline
        // override (the transition's start value).
        let (computed, without_inline) = self.style.compute_style_both(&self.doc, write.node, None);
        let Some(transition_value) = computed.get("transition") else {
            return false;
        };
        let specs = TransitionSpec::parse_list(transition_value);
        let Some(spec) = specs.iter().find(|s| s.covers(&write.property)) else {
            return false;
        };
        // The transition's start value: the previous inline value, or —
        // when the property's initial value came from the stylesheet
        // (Fig. 4's `div#ex { width: 100px; }`) — the cascaded value
        // without the just-written inline override.
        let old = write
            .old
            .clone()
            .or_else(|| without_inline.get(&write.property).cloned());
        let Some(old) = old else {
            // No previous value at all: a property gaining its first
            // value does not transition (per CSS).
            return false;
        };
        if old == write.new {
            return false;
        }
        // Cancel a running transition on the same property, if any.
        self.transitions
            .retain(|t| !(t.node == write.node && t.state.property == write.property));
        self.transitions.push(ActiveTransition {
            node: write.node,
            state: TransitionState::start(spec, &write.property, old, write.new.clone(), now_ms),
            origin,
        });
        true
    }

    fn apply_config(&mut self, desired: Option<CpuConfig>) {
        let Some(to) = desired else { return };
        if to == self.cpu.config() {
            return;
        }
        if let Some(running) = self.running.as_mut() {
            let elapsed = self.now.saturating_since(running.since);
            running.remaining = self.cpu.remaining_after(&running.remaining, elapsed);
            running.since = self.now;
        }
        let from = self.cpu.config();
        let penalty = self.cpu.switch(self.now, to);
        record_into(&self.trace, self.now, || TraceKind::ConfigSwitch {
            from,
            to,
            penalty,
        });
        self.record_energy_sample();
        if self.running.is_some() {
            let gen = self.next_gen();
            let running = self.running.as_mut().expect("checked");
            running.remaining.independent_ns += penalty.as_nanos() as f64;
            running.gen = gen;
            let duration = self.cpu.duration_of(&running.remaining);
            self.push_event(self.now + duration, SimEventKind::TaskDone { gen });
        }
    }

    fn try_start(&mut self) -> Result<(), BrowserError> {
        while self.running.is_none() {
            let Some(task) = self.ready.pop_front() else {
                return Ok(());
            };
            match task {
                Task::BeginFrame => self.begin_frame(),
                Task::Callback {
                    callback,
                    arg,
                    origin,
                    summary,
                } => {
                    self.start_callback(callback, arg, origin, summary)?;
                }
                Task::Stage { stage, msgs, seq } => {
                    // Pricing inputs were computed once for this frame
                    // by the render pass in `begin_frame` (the four
                    // stages run back-to-back): style still scales with
                    // the document, layout with the dirty elements,
                    // paint with the damaged display-item fraction.
                    let info = self.frame_render;
                    let work = match stage {
                        Stage::Layout => self.cost.layout_work(info.dirty_elements, seq),
                        Stage::Paint => {
                            self.cost
                                .paint_work(info.damage_items, info.total_items, seq)
                        }
                        Stage::Style | Stage::Composite => {
                            self.cost.stage_work(stage, info.elements, seq)
                        }
                    };
                    self.start_task(RunningKind::Stage { stage, msgs }, work);
                }
            }
        }
        Ok(())
    }

    fn origin_event(&self, uid: InputId) -> EventType {
        // O(1): the tracker indexed every input's event type at
        // registration (this runs per frame per batched message).
        self.tracker.event_for(uid).unwrap_or(EventType::Click)
    }

    /// Runs the per-frame render pass (fingerprint → measure → position
    /// → display-list diff) and returns the pricing inputs. Animation
    /// overlay values ride on top of each resolved style.
    fn run_render_pass(&mut self) -> FrameRenderInfo {
        let doc = &self.doc;
        let style = &self.style;
        self.render
            .render_frame(doc, style.generation(), &self.overlay, &mut |node| {
                style.compute_style(doc, node, None)
            })
    }

    fn begin_frame(&mut self) {
        let Some(msgs) = self.tracker.begin_frame() else {
            return;
        };
        let seq = msgs
            .iter()
            .map(|m| self.tracker.frames_for(m.uid))
            .max()
            .unwrap_or(0);
        let origins: Vec<(InputId, EventType)> = msgs
            .iter()
            .map(|m| (m.uid, self.origin_event(m.uid)))
            .collect();
        self.cpu.advance(self.now);
        let desired = {
            let ctx = SchedulerCtx {
                doc: &self.doc,
                cpu: &self.cpu,
            };
            self.scheduler.on_frame_start(self.now, &origins, &ctx)
        };
        self.apply_config(desired);
        self.frame_render = self.run_render_pass();
        let msgs = Rc::new(msgs);
        for stage in Stage::ALL.into_iter().rev() {
            self.ready.push_front(Task::Stage {
                stage,
                msgs: Rc::clone(&msgs),
                seq,
            });
        }
    }

    fn start_callback(
        &mut self,
        callback: Value,
        arg: Option<Value>,
        origin: Msg,
        summary: Option<Rc<HandlerSummary>>,
    ) -> Result<(), BrowserError> {
        self.script.reset_ops();
        let mut host = ScriptHost::new(&mut self.doc, self.now.as_millis_f64());
        let args: Vec<Value> = arg.into_iter().collect();
        self.script.call_function(&callback, &args, &mut host)?;
        let effects = host.effects;
        let ops = self.script.ops();
        self.script_stats.callbacks += 1;
        self.script_stats.ops += ops;
        self.script_stats.dispatches += self.script.dispatches();
        let mut work = self
            .cost
            .callback_work(ops, effects.work_cycles, effects.gpu_ms);
        if let Some(injector) = self.injector.as_mut() {
            let multiplier = injector.callback_multiplier(self.now);
            if multiplier != 1.0 {
                work.cycles *= multiplier;
                work.independent_ns *= multiplier;
            }
        }
        self.start_task(
            RunningKind::Callback {
                effects: Box::new(effects),
                origin,
                ops,
                summary,
            },
            work,
        );
        Ok(())
    }

    fn start_task(&mut self, kind: RunningKind, work: WorkUnit) {
        let was_busy = self.cpu.is_busy();
        self.cpu.set_busy(self.now, true);
        if !was_busy {
            self.record_energy_sample();
        }
        let gen = self.next_gen();
        let duration = self.cpu.duration_of(&work);
        self.running = Some(Running {
            kind,
            remaining: work,
            since: self.now,
            started: self.now,
            gen,
        });
        self.push_event(self.now + duration, SimEventKind::TaskDone { gen });
    }
}

impl<S: Scheduler> fmt::Debug for Browser<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Browser")
            .field("app", &self.app_name)
            .field("now", &self.now)
            .field("config", &self.cpu.config())
            .finish_non_exhaustive()
    }
}
