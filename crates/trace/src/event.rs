//! The typed event model: everything the simulator can put on a
//! timeline.

use greenweb_acmp::{CpuConfig, Duration, SimTime};

/// The six stages of the paper's frame lifetime (Fig. 7), each traced as
/// a span.
///
/// `Input` is the dispatch point of a user input, `Callback` the script
/// execution it triggers (including the modeled IPC leg), and the last
/// four are the rendering pipeline stages executed per frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SpanKind {
    /// Input dispatch (uid assignment + listener lookup).
    Input,
    /// An event/rAF/timer callback executing on the main thread.
    Callback,
    /// Style recalculation.
    Style,
    /// Layout.
    Layout,
    /// Paint.
    Paint,
    /// Composite — the frame commits when this span ends.
    Composite,
}

impl SpanKind {
    /// All six kinds, in frame-lifetime order.
    pub const ALL: [SpanKind; 6] = [
        SpanKind::Input,
        SpanKind::Callback,
        SpanKind::Style,
        SpanKind::Layout,
        SpanKind::Paint,
        SpanKind::Composite,
    ];

    /// Stable lower-case name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Input => "input",
            SpanKind::Callback => "callback",
            SpanKind::Style => "style",
            SpanKind::Layout => "layout",
            SpanKind::Paint => "paint",
            SpanKind::Composite => "composite",
        }
    }
}

/// One typed trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A completed span of main-thread (or input-dispatch) work.
    Span {
        /// Which stage of the frame lifetime.
        kind: SpanKind,
        /// When the work started executing.
        start: SimTime,
        /// How long it ran (the record's own timestamp is the end).
        dur: Duration,
        /// The input uids attributed to this work (Fig. 8 metadata).
        uids: Vec<u64>,
        /// Optional annotation, e.g. the DOM event type name.
        label: Option<&'static str>,
        /// VM opcodes executed inside this span. Non-zero only for
        /// callback spans; the attribution profiler uses it to rank
        /// callbacks by script work, not just wall time.
        ops: u64,
        /// Busy energy the work drew, in millijoules: the CPU ledger's
        /// cumulative busy energy when the span was recorded minus its
        /// value at the previous main-thread span (the task's own, plus
        /// any busy time with no task running just before it). Main-
        /// thread tasks never overlap, so these sum to the run's busy
        /// energy; input-dispatch spans carry none.
        mj: f64,
    },
    /// A delivered VSync tick that found work to do.
    Vsync,
    /// A run of consecutive VSync ticks that found nothing to do (the
    /// main thread busy, or nothing to deliver, tick or draw), folded
    /// into one record. The record's timestamp is the first tick's; the
    /// others follow one `period` apart.
    IdleVsyncs {
        /// Ticks in the run (at least one).
        ticks: u64,
        /// The interval between ticks.
        period: Duration,
    },
    /// A scheduler decision: the per-frame "why" record.
    Decision {
        /// The QoS target in force, in milliseconds.
        target_ms: f64,
        /// The model's predicted latency at the chosen configuration;
        /// `None` while the class is still profiling.
        predicted_ms: Option<f64>,
        /// The configuration the scheduler asked for.
        chosen: CpuConfig,
        /// True while this is a profiling run, not a model prediction.
        profiling: bool,
    },
    /// The engine executed a configuration switch.
    ConfigSwitch {
        /// The configuration left.
        from: CpuConfig,
        /// The configuration entered.
        to: CpuConfig,
        /// The DVFS/migration stall charged to the running task.
        penalty: Duration,
    },
    /// An injected fault fired.
    Fault {
        /// Coarse category (`"load-spike"`, `"vsync"`, `"input"`).
        category: &'static str,
        /// Human-readable description of the specific fault.
        detail: String,
    },
    /// An energy-accounting sample, taken wherever the counter tracks
    /// it draws change: at a configuration switch, at a busy/idle edge
    /// and once at the end of the run.
    EnergySample {
        /// Cumulative ground-truth energy spent busy, in millijoules.
        active_mj: f64,
        /// Cumulative ground-truth energy spent idle, in millijoules.
        idle_mj: f64,
        /// Instantaneous power draw at the sampled state, in milliwatts.
        power_mw: f64,
        /// The configuration at the sample point.
        config: CpuConfig,
    },
    /// End-of-run style-system counters: how much exact selector
    /// matching the bucketed resolver ran and what the ancestor Bloom
    /// filter rejected. Deterministic counters (never wall-clock), recorded once when the
    /// report is built.
    StyleStats {
        /// Bucketed style resolutions performed.
        resolves: u64,
        /// Exact selector match walks the bucketed path ran.
        matches: u64,
        /// Exact walks on candidates drawn from the id bucket. The four
        /// per-bucket counters partition `matches` and feed the
        /// attribution profiler's per-selector-bucket ranking.
        matches_id: u64,
        /// Exact walks on candidates drawn from a class bucket.
        matches_class: u64,
        /// Exact walks on candidates drawn from the tag bucket.
        matches_tag: u64,
        /// Exact walks on candidates drawn from the universal
        /// spill-over.
        matches_universal: u64,
        /// Candidates rejected by the ancestor Bloom filter alone.
        bloom_rejects: u64,
    },
    /// Deterministic render-pipeline counters (layout + paint), recorded
    /// once when the report is built, next to [`EventKind::StyleStats`].
    /// The dirty/damage numbers are identical whichever rendering mode
    /// (`RunSpec::paint_incremental`) produced them; the laid-out/reuse split
    /// is where the modes differ.
    RenderStats {
        /// Frames laid out (one per produced frame).
        relayouts: u64,
        /// Elements actually measured across the run.
        elements_laid_out: u64,
        /// Clean subtrees served whole from the measure cache.
        subtree_reuses: u64,
        /// Elements whose subtree fingerprint changed (prices layout).
        dirty_elements: u64,
        /// Frames charged the full flat paint price.
        full_repaints: u64,
        /// Frames charged a partial (damaged-fraction) paint price.
        partial_repaints: u64,
        /// Display items (re)built.
        items_emitted: u64,
        /// Retained display items reused unchanged.
        items_reused: u64,
        /// Damaged items: changed + appeared + disappeared (prices
        /// paint).
        damage_items: u64,
        /// Damaged area, px².
        damage_area: u64,
    },
    /// A frame committed, answering one input (one per
    /// `FrameRecord`).
    FrameCommit {
        /// The originating input's uid.
        uid: u64,
        /// The frame's sequence number within the input's lifetime.
        seq: u32,
        /// The recorded frame latency.
        latency: Duration,
        /// The originating DOM event type name.
        event: &'static str,
    },
}

impl EventKind {
    /// Stable name of the event kind, used as counter keys and span
    /// names in exports.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Span { kind, .. } => kind.name(),
            EventKind::Vsync | EventKind::IdleVsyncs { .. } => "vsync",
            EventKind::Decision { .. } => "decision",
            EventKind::ConfigSwitch { .. } => "config-switch",
            EventKind::Fault { .. } => "fault",
            EventKind::EnergySample { .. } => "energy-sample",
            EventKind::StyleStats { .. } => "style-stats",
            EventKind::RenderStats { .. } => "render-stats",
            EventKind::FrameCommit { .. } => "frame-commit",
        }
    }

    /// How many timeline events the record stands for: the ticks of an
    /// [`EventKind::IdleVsyncs`] run, one for any other record.
    pub fn occurrences(&self) -> u64 {
        match self {
            EventKind::IdleVsyncs { ticks, .. } => *ticks,
            _ => 1,
        }
    }
}

/// One recorded event: a timestamp, a deterministic tie-breaking
/// sequence number, and the typed payload.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Simulation time the event was recorded (for spans: the end).
    pub at: SimTime,
    /// Monotonic insertion index — deterministic because the simulator
    /// is.
    pub seq: u64,
    /// The payload.
    pub kind: EventKind,
}
