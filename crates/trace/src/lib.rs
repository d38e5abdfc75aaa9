//! # greenweb-trace
//!
//! Structured tracing for the GreenWeb simulator: a deterministic,
//! ring-buffered span/event recorder, log-bucketed latency histograms,
//! one analysis reader ([`AttributionProfile`]) and one exporter
//! ([`chrome_trace_json`], Chrome trace-event JSON loadable in Perfetto
//! / `chrome://tracing`). It also owns [`json`], the one JSON writer and
//! reader every report in the workspace goes through.
//!
//! The paper's argument is built on *per-frame* attribution (Fig. 7's
//! frame lifetime, Fig. 8's metadata propagation); this crate records
//! that lifetime as typed events — one span per pipeline stage
//! (input → callback → style → layout → paint → composite), VSync
//! ticks, scheduler decisions with their "why" (QoS target, predicted
//! latency, chosen configuration), configuration switches with the
//! DVFS/migration cost charged, degradation-ladder transitions,
//! injected faults, and energy-accounting samples (metered vs. ground
//! truth).
//!
//! Two properties are load-bearing:
//!
//! * **Determinism.** Events are keyed on integer-nanosecond
//!   [`SimTime`](greenweb_acmp::SimTime) plus a monotonically increasing
//!   sequence number; the simulator is deterministic, so identical
//!   seeds produce byte-identical exported traces.
//! * **Zero cost when off.** Instrumentation sites hold an
//!   `Option<TraceHandle>` and build event payloads inside a closure
//!   that only runs when a recorder is attached ([`record_into`]); the
//!   detached path performs no allocation (verified by a
//!   counting-allocator test).
//!
//! ```
//! use greenweb_acmp::{Duration, SimTime};
//! use greenweb_trace::{chrome_trace_json, EventKind, SpanKind, TraceHandle};
//!
//! let trace = TraceHandle::new();
//! trace.record(
//!     SimTime::from_millis(16),
//!     EventKind::Span {
//!         kind: SpanKind::Style,
//!         start: SimTime::from_millis(15),
//!         dur: Duration::from_millis(1),
//!         uids: vec![0],
//!         label: None,
//!         ops: 0,
//!     },
//! );
//! let json = chrome_trace_json(&trace.snapshot(), "demo");
//! assert!(json.contains("\"name\":\"style\""));
//! ```

#![forbid(unsafe_code)]

pub mod attribution;
pub mod event;
pub mod export;
pub mod json;
pub mod metrics;
pub mod recorder;

pub use attribution::{
    AttributionProfile, AttributionSummary, EventAttribution, ViolationForensics,
};
pub use event::{EventKind, SpanKind, TraceRecord};
pub use export::chrome_trace_json;
pub use metrics::{Histogram, LatencySummary};
pub use recorder::{record_into, TraceBuffer, TraceHandle, TraceRecorder};
