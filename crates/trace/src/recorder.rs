//! The ring-buffered recorder and the shared handle instrumentation
//! sites hold.

use crate::event::{EventKind, TraceRecord};
use greenweb_acmp::{Duration, SimTime};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Default ring capacity: comfortably holds a full-interaction run
/// (a 16 s trace emits a few thousand events) while bounding memory for
/// pathological ones.
pub const DEFAULT_CAPACITY: usize = 1 << 20;

/// A bounded, deterministic event recorder.
///
/// Events are appended in simulation order; when the ring is full the
/// oldest event is evicted and counted in `dropped`. Eviction is as
/// deterministic as insertion, so two identical runs drop identical
/// prefixes.
#[derive(Debug)]
pub struct TraceRecorder {
    events: VecDeque<TraceRecord>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
}

impl TraceRecorder {
    /// Creates a recorder holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        TraceRecorder {
            events: VecDeque::new(),
            capacity,
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Appends one event at `at`.
    pub fn record(&mut self, at: SimTime, kind: EventKind) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push_back(TraceRecord { at, seq, kind });
    }

    /// Records an idle VSync tick at `at`: extends the
    /// [`EventKind::IdleVsyncs`] run the last record holds when `at` is
    /// that run's next tick, and starts a new run otherwise.
    pub fn record_idle_vsync(&mut self, at: SimTime, period: Duration) {
        if let Some(TraceRecord {
            at: first,
            kind: EventKind::IdleVsyncs { ticks, period: p },
            ..
        }) = self.events.back_mut()
        {
            if *p == period && first.as_nanos() + *ticks * period.as_nanos() == at.as_nanos() {
                *ticks += 1;
                return;
            }
        }
        self.record(at, EventKind::IdleVsyncs { ticks: 1, period });
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events evicted by the ring.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Copies the current contents into an owned, immutable buffer.
    pub fn snapshot(&self) -> TraceBuffer {
        TraceBuffer {
            events: self.events.iter().cloned().collect(),
            dropped: self.dropped,
        }
    }

    /// Moves the current contents out into an owned buffer, leaving the
    /// recorder empty (its drop count and sequence numbers carry on).
    pub fn take(&mut self) -> TraceBuffer {
        TraceBuffer {
            events: std::mem::take(&mut self.events).into(),
            dropped: self.dropped,
        }
    }
}

/// An immutable snapshot of a recorder's contents, in insertion order.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceBuffer {
    /// The recorded events, oldest first.
    pub events: Vec<TraceRecord>,
    /// Events evicted by the ring before this snapshot.
    pub dropped: u64,
}

impl TraceBuffer {
    /// Number of events whose kind-name equals `name` (see
    /// [`EventKind::name`]), each record counted as
    /// [`EventKind::occurrences`] events.
    pub fn count_of(&self, name: &str) -> usize {
        self.events
            .iter()
            .filter(|r| r.kind.name() == name)
            .map(|r| r.kind.occurrences() as usize)
            .sum()
    }
}

/// A cloneable, shared handle to one [`TraceRecorder`].
///
/// The engine is single-threaded, so the handle is an
/// `Rc<RefCell<..>>`: the browser, the scheduler, and any decorators
/// all append to the same ring. Cloning the handle only bumps a
/// reference count — it never allocates.
#[derive(Debug, Clone)]
pub struct TraceHandle(Rc<RefCell<TraceRecorder>>);

impl TraceHandle {
    /// A handle over a fresh recorder with [`DEFAULT_CAPACITY`].
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A handle over a fresh recorder holding at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceHandle(Rc::new(RefCell::new(TraceRecorder::with_capacity(
            capacity,
        ))))
    }

    /// Appends one event at `at`.
    ///
    /// # Panics
    ///
    /// Panics if called re-entrantly from within another `record` (the
    /// engine never does).
    pub fn record(&self, at: SimTime, kind: EventKind) {
        self.0.borrow_mut().record(at, kind);
    }

    /// Records an idle VSync tick (see
    /// [`TraceRecorder::record_idle_vsync`]).
    pub fn record_idle_vsync(&self, at: SimTime, period: Duration) {
        self.0.borrow_mut().record_idle_vsync(at, period);
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.0.borrow().len()
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.0.borrow().is_empty()
    }

    /// Events evicted by the ring so far.
    pub fn dropped(&self) -> u64 {
        self.0.borrow().dropped()
    }

    /// Copies the current contents into an owned buffer.
    pub fn snapshot(&self) -> TraceBuffer {
        self.0.borrow().snapshot()
    }

    /// Moves the current contents out into an owned buffer without
    /// copying a record (see [`TraceRecorder::take`]); every clone of
    /// the handle then sees an empty recorder.
    pub fn take(&self) -> TraceBuffer {
        self.0.borrow_mut().take()
    }
}

impl Default for TraceHandle {
    fn default() -> Self {
        Self::new()
    }
}

/// Records into an optional sink, building the payload lazily.
///
/// This is the shape every instrumentation site uses: the closure that
/// constructs the event (and any `Vec`/`String` it owns) only runs when
/// a recorder is attached, so the detached path is a branch on a
/// discriminant — no allocation, no payload construction.
#[inline]
pub fn record_into(sink: &Option<TraceHandle>, at: SimTime, make: impl FnOnce() -> EventKind) {
    if let Some(trace) = sink {
        trace.record(at, make());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SpanKind;
    use greenweb_acmp::Duration;

    fn span(u: u64) -> EventKind {
        EventKind::Span {
            kind: SpanKind::Style,
            start: SimTime::from_millis(u),
            dur: Duration::from_millis(1),
            uids: vec![u],
            label: None,
            ops: 0,
            mj: 0.0,
        }
    }

    #[test]
    fn idle_vsyncs_fold_into_runs_of_consecutive_ticks() {
        let period = Duration::from_millis(16);
        let tick = |n: u64| SimTime::from_millis(16 * n);
        let mut rec = TraceRecorder::with_capacity(16);
        for n in 1..=3 {
            rec.record_idle_vsync(tick(n), period);
        }
        // Another record ends the run; so does a skipped tick.
        rec.record(tick(4), EventKind::Vsync);
        rec.record_idle_vsync(tick(5), period);
        rec.record_idle_vsync(tick(7), period);
        let buf = rec.take();
        let runs: Vec<(SimTime, u64)> = buf
            .events
            .iter()
            .filter_map(|r| match r.kind {
                EventKind::IdleVsyncs { ticks, .. } => Some((r.at, ticks)),
                _ => None,
            })
            .collect();
        assert_eq!(runs, [(tick(1), 3), (tick(5), 1), (tick(7), 1)]);
        assert_eq!(buf.events.len(), 4);
        assert_eq!(buf.count_of("vsync"), 6);
        // Taking moves everything out; the sequence carries on.
        assert!(rec.is_empty());
        rec.record(tick(8), EventKind::Vsync);
        assert_eq!(rec.take().events[0].seq, 4);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut rec = TraceRecorder::with_capacity(3);
        for u in 0..5 {
            rec.record(SimTime::from_millis(u), span(u));
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.dropped(), 2);
        let buf = rec.snapshot();
        // Oldest two evicted; sequence numbers keep counting.
        assert_eq!(buf.events[0].seq, 2);
        assert_eq!(buf.events[2].seq, 4);
        assert_eq!(buf.dropped, 2);
    }

    #[test]
    fn handle_is_shared() {
        let a = TraceHandle::with_capacity(16);
        let b = a.clone();
        a.record(SimTime::ZERO, EventKind::Vsync);
        b.record(SimTime::from_millis(1), EventKind::Vsync);
        assert_eq!(a.len(), 2);
        assert_eq!(b.snapshot().count_of("vsync"), 2);
    }

    #[test]
    fn record_into_skips_closure_when_detached() {
        let mut ran = false;
        record_into(&None, SimTime::ZERO, || {
            ran = true;
            EventKind::Vsync
        });
        assert!(!ran, "payload must not be built without a recorder");
        let handle = TraceHandle::with_capacity(4);
        let sink = Some(handle.clone());
        record_into(&sink, SimTime::ZERO, || EventKind::Vsync);
        assert_eq!(handle.len(), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        TraceRecorder::with_capacity(0);
    }
}
