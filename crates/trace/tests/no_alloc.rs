//! Proves the detached tracing path is allocation-free: `record_into`
//! with `None` must never run the payload closure, so the `Vec`s and
//! `String`s an event owns are never built.

// The only unsafe in the workspace: a `GlobalAlloc` impl (inherently an
// unsafe trait) that delegates to `System` and counts calls.
#![allow(unsafe_code)]

use greenweb_acmp::{Duration, SimTime};
use greenweb_trace::{record_into, EventKind, SpanKind, TraceHandle};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Per thread, so allocations made by tests running concurrently on
    // other threads never show up in a test's count. `const`-initialised
    // and `Drop`-free: touching it never allocates, so the allocator can
    // use it without recursing.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

struct CountingAlloc;

// SAFETY: delegates to `System` unchanged; only a counter is added.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with` fails only while the thread's locals are torn down;
        // those allocations go uncounted.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocating_event(i: u64) -> EventKind {
    EventKind::Span {
        kind: SpanKind::Callback,
        start: SimTime::from_millis(i),
        dur: Duration::from_millis(1),
        uids: vec![i, i + 1, i + 2],
        label: Some("click"),
        ops: i,
        mj: 0.0,
    }
}

#[test]
fn detached_recording_does_not_allocate() {
    let sink: Option<TraceHandle> = None;
    // Warm up anything lazy in the harness before measuring.
    record_into(&sink, SimTime::ZERO, || allocating_event(0));

    let before = allocations();
    for i in 0..10_000 {
        record_into(&sink, SimTime::from_millis(i), || allocating_event(i));
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "detached record_into must not allocate (payload closure must not run)"
    );
}

#[test]
fn attached_recording_does_allocate() {
    // Sanity check that the counter actually observes the payload
    // allocations when a recorder is attached.
    let sink = Some(TraceHandle::with_capacity(16));
    let before = allocations();
    record_into(&sink, SimTime::ZERO, || allocating_event(1));
    let after = allocations();
    assert!(after > before, "attached path should build the payload");
}
