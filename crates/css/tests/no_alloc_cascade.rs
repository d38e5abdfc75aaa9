//! Pins the allocations of one warm style resolve: once the rule index
//! is built and the match buffer has grown, `compute_style` on an
//! element without an inline `style` allocates only its output vector —
//! not one allocation per matched rule or per declaration.

// The only unsafe here: a `GlobalAlloc` impl (inherently an unsafe
// trait) that delegates to `System` and counts calls.
#![allow(unsafe_code)]

use greenweb_css::{parse_stylesheet, StyleEngine};
use greenweb_dom::parse_html;
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

/// The most allocations one warm resolve may make: its output vector.
/// The values here are lengths, whose clones own no heap memory, and at
/// most four properties survive, the vector's first capacity.
const MAX_ALLOCATIONS_PER_RESOLVE: u64 = 1;

#[test]
fn a_warm_resolve_allocates_only_its_output() {
    let doc = parse_html(
        "<div id='app' class='wrap'><section><p id='x' class='lead text'>t</p></section></div>",
    )
    .expect("parses");
    // Ten matching rules, fifteen declarations (four `!important`),
    // a Bloom-rejected candidate, and an inherited `line-height`: four
    // surviving properties.
    let engine = StyleEngine::new(
        parse_stylesheet(
            "p { width: 1px; height: 1px; } .lead { width: 2px; margin: 2px; } \
             .text { height: 3px !important; width: 3px; } #x { margin: 4px; } \
             * { width: 5px; height: 5px; } .wrap p { margin: 6px !important; } \
             section > p { width: 7px; } p.lead.text { width: 8px !important; } \
             #app p { height: 9px; margin: 9px; } .missing p { width: 10px; } \
             [class] { width: 11px !important; } section { line-height: 2px; }",
        )
        .expect("parses"),
    );
    let p = doc.element_by_id("x").expect("x");
    let parent = engine.compute_style(&doc, doc.parent(p).expect("parent"), None);
    let warm = engine.compute_style(&doc, p, Some(&parent));
    assert_eq!(warm.len(), 4);

    let before = allocations();
    let style = engine.compute_style(&doc, p, Some(&parent));
    let used = allocations() - before;
    assert_eq!(style, warm);
    assert!(
        used <= MAX_ALLOCATIONS_PER_RESOLVE,
        "a warm resolve made {used} allocations"
    );

    // Both views from one walk: one output vector each.
    let before = allocations();
    let (with_inline, without_inline) = engine.compute_style_both(&doc, p, Some(&parent));
    let used = allocations() - before;
    assert_eq!(with_inline, without_inline);
    assert!(
        used <= 2 * MAX_ALLOCATIONS_PER_RESOLVE,
        "a warm two-view resolve made {used} allocations"
    );
}
