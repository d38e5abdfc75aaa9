//! Pins the allocations of `parse_html`: on a document of 501 elements,
//! each with an `id` and a `class`, it allocates only what the finished
//! document keeps. Per element that is the attribute vector and the
//! owned attribute names and values; a common tag name is not copied,
//! and the style atoms live inside the element.

// The only unsafe here: a `GlobalAlloc` impl (inherently an unsafe
// trait) that delegates to `System` and counts calls.
#![allow(unsafe_code)]

use greenweb_dom::parse_html;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write;

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

/// `#app` holding 100 sections of four leaves each: 501 elements with an
/// `id` and a one- or two-word `class`, 400 text nodes.
fn document() -> String {
    const TAGS: [&str; 6] = ["div", "span", "p", "li", "article", "a"];
    let mut html = String::from("<div id='app' class='root'>");
    for i in 0..100 {
        let tag = TAGS[i % TAGS.len()];
        let _ = write!(html, "<section id='g{i}' class='group c{}'>", i % 7);
        for j in 0..4 {
            let class = (i + j) % 5;
            let _ = write!(
                html,
                "<{tag} id='e{i}-{j}' class=\"item c{class}\">x</{tag}>"
            );
        }
        html.push_str("</section>");
    }
    html.push_str("</div>");
    html
}

/// Allocations `parse_html` made on [`document`] when it copied every
/// name it read, lowercased each tag into a fresh string, and kept each
/// element's style atoms in a vector of their own: about 15 per element.
const ALLOCATIONS_BEFORE: u64 = 7_426;

/// What it makes now: per element its attribute vector and the owned
/// name and value of its two attributes, per text node its string, one
/// for the node arena and a few for the open-element stack.
const MAX_ALLOCATIONS: u64 = 2_909;

#[test]
fn parse_html_allocates_only_what_the_document_keeps() {
    let html = document();
    let before = allocations();
    let doc = parse_html(&html).expect("parses");
    let used = allocations() - before;
    assert_eq!(doc.elements().count(), 501);
    assert!(
        used <= MAX_ALLOCATIONS,
        "parse_html made {used} allocations"
    );
    const { assert!(2 * MAX_ALLOCATIONS <= ALLOCATIONS_BEFORE) };
}
