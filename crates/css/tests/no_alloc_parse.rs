//! Pins the allocations of `parse_stylesheet`: on a sheet of 300 rules
//! it allocates only what the finished stylesheet keeps, plus the token
//! vector. Tokens borrow their text from the source, and a declaration's
//! value is read from its token slice in place.

// The only unsafe here: a `GlobalAlloc` impl (inherently an unsafe
// trait) that delegates to `System` and counts calls.
#![allow(unsafe_code)]

use greenweb_css::parse_stylesheet;
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
/// 300 rules cycling through id, class, tag, descendant and child
/// selectors, each with two `px` declarations.
fn sheet() -> String {
    const TAGS: [&str; 6] = ["div", "span", "p", "li", "article", "a"];
    let mut css = String::new();
    for i in 0..300 {
        let tag = TAGS[i % TAGS.len()];
        let selector = match i % 5 {
            0 => format!("#e{}-{}", i / 5, i % 4),
            1 => format!(".c{}", i % 7),
            2 => tag.to_owned(),
            3 => format!(".group {tag}"),
            _ => format!("section > .c{}", i % 5),
        };
        let _ = writeln!(css, "{selector} {{ width: {i}px; margin: {}px; }}", i % 9);
    }
    css
}

/// Allocations `parse_stylesheet` made on [`sheet`] when the tokenizer
/// collected the input into a `Vec<char>` and built a `String` per name,
/// number and unit, and each declaration's value tokens were cloned
/// before being read: about 24 per rule.
const ALLOCATIONS_BEFORE: u64 = 7_226;

/// What it makes now: per rule its selector list, one vector of simple
/// selectors and one name per compound, the ancestor list of a
/// combinator chain, and the declaration vector (1,560 in all); the
/// rest is the growth of the token and rule vectors.
const MAX_ALLOCATIONS: u64 = 1_583;

#[test]
fn parse_stylesheet_allocates_only_what_the_sheet_keeps() {
    let css = sheet();
    let before = allocations();
    let sheet = parse_stylesheet(&css).expect("parses");
    let used = allocations() - before;
    assert_eq!(sheet.rules().len(), 300);
    assert!(
        used <= MAX_ALLOCATIONS,
        "parse_stylesheet made {used} allocations"
    );
    const { assert!(10 * MAX_ALLOCATIONS <= 6 * ALLOCATIONS_BEFORE) };
}
