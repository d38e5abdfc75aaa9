//! Proves a warm render pass allocates nothing of its own: once the
//! pipeline's buffers have grown, `render_frame` over an unchanged
//! document with live animation-overlay values hashes from its version
//! memo, walks the cached pre-order list, reads the overlay in place and
//! reuses every buffer; after a one-leaf write it allocates only what
//! resolving that leaf's style does.

// The only unsafe here: a `GlobalAlloc` impl (inherently an unsafe
// trait) that delegates to `System` and counts calls.
#![allow(unsafe_code)]

use greenweb_css::stylesheet::parse_stylesheet;
use greenweb_css::value::Length;
use greenweb_css::{CssValue, StyleEngine};
use greenweb_dom::{parse_html, NodeId};
use greenweb_engine::RenderPipeline;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

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

#[test]
fn warm_frame_with_a_live_overlay_does_not_allocate() {
    let doc = parse_html(
        "<div id='a' class='card'><p>one</p><p>two</p><!-- c --></div>\
         <div id='b' style='height: 30px'><span class='hot'>x</span></div>",
    )
    .expect("parses");
    let engine = StyleEngine::new(
        parse_stylesheet(".card { margin: 4px; } p { height: 20px; } .hot { width: 50px; }")
            .expect("parses"),
    );
    let a = doc.element_by_id("a").expect("a");
    let span = doc.elements_by_tag("span")[0];
    let mut overlay: BTreeMap<(NodeId, String), CssValue> = BTreeMap::new();
    overlay.insert((a, "opacity".into()), CssValue::Number(0.5));
    overlay.insert((a, "margin".into()), CssValue::Length(Length::px(6.0)));
    overlay.insert((span, "width".into()), CssValue::Length(Length::px(70.0)));

    let mut pipeline = RenderPipeline::new(true);
    let render = |pipeline: &mut RenderPipeline| {
        pipeline.render_frame(&doc, engine.generation(), &overlay, &mut |n| {
            engine.compute_style(&doc, n, None)
        })
    };
    // Frame 1 measures everything; the display lists swap once more
    // before both have grown.
    let first = render(&mut pipeline);
    assert_eq!(first.elements, 5);
    for _ in 0..2 {
        render(&mut pipeline);
    }
    let laid_out = pipeline.layout_stats().elements_laid_out;

    let before = allocations();
    for _ in 0..100 {
        let info = render(&mut pipeline);
        assert_eq!((info.dirty_elements, info.damage_items), (0, 0));
    }
    let after = allocations();
    assert_eq!(after - before, 0, "a warm render_frame must not allocate");
    assert_eq!(pipeline.layout_stats().elements_laid_out, laid_out);
    assert_eq!(pipeline.display_list().len(), 5);
}

#[test]
fn warm_frame_after_a_one_leaf_write_allocates_only_for_its_style() {
    // The leaf's ancestors match no rule, so re-measuring them (their
    // fingerprints fold in the leaf's) resolves empty styles.
    let mut doc = parse_html(
        "<div><div><p id='leaf'>one</p><p>two</p></div></div>\
         <div id='b'><span class='hot'>x</span></div>",
    )
    .expect("parses");
    let engine = StyleEngine::new(parse_stylesheet(".hot { width: 50px; }").expect("parses"));
    let leaf = doc.element_by_id("leaf").expect("leaf");
    let span = doc.elements_by_tag("span")[0];
    let mut overlay: BTreeMap<(NodeId, String), CssValue> = BTreeMap::new();
    overlay.insert((span, "width".into()), CssValue::Length(Length::px(70.0)));
    let mut pipeline = RenderPipeline::new(true);
    for _ in 0..3 {
        pipeline.render_frame(&doc, engine.generation(), &overlay, &mut |n| {
            engine.compute_style(&doc, n, None)
        });
    }
    for (step, style) in ["color: red", "color: blue; width: 20px"]
        .into_iter()
        .enumerate()
    {
        doc.element_mut(leaf)
            .expect("element")
            .set_attribute("style", style);
        let before = allocations();
        drop(engine.compute_style(&doc, leaf, None));
        let lone = allocations() - before;
        let laid_out = pipeline.layout_stats().elements_laid_out;
        let before = allocations();
        let info = pipeline.render_frame(&doc, engine.generation(), &overlay, &mut |n| {
            engine.compute_style(&doc, n, None)
        });
        let frame = allocations() - before;
        assert!(lone > 0, "parsing the inline style allocates");
        assert!(
            frame <= lone,
            "step {step}: the frame allocated {frame} times, one style resolve {lone}"
        );
        // The leaf, its <div> and the outer <div> were re-measured.
        assert_eq!(pipeline.layout_stats().elements_laid_out - laid_out, 3);
        assert_eq!(info.dirty_elements, 3);
    }
}

#[test]
fn overlay_change_is_seen_and_counted() {
    // The counter sees a frame that re-measures: the allocator is wired
    // up, and the overlay values do reach the measure pass.
    let doc = parse_html("<div id='a'><p>one</p></div>").expect("parses");
    let engine = StyleEngine::new(parse_stylesheet("p { height: 20px; }").expect("parses"));
    let a = doc.element_by_id("a").expect("a");
    let mut overlay: BTreeMap<(NodeId, String), CssValue> = BTreeMap::new();
    let mut pipeline = RenderPipeline::new(true);
    let mut resolve = |n| engine.compute_style(&doc, n, None);
    for _ in 0..3 {
        pipeline.render_frame(&doc, engine.generation(), &overlay, &mut resolve);
    }
    overlay.insert((a, "height".into()), CssValue::Length(Length::px(44.0)));
    let before = allocations();
    let info = pipeline.render_frame(&doc, engine.generation(), &overlay, &mut resolve);
    assert!(allocations() > before, "re-measuring resolves a style");
    // div#a and, through its context, the <p> inside it.
    assert_eq!(info.dirty_elements, 2);
    let boxed = pipeline.layout_boxes().iter().find(|b| b.node == a);
    assert_eq!(boxed.map(|b| b.height), Some(44.0));
}
