//! Incremental layout, retained display lists, and damage accounting
//! (DESIGN.md §6k).
//!
//! The browser runs one [`RenderPipeline::render_frame`] pass per
//! produced frame, in both rendering modes:
//!
//! 1. **Fingerprints.** Every node gets a subtree fingerprint
//!    `fp(n) = H(ctx(n), content(n), fp(children…))`, where `ctx(n)`
//!    chains the selector-salient features (tag / id / classes /
//!    attributes) of every ancestor. A class flip on a parent therefore
//!    changes every descendant's fingerprint (descendant combinators may
//!    restyle them), and any content edit bubbles up the ancestor chain
//!    (content size feeds ancestor heights). Animation overlay values
//!    and inline `style` attributes are part of `content(n)`, so all
//!    three invalidation sources the style system reacts to — DOM
//!    mutations, inline-style writes, animation ticks — land in the
//!    fingerprints *without consulting* the style cache or the effect
//!    gate (pricing must not depend on either pin; see the workload
//!    parity test `oracle_pins_leave_metrics_unchanged`).
//! 2. **Measure.** A bottom-up pass computes each element's box metrics
//!    from its [`ComputedStyle`]. Entries are cached per node keyed by
//!    `(stylesheet generation, subtree fingerprint)`: when the pipeline
//!    is enabled, a subtree is *reused* — nothing under it is
//!    re-measured or re-styled — when it is not *stale*, i.e. every
//!    element in it holds a measure valid for that key. (Fingerprints
//!    hash content, not node identity, so a fresh element swapped in
//!    for a content-identical one leaves its parent's key unchanged;
//!    only the stale bit sees that the fresh element was never
//!    measured.) Disabled ([`RenderPipeline::set_enabled`]`(false)`),
//!    the same pass measures every element every frame: the naive
//!    oracle.
//! 3. **Position.** A cheap top-down pass assigns final boxes (block
//!    stacking in a fixed mobile viewport). It always walks the whole
//!    tree — positions depend on earlier siblings — and is not counted
//!    as layout work.
//! 4. **Display list & damage.** One display item per element, with a
//!    stable per-node item ID. Diffing against the retained list from
//!    the previous frame yields the damage accounting: items whose rect
//!    or paint fingerprint changed, plus appearing and disappearing
//!    items.
//!
//! The *pricing inputs* ([`FrameRenderInfo`]: element count, dirty
//! elements from the fingerprint diff, damage items, total items) are
//! derived identically in both modes — the enabled flag only gates the
//! cache-reuse machinery — so a run's energy and QoS metrics are
//! byte-identical between the two modes; only the `layout`/`paint`
//! counters (and the style counters, since reused subtrees skip style
//! resolution) differ. The workload parity test diffs exactly that.
//!
//! All per-node state lives in one vector indexed by [`NodeId::index`]
//! and the per-frame buffers are reused, so a frame does no hashing
//! beyond the fingerprints and, once warm, allocates only for style
//! resolution and animation-overlay values.

use greenweb_css::{ComputedStyle, CssValue};
use greenweb_dom::{Document, NodeId};
use std::collections::HashMap;

/// Layout viewport width, px (a typical mobile portrait viewport).
pub const VIEWPORT_WIDTH: f64 = 360.0;
/// Layout viewport height, px.
pub const VIEWPORT_HEIGHT: f64 = 640.0;
/// Height charged per text child when a box has no explicit height.
pub const TEXT_LINE_HEIGHT: f64 = 16.0;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_bytes(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    hash
}

fn fnv_str(hash: u64, s: &str) -> u64 {
    // Separator byte keeps ("ab","c") distinct from ("a","bc").
    fnv_bytes(fnv_bytes(hash, s.as_bytes()), &[0xff])
}

fn fnv_u64(hash: u64, v: u64) -> u64 {
    fnv_bytes(hash, &v.to_le_bytes())
}

fn fnv_f64(hash: u64, v: f64) -> u64 {
    // Every NaN hashes alike: the values are equal for fingerprinting.
    let v = if v.is_nan() { f64::NAN } else { v };
    fnv_u64(hash, v.to_bits())
}

/// Hashes `value` structurally: a variant tag, then the payload — f64
/// bits, strings, or a list's length followed by its items — so values
/// of different shapes (`1px` and `1`, `a b` as one keyword and as a
/// sequence) never share a byte stream.
fn fnv_value(hash: u64, value: &CssValue) -> u64 {
    match value {
        CssValue::Keyword(k) => fnv_str(fnv_bytes(hash, &[0]), k),
        CssValue::Length(l) => fnv_f64(fnv_bytes(hash, &[1]), l.px),
        CssValue::Time(t) => fnv_f64(fnv_bytes(hash, &[2]), t.ms),
        CssValue::Number(n) => fnv_f64(fnv_bytes(hash, &[3]), *n),
        CssValue::Percentage(p) => fnv_f64(fnv_bytes(hash, &[4]), *p),
        CssValue::String(s) => fnv_str(fnv_bytes(hash, &[5]), s),
        CssValue::List(items) => fnv_values(fnv_bytes(hash, &[6]), items),
        CssValue::Sequence(items) => fnv_values(fnv_bytes(hash, &[7]), items),
    }
}

fn fnv_values(hash: u64, items: &[CssValue]) -> u64 {
    let mut hash = fnv_u64(hash, items.len() as u64);
    for item in items {
        hash = fnv_value(hash, item);
    }
    hash
}

/// Pushes `n`'s children last-first, so popping `stack` visits them in
/// document order (an allocation-free pre-order walk).
fn push_children_reversed(doc: &Document, n: NodeId, stack: &mut Vec<NodeId>) {
    let mut child = doc.last_child(n);
    while let Some(c) = child {
        stack.push(c);
        child = doc.prev_sibling(c);
    }
}

/// Layout-stage counters, reported in [`crate::SimReport`] and the
/// metrics JSON (`"layout":{…}`, a flat trailing object the parity
/// test strips, like `"style"`/`"script"`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LayoutStats {
    /// Frames the pipeline laid out (one per produced frame).
    pub relayouts: u64,
    /// Elements actually measured (style resolved + box computed).
    /// The naive oracle measures every element every frame; the
    /// incremental path only the dirty ones.
    pub elements_laid_out: u64,
    /// Clean subtrees served whole from the measure cache (incremental
    /// mode only; always zero for the oracle).
    pub subtree_reuses: u64,
    /// Elements whose subtree fingerprint changed since the previous
    /// frame — the machinery-independent dirty count layout pricing
    /// uses in *both* modes.
    pub dirty_elements: u64,
}

/// Paint-stage counters, reported next to [`LayoutStats`] as the
/// `"paint":{…}` trailing object.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PaintStats {
    /// Frames charged the full flat paint price (all items damaged,
    /// zero DOM-visible damage — out-of-band canvas drawing — or
    /// an empty display list).
    pub full_repaints: u64,
    /// Frames charged a partial price (some but not all items damaged).
    pub partial_repaints: u64,
    /// Display items (re)built this run. The oracle re-emits every item
    /// every frame.
    pub items_emitted: u64,
    /// Retained items reused unchanged (incremental mode only).
    pub items_reused: u64,
    /// Damaged items across the run: changed + appeared + disappeared —
    /// machinery-independent, prices paint in both modes.
    pub damage_items: u64,
    /// Total damaged area across the run, px² (sum of damaged item
    /// rects, deterministic integer rounding).
    pub damage_area: u64,
}

/// One positioned box in the layout tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayoutBox {
    /// The element this box belongs to.
    pub node: NodeId,
    /// Left edge, px.
    pub x: f64,
    /// Top edge, px.
    pub y: f64,
    /// Border-box width, px.
    pub width: f64,
    /// Border-box height, px.
    pub height: f64,
}

/// One item of the retained display list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DisplayItem {
    /// Stable item ID: assigned once per node, monotonically, and kept
    /// across frames so the damage diff can match items positionally.
    pub id: u64,
    /// The element painted by this item.
    pub node: NodeId,
    /// Item rect: left edge, px.
    pub x: f64,
    /// Item rect: top edge, px.
    pub y: f64,
    /// Item rect: width, px.
    pub width: f64,
    /// Item rect: height, px.
    pub height: f64,
    /// Fingerprint of the element's full computed style (with inline
    /// and animation-overlay values applied) — a style-only change
    /// damages the item even when its rect is unchanged.
    pub style_fp: u64,
}

impl DisplayItem {
    fn same_as(&self, other: &DisplayItem) -> bool {
        self.id == other.id
            && self.x.to_bits() == other.x.to_bits()
            && self.y.to_bits() == other.y.to_bits()
            && self.width.to_bits() == other.width.to_bits()
            && self.height.to_bits() == other.height.to_bits()
            && self.style_fp == other.style_fp
    }

    fn area_px2(&self) -> u64 {
        let area = (self.width.max(0.0) * self.height.max(0.0)).round();
        if area.is_finite() && area >= 0.0 {
            area as u64
        } else {
            0
        }
    }
}

/// The per-frame pricing inputs [`RenderPipeline::render_frame`]
/// returns. Derived identically in both rendering modes, so stage
/// pricing — and therefore every energy/QoS metric — does not depend
/// on whether the incremental machinery is enabled.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FrameRenderInfo {
    /// Elements in the document (one walk per frame; style pricing).
    pub elements: usize,
    /// Elements whose subtree fingerprint changed (layout pricing).
    pub dirty_elements: usize,
    /// Damaged display items this frame (paint pricing numerator).
    pub damage_items: usize,
    /// Display items in the current list (paint pricing denominator).
    pub total_items: usize,
}

/// Cached measurement of one element, valid while the stylesheet
/// generation and the element's subtree fingerprint both match.
#[derive(Debug, Clone, Copy)]
struct NodeMeasure {
    generation: u64,
    fp: u64,
    margin: f64,
    explicit_width: Option<f64>,
    /// Margin-box height: content (or explicit) height + both margins.
    outer_height: f64,
    style_fp: u64,
}

/// Everything the pipeline keeps about one node, indexed by
/// [`NodeId::index`] (DESIGN.md §6k, "Per-node state").
#[derive(Debug, Clone, Copy, Default)]
struct NodeState {
    // Persistent across frames.
    /// Last frame (counted from 1; 0 = never) whose walk reached the node.
    walked: u64,
    /// Subtree fingerprint from frame `walked`. It is the node's
    /// *previous* fingerprint only if `walked` is the previous frame: a
    /// node that left the tree loses it, so coming back counts as dirty.
    fp: Option<u64>,
    /// Measure cache + box metrics. Entries for clean subtrees stay
    /// valid across frames (their fingerprints haven't changed), which
    /// is what lets the position pass read metrics the measure pass
    /// skipped.
    measure: Option<NodeMeasure>,
    /// Stable display-item ID.
    item_id: Option<u64>,
    /// Position of the node's item in the display list it was last
    /// emitted into. In the retained and in the new list alike, the
    /// entry at this position belongs to the node exactly when the node
    /// has an item there (at most one per list), so the damage diff
    /// needs no map.
    item_index: usize,
    // Per-frame scratch, written before it is read in every frame.
    /// Hash of the node's own selector-salient features and content.
    own: u64,
    /// Ancestor-context chain hash.
    ctx: u64,
    /// Whether some element in the subtree lacks a measure valid for
    /// this frame's `(generation, fingerprint)`, so the subtree cannot
    /// be reused whole.
    stale: bool,
    /// Position pass: content box `(x, width)` children are laid into.
    content: (f64, f64),
    /// Position pass: y where the next child goes.
    cursor: f64,
}

/// The incremental rendering pipeline: subtree fingerprints, the
/// measure cache, the retained display list, and the damage diff.
/// See the module docs for the frame anatomy.
#[derive(Debug)]
pub struct RenderPipeline {
    enabled: bool,
    /// Frames rendered so far; stamps [`NodeState::walked`].
    frame: u64,
    /// Per-node state, grown to [`Document::len`] each frame.
    nodes: Vec<NodeState>,
    next_item_id: u64,
    /// The retained display list (previous frame, document order).
    retained: Vec<DisplayItem>,
    /// Last frame's positioned boxes, document order.
    boxes: Vec<LayoutBox>,
    // Per-frame scratch buffers, kept for their capacity.
    order: Vec<NodeId>,
    stack: Vec<NodeId>,
    to_measure: Vec<NodeId>,
    items: Vec<DisplayItem>,
    layout_stats: LayoutStats,
    paint_stats: PaintStats,
}

impl Default for RenderPipeline {
    fn default() -> Self {
        Self::new(true)
    }
}

impl RenderPipeline {
    /// Creates a pipeline with the incremental machinery `enabled` or
    /// in oracle mode.
    pub fn new(enabled: bool) -> Self {
        RenderPipeline {
            enabled,
            frame: 0,
            nodes: Vec::new(),
            next_item_id: 0,
            retained: Vec::new(),
            boxes: Vec::new(),
            order: Vec::new(),
            stack: Vec::new(),
            to_measure: Vec::new(),
            items: Vec::new(),
            layout_stats: LayoutStats::default(),
            paint_stats: PaintStats::default(),
        }
    }

    /// Switches between the incremental path and the naive oracle.
    /// Semantics-preserving: only the `layout`/`paint`/`style` counters
    /// differ between modes.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether the incremental machinery is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Layout counters accumulated so far.
    pub fn layout_stats(&self) -> LayoutStats {
        self.layout_stats
    }

    /// Paint counters accumulated so far.
    pub fn paint_stats(&self) -> PaintStats {
        self.paint_stats
    }

    /// Last frame's positioned boxes, in document order.
    pub fn layout_boxes(&self) -> &[LayoutBox] {
        &self.boxes
    }

    /// The retained display list, in document order.
    pub fn display_list(&self) -> &[DisplayItem] {
        &self.retained
    }

    /// Runs the four per-frame passes (fingerprint → measure →
    /// position → display-list diff) over `doc`, resolving styles
    /// through `resolve` and applying the animation `overlay` on top.
    /// Returns the machinery-independent pricing inputs for this frame.
    pub fn render_frame(
        &mut self,
        doc: &Document,
        generation: u64,
        overlay: &HashMap<(NodeId, String), CssValue>,
        resolve: &mut dyn FnMut(NodeId) -> ComputedStyle,
    ) -> FrameRenderInfo {
        self.frame += 1;
        let frame = self.frame;
        if self.nodes.len() < doc.len() {
            self.nodes.resize(doc.len(), NodeState::default());
        }
        let nodes = &mut self.nodes;

        // Overlay values sorted by (node, property): one node's values
        // are a contiguous run, in a deterministic hashing and
        // application order.
        let mut overlays: Vec<(NodeId, &str, &CssValue)> = overlay
            .iter()
            .map(|((node, property), value)| (*node, property.as_str(), value))
            .collect();
        overlays.sort_unstable_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
        let overlay_of = |n: NodeId| {
            let start = overlays.partition_point(|o| o.0 < n);
            let end = start + overlays[start..].partition_point(|o| o.0 == n);
            &overlays[start..end]
        };

        // Pass 1: fingerprints. Pre-order list once, contexts top-down,
        // fingerprints bottom-up over the reversed list (children come
        // after their parent in pre-order, so the reverse sees every
        // child before its parent).
        let root = doc.root();
        self.order.clear();
        self.stack.clear();
        self.stack.push(root);
        while let Some(n) = self.stack.pop() {
            self.order.push(n);
            push_children_reversed(doc, n, &mut self.stack);
        }
        let mut elements = 0usize;
        for &n in &self.order {
            let mut h = FNV_OFFSET;
            if let Some(el) = doc.element(n) {
                elements += 1;
                h = fnv_str(h, el.tag());
                for attr in el.attributes() {
                    h = fnv_str(h, &attr.name);
                    h = fnv_str(h, &attr.value);
                }
                for &(_, property, value) in overlay_of(n) {
                    h = fnv_str(h, property);
                    h = fnv_value(h, value);
                }
            } else if let Some(text) = doc.kind(n).as_text() {
                h = fnv_str(h, text);
            }
            let parent_ctx = doc.parent(n).map_or(FNV_OFFSET, |p| nodes[p.index()].ctx);
            let state = &mut nodes[n.index()];
            state.own = h;
            state.ctx = fnv_u64(parent_ctx, h);
        }
        // Machinery-independent dirty count: elements whose subtree
        // fingerprint changed since the previous frame (all of them on
        // the first frame). The same walk sets the stale bits.
        let mut dirty_elements = 0usize;
        for &n in self.order.iter().rev() {
            let mut h = fnv_u64(nodes[n.index()].ctx, nodes[n.index()].own);
            let mut stale = false;
            for child in doc.children(n) {
                let child = &nodes[child.index()];
                h = fnv_u64(h, child.fp.expect("children are fingerprinted first"));
                stale |= child.stale;
            }
            let state = &mut nodes[n.index()];
            let prev_fp = if state.walked + 1 == frame {
                state.fp
            } else {
                None
            };
            if doc.element(n).is_some() {
                if prev_fp != Some(h) {
                    dirty_elements += 1;
                }
                stale |= !state
                    .measure
                    .is_some_and(|m| m.generation == generation && m.fp == h);
            }
            state.stale = stale;
            state.walked = frame;
            state.fp = Some(h);
        }

        // Pass 2a: mark. Pre-order descent that stops at subtree roots
        // that are not stale when the incremental machinery is on.
        self.to_measure.clear();
        self.stack.clear();
        self.stack.push(root);
        let mut reuses = 0u64;
        while let Some(n) = self.stack.pop() {
            if doc.element(n).is_some() {
                if self.enabled && !nodes[n.index()].stale {
                    reuses += 1;
                    continue; // whole subtree is measured: skip it
                }
                self.to_measure.push(n);
            }
            push_children_reversed(doc, n, &mut self.stack);
        }

        // Pass 2b: measure, bottom-up (reversed pre-order of the marked
        // region sees children before parents; clean children keep
        // their cached metrics).
        for &n in self.to_measure.iter().rev() {
            let mut style = resolve(n);
            for &(_, property, value) in overlay_of(n) {
                style.set(property, value.clone());
            }
            let margin = style_px(&style, "margin").unwrap_or(0.0);
            let explicit_width = style_px(&style, "width");
            let explicit_height = style_px(&style, "height");
            let content_height = match explicit_height {
                Some(h) => h,
                None => {
                    let mut sum = 0.0;
                    for child in doc.children(n) {
                        if doc.element(child).is_some() {
                            sum += nodes[child.index()].measure.map_or(0.0, |m| m.outer_height);
                        } else if doc.kind(child).as_text().is_some() {
                            sum += TEXT_LINE_HEIGHT;
                        }
                    }
                    sum
                }
            };
            let mut style_fp = FNV_OFFSET;
            for (property, value) in style.iter() {
                style_fp = fnv_str(style_fp, property);
                style_fp = fnv_value(style_fp, value);
            }
            let state = &mut nodes[n.index()];
            state.measure = Some(NodeMeasure {
                generation,
                fp: state.fp.expect("fingerprinted in pass 1"),
                margin,
                explicit_width,
                outer_height: content_height + 2.0 * margin,
                style_fp,
            });
        }

        // Pass 3: position. Always a full walk — block stacking means a
        // box's y depends on every earlier sibling — and deliberately
        // not counted as layout work (it is the cheap part). Every node
        // starts from the viewport defaults when the walk reaches it;
        // its parent was reached earlier, so a parent without a box lays
        // its children out from those defaults.
        self.boxes.clear();
        for &n in &self.order {
            let state = &mut nodes[n.index()];
            state.content = (0.0, VIEWPORT_WIDTH);
            state.cursor = 0.0;
            if n == root {
                continue;
            }
            let Some(parent) = doc.parent(n) else {
                continue;
            };
            if doc.element(n).is_some() {
                let Some(m) = state.measure else {
                    continue;
                };
                let (px, pw) = nodes[parent.index()].content;
                let y_cursor = nodes[parent.index()].cursor;
                let width = m
                    .explicit_width
                    .unwrap_or_else(|| (pw - 2.0 * m.margin).max(0.0));
                let x = px + m.margin;
                let y = y_cursor + m.margin;
                let height = (m.outer_height - 2.0 * m.margin).max(0.0);
                self.boxes.push(LayoutBox {
                    node: n,
                    x,
                    y,
                    width,
                    height,
                });
                let state = &mut nodes[n.index()];
                state.content = (x, width);
                state.cursor = y;
                nodes[parent.index()].cursor += m.outer_height;
            } else if doc.kind(n).as_text().is_some() {
                nodes[parent.index()].cursor += TEXT_LINE_HEIGHT;
            }
        }

        // Pass 4: display list + damage diff against the retained list.
        // A node's `item_index` finds its item in either list; pointing
        // at an item of another node means it has none there.
        self.items.clear();
        let mut damage_items = 0usize;
        let mut damage_area = 0u64;
        let mut reused_items = 0u64;
        for b in &self.boxes {
            let state = &mut nodes[b.node.index()];
            let id = match state.item_id {
                Some(id) => id,
                None => {
                    let id = self.next_item_id;
                    self.next_item_id += 1;
                    state.item_id = Some(id);
                    id
                }
            };
            let item = DisplayItem {
                id,
                node: b.node,
                x: b.x,
                y: b.y,
                width: b.width,
                height: b.height,
                style_fp: state.measure.map_or(0, |m| m.style_fp),
            };
            match self.retained.get(state.item_index) {
                Some(old) if old.node == b.node && old.same_as(&item) => reused_items += 1,
                _ => {
                    damage_items += 1;
                    damage_area += item.area_px2();
                }
            }
            state.item_index = self.items.len();
            self.items.push(item);
        }
        for old in &self.retained {
            let index = nodes[old.node.index()].item_index;
            if self.items.get(index).map(|item| item.node) != Some(old.node) {
                damage_items += 1;
                damage_area += old.area_px2();
            }
        }
        let total_items = self.items.len();

        // Counters. The damage/dirty numbers are mode-independent; the
        // laid-out/reuse/emit split is where the two modes differ.
        self.layout_stats.relayouts += 1;
        self.layout_stats.dirty_elements += dirty_elements as u64;
        self.layout_stats.elements_laid_out += self.to_measure.len() as u64;
        if self.enabled {
            self.layout_stats.subtree_reuses += reuses;
            self.paint_stats.items_emitted += damage_items.min(total_items) as u64;
            self.paint_stats.items_reused += reused_items;
        } else {
            self.paint_stats.items_emitted += total_items as u64;
        }
        self.paint_stats.damage_items += damage_items as u64;
        self.paint_stats.damage_area += damage_area;
        // Zero damage on a produced frame counts as full: the change is
        // invisible to the DOM-level diff (canvas drawing), so the whole
        // layer repaints (see `FrameCostModel::paint_work`).
        if total_items == 0 || damage_items == 0 || damage_items >= total_items {
            self.paint_stats.full_repaints += 1;
        } else {
            self.paint_stats.partial_repaints += 1;
        }

        std::mem::swap(&mut self.retained, &mut self.items);
        FrameRenderInfo {
            elements,
            dirty_elements,
            damage_items,
            total_items,
        }
    }
}

/// Extracts a pixel magnitude from a length or unitless number;
/// keywords, percentages, and compound values do not size boxes here.
fn style_px(style: &ComputedStyle, property: &str) -> Option<f64> {
    match style.get(property) {
        Some(CssValue::Length(l)) => Some(l.px),
        Some(CssValue::Number(n)) => Some(*n),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenweb_css::stylesheet::parse_stylesheet;
    use greenweb_css::StyleEngine;
    use greenweb_dom::parse_html;

    fn pipeline_pair() -> (RenderPipeline, RenderPipeline) {
        (RenderPipeline::new(true), RenderPipeline::new(false))
    }

    fn render(
        pipe: &mut RenderPipeline,
        doc: &Document,
        engine: &StyleEngine,
        overlay: &HashMap<(NodeId, String), CssValue>,
    ) -> FrameRenderInfo {
        pipe.render_frame(doc, engine.generation(), overlay, &mut |n| {
            engine.compute_style(doc, n, None)
        })
    }

    fn fixture() -> (Document, StyleEngine) {
        let doc = parse_html(
            "<div id='a' class='card'><p>one</p><p>two</p></div>\
             <div id='b'><span class='hot'>x</span></div>",
        )
        .expect("parses");
        let engine = StyleEngine::new(
            parse_stylesheet(
                ".card { margin: 4px; } p { height: 20px; } \
                 .hot { width: 50px; height: 10px; }",
            )
            .expect("parses"),
        );
        (doc, engine)
    }

    #[test]
    fn value_hash_is_structural() {
        use greenweb_css::value::Length;
        let h = |v: &CssValue| fnv_value(FNV_OFFSET, v);
        let kw = |k: &str| CssValue::Keyword(k.to_string());
        assert_ne!(
            h(&CssValue::Length(Length::px(1.0))),
            h(&CssValue::Number(1.0))
        );
        assert_ne!(
            h(&kw("a b")),
            h(&CssValue::Sequence(vec![kw("a"), kw("b")]))
        );
        assert_ne!(
            h(&CssValue::List(vec![kw("a"), kw("b")])),
            h(&CssValue::Sequence(vec![kw("a"), kw("b")]))
        );
        assert_ne!(
            h(&CssValue::Sequence(vec![kw("ab")])),
            h(&CssValue::Sequence(vec![kw("a"), kw("b")]))
        );
        // Equal values hash alike, NaNs included; distinct zeros do not.
        assert_eq!(h(&kw("a b")), h(&kw("a b")));
        assert_eq!(
            h(&CssValue::Number(f64::NAN)),
            h(&CssValue::Number(-f64::NAN))
        );
        assert_ne!(h(&CssValue::Number(0.0)), h(&CssValue::Number(-0.0)));
    }

    #[test]
    fn first_frame_measures_everything_and_damages_everything() {
        let (doc, engine) = fixture();
        let (mut incr, _) = pipeline_pair();
        let overlay = HashMap::new();
        let info = render(&mut incr, &doc, &engine, &overlay);
        assert_eq!(info.elements, 5);
        assert_eq!(info.dirty_elements, 5);
        assert_eq!(info.total_items, 5);
        assert_eq!(info.damage_items, 5);
        assert_eq!(incr.layout_stats().elements_laid_out, 5);
        assert_eq!(incr.layout_stats().subtree_reuses, 0);
    }

    #[test]
    fn clean_second_frame_reuses_all_subtrees() {
        let (doc, engine) = fixture();
        let (mut incr, mut naive) = pipeline_pair();
        let overlay = HashMap::new();
        render(&mut incr, &doc, &engine, &overlay);
        let info = render(&mut incr, &doc, &engine, &overlay);
        assert_eq!(info.dirty_elements, 0);
        assert_eq!(info.damage_items, 0);
        assert_eq!(incr.layout_stats().elements_laid_out, 5, "no re-measures");
        assert_eq!(incr.layout_stats().subtree_reuses, 2, "both top divs");
        // The oracle re-measures everything but reports identical
        // pricing inputs.
        render(&mut naive, &doc, &engine, &overlay);
        let naive_info = render(&mut naive, &doc, &engine, &overlay);
        assert_eq!(naive_info, info);
        assert_eq!(naive.layout_stats().elements_laid_out, 10);
        assert_eq!(naive.layout_stats().subtree_reuses, 0);
    }

    #[test]
    fn modes_agree_on_geometry_and_display_list_across_mutations() {
        let (mut doc, engine) = fixture();
        let (mut incr, mut naive) = pipeline_pair();
        let mut overlay = HashMap::new();
        for step in 0..4u32 {
            let a = render(&mut incr, &doc, &engine, &overlay);
            let b = render(&mut naive, &doc, &engine, &overlay);
            assert_eq!(a, b, "pricing inputs diverged at step {step}");
            assert_eq!(incr.layout_boxes(), naive.layout_boxes());
            assert_eq!(incr.display_list(), naive.display_list());
            // Mutate: attribute flip, then an inline style, then an
            // overlay (animation) write.
            let b_id = doc.element_by_id("b").expect("b");
            match step {
                0 => {
                    let el = doc.element_mut(b_id).expect("element");
                    el.set_attribute("class", "card");
                }
                1 => {
                    let el = doc.element_mut(b_id).expect("element");
                    el.set_attribute("style", "height: 33px");
                }
                _ => {
                    overlay.insert(
                        (b_id, "margin".to_string()),
                        CssValue::Number(f64::from(step)),
                    );
                }
            }
        }
    }

    #[test]
    fn leaf_change_dirties_only_its_ancestor_chain() {
        let (mut doc, engine) = fixture();
        let (mut incr, _) = pipeline_pair();
        let overlay = HashMap::new();
        render(&mut incr, &doc, &engine, &overlay);
        let span = doc.elements_by_tag("span")[0];
        let el = doc.element_mut(span).expect("element");
        el.set_attribute("style", "width: 80px");
        let info = render(&mut incr, &doc, &engine, &overlay);
        // Dirty: the span plus its parent div (content hash bubbles
        // up); the other top-level div's subtree is reused whole.
        assert_eq!(info.dirty_elements, 2);
        assert!(incr.layout_stats().subtree_reuses >= 1);
        // Damage: span box changed; parent's box keeps its geometry but
        // its style is untouched, so only the subtree's changed items
        // plus geometry shifts count.
        assert!(info.damage_items >= 1 && info.damage_items < info.total_items);
    }

    #[test]
    fn parent_class_flip_dirties_every_descendant() {
        let (mut doc, engine) = fixture();
        let (mut incr, _) = pipeline_pair();
        let overlay = HashMap::new();
        render(&mut incr, &doc, &engine, &overlay);
        let a = doc.element_by_id("a").expect("a");
        let el = doc.element_mut(a).expect("element");
        el.set_attribute("class", "other");
        let info = render(&mut incr, &doc, &engine, &overlay);
        // div#a + its two <p> children are dirty (descendant selectors
        // may restyle them); div#b's subtree is clean.
        assert_eq!(info.dirty_elements, 3);
    }

    #[test]
    fn removed_items_count_as_damage() {
        let (mut doc, engine) = fixture();
        let (mut incr, mut naive) = pipeline_pair();
        let overlay = HashMap::new();
        render(&mut incr, &doc, &engine, &overlay);
        render(&mut naive, &doc, &engine, &overlay);
        let b_id = doc.element_by_id("b").expect("b");
        doc.detach(b_id);
        let a = render(&mut incr, &doc, &engine, &overlay);
        let b = render(&mut naive, &doc, &engine, &overlay);
        assert_eq!(a, b);
        assert_eq!(a.total_items, 3);
        // Damage: the two removed items (div#b + span) at minimum.
        assert!(a.damage_items >= 2);
        assert_eq!(incr.display_list(), naive.display_list());
    }

    #[test]
    fn stable_item_ids_survive_clean_frames() {
        let (doc, engine) = fixture();
        let (mut incr, _) = pipeline_pair();
        let overlay = HashMap::new();
        render(&mut incr, &doc, &engine, &overlay);
        let ids: Vec<u64> = incr.display_list().iter().map(|i| i.id).collect();
        render(&mut incr, &doc, &engine, &overlay);
        let again: Vec<u64> = incr.display_list().iter().map(|i| i.id).collect();
        assert_eq!(ids, again);
    }

    #[test]
    fn reattached_subtree_counts_as_dirty() {
        // A node that left the tree loses its previous fingerprint, so
        // coming back dirties it even though its fingerprint is the one
        // it had two frames ago.
        let (mut doc, engine) = fixture();
        let (mut incr, mut naive) = pipeline_pair();
        let overlay = HashMap::new();
        let b_id = doc.element_by_id("b").expect("b");
        let parent = doc.parent(b_id).expect("attached");
        for pipe in [&mut incr, &mut naive] {
            render(pipe, &doc, &engine, &overlay);
        }
        doc.detach(b_id);
        for pipe in [&mut incr, &mut naive] {
            render(pipe, &doc, &engine, &overlay);
        }
        doc.append_child(parent, b_id);
        let a = render(&mut incr, &doc, &engine, &overlay);
        let b = render(&mut naive, &doc, &engine, &overlay);
        assert_eq!(a, b);
        assert_eq!(a.dirty_elements, 2, "div#b and its span");
        assert_eq!(a.damage_items, 2, "both items reappear");
        assert_eq!(incr.display_list(), naive.display_list());
        // A clean frame after the return is clean again.
        let again = render(&mut incr, &doc, &engine, &overlay);
        assert_eq!((again.dirty_elements, again.damage_items), (0, 0));
    }

    #[test]
    fn element_created_after_first_frame_is_rendered() {
        let (mut doc, engine) = fixture();
        let (mut incr, mut naive) = pipeline_pair();
        let overlay = HashMap::new();
        for pipe in [&mut incr, &mut naive] {
            render(pipe, &doc, &engine, &overlay);
        }
        let a_id = doc.element_by_id("a").expect("a");
        let extra = doc.create_element("p");
        doc.append_child(a_id, extra);
        let a = render(&mut incr, &doc, &engine, &overlay);
        let b = render(&mut naive, &doc, &engine, &overlay);
        assert_eq!(a, b);
        assert_eq!((a.elements, a.total_items), (6, 6));
        assert_eq!(a.dirty_elements, 2, "the new <p> and div#a");
        assert_eq!(incr.layout_boxes(), naive.layout_boxes());
        let item = incr
            .display_list()
            .iter()
            .find(|i| i.node == extra)
            .expect("new element painted");
        assert_eq!(item.id, 5, "next id after the five first-frame items");
    }

    #[test]
    fn fresh_identical_child_swapped_in_is_measured_and_painted() {
        // Fingerprints hash content, not node identity: swapping the
        // span for a fresh, content-identical one leaves div#b's key
        // unchanged, so only the stale bit keeps div#b from being
        // reused whole with the new span never measured.
        let (mut doc, engine) = fixture();
        let (mut incr, mut naive) = pipeline_pair();
        let overlay = HashMap::new();
        for pipe in [&mut incr, &mut naive] {
            render(pipe, &doc, &engine, &overlay);
        }
        let b_id = doc.element_by_id("b").expect("b");
        let old = doc.elements_by_tag("span")[0];
        doc.detach(old);
        let fresh = doc.create_element("span");
        doc.element_mut(fresh)
            .expect("element")
            .set_attribute("class", "hot");
        let text = doc.create_text("x");
        doc.append_child(fresh, text);
        doc.append_child(b_id, fresh);
        let a = render(&mut incr, &doc, &engine, &overlay);
        let b = render(&mut naive, &doc, &engine, &overlay);
        assert_eq!(a, b);
        assert_eq!((a.damage_items, a.total_items), (2, 5));
        assert_eq!(incr.layout_boxes(), naive.layout_boxes());
        assert_eq!(incr.display_list(), naive.display_list());
        assert!(incr.display_list().iter().any(|i| i.node == fresh));
        // div#a's subtree is still reused whole.
        assert_eq!(incr.layout_stats().subtree_reuses, 1);
    }

    #[test]
    fn item_ids_follow_their_nodes_across_mutations() {
        let (mut doc, engine) = fixture();
        let (mut incr, _) = pipeline_pair();
        let overlay = HashMap::new();
        render(&mut incr, &doc, &engine, &overlay);
        let first: HashMap<NodeId, u64> =
            incr.display_list().iter().map(|i| (i.node, i.id)).collect();
        let a_id = doc.element_by_id("a").expect("a");
        let parent = doc.parent(a_id).expect("attached");
        let b_id = doc.element_by_id("b").expect("b");
        doc.element_mut(b_id)
            .expect("element")
            .set_attribute("class", "card");
        doc.detach(a_id);
        render(&mut incr, &doc, &engine, &overlay);
        doc.append_child(parent, a_id);
        render(&mut incr, &doc, &engine, &overlay);
        // div#a now paints after div#b, and every node kept its id.
        assert_eq!(incr.display_list()[0].node, b_id);
        for item in incr.display_list() {
            assert_eq!(Some(&item.id), first.get(&item.node), "{}", item.node);
        }
    }
}
