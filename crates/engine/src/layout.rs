//! Incremental layout, retained display lists, and damage accounting
//! (DESIGN.md §6k).
//!
//! The browser runs one [`RenderPipeline::render_frame`] pass per
//! produced frame, in both rendering modes:
//!
//! 1. **Fingerprints.** Every node gets a subtree fingerprint
//!    `fp(n) = H(ctx(n), fp(children…))`, where the context
//!    `ctx(n) = H(ctx(parent), content(n))` chains the selector-salient
//!    features (tag / id / classes / attributes) and content of every
//!    ancestor. A class flip on a parent therefore changes every
//!    descendant's fingerprint (descendant combinators may restyle
//!    them), and any content edit bubbles up the ancestor chain (content
//!    size feeds ancestor heights). Animation overlay values and inline
//!    `style` attributes are part of `content(n)`, so all three
//!    invalidation sources the style system reacts to — DOM mutations,
//!    inline-style writes, animation ticks — land in the fingerprints.
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
//! **What a frame costs.** A node's content hash is memoized with the
//! [`Document::version`] it was taken at, so only nodes written since
//! the previous frame are rehashed; the memo is dropped when the
//! pipeline meets another [`Document::instance`] (a clone included).
//! Every hash step is one word through [`mix64`], strings go in eight
//! bytes at a time, and fingerprints are only ever compared for
//! equality. The pre-order walk, with each entry's parent position and
//! subtree end, is cached until [`Document::structure_version`] moves.
//! The overlay is ordered by `(node, property)`: one pass over it folds
//! each node's values into a per-node hash, and the measure pass reads
//! a node's values back as one `range`. All per-node state lives in one
//! vector indexed by [`NodeId::index`], per-frame scratch in one
//! indexed by walk position, and every buffer is reused, so a warm frame
//! allocates only for style resolution of the elements it re-measures.

use greenweb_css::{ComputedStyle, CssValue};
use greenweb_det::mix64;
use greenweb_dom::{Document, NodeId, NodeKind};
use std::collections::BTreeMap;

/// Layout viewport width, px (a typical mobile portrait viewport).
pub const VIEWPORT_WIDTH: f64 = 360.0;
/// Layout viewport height, px.
pub const VIEWPORT_HEIGHT: f64 = 640.0;
/// Height charged per text child when a box has no explicit height.
pub const TEXT_LINE_HEIGHT: f64 = 16.0;

/// Start value of every hash chain.
const SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// One hash step: folds `word` into `hash`. [`mix64`] is a bijection,
/// so two chains that differ in a single word never meet.
fn mix(hash: u64, word: u64) -> u64 {
    mix64(hash ^ word)
}

/// Folds `s` in eight bytes at a time, then its length, which keeps
/// ("ab","c") distinct from ("a","bc") and "a" from "a\0".
fn hash_str(mut hash: u64, s: &str) -> u64 {
    let mut words = s.as_bytes().chunks_exact(8);
    for word in &mut words {
        hash = mix(hash, u64::from_le_bytes(word.try_into().expect("8 bytes")));
    }
    let rest = words.remainder();
    let mut tail = [0u8; 8];
    tail[..rest.len()].copy_from_slice(rest);
    mix(mix(hash, u64::from_le_bytes(tail)), s.len() as u64)
}

fn hash_f64(hash: u64, v: f64) -> u64 {
    // Every NaN hashes alike: the values are equal for fingerprinting.
    let v = if v.is_nan() { f64::NAN } else { v };
    mix(hash, v.to_bits())
}

/// Hashes `value` structurally: a variant tag, then the payload — f64
/// bits, strings, or a list's length followed by its items — so values
/// of different shapes (`1px` and `1`, `a b` as one keyword and as a
/// sequence) never share a word stream.
fn hash_value(hash: u64, value: &CssValue) -> u64 {
    match value {
        CssValue::Keyword(k) => hash_str(mix(hash, 0), k),
        CssValue::Length(l) => hash_f64(mix(hash, 1), l.px),
        CssValue::Time(t) => hash_f64(mix(hash, 2), t.ms),
        CssValue::Number(n) => hash_f64(mix(hash, 3), *n),
        CssValue::Percentage(p) => hash_f64(mix(hash, 4), *p),
        CssValue::String(s) => hash_str(mix(hash, 5), s),
        CssValue::List(items) => hash_values(mix(hash, 6), items),
        CssValue::Sequence(items) => hash_values(mix(hash, 7), items),
    }
}

fn hash_values(hash: u64, items: &[CssValue]) -> u64 {
    let mut hash = mix(hash, items.len() as u64);
    for item in items {
        hash = hash_value(hash, item);
    }
    hash
}

/// The node kinds the render pass tells apart.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Kind {
    /// The document root or a comment: no box, no height.
    #[default]
    Other,
    Element,
    Text,
}

/// The node's kind and the hash of its payload: an element's tag and
/// attributes (inline `style` included), or a text node's text.
fn payload_hash(kind: &NodeKind) -> (Kind, u64) {
    match kind {
        NodeKind::Element(el) => {
            let mut h = hash_str(mix(SEED, 1), el.tag());
            for attr in el.attributes() {
                h = hash_str(h, &attr.name);
                h = hash_str(h, &attr.value);
            }
            (Kind::Element, h)
        }
        NodeKind::Text(text) => (Kind::Text, hash_str(mix(SEED, 2), text)),
        NodeKind::Document | NodeKind::Comment(_) => (Kind::Other, SEED),
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
    /// The [`Document::version`] `kind` and `payload` were taken at
    /// (0 = never: versions start at 1).
    hashed: u64,
    kind: Kind,
    /// Hash of the node's payload, see [`payload_hash`].
    payload: u64,
    /// Frame whose overlay last held values for the node (0 = none).
    overlay_frame: u64,
    /// Hash of the node's overlay values in frame `overlay_frame`.
    overlay: u64,
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
}

/// One entry of the cached pre-order walk.
#[derive(Debug, Clone, Copy)]
struct WalkEntry {
    node: NodeId,
    /// Walk position of the parent (0, the root's own, for the root).
    parent: usize,
    /// One past the walk position of the node's last descendant.
    end: usize,
}

/// Per-frame scratch for one walk position, written before it is read
/// in every frame.
#[derive(Debug, Clone, Copy, Default)]
struct FrameSlot {
    /// The node's context hash after pass 1; its subtree fingerprint
    /// once the reverse pass has folded in every child's.
    hash: u64,
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
    /// The [`Document::instance`] the version memo belongs to.
    document: Option<u64>,
    /// Per-node state, grown to [`Document::len`] each frame.
    nodes: Vec<NodeState>,
    /// The pre-order walk from the root, valid for the
    /// `(instance, structure version)` in `walk_key`.
    walk: Vec<WalkEntry>,
    walk_key: Option<(u64, u64)>,
    next_item_id: u64,
    /// The retained display list (previous frame, document order).
    retained: Vec<DisplayItem>,
    /// Last frame's positioned boxes, document order.
    boxes: Vec<LayoutBox>,
    // Per-frame scratch buffers, kept for their capacity.
    slots: Vec<FrameSlot>,
    stack: Vec<(NodeId, usize)>,
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
            document: None,
            nodes: Vec::new(),
            walk: Vec::new(),
            walk_key: None,
            next_item_id: 0,
            retained: Vec::new(),
            boxes: Vec::new(),
            slots: Vec::new(),
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

    /// Rebuilds the pre-order walk of `doc` from its root unless the
    /// cached one was built for the same instance and tree shape.
    fn refresh_walk(&mut self, doc: &Document) {
        let key = (doc.instance(), doc.structure_version());
        if self.walk_key == Some(key) {
            return;
        }
        self.walk_key = Some(key);
        self.walk.clear();
        self.stack.clear();
        self.stack.push((doc.root(), 0));
        while let Some((node, parent)) = self.stack.pop() {
            let pos = self.walk.len();
            self.walk.push(WalkEntry {
                node,
                parent,
                end: pos + 1,
            });
            // Children last-first, so popping visits them in order.
            let mut child = doc.last_child(node);
            while let Some(c) = child {
                self.stack.push((c, pos));
                child = doc.prev_sibling(c);
            }
        }
        // A subtree ends where its last-ending child does; children sit
        // after their parent, so one reverse scan settles every end.
        for i in (1..self.walk.len()).rev() {
            let (parent, end) = (self.walk[i].parent, self.walk[i].end);
            let parent_end = &mut self.walk[parent].end;
            *parent_end = (*parent_end).max(end);
        }
        self.slots.resize(self.walk.len(), FrameSlot::default());
    }

    /// Runs the four per-frame passes (fingerprint → measure →
    /// position → display-list diff) over `doc`, resolving styles
    /// through `resolve` and applying the animation `overlay` on top.
    /// Returns the machinery-independent pricing inputs for this frame.
    pub fn render_frame(
        &mut self,
        doc: &Document,
        generation: u64,
        overlay: &BTreeMap<(NodeId, String), CssValue>,
        resolve: &mut dyn FnMut(NodeId) -> ComputedStyle,
    ) -> FrameRenderInfo {
        self.frame += 1;
        let frame = self.frame;
        if self.nodes.len() < doc.len() {
            self.nodes.resize(doc.len(), NodeState::default());
        }
        if self.document != Some(doc.instance()) {
            // Versions of another document say nothing about this one.
            self.document = Some(doc.instance());
            for state in &mut self.nodes {
                state.hashed = 0;
            }
        }
        self.refresh_walk(doc);
        let nodes = &mut self.nodes;
        let walk = &self.walk;
        let slots = &mut self.slots;

        // Overlay hashes: the map is ordered by (node, property), so each
        // node's values arrive together and in a fixed order.
        for ((node, property), value) in overlay {
            let Some(state) = nodes.get_mut(node.index()) else {
                continue;
            };
            if state.overlay_frame != frame {
                state.overlay_frame = frame;
                state.overlay = SEED;
            }
            state.overlay = hash_value(hash_str(state.overlay, property), value);
        }

        // Pass 1: contexts, top-down. Only nodes written since their
        // payload was hashed are hashed again.
        let mut elements = 0usize;
        for (i, entry) in walk.iter().enumerate() {
            let state = &mut nodes[entry.node.index()];
            let version = doc.version(entry.node);
            if state.hashed != version {
                (state.kind, state.payload) = payload_hash(doc.kind(entry.node));
                state.hashed = version;
            }
            let mut own = state.payload;
            if state.kind == Kind::Element {
                elements += 1;
                if state.overlay_frame == frame {
                    own = mix(own, state.overlay);
                }
            }
            let parent_ctx = if i == 0 {
                SEED
            } else {
                slots[entry.parent].hash
            };
            slots[i] = FrameSlot {
                hash: mix(parent_ctx, own),
                ..FrameSlot::default()
            };
        }
        // Fingerprints, bottom-up over the reversed walk: every child is
        // finished before its parent, into which it folds its
        // fingerprint and stale bit. The machinery-independent dirty
        // count — elements whose subtree fingerprint changed since the
        // previous frame (all of them on the first frame) — falls out.
        let mut dirty_elements = 0usize;
        for (i, entry) in walk.iter().enumerate().rev() {
            let FrameSlot {
                hash, mut stale, ..
            } = slots[i];
            let state = &mut nodes[entry.node.index()];
            if state.kind == Kind::Element {
                let prev_fp = if state.walked + 1 == frame {
                    state.fp
                } else {
                    None
                };
                if prev_fp != Some(hash) {
                    dirty_elements += 1;
                }
                stale |= !state
                    .measure
                    .is_some_and(|m| m.generation == generation && m.fp == hash);
                slots[i].stale = stale;
            }
            state.walked = frame;
            state.fp = Some(hash);
            if i > 0 {
                let parent = &mut slots[entry.parent];
                parent.hash = mix(parent.hash, hash);
                parent.stale |= stale;
            }
        }

        // Pass 2a: mark. A pre-order scan that jumps over subtrees whose
        // root is not stale when the incremental machinery is on.
        self.to_measure.clear();
        let mut reuses = 0u64;
        let mut i = 0;
        while i < walk.len() {
            let entry = walk[i];
            i += 1;
            if nodes[entry.node.index()].kind == Kind::Element {
                if self.enabled && !slots[i - 1].stale {
                    reuses += 1;
                    i = entry.end; // whole subtree is measured: skip it
                    continue;
                }
                self.to_measure.push(entry.node);
            }
        }

        // Pass 2b: measure, bottom-up (reversed pre-order of the marked
        // region sees children before parents; clean children keep
        // their cached metrics).
        for &n in self.to_measure.iter().rev() {
            let mut style = resolve(n);
            if nodes[n.index()].overlay_frame == frame {
                // The node's values: one run of the ordered map.
                let run = overlay
                    .range((n, String::new())..)
                    .take_while(|((node, _), _)| *node == n);
                for ((_, property), value) in run {
                    style.set(property, value.clone());
                }
            }
            let margin = style_px(&style, "margin").unwrap_or(0.0);
            let explicit_width = style_px(&style, "width");
            let explicit_height = style_px(&style, "height");
            let content_height = match explicit_height {
                Some(h) => h,
                None => {
                    let mut sum = 0.0;
                    for child in doc.children(n) {
                        let child = &nodes[child.index()];
                        match child.kind {
                            Kind::Element => sum += child.measure.map_or(0.0, |m| m.outer_height),
                            Kind::Text => sum += TEXT_LINE_HEIGHT,
                            Kind::Other => {}
                        }
                    }
                    sum
                }
            };
            let mut style_fp = SEED;
            for (property, value) in style.iter() {
                style_fp = hash_str(style_fp, property);
                style_fp = hash_value(style_fp, value);
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
        // its parent was reached earlier, so a parent without a box (the
        // root, say) lays its children out from those defaults.
        self.boxes.clear();
        for (i, entry) in walk.iter().enumerate() {
            slots[i].content = (0.0, VIEWPORT_WIDTH);
            slots[i].cursor = 0.0;
            let state = &nodes[entry.node.index()];
            match state.kind {
                Kind::Element => {
                    let Some(m) = state.measure else {
                        continue;
                    };
                    let (px, pw) = slots[entry.parent].content;
                    let width = m
                        .explicit_width
                        .unwrap_or_else(|| (pw - 2.0 * m.margin).max(0.0));
                    let x = px + m.margin;
                    let y = slots[entry.parent].cursor + m.margin;
                    let height = (m.outer_height - 2.0 * m.margin).max(0.0);
                    self.boxes.push(LayoutBox {
                        node: entry.node,
                        x,
                        y,
                        width,
                        height,
                    });
                    slots[i].content = (x, width);
                    slots[i].cursor = y;
                    slots[entry.parent].cursor += m.outer_height;
                }
                Kind::Text => slots[entry.parent].cursor += TEXT_LINE_HEIGHT,
                Kind::Other => {}
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
        overlay: &BTreeMap<(NodeId, String), CssValue>,
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
        let h = |v: &CssValue| hash_value(SEED, v);
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
        let overlay = BTreeMap::new();
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
        let overlay = BTreeMap::new();
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
        let mut overlay = BTreeMap::new();
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
        let overlay = BTreeMap::new();
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
        let overlay = BTreeMap::new();
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
        let overlay = BTreeMap::new();
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
        let overlay = BTreeMap::new();
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
        let overlay = BTreeMap::new();
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
        let overlay = BTreeMap::new();
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
        let overlay = BTreeMap::new();
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
    fn writing_a_value_back_moves_the_version_but_dirties_nothing() {
        let (mut doc, engine) = fixture();
        let (mut incr, mut naive) = pipeline_pair();
        let overlay = BTreeMap::new();
        for pipe in [&mut incr, &mut naive] {
            render(pipe, &doc, &engine, &overlay);
        }
        let a_id = doc.element_by_id("a").expect("a");
        let text = doc
            .descendants(a_id)
            .find(|&n| doc.kind(n).as_text() == Some("one"));
        let text = text.expect("text node");
        let versions = (doc.version(a_id), doc.version(text));
        doc.element_mut(a_id)
            .expect("element")
            .set_attribute("class", "card");
        *doc.kind_mut(text) = NodeKind::Text("one".into());
        assert!(doc.version(a_id) > versions.0 && doc.version(text) > versions.1);
        let a = render(&mut incr, &doc, &engine, &overlay);
        let b = render(&mut naive, &doc, &engine, &overlay);
        assert_eq!(a, b);
        assert_eq!((a.dirty_elements, a.damage_items), (0, 0));
        assert_eq!(incr.layout_stats().subtree_reuses, 2, "both top divs");
        // A real edit after the round trip is still seen.
        *doc.kind_mut(text) = NodeKind::Text("uno".into());
        let edited = render(&mut incr, &doc, &engine, &overlay);
        assert_eq!(edited.dirty_elements, 2, "the <p> and div#a");
    }

    #[test]
    fn a_differently_mutated_clone_is_rehashed() {
        // A clone continues the original's version clock, so the same
        // write sequence on both hands out equal versions for different
        // contents. The pipeline must notice the new instance and rehash.
        let (mut doc, engine) = fixture();
        let mut copy = doc.clone();
        let b_id = doc.element_by_id("b").expect("b");
        doc.element_mut(b_id)
            .expect("element")
            .set_attribute("class", "plain");
        copy.element_mut(b_id)
            .expect("element")
            .set_attribute("class", "card");
        assert_eq!(doc.version(b_id), copy.version(b_id));
        let overlay = BTreeMap::new();
        let mut pipe = RenderPipeline::new(true);
        render(&mut pipe, &doc, &engine, &overlay);
        let on_copy = render(&mut pipe, &copy, &engine, &overlay);
        assert_eq!(on_copy.dirty_elements, 2, "div#b and its span");
        let mut fresh = RenderPipeline::new(true);
        render(&mut fresh, &copy, &engine, &overlay);
        assert_eq!(pipe.layout_boxes(), fresh.layout_boxes());
        // And back: the original is rehashed too.
        let back = render(&mut pipe, &doc, &engine, &overlay);
        assert_eq!(back.dirty_elements, 2);
    }

    #[test]
    fn item_ids_follow_their_nodes_across_mutations() {
        let (mut doc, engine) = fixture();
        let (mut incr, _) = pipeline_pair();
        let overlay = BTreeMap::new();
        render(&mut incr, &doc, &engine, &overlay);
        let first: std::collections::HashMap<NodeId, u64> =
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
