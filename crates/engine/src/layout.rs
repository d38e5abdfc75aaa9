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
//! 3. **Position.** A top-down pass assigns final boxes (block stacking
//!    in a fixed mobile viewport). It is not counted as layout work.
//! 4. **Display list & damage.** One display item per element, with a
//!    stable per-node item ID, built in the same scan as the boxes.
//!    Diffing against the retained list from the previous frame yields
//!    the damage accounting: items whose rect or paint fingerprint
//!    changed, plus appearing and disappearing items.
//!
//! The *pricing inputs* ([`FrameRenderInfo`]: element count, dirty
//! elements from the fingerprint diff, damage items, total items) are
//! derived identically in both modes — the enabled flag only gates the
//! cache-reuse machinery — so a run's energy and QoS metrics are
//! byte-identical between the two modes; only the `layout`/`paint`
//! counters (and the style counters, since reused subtrees skip style
//! resolution) differ. The workload parity test diffs exactly that.
//!
//! **What a frame costs.** A frame costs the region that changed, not
//! the document. The pre-order walk, each entry with its parent's
//! position, its subtree's end and its subtree's element and reuse
//! counts, is cached until [`Document::structure_version`] moves; the
//! state of each walk position (context, content box, the y it was
//! placed at) is kept with it. The pipeline remembers the
//! [`Document::clock`] of its last frame and each node's overlay hash.
//! Every pass jumps over a *clean* subtree: one whose
//! [`Document::subtree_version`] is at most that clock, with no node
//! whose overlay values appeared, changed or went away, below a parent
//! whose context stands. Its contexts, fingerprints, stale bits and
//! measures stay as they are and its counts come from the walk's sums;
//! the position scan also keeps its boxes and items in place when its
//! parent's content box and the y it starts at are last frame's, and
//! otherwise walks it again, which translates it. So a frame after a
//! one-leaf write visits the path from the root and the children of the
//! nodes on it. A rebuilt walk, a new stylesheet generation, another
//! [`Document::instance`] (a clone included) and the oracle treat every
//! subtree as changed: the oracle runs the same passes and skips
//! nothing.
//!
//! Within what a frame visits, a node's content hash is memoized with
//! the [`Document::version`] it was taken at, so only nodes written since
//! the previous frame are rehashed; the memo is dropped with another
//! instance. Every hash step is one word through [`mix64`], strings go
//! in eight bytes at a time, and fingerprints are only ever compared for
//! equality. The overlay is ordered by `(node, property)`: one pass over
//! it folds each node's values into a per-node hash, and the measure
//! pass reads a node's values back as one `range`. All per-node state
//! lives in one vector indexed by [`NodeId::index`], per-position state
//! in one indexed by walk position, and every buffer is reused, so a
//! warm frame allocates only for style resolution of the elements it
//! re-measures.

use greenweb_css::{ComputedStyle, CssValue};
use greenweb_det::{mix64, FNV1A_BASIS};
use greenweb_dom::{Document, NodeId, NodeKind};
use std::collections::BTreeMap;

/// Layout viewport width, px (a typical mobile portrait viewport).
pub const VIEWPORT_WIDTH: f64 = 360.0;
/// Layout viewport height, px.
pub const VIEWPORT_HEIGHT: f64 = 640.0;
/// Height charged per text child when a box has no explicit height.
pub const TEXT_LINE_HEIGHT: f64 = 16.0;

/// Start value of every hash chain.
const SEED: u64 = FNV1A_BASIS;

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
    /// The node's position in the cached walk, when it is in it.
    pos: usize,
    /// Set to the previous frame when a walk holding the node is
    /// replaced, so a frame that rebuilt the walk can tell whether the
    /// previous frame's walk held the node.
    walked: u64,
    /// Subtree fingerprint from the last frame whose walk held the node.
    /// It is the node's *previous* fingerprint only if that was the
    /// previous frame: a node that left the tree loses it, so coming back
    /// counts as dirty.
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

/// One entry of the cached pre-order walk, with the subtree aggregates
/// a skipped subtree's counts are read from.
#[derive(Debug, Clone, Copy)]
struct WalkEntry {
    node: NodeId,
    /// Walk position of the parent (0, the root's own, for the root).
    parent: usize,
    /// One past the walk position of the node's last descendant.
    end: usize,
    /// Whether the node was an element when the walk was built.
    element: bool,
    /// Position of the node's display item: elements before it.
    item: usize,
    /// Elements in the subtree, the node included.
    elements: usize,
    /// Subtrees the measure pass reuses whole when nothing in this one
    /// is stale: 1 for an element, the children's sum otherwise.
    reuses: usize,
}

/// The state of one walk position. `ctx`, `top` and `content` persist
/// across frames while the walk does: a subtree is skipped against them.
/// The other fields are written before they are read in every frame that
/// reaches the position.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// The node's context hash.
    ctx: u64,
    /// Whether `ctx` moved this frame.
    ctx_moved: bool,
    /// The context, then the subtree fingerprint once the reverse pass
    /// has folded in every child's.
    hash: u64,
    /// Whether some element in the subtree lacks a measure valid for
    /// this frame's `(generation, fingerprint)`, so the subtree cannot
    /// be reused whole.
    stale: bool,
    /// Frame in which a node in the subtree gained, changed or lost
    /// overlay values.
    overlay_moved: u64,
    /// Frame in which nothing in the subtree changed: its contexts,
    /// fingerprints and measures stand.
    clean: u64,
    /// Position pass: the parent's cursor where the node was placed.
    top: f64,
    /// Position pass: content box `(x, width)` children are laid into.
    content: (f64, f64),
    /// Whether `content` moved this frame.
    content_moved: bool,
    /// Position pass: y where the next child goes.
    cursor: f64,
}

/// `list[index] = value`, growing the list by one when `index` is its
/// length: a rebuilt list is written in order, a kept one in place.
fn put<T>(list: &mut Vec<T>, index: usize, value: T) {
    if index == list.len() {
        list.push(value);
    } else {
        list[index] = value;
    }
}

/// The incremental rendering pipeline: subtree fingerprints, the
/// measure cache, the retained display list, and the damage diff.
/// See the module docs for the frame anatomy.
#[derive(Debug)]
pub struct RenderPipeline {
    enabled: bool,
    /// Frames rendered so far; stamps the per-frame marks.
    frame: u64,
    /// The [`Document::instance`] the version memo belongs to.
    document: Option<u64>,
    /// The [`Document::clock`] and stylesheet generation of the last
    /// frame.
    clock: u64,
    generation: u64,
    /// Per-node state, grown to [`Document::len`] each frame.
    nodes: Vec<NodeState>,
    /// The pre-order walk from the root, valid for the
    /// `(instance, structure version)` in `walk_key`, and its slots.
    walk: Vec<WalkEntry>,
    walk_key: Option<(u64, u64)>,
    slots: Vec<Slot>,
    next_item_id: u64,
    /// The retained display list and the positioned boxes (document
    /// order, one per element: an element's are at its walk entry's
    /// `item`).
    retained: Vec<DisplayItem>,
    boxes: Vec<LayoutBox>,
    /// Nodes holding overlay values this frame and the last.
    overlay_nodes: Vec<NodeId>,
    last_overlay_nodes: Vec<NodeId>,
    // Per-frame scratch buffers, kept for their capacity: the walk
    // positions pass 1 reached or skipped, the walk-building stack, the
    // elements to measure, and the previous display list while a
    // rebuilt walk's list is written.
    reached: Vec<usize>,
    stack: Vec<(NodeId, usize)>,
    to_measure: Vec<NodeId>,
    old_items: Vec<DisplayItem>,
    /// Walk entries the last frame's passes visited.
    visits: usize,
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
            clock: 0,
            generation: 0,
            nodes: Vec::new(),
            walk: Vec::new(),
            walk_key: None,
            slots: Vec::new(),
            next_item_id: 0,
            retained: Vec::new(),
            boxes: Vec::new(),
            overlay_nodes: Vec::new(),
            last_overlay_nodes: Vec::new(),
            reached: Vec::new(),
            stack: Vec::new(),
            to_measure: Vec::new(),
            old_items: Vec::new(),
            visits: 0,
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
    /// Returns whether it rebuilt.
    fn refresh_walk(&mut self, doc: &Document) -> bool {
        let key = (doc.instance(), doc.structure_version());
        if self.walk_key == Some(key) {
            return false;
        }
        self.walk_key = Some(key);
        // The walk being replaced is the one the previous frame used.
        for entry in &self.walk {
            self.nodes[entry.node.index()].walked = self.frame - 1;
        }
        self.walk.clear();
        self.stack.clear();
        self.stack.push((doc.root(), 0));
        let mut elements = 0;
        while let Some((node, parent)) = self.stack.pop() {
            let pos = self.walk.len();
            let element = doc.element(node).is_some();
            self.walk.push(WalkEntry {
                node,
                parent,
                end: pos + 1,
                element,
                item: elements,
                elements: usize::from(element),
                reuses: usize::from(element),
            });
            elements += usize::from(element);
            self.nodes[node.index()].pos = pos;
            // Children last-first, so popping visits them in order.
            let mut child = doc.last_child(node);
            while let Some(c) = child {
                self.stack.push((c, pos));
                child = doc.prev_sibling(c);
            }
        }
        // Children sit after their parent, so one reverse scan settles
        // every subtree's end (where its last-ending child's is) and
        // sums.
        for i in (1..self.walk.len()).rev() {
            let child = self.walk[i];
            let parent = &mut self.walk[child.parent];
            parent.end = parent.end.max(child.end);
            parent.elements += child.elements;
            if !parent.element {
                parent.reuses += child.reuses;
            }
        }
        self.slots.resize(self.walk.len(), Slot::default());
        true
    }

    /// Folds each node's overlay values into a per-node hash and marks
    /// the walk positions above every node whose values appeared,
    /// changed or went away since the last frame. The map is ordered by
    /// `(node, property)`, so each node's values arrive together and in
    /// a fixed order.
    fn hash_overlay(&mut self, overlay: &BTreeMap<(NodeId, String), CssValue>) {
        let frame = self.frame;
        std::mem::swap(&mut self.overlay_nodes, &mut self.last_overlay_nodes);
        self.overlay_nodes.clear();
        let mut values = overlay.iter().peekable();
        while let Some(((node, property), value)) = values.next() {
            let mut hash = hash_value(hash_str(SEED, property), value);
            while let Some(((_, property), value)) = values.next_if(|((n, _), _)| n == node) {
                hash = hash_value(hash_str(hash, property), value);
            }
            let Some(state) = self.nodes.get_mut(node.index()) else {
                continue;
            };
            let held = state.overlay_frame + 1 == frame && state.overlay == hash;
            state.overlay_frame = frame;
            state.overlay = hash;
            self.overlay_nodes.push(*node);
            if !held {
                self.mark_overlay_moved(*node);
            }
        }
        for i in 0..self.last_overlay_nodes.len() {
            let node = self.last_overlay_nodes[i];
            if self.nodes[node.index()].overlay_frame != frame {
                self.mark_overlay_moved(node);
            }
        }
    }

    /// Marks `node`'s walk position and its ancestors', when the node is
    /// in the walk, as holding an overlay change this frame.
    fn mark_overlay_moved(&mut self, node: NodeId) {
        let mut pos = self.nodes[node.index()].pos;
        if self.walk.get(pos).map(|e| e.node) != Some(node) {
            return;
        }
        while self.slots[pos].overlay_moved != self.frame {
            self.slots[pos].overlay_moved = self.frame;
            if pos == 0 {
                break;
            }
            pos = self.walk[pos].parent;
        }
    }

    /// Pass 1: contexts, top-down. Only nodes written since their
    /// payload was hashed are hashed again. Unless `all_changed`, a
    /// subtree is skipped and stamped clean when nothing in it was
    /// written since the last frame, none of its nodes' overlay values
    /// moved, and its parent's context stands: its contexts are last
    /// frame's. Returns `false`, stopping early, when a node turned into
    /// or out of an element under a kept walk, whose sums then no longer
    /// hold.
    fn contexts(&mut self, doc: &Document, all_changed: bool) -> bool {
        let frame = self.frame;
        self.reached.clear();
        let mut i = 0;
        while i < self.walk.len() {
            let entry = self.walk[i];
            self.reached.push(i);
            let slot = self.slots[i];
            let parent_moved = i > 0 && self.slots[entry.parent].ctx_moved;
            if !all_changed
                && !parent_moved
                && slot.overlay_moved != frame
                && doc.subtree_version(entry.node) <= self.clock
            {
                self.slots[i].clean = frame;
                i = entry.end;
                continue;
            }
            let state = &mut self.nodes[entry.node.index()];
            let version = doc.version(entry.node);
            if state.hashed != version {
                (state.kind, state.payload) = payload_hash(doc.kind(entry.node));
                state.hashed = version;
            }
            if (state.kind == Kind::Element) != entry.element {
                return false;
            }
            let mut own = state.payload;
            if state.kind == Kind::Element && state.overlay_frame == frame {
                own = mix(own, state.overlay);
            }
            let parent_ctx = if i == 0 {
                SEED
            } else {
                self.slots[entry.parent].ctx
            };
            let ctx = mix(parent_ctx, own);
            self.slots[i] = Slot {
                ctx,
                ctx_moved: ctx != slot.ctx,
                hash: ctx,
                stale: false,
                clean: 0,
                ..slot
            };
            i += 1;
        }
        self.visits += self.reached.len();
        true
    }

    /// Fingerprints, bottom-up over the reversed pass-1 positions: every
    /// child is finished before its parent, into which it folds its
    /// fingerprint and stale bit; a clean subtree folds in the
    /// fingerprint it kept. Returns the machinery-independent dirty
    /// count: elements whose subtree fingerprint changed since the
    /// previous frame (all of them on the first frame). A kept walk held
    /// every node last frame too; a rebuilt one, the nodes the replaced
    /// walk held.
    fn fingerprints(&mut self, generation: u64, rebuilt: bool) -> usize {
        let frame = self.frame;
        let mut dirty_elements = 0;
        for &i in self.reached.iter().rev() {
            let entry = self.walk[i];
            let slot = self.slots[i];
            let state = &mut self.nodes[entry.node.index()];
            let (hash, stale) = if slot.clean == frame {
                // Last frame left every measure in the subtree valid for
                // these fingerprints and this generation.
                (state.fp.expect("fingerprinted when last walked"), false)
            } else {
                let mut stale = slot.stale;
                if state.kind == Kind::Element {
                    let prev_fp = if !rebuilt || state.walked + 1 == frame {
                        state.fp
                    } else {
                        None
                    };
                    if prev_fp != Some(slot.hash) {
                        dirty_elements += 1;
                    }
                    stale |= !state
                        .measure
                        .is_some_and(|m| m.generation == generation && m.fp == slot.hash);
                    self.slots[i].stale = stale;
                }
                state.fp = Some(slot.hash);
                (slot.hash, stale)
            };
            if i > 0 {
                let parent = &mut self.slots[entry.parent];
                parent.hash = mix(parent.hash, hash);
                parent.stale |= stale;
            }
        }
        dirty_elements
    }

    /// Pass 2a: mark. A pre-order scan that jumps over clean subtrees
    /// and, when the incremental machinery is on, over subtrees whose
    /// root is not stale. Returns the subtrees reused whole.
    fn mark(&mut self) -> u64 {
        self.to_measure.clear();
        let mut reuses = 0;
        let mut i = 0;
        while i < self.walk.len() {
            let entry = self.walk[i];
            self.visits += 1;
            if self.slots[i].clean == self.frame {
                reuses += entry.reuses as u64;
                i = entry.end;
                continue;
            }
            if entry.element {
                if self.enabled && !self.slots[i].stale {
                    reuses += 1;
                    i = entry.end; // whole subtree is measured: skip it
                    continue;
                }
                self.to_measure.push(entry.node);
            }
            i += 1;
        }
        reuses
    }

    /// Pass 2b: measure, bottom-up (reversed pre-order of the marked
    /// region sees children before parents; clean children keep
    /// their cached metrics).
    fn measure(
        &mut self,
        doc: &Document,
        generation: u64,
        overlay: &BTreeMap<(NodeId, String), CssValue>,
        resolve: &mut dyn FnMut(NodeId) -> ComputedStyle,
    ) {
        let nodes = &mut self.nodes;
        for &n in self.to_measure.iter().rev() {
            let mut style = resolve(n);
            if nodes[n.index()].overlay_frame == self.frame {
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
    }

    /// Passes 3 and 4: position (block stacking in a fixed mobile
    /// viewport) and the display list with its damage diff against the
    /// retained list, in one top-down walk. A box's y depends on every
    /// earlier sibling, so a clean subtree is skipped — its boxes and
    /// items stand — only where its parent's content box and the y it
    /// starts at are last frame's; elsewhere it is walked again, which
    /// translates it, and each item whose rect moved is damage. Neither
    /// pass counts as layout work. Returns `(damage items, damage area,
    /// reused items)`.
    fn position_and_paint(&mut self, rebuilt: bool) -> (usize, u64, u64) {
        let frame = self.frame;
        if rebuilt {
            // A node's `item_index` finds its item in either list;
            // pointing at an item of another node means it has none
            // there.
            std::mem::swap(&mut self.retained, &mut self.old_items);
            self.retained.clear();
            self.boxes.clear();
        }
        let (mut damage_items, mut damage_area, mut reused_items) = (0usize, 0u64, 0u64);
        let mut i = 0;
        while i < self.walk.len() {
            let entry = self.walk[i];
            self.visits += 1;
            let (top, parent_moved, parent_clean) = if i == 0 {
                (0.0, false, false)
            } else {
                let parent = &self.slots[entry.parent];
                (parent.cursor, parent.content_moved, parent.clean == frame)
            };
            let clean = parent_clean || self.slots[i].clean == frame;
            let state = self.nodes[entry.node.index()];
            if clean && !parent_moved && top.to_bits() == self.slots[i].top.to_bits() {
                if i > 0 {
                    self.slots[entry.parent].cursor += match state.kind {
                        Kind::Element => state.measure.map_or(0.0, |m| m.outer_height),
                        Kind::Text => TEXT_LINE_HEIGHT,
                        Kind::Other => 0.0,
                    };
                }
                reused_items += entry.elements as u64;
                i = entry.end;
                continue;
            }
            // Every node starts from the viewport defaults; its parent
            // was reached earlier, so a parent without a box (the root,
            // say) lays its children out from those defaults.
            let old_content = self.slots[i].content;
            let slot = &mut self.slots[i];
            slot.top = top;
            if clean {
                slot.clean = frame;
            }
            slot.content = (0.0, VIEWPORT_WIDTH);
            slot.cursor = 0.0;
            match state.kind {
                Kind::Element => {
                    let m = state.measure.expect("every element is measured");
                    let (px, pw) = self.slots[entry.parent].content;
                    let width = m
                        .explicit_width
                        .unwrap_or_else(|| (pw - 2.0 * m.margin).max(0.0));
                    let x = px + m.margin;
                    let y = self.slots[entry.parent].cursor + m.margin;
                    let height = (m.outer_height - 2.0 * m.margin).max(0.0);
                    self.slots[i].content = (x, width);
                    self.slots[i].cursor = y;
                    self.slots[entry.parent].cursor += m.outer_height;
                    let state = &mut self.nodes[entry.node.index()];
                    let id = *state.item_id.get_or_insert_with(|| {
                        self.next_item_id += 1;
                        self.next_item_id - 1
                    });
                    let item = DisplayItem {
                        id,
                        node: entry.node,
                        x,
                        y,
                        width,
                        height,
                        style_fp: m.style_fp,
                    };
                    let old = if rebuilt {
                        &self.old_items
                    } else {
                        &self.retained
                    };
                    match old.get(state.item_index) {
                        Some(old) if old.node == entry.node && old.same_as(&item) => {
                            reused_items += 1;
                        }
                        _ => {
                            damage_items += 1;
                            damage_area += item.area_px2();
                        }
                    }
                    state.item_index = entry.item;
                    put(&mut self.retained, entry.item, item);
                    put(
                        &mut self.boxes,
                        entry.item,
                        LayoutBox {
                            node: entry.node,
                            x,
                            y,
                            width,
                            height,
                        },
                    );
                }
                Kind::Text => self.slots[entry.parent].cursor += TEXT_LINE_HEIGHT,
                Kind::Other => {}
            }
            let slot = &mut self.slots[i];
            slot.content_moved = slot.content.0.to_bits() != old_content.0.to_bits()
                || slot.content.1.to_bits() != old_content.1.to_bits();
            i += 1;
        }
        if rebuilt {
            // Items of nodes that left the walk.
            for old in &self.old_items {
                let index = self.nodes[old.node.index()].item_index;
                if self.retained.get(index).map(|item| item.node) != Some(old.node) {
                    damage_items += 1;
                    damage_area += old.area_px2();
                }
            }
        }
        (damage_items, damage_area, reused_items)
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
        self.visits = 0;
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
        let mut rebuilt = self.refresh_walk(doc);
        self.hash_overlay(overlay);
        // The oracle, a new walk and a new stylesheet generation skip
        // nothing.
        let mut all_changed = rebuilt || !self.enabled || generation != self.generation;
        while !self.contexts(doc, all_changed) {
            self.walk_key = None;
            rebuilt = self.refresh_walk(doc);
            all_changed = true;
        }
        let dirty_elements = self.fingerprints(generation, rebuilt);
        let reuses = self.mark();
        self.measure(doc, generation, overlay, resolve);
        let (damage_items, damage_area, reused_items) = self.position_and_paint(rebuilt);
        let elements = self.walk[0].elements;
        let total_items = self.retained.len();
        self.clock = doc.clock();
        self.generation = generation;

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
    /// `sections` × `divs` × `spans` elements, each span holding a text
    /// node.
    fn grid(sections: usize, divs: usize, spans: usize) -> Document {
        let mut html = String::new();
        for _ in 0..sections {
            html.push_str("<section>");
            for _ in 0..divs {
                html.push_str("<div>");
                for _ in 0..spans {
                    html.push_str("<span class='hot'>x</span>");
                }
                html.push_str("</div>");
            }
            html.push_str("</section>");
        }
        parse_html(&html).expect("parses")
    }

    #[test]
    fn a_leaf_write_visits_only_the_path_and_its_children() {
        let mut doc = grid(10, 10, 5);
        let (_, engine) = fixture();
        let overlay = BTreeMap::new();
        let (mut incr, mut naive) = pipeline_pair();
        for pipe in [&mut incr, &mut naive] {
            render(pipe, &doc, &engine, &overlay);
        }
        let walk_len = incr.walk.len();
        assert_eq!(incr.walk[0].elements, 610);
        assert_eq!(incr.visits, 3 * walk_len, "the first frame walks it all");
        render(&mut incr, &doc, &engine, &overlay);
        assert_eq!(incr.visits, 3, "a clean frame stops at the root");

        let leaf = doc.elements_by_tag("span")[237];
        doc.element_mut(leaf)
            .expect("element")
            .set_attribute("style", "color: red; width: 20px");
        let a = render(&mut incr, &doc, &engine, &overlay);
        let b = render(&mut naive, &doc, &engine, &overlay);
        assert_eq!(a, b);
        assert_eq!(incr.layout_boxes(), naive.layout_boxes());
        assert_eq!(incr.display_list(), naive.display_list());
        assert_eq!((a.dirty_elements, a.damage_items), (3, 1));
        // Each pass reaches the path from the root to the leaf and the
        // children of the nodes on it, and nothing else.
        let path: Vec<NodeId> = std::iter::once(leaf).chain(doc.ancestors(leaf)).collect();
        let reach = path.len() + path.iter().map(|&n| doc.children(n).count()).sum::<usize>();
        assert_eq!(reach, 4 + 1 + 5 + 10 + 10);
        assert!(
            incr.visits <= 3 * reach,
            "{} visits for a path reach of {reach} in a walk of {walk_len}",
            incr.visits
        );
    }

    #[test]
    fn a_clean_child_moves_with_a_parent_whose_width_reads_its_subtree() {
        // The measure cache keys an element by a fingerprint that covers
        // its subtree, so a style may read below the element: here the
        // outer div is as wide as its text is long. Editing the first
        // <p>'s text re-measures the div, and the second <p> — clean, at
        // an unchanged y — must still take the div's new width.
        let mut doc = parse_html("<div><p>ab</p><p>x</p></div>").expect("parses");
        let div = doc.elements_by_tag("div")[0];
        let first = doc.elements_by_tag("p")[0];
        let text = doc.first_child(first).expect("text");
        let (mut incr, mut naive) = pipeline_pair();
        let overlay = BTreeMap::new();
        let frame = |pipe: &mut RenderPipeline, doc: &Document| {
            pipe.render_frame(doc, 0, &overlay, &mut |n| {
                let mut style = ComputedStyle::default();
                if n == div {
                    let width = 10.0 * doc.text_content(n).len() as f64;
                    style.set("width", CssValue::Number(width));
                }
                style
            })
        };
        for pipe in [&mut incr, &mut naive] {
            frame(pipe, &doc);
        }
        *doc.kind_mut(text) = NodeKind::Text("abcd".into());
        let a = frame(&mut incr, &doc);
        let b = frame(&mut naive, &doc);
        assert_eq!(a, b);
        assert_eq!(incr.layout_boxes(), naive.layout_boxes());
        assert_eq!(incr.layout_boxes()[2].width, 50.0);
    }

    #[test]
    fn an_element_turned_into_text_under_a_kept_walk_renders_like_the_oracle() {
        let (mut doc, engine) = fixture();
        let (mut incr, mut naive) = pipeline_pair();
        let overlay = BTreeMap::new();
        for pipe in [&mut incr, &mut naive] {
            render(pipe, &doc, &engine, &overlay);
        }
        let span = doc.elements_by_tag("span")[0];
        let shape = doc.structure_version();
        for (kind, elements) in [(NodeKind::Text("t".into()), 4), (doc.kind(span).clone(), 5)] {
            *doc.kind_mut(span) = kind;
            assert_eq!(doc.structure_version(), shape, "a payload write");
            let a = render(&mut incr, &doc, &engine, &overlay);
            let b = render(&mut naive, &doc, &engine, &overlay);
            assert_eq!(a, b);
            assert_eq!((a.elements, a.total_items), (elements, elements));
            let mut fresh = RenderPipeline::new(true);
            render(&mut fresh, &doc, &engine, &overlay);
            for pipe in [&incr, &naive] {
                assert_eq!(pipe.layout_boxes(), fresh.layout_boxes());
                assert_eq!(pipe.display_list().len(), elements);
            }
        }
    }
}
