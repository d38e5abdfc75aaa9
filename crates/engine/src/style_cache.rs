//! The computed-style cache: memoized style resolution with
//! dirty-driven invalidation.
//!
//! The engine queries computed styles on the hot path (every transition
//! arm re-reads the element's `transition` property), and resolution is
//! pure given the document, the stylesheet generation, and the node — so
//! the cache stores both views of a node's style (with and without its
//! inline `style` attribute) and invalidates along the same paths that
//! mark frames dirty (the paper's Fig. 8 plumbing):
//!
//! * **stylesheet generation** — a bumped [`StyleEngine::generation`]
//!   (AUTOGREEN annotation injection) drops everything, lazily, on the
//!   next resolve;
//! * **inline style writes** — invalidate the written node *and its
//!   descendants* (a `[style]` attribute selector on an ancestor can
//!   change what descendants match);
//! * **structural/attribute DOM mutations** — drop everything (a class
//!   or tree edit can re-route matching for arbitrary nodes).
//!
//! Caching is semantics-preserving: hits return exactly what a fresh
//! resolve would, which the cache-parity CI gate (`GREENWEB_STYLE_CACHE`)
//! and the differential property suite both enforce. Hit/miss counters
//! are deterministic and flow into [`greenweb_css::StyleStats`].

use greenweb_css::{ComputedStyle, StyleEngine};
use greenweb_dom::{Document, NodeId};
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Both views of one node's resolved style.
#[derive(Debug, Clone)]
struct CacheEntry {
    with_inline: ComputedStyle,
    without_inline: ComputedStyle,
}

/// A per-browser computed-style cache. See the module docs for the
/// invalidation rules.
#[derive(Debug, Clone)]
pub struct StyleCache {
    enabled: bool,
    generation: u64,
    entries: HashMap<NodeId, CacheEntry>,
    hits: u64,
    misses: u64,
    invalidations_avoided: u64,
}

impl StyleCache {
    /// Creates an enabled, empty cache.
    pub fn new() -> Self {
        StyleCache {
            enabled: true,
            generation: 0,
            entries: HashMap::new(),
            hits: 0,
            misses: 0,
            invalidations_avoided: 0,
        }
    }

    /// Creates a cache honoring the `GREENWEB_STYLE_CACHE` environment
    /// variable: `off`, `0`, or `false` (any case) disables it, anything
    /// else — including unset — enables it. The parity gate in CI runs
    /// one workload each way and diffs the metrics.
    pub fn from_env() -> Self {
        let mut cache = StyleCache::new();
        cache.enabled = crate::env_flag_enabled("GREENWEB_STYLE_CACHE");
        cache
    }

    /// Enables or disables the cache programmatically (tests use this
    /// instead of the environment variable, which races under parallel
    /// test execution). Disabling drops all entries.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        if !enabled {
            self.entries.clear();
        }
    }

    /// Whether resolves are being memoized.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// `(hits, misses)` so far. With the cache disabled every resolve
    /// counts as a miss, so the hit *rate* is comparable across modes.
    pub fn counters(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// How many times a static effect summary let the engine downgrade a
    /// clear-all to targeted subtree invalidation.
    pub fn invalidations_avoided(&self) -> u64 {
        self.invalidations_avoided
    }

    /// Records one summary-gated downgrade (no-op while the cache is
    /// disabled: there is nothing to preserve, and the parity gate wants
    /// all non-style counters identical across modes).
    pub fn note_avoided_clear(&mut self) {
        if self.enabled {
            self.invalidations_avoided += 1;
        }
    }

    /// Resolves both views of `node` — `(with inline, without inline)` —
    /// through the cache. Styles are resolved without inheritance
    /// (parent `None`), matching every engine-side call site.
    pub fn resolve(
        &mut self,
        engine: &StyleEngine,
        doc: &Document,
        node: NodeId,
    ) -> (ComputedStyle, ComputedStyle) {
        let entry = self.entry(engine, doc, node).into_owned();
        (entry.with_inline, entry.without_inline)
    }

    /// The with-inline view alone: what [`StyleCache::resolve`]`(..).0`
    /// returns, with the same hit/miss accounting, cloning one cached
    /// style instead of two.
    pub fn resolve_with_inline(
        &mut self,
        engine: &StyleEngine,
        doc: &Document,
        node: NodeId,
    ) -> ComputedStyle {
        match self.entry(engine, doc, node) {
            Cow::Borrowed(entry) => entry.with_inline.clone(),
            Cow::Owned(entry) => entry.with_inline,
        }
    }

    /// Counts one hit or miss and returns `node`'s entry: borrowed from
    /// the cache when enabled (inserted first on a miss), freshly
    /// resolved when disabled.
    fn entry(&mut self, engine: &StyleEngine, doc: &Document, node: NodeId) -> Cow<'_, CacheEntry> {
        if engine.generation() != self.generation {
            self.entries.clear();
            self.generation = engine.generation();
        }
        let resolve = || {
            let (with_inline, without_inline) = engine.compute_style_both(doc, node, None);
            CacheEntry {
                with_inline,
                without_inline,
            }
        };
        if !self.enabled {
            self.misses += 1;
            return Cow::Owned(resolve());
        }
        match self.entries.entry(node) {
            Entry::Occupied(entry) => {
                self.hits += 1;
                Cow::Borrowed(entry.into_mut())
            }
            Entry::Vacant(slot) => {
                self.misses += 1;
                Cow::Borrowed(slot.insert(resolve()))
            }
        }
    }

    /// Drops `node` and every node below it. Sound for inline-style
    /// writes: the write can only change matching for the node itself
    /// and, via `[style]` attribute selectors in ancestor compounds, its
    /// descendants.
    pub fn invalidate_subtree(&mut self, doc: &Document, node: NodeId) {
        for descendant in doc.descendants(node) {
            self.entries.remove(&descendant);
        }
    }

    /// Drops every entry (structural or attribute DOM mutation).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of live entries (test hook).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl Default for StyleCache {
    fn default() -> Self {
        StyleCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenweb_css::stylesheet::parse_stylesheet;
    use greenweb_css::value::{CssValue, Length};
    use greenweb_dom::parse_html;

    fn fixture() -> (Document, StyleEngine) {
        let doc = parse_html("<div id='a'><p id='b'>x</p></div>").unwrap();
        let engine =
            StyleEngine::new(parse_stylesheet("#a { width: 1px; } p { width: 2px; }").unwrap());
        (doc, engine)
    }

    #[test]
    fn hit_returns_what_a_fresh_resolve_would() {
        let (doc, engine) = fixture();
        let mut cache = StyleCache::new();
        let b = doc.element_by_id("b").unwrap();
        let first = cache.resolve(&engine, &doc, b);
        let second = cache.resolve(&engine, &doc, b);
        assert_eq!(first, second);
        assert_eq!(cache.counters(), (1, 1));
        assert_eq!(
            second.0.get("width"),
            Some(&CssValue::Length(Length::px(2.0)))
        );
        // The single-view read is the same view and counts the same way.
        assert_eq!(cache.resolve_with_inline(&engine, &doc, b), second.0);
        assert_eq!(cache.counters(), (2, 1));
        let a = doc.element_by_id("a").unwrap();
        assert_eq!(
            cache.resolve_with_inline(&engine, &doc, a),
            engine.compute_style(&doc, a, None)
        );
        assert_eq!(cache.counters(), (2, 2));
        assert_eq!(
            cache.resolve(&engine, &doc, a),
            engine.compute_style_both(&doc, a, None),
            "a single-view miss caches both views"
        );
        assert_eq!(cache.counters(), (3, 2));
    }

    #[test]
    fn disabled_cache_never_hits() {
        let (doc, engine) = fixture();
        let mut cache = StyleCache::new();
        cache.set_enabled(false);
        let b = doc.element_by_id("b").unwrap();
        cache.resolve(&engine, &doc, b);
        cache.resolve_with_inline(&engine, &doc, b);
        assert_eq!(cache.counters(), (0, 2));
        assert!(cache.is_empty());
    }

    #[test]
    fn generation_bump_drops_entries() {
        let (doc, mut engine) = fixture();
        let mut cache = StyleCache::new();
        let b = doc.element_by_id("b").unwrap();
        cache.resolve(&engine, &doc, b);
        assert_eq!(cache.len(), 1);
        // Inject a rule; the cached pre-injection style must not survive.
        engine
            .stylesheet_mut()
            .extend(parse_stylesheet("#b { width: 9px; }").unwrap());
        let (style, _) = cache.resolve(&engine, &doc, b);
        assert_eq!(style.get("width"), Some(&CssValue::Length(Length::px(9.0))));
        assert_eq!(cache.counters(), (0, 2));
    }

    #[test]
    fn subtree_invalidation_spares_siblings() {
        let doc = parse_html("<div id='a'><p id='b'>x</p></div><span id='c'>y</span>").unwrap();
        let engine = StyleEngine::new(parse_stylesheet("* { margin: 0; }").unwrap());
        let mut cache = StyleCache::new();
        for id in ["a", "b", "c"] {
            cache.resolve(&engine, &doc, doc.element_by_id(id).unwrap());
        }
        assert_eq!(cache.len(), 3);
        cache.invalidate_subtree(&doc, doc.element_by_id("a").unwrap());
        // a and its descendant b dropped; sibling c survives.
        assert_eq!(cache.len(), 1);
        cache.resolve(&engine, &doc, doc.element_by_id("c").unwrap());
        assert_eq!(cache.counters(), (1, 3));
    }
}
