//! The cascade: computing an element's style from stylesheet rules,
//! specificity, source order, `!important`, inline style, and inheritance.
//!
//! Two resolvers share one cascade builder:
//!
//! * the **bucketed** resolver (the default) consults the
//!   `bucket` rule index and the [`crate::bloom`] ancestor
//!   filter, so each element runs the exact [`Selector::matches`] walk
//!   only against the handful of candidates it could possibly hit;
//! * the **naive** resolver ([`StyleEngine::compute_style_naive`])
//!   scans every selector of every rule — retained as the semantic
//!   reference the differential property tests compare against.
//!
//! Both produce the same matched-rule set, feed it through the same
//! sort-and-apply code, and are counted by deterministic
//! [`StyleStats`], so "how much work bucketing skipped" is a CI-checkable
//! number rather than a wall-clock claim.

use crate::bloom::ancestor_filter;
use crate::bucket::{BucketOrigin, RuleIndex};
use crate::intern::PropertyId;
use crate::selector::{Selector, Specificity};
use crate::stylesheet::{parse_declarations_str, Declaration, Stylesheet};
use crate::value::CssValue;
use greenweb_dom::{Document, NodeId};
use std::cell::{Cell, RefCell};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;

/// Properties that inherit from the parent element when unset.
const INHERITED_PROPERTIES: &[&str] = &[
    "color",
    "font-family",
    "font-size",
    "font-weight",
    "line-height",
    "text-align",
    "visibility",
];

/// The resolved style of one element, stored as a compact vec of
/// `(interned property, value)` pairs kept sorted by property *name*.
///
/// Name-order (not id-order) is what makes iteration deterministic:
/// interning order can differ between threads, but names compare the
/// same everywhere. [`ComputedStyle::iter`] and [`fmt::Display`] walk
/// the vec as-is — no per-call sort.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ComputedStyle {
    properties: Vec<(PropertyId, CssValue)>,
}

impl ComputedStyle {
    /// Creates an empty style.
    pub fn new() -> Self {
        ComputedStyle::default()
    }

    fn position(&self, property: &str) -> Result<usize, usize> {
        self.properties
            .binary_search_by(|(id, _)| id.as_str().cmp(property))
    }

    /// The value of `property`, if set.
    pub fn get(&self, property: &str) -> Option<&CssValue> {
        self.position(property).ok().map(|i| &self.properties[i].1)
    }

    /// Sets `property` to `value`, returning the previous value.
    pub fn set(&mut self, property: impl AsRef<str>, value: CssValue) -> Option<CssValue> {
        let property = property.as_ref();
        match self.position(property) {
            Ok(i) => Some(std::mem::replace(&mut self.properties[i].1, value)),
            Err(i) => {
                self.properties
                    .insert(i, (PropertyId::intern(property), value));
                None
            }
        }
    }

    /// Number of set properties.
    pub fn len(&self) -> usize {
        self.properties.len()
    }

    /// Whether no properties are set.
    pub fn is_empty(&self) -> bool {
        self.properties.is_empty()
    }

    /// Iterates over `(property, value)` pairs in ascending property-name
    /// order — deterministic, so downstream renderings need no sort.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &CssValue)> {
        self.properties.iter().map(|(id, v)| (id.as_str(), v))
    }

    /// The set of properties whose values differ between `self` and
    /// `other`, including properties present in only one of them.
    /// Returned in ascending name order (a single merge walk over the
    /// two sorted representations).
    pub fn changed_properties(&self, other: &ComputedStyle) -> Vec<String> {
        let mut changed = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.properties.len() && j < other.properties.len() {
            let (a_id, a_val) = &self.properties[i];
            let (b_id, b_val) = &other.properties[j];
            match a_id.as_str().cmp(b_id.as_str()) {
                Ordering::Less => {
                    changed.push(a_id.as_str().to_string());
                    i += 1;
                }
                Ordering::Greater => {
                    changed.push(b_id.as_str().to_string());
                    j += 1;
                }
                Ordering::Equal => {
                    if a_val != b_val {
                        changed.push(a_id.as_str().to_string());
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        for (id, _) in &self.properties[i..] {
            changed.push(id.as_str().to_string());
        }
        for (id, _) in &other.properties[j..] {
            changed.push(id.as_str().to_string());
        }
        changed
    }
}

impl fmt::Display for ComputedStyle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{ ")?;
        for (prop, value) in self.iter() {
            write!(f, "{prop}: {value}; ")?;
        }
        write!(f, "}}")
    }
}

/// Deterministic counters from the style system: how much exact matching
/// the bucketed path ran, how much the naive reference would have, and
/// what the Bloom filter rejected. Pure counters — no wall-clock — so
/// parity tests can diff them byte-for-byte.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StyleStats {
    /// Bucketed style resolutions performed.
    pub resolves: u64,
    /// Exact `Selector::matches` walks the bucketed path ran.
    pub matches: u64,
    /// Exact walks on candidates drawn from the id bucket. The four
    /// per-bucket counters partition `matches`, giving the attribution
    /// profiler a per-selector-bucket cost ranking.
    pub matches_id: u64,
    /// Exact walks on candidates drawn from a class bucket.
    pub matches_class: u64,
    /// Exact walks on candidates drawn from the tag bucket.
    pub matches_tag: u64,
    /// Exact walks on candidates drawn from the universal spill-over.
    pub matches_universal: u64,
    /// Candidates rejected by the ancestor Bloom filter alone (no exact
    /// walk needed).
    pub bloom_rejects: u64,
    /// Naive (full-scan) resolutions performed.
    pub naive_resolves: u64,
    /// Exact `Selector::matches` walks the naive path ran.
    pub naive_matches: u64,
    /// Always 0: there is no computed-style cache. Only the repository
    /// benchmark package (`crates/bench/src/bin/benchmark`) reads this
    /// field.
    pub cache_hits: u64,
    /// Always 0: there is no computed-style cache. Only the repository
    /// benchmark package (`crates/bench/src/bin/benchmark`) reads this
    /// field.
    pub cache_misses: u64,
}

/// One element's cascade from [`StyleEngine::cascade`]: the layers both
/// views share already applied, the rest held for the view builders.
struct Cascade<'a> {
    stylesheet: &'a Stylesheet,
    /// Matched rules as `(specificity, rule index)`, ascending.
    rules: Vec<(Specificity, usize)>,
    /// The inline `style` declarations, in source order.
    inline: Vec<Declaration>,
    /// Inheritance + stylesheet-normal declarations.
    base: ComputedStyle,
}

impl Cascade<'_> {
    /// The with-inline view: the shared layers, then inline-normal,
    /// stylesheet-`!important`, and inline-`!important`.
    fn with_inline(self) -> ComputedStyle {
        let Cascade {
            stylesheet,
            rules,
            inline,
            mut base,
        } = self;
        apply(&mut base, inline.iter().filter(|d| !d.important));
        apply(&mut base, layer(stylesheet, &rules, true));
        apply(&mut base, inline.iter().filter(|d| d.important));
        base
    }

    /// Both views, `(with inline, without inline)`. The without-inline
    /// view is a clone of the shared layers plus stylesheet-`!important`.
    fn both(self) -> (ComputedStyle, ComputedStyle) {
        let mut without_inline = self.base.clone();
        apply(
            &mut without_inline,
            layer(self.stylesheet, &self.rules, true),
        );
        (self.with_inline(), without_inline)
    }
}

/// The declarations of `rules`, in cascade order, whose `!important`
/// flag equals `important`.
fn layer<'a>(
    stylesheet: &'a Stylesheet,
    rules: &'a [(Specificity, usize)],
    important: bool,
) -> impl Iterator<Item = &'a Declaration> {
    rules
        .iter()
        .flat_map(move |&(_, order)| stylesheet.rules()[order].declarations())
        .filter(move |decl| decl.important == important)
}

/// Sets every declaration of `decls` on `style`, in order: later wins.
fn apply<'a>(style: &mut ComputedStyle, decls: impl IntoIterator<Item = &'a Declaration>) {
    for decl in decls {
        style.set(&decl.property, decl.value.clone());
    }
}

/// A matched rule set: `(rule index, best specificity)` pairs in
/// ascending rule order. "Best" is the max specificity over the rule's
/// matching selectors, exactly as the naive scan computes it.
type Matched = Vec<(usize, Specificity)>;

/// A style resolver bound to one stylesheet.
///
/// The engine re-resolves styles during the *style* pipeline stage of each
/// frame; script-driven overrides (`element.style.x = …`) are written into
/// the element's `style` attribute, which this resolver treats with inline
/// priority exactly like a browser.
///
/// The resolver lazily builds a `bucket` rule index the first
/// time it matches, and rebuilds it when the stylesheet generation
/// changes ([`StyleEngine::stylesheet_mut`] bumps it). Interior
/// mutability (the index cell and the stats counters) keeps resolution
/// usable through `&self`; the engine owns one resolver per simulated
/// browser, so the type is deliberately not `Sync`.
#[derive(Debug, Clone)]
pub struct StyleEngine {
    stylesheet: Stylesheet,
    generation: u64,
    index: RefCell<Option<(u64, RuleIndex)>>,
    stats: Cell<StyleStats>,
}

impl StyleEngine {
    /// Creates a resolver over `stylesheet`.
    pub fn new(stylesheet: Stylesheet) -> Self {
        StyleEngine {
            stylesheet,
            generation: 0,
            index: RefCell::new(None),
            stats: Cell::new(StyleStats::default()),
        }
    }

    /// The underlying stylesheet.
    pub fn stylesheet(&self) -> &Stylesheet {
        &self.stylesheet
    }

    /// Mutable access to the stylesheet (used when AUTOGREEN injects
    /// generated annotations back into the application, Sec. 5). Bumps
    /// the stylesheet generation: the rule index is rebuilt on next use
    /// and generation-keyed computed-style caches self-invalidate.
    pub fn stylesheet_mut(&mut self) -> &mut Stylesheet {
        self.generation += 1;
        &mut self.stylesheet
    }

    /// The stylesheet generation: bumped on every mutable access, the
    /// key external caches use to notice rule changes.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The cumulative style counters of this resolver (cache fields stay
    /// zero here — the engine layer merges its own cache counters in).
    pub fn stats(&self) -> StyleStats {
        self.stats.get()
    }

    /// Resets the counters to zero (benchmark hygiene between phases).
    pub fn reset_stats(&self) {
        self.stats.set(StyleStats::default());
    }

    fn with_index<R>(&self, f: impl FnOnce(&RuleIndex) -> R) -> R {
        let mut slot = self.index.borrow_mut();
        let stale = match &*slot {
            Some((generation, _)) => *generation != self.generation,
            None => true,
        };
        if stale {
            *slot = Some((self.generation, RuleIndex::build(&self.stylesheet)));
        }
        f(&slot.as_ref().expect("index just built").1)
    }

    /// The rules matching `node` as `(rule index, best specificity)`
    /// pairs in ascending rule order — the bucketed *match* phase in
    /// isolation, exposed so benchmarks can time it apart from the
    /// cascade phase.
    pub fn match_rules(&self, doc: &Document, node: NodeId) -> Vec<(usize, Specificity)> {
        let mut stats = self.stats.get();
        stats.resolves += 1;
        let Some(element) = doc.element(node) else {
            self.stats.set(stats);
            return Vec::new();
        };
        let filter = ancestor_filter(doc, node);
        let mut matched: Matched = self.with_index(|index| {
            let mut candidates = Vec::new();
            index.candidates(element, &mut candidates);
            let mut matched: Matched = Vec::new();
            for candidate in candidates {
                if !candidate.ancestor_atoms.is_empty()
                    && !filter.may_contain_all(&candidate.ancestor_atoms)
                {
                    stats.bloom_rejects += 1;
                    continue;
                }
                stats.matches += 1;
                match candidate.origin {
                    BucketOrigin::Id => stats.matches_id += 1,
                    BucketOrigin::Class => stats.matches_class += 1,
                    BucketOrigin::Tag => stats.matches_tag += 1,
                    BucketOrigin::Universal => stats.matches_universal += 1,
                }
                let selector =
                    &self.stylesheet.rules()[candidate.rule].selectors()[candidate.selector];
                if selector.matches(doc, node) {
                    matched.push((candidate.rule, candidate.specificity));
                }
            }
            matched
        });
        self.stats.set(stats);
        // Multiple selectors of one rule may match; keep the best
        // specificity per rule, in rule order, like the naive scan.
        matched.sort_unstable();
        matched.dedup_by(|later, kept| {
            if later.0 == kept.0 {
                kept.1 = kept.1.max(later.1);
                true
            } else {
                false
            }
        });
        matched
    }

    fn match_rules_naive(&self, doc: &Document, node: NodeId) -> Matched {
        let mut stats = self.stats.get();
        stats.naive_resolves += 1;
        let mut matched: Matched = Vec::new();
        for (order, rule) in self.stylesheet.rules().iter().enumerate() {
            stats.naive_matches += rule.selectors().len() as u64;
            let best = rule
                .selectors()
                .iter()
                .filter(|sel| sel.matches(doc, node))
                .map(Selector::specificity)
                .max();
            if let Some(spec) = best {
                matched.push((order, spec));
            }
        }
        self.stats.set(stats);
        matched
    }

    /// Applies an already-matched rule set to `node` — the *cascade*
    /// phase in isolation (sort by specificity/order, then inheritance,
    /// stylesheet, inline, `!important` layers). Exposed for benchmarks;
    /// [`StyleEngine::compute_style`] is the fused path.
    pub fn cascade_matched(
        &self,
        doc: &Document,
        node: NodeId,
        matched: &[(usize, Specificity)],
        parent_style: Option<&ComputedStyle>,
    ) -> ComputedStyle {
        self.cascade(doc, node, matched, parent_style).with_inline()
    }

    /// The one cascade builder behind every resolver: sorts the matched
    /// rules into cascade order, parses the inline `style` attribute,
    /// and applies the two lowest layers — inheritance from
    /// `parent_style`, then stylesheet-normal declarations — which both
    /// views share. [`Cascade::with_inline`] and [`Cascade::both`] add
    /// the rest.
    fn cascade(
        &self,
        doc: &Document,
        node: NodeId,
        matched: &[(usize, Specificity)],
        parent_style: Option<&ComputedStyle>,
    ) -> Cascade<'_> {
        // Ascending (specificity, source order): later wins on apply.
        // Declarations within one rule keep their source order.
        let mut rules: Vec<(Specificity, usize)> =
            matched.iter().map(|&(order, spec)| (spec, order)).collect();
        rules.sort_unstable();
        let inline = doc
            .element(node)
            .and_then(|el| el.attribute("style"))
            .map(|style| parse_declarations_str(style).unwrap_or_default())
            .unwrap_or_default();
        let mut base = ComputedStyle::new();
        if let Some(parent) = parent_style {
            for &prop in INHERITED_PROPERTIES {
                if let Some(value) = parent.get(prop) {
                    base.set(prop, value.clone());
                }
            }
        }
        apply(&mut base, layer(&self.stylesheet, &rules, false));
        Cascade {
            stylesheet: &self.stylesheet,
            rules,
            inline,
            base,
        }
    }

    /// Resolves the computed style of `node`, including inheritance from
    /// `parent_style` (pass `None` at the root). Bucketed fast path.
    pub fn compute_style(
        &self,
        doc: &Document,
        node: NodeId,
        parent_style: Option<&ComputedStyle>,
    ) -> ComputedStyle {
        let matched = self.match_rules(doc, node);
        self.cascade_matched(doc, node, &matched, parent_style)
    }

    /// Like [`StyleEngine::compute_style`], but ignoring the element's
    /// inline `style` attribute. Used to recover the cascaded value a
    /// property had *before* a script wrote an inline override — the
    /// start point of a CSS transition whose initial value came from the
    /// stylesheet (the paper's Fig. 4 pattern).
    pub fn compute_style_without_inline(
        &self,
        doc: &Document,
        node: NodeId,
        parent_style: Option<&ComputedStyle>,
    ) -> ComputedStyle {
        self.compute_style_both(doc, node, parent_style).1
    }

    /// Resolves both views of `node` — `(with inline, without inline)` —
    /// from a *single* matching pass and a single shared cascade layer.
    /// The two views cannot be derived from each other (inline-normal
    /// must not override stylesheet-`!important`), but they share the
    /// matched rule set and everything below the inline layer, so
    /// transition arming pays for matching and the base cascade once.
    pub fn compute_style_both(
        &self,
        doc: &Document,
        node: NodeId,
        parent_style: Option<&ComputedStyle>,
    ) -> (ComputedStyle, ComputedStyle) {
        let matched = self.match_rules(doc, node);
        self.cascade(doc, node, &matched, parent_style).both()
    }

    /// The naive full-scan resolver: every selector of every rule runs
    /// the exact match walk. The reference implementation for *matching*
    /// — it shares the cascade builder — which the differential property
    /// suite compares the bucketed path against property-for-property.
    pub fn compute_style_naive(
        &self,
        doc: &Document,
        node: NodeId,
        parent_style: Option<&ComputedStyle>,
    ) -> ComputedStyle {
        let matched = self.match_rules_naive(doc, node);
        self.cascade_matched(doc, node, &matched, parent_style)
    }

    /// Naive counterpart of [`StyleEngine::compute_style_without_inline`].
    pub fn compute_style_without_inline_naive(
        &self,
        doc: &Document,
        node: NodeId,
        parent_style: Option<&ComputedStyle>,
    ) -> ComputedStyle {
        let matched = self.match_rules_naive(doc, node);
        self.cascade(doc, node, &matched, parent_style).both().1
    }

    /// Resolves computed styles for the whole tree in document order
    /// (bucketed).
    pub fn compute_all(&self, doc: &Document) -> HashMap<NodeId, ComputedStyle> {
        self.compute_all_with(doc, |node, parent| self.compute_style(doc, node, parent))
    }

    /// Naive counterpart of [`StyleEngine::compute_all`], for
    /// differential tests and the style microbenchmark.
    pub fn compute_all_naive(&self, doc: &Document) -> HashMap<NodeId, ComputedStyle> {
        self.compute_all_with(doc, |node, parent| {
            self.compute_style_naive(doc, node, parent)
        })
    }

    fn compute_all_with(
        &self,
        doc: &Document,
        mut resolve: impl FnMut(NodeId, Option<&ComputedStyle>) -> ComputedStyle,
    ) -> HashMap<NodeId, ComputedStyle> {
        let mut styles: HashMap<NodeId, ComputedStyle> = HashMap::new();
        let order: Vec<NodeId> = doc.descendants(doc.root()).collect();
        for node in order {
            if doc.element(node).is_none() {
                continue;
            }
            let parent_style = doc.parent(node).and_then(|p| styles.get(&p)).cloned();
            let style = resolve(node, parent_style.as_ref());
            styles.insert(node, style);
        }
        styles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stylesheet::parse_stylesheet;
    use crate::value::Length;
    use greenweb_dom::parse_html;

    fn engine(css: &str) -> StyleEngine {
        StyleEngine::new(parse_stylesheet(css).unwrap())
    }

    #[test]
    fn later_rule_wins_at_equal_specificity() {
        let doc = parse_html("<p id='x'>t</p>").unwrap();
        let p = doc.element_by_id("x").unwrap();
        let eng = engine("p { width: 1px; } p { width: 2px; }");
        let style = eng.compute_style(&doc, p, None);
        assert_eq!(style.get("width"), Some(&CssValue::Length(Length::px(2.0))));
    }

    #[test]
    fn higher_specificity_wins_over_order() {
        let doc = parse_html("<p id='x' class='c'>t</p>").unwrap();
        let p = doc.element_by_id("x").unwrap();
        let eng = engine("#x { width: 1px; } p.c { width: 2px; } p { width: 3px; }");
        let style = eng.compute_style(&doc, p, None);
        assert_eq!(style.get("width"), Some(&CssValue::Length(Length::px(1.0))));
    }

    #[test]
    fn important_beats_specificity() {
        let doc = parse_html("<p id='x'>t</p>").unwrap();
        let p = doc.element_by_id("x").unwrap();
        let eng = engine("#x { width: 1px; } p { width: 2px !important; }");
        let style = eng.compute_style(&doc, p, None);
        assert_eq!(style.get("width"), Some(&CssValue::Length(Length::px(2.0))));
    }

    #[test]
    fn inline_style_beats_stylesheet() {
        let doc = parse_html("<p id='x' style='width: 9px'>t</p>").unwrap();
        let p = doc.element_by_id("x").unwrap();
        let eng = engine("#x { width: 1px; }");
        let style = eng.compute_style(&doc, p, None);
        assert_eq!(style.get("width"), Some(&CssValue::Length(Length::px(9.0))));
    }

    #[test]
    fn stylesheet_important_beats_inline() {
        let doc = parse_html("<p id='x' style='width: 9px'>t</p>").unwrap();
        let p = doc.element_by_id("x").unwrap();
        let eng = engine("#x { width: 1px !important; }");
        let style = eng.compute_style(&doc, p, None);
        assert_eq!(style.get("width"), Some(&CssValue::Length(Length::px(1.0))));
    }

    #[test]
    fn inline_important_beats_everything() {
        let doc = parse_html("<p id='x' style='width: 9px !important'>t</p>").unwrap();
        let p = doc.element_by_id("x").unwrap();
        let eng = engine("#x { width: 1px !important; }");
        let style = eng.compute_style(&doc, p, None);
        assert_eq!(style.get("width"), Some(&CssValue::Length(Length::px(9.0))));
    }

    #[test]
    fn inherited_properties_flow_down() {
        let doc = parse_html("<div id='a'><p id='b'>t</p></div>").unwrap();
        let eng = engine("#a { color: red; width: 5px; }");
        let styles = eng.compute_all(&doc);
        let b = doc.element_by_id("b").unwrap();
        assert_eq!(
            styles[&b].get("color"),
            Some(&CssValue::Keyword("red".into()))
        );
        // width is not inherited.
        assert_eq!(styles[&b].get("width"), None);
    }

    #[test]
    fn child_overrides_inherited() {
        let doc = parse_html("<div id='a'><p id='b'>t</p></div>").unwrap();
        let eng = engine("#a { color: red; } #b { color: blue; }");
        let styles = eng.compute_all(&doc);
        let b = doc.element_by_id("b").unwrap();
        assert_eq!(
            styles[&b].get("color"),
            Some(&CssValue::Keyword("blue".into()))
        );
    }

    #[test]
    fn changed_properties_diff() {
        let mut a = ComputedStyle::new();
        a.set("width", CssValue::Length(Length::px(1.0)));
        a.set("color", CssValue::Keyword("red".into()));
        let mut b = ComputedStyle::new();
        b.set("width", CssValue::Length(Length::px(2.0)));
        b.set("height", CssValue::Length(Length::px(3.0)));
        assert_eq!(a.changed_properties(&b), vec!["color", "height", "width"]);
        assert!(a.changed_properties(&a.clone()).is_empty());
    }

    #[test]
    fn compute_all_covers_every_element() {
        let doc = parse_html("<div><p>a</p><span>b</span></div>").unwrap();
        let eng = engine("* { margin: 0; }");
        let styles = eng.compute_all(&doc);
        assert_eq!(styles.len(), doc.elements().count());
    }

    #[test]
    fn iteration_is_sorted_by_property_name() {
        let mut style = ComputedStyle::new();
        style.set("width", CssValue::Keyword("w".into()));
        style.set("color", CssValue::Keyword("c".into()));
        style.set("z-index", CssValue::Keyword("z".into()));
        style.set("height", CssValue::Keyword("h".into()));
        let names: Vec<&str> = style.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["color", "height", "width", "z-index"]);
        assert_eq!(
            style.to_string(),
            "{ color: c; height: h; width: w; z-index: z; }"
        );
    }

    #[test]
    fn set_returns_previous_value() {
        let mut style = ComputedStyle::new();
        assert_eq!(style.set("width", CssValue::Keyword("a".into())), None);
        assert_eq!(
            style.set("width", CssValue::Keyword("b".into())),
            Some(CssValue::Keyword("a".into()))
        );
        assert_eq!(style.len(), 1);
    }

    /// The bucketed resolver must agree with the naive reference on a
    /// fixture exercising every selector shape the index handles.
    #[test]
    fn bucketed_matches_naive_on_mixed_fixture() {
        let doc = parse_html(
            "<div id='outer' class='wrap'>\
               <section><p id='inner' class='text lead' style='margin: 1px'>x</p></section>\
               <input type='text' disabled>\
             </div><p id='outside'>y</p>",
        )
        .unwrap();
        let eng = engine(
            "#inner { width: 1px; } .lead { color: red; } p { height: 2px; } \
             * { line-height: 3px; } div p { font-size: 4px; } \
             section > p.text { width: 5px !important; } [disabled] { color: blue; } \
             .wrap section > p { text-align: center; } #outside, .lead { visibility: hidden; }",
        );
        for node in doc.elements().collect::<Vec<_>>() {
            assert_eq!(
                eng.compute_style(&doc, node, None),
                eng.compute_style_naive(&doc, node, None),
                "bucketed != naive for node {node:?}"
            );
            assert_eq!(
                eng.compute_style_without_inline(&doc, node, None),
                eng.compute_style_without_inline_naive(&doc, node, None)
            );
        }
        assert_eq!(eng.compute_all(&doc), eng.compute_all_naive(&doc));
    }

    #[test]
    fn both_views_agree_with_single_view_calls() {
        let doc = parse_html("<p id='x' style='width: 9px'>t</p>").unwrap();
        let p = doc.element_by_id("x").unwrap();
        let eng = engine("#x { width: 1px !important; color: red; }");
        let (with_inline, without_inline) = eng.compute_style_both(&doc, p, None);
        assert_eq!(with_inline, eng.compute_style(&doc, p, None));
        assert_eq!(
            without_inline,
            eng.compute_style_without_inline(&doc, p, None)
        );
    }

    #[test]
    fn both_views_stack_every_layer_in_cascade_order() {
        let doc = parse_html(
            "<div id='a' style='color: green'>\
               <p id='b' style='width: 9px; height: 7px !important; margin: 3px'>t</p>\
             </div>",
        )
        .unwrap();
        let eng = engine(
            "#a { color: red; font-size: 12px; } \
             p { width: 1px !important; height: 2px !important; margin: 1px; color: blue; } \
             #b { margin: 2px !important; line-height: 4px; }",
        );
        let a = doc.element_by_id("a").unwrap();
        let b = doc.element_by_id("b").unwrap();
        let parent = eng.compute_style(&doc, a, None);
        let px = |v: f64| CssValue::Length(Length::px(v));
        assert_eq!(
            parent.get("color"),
            Some(&CssValue::Keyword("green".into()))
        );
        let (with_inline, without_inline) = eng.compute_style_both(&doc, b, Some(&parent));
        // Inherited font-size; stylesheet-normal color and line-height
        // beat inheritance; inline-normal width and margin lose to
        // stylesheet-!important; inline-!important height wins.
        let expected_with = [
            ("color", CssValue::Keyword("blue".into())),
            ("font-size", px(12.0)),
            ("height", px(7.0)),
            ("line-height", px(4.0)),
            ("margin", px(2.0)),
            ("width", px(1.0)),
        ];
        let actual: Vec<(&str, CssValue)> =
            with_inline.iter().map(|(p, v)| (p, v.clone())).collect();
        assert_eq!(actual, expected_with);
        let mut expected_without = expected_with;
        expected_without[2].1 = px(2.0);
        let actual: Vec<(&str, CssValue)> =
            without_inline.iter().map(|(p, v)| (p, v.clone())).collect();
        assert_eq!(actual, expected_without);
        // The single-view entry points build the same views.
        assert_eq!(eng.compute_style(&doc, b, Some(&parent)), with_inline);
        assert_eq!(
            eng.compute_style_without_inline(&doc, b, Some(&parent)),
            without_inline
        );
    }

    #[test]
    fn stats_count_bucketing_and_bloom_wins() {
        let doc =
            parse_html("<div class='wrap'><p id='a'>x</p></div><span id='b'>y</span>").unwrap();
        // Three rules: one only reachable via the `.miss` class bucket,
        // one guarded by an ancestor the span doesn't have, one universal.
        let eng = engine(".miss { width: 1px; } .wrap p { width: 2px; } * { width: 3px; }");
        let span = doc.element_by_id("b").unwrap();
        eng.compute_style(&doc, span, None);
        let stats = eng.stats();
        assert_eq!(stats.resolves, 1);
        // `.miss` never became a candidate; `.wrap p` is tag-bucketed
        // under `p` so the span skips it too; only `*` ran exactly.
        assert_eq!(stats.matches, 1);
        // The `p` inside the div hits the `.wrap p` candidate; its
        // ancestor filter contains `.wrap`, so no bloom reject either.
        let p = doc.element_by_id("a").unwrap();
        eng.compute_style(&doc, p, None);
        let stats = eng.stats();
        assert_eq!(stats.resolves, 2);
        assert_eq!(stats.matches, 3);
        assert_eq!(stats.bloom_rejects, 0);
        // Naive, by contrast, runs every selector each time.
        eng.compute_style_naive(&doc, span, None);
        let stats = eng.stats();
        assert_eq!(stats.naive_resolves, 1);
        assert_eq!(stats.naive_matches, 3);
    }

    #[test]
    fn bloom_filter_rejects_impossible_ancestors() {
        let doc = parse_html("<div><p id='a'>x</p></div>").unwrap();
        // Ancestor `.sidebar` exists nowhere: the candidate is bucketed
        // under `p` (so the p pulls it), but the ancestor filter kills it
        // before the exact walk.
        let eng = engine(".sidebar p { width: 1px; } p { width: 2px; }");
        let p = doc.element_by_id("a").unwrap();
        let style = eng.compute_style(&doc, p, None);
        assert_eq!(style.get("width"), Some(&CssValue::Length(Length::px(2.0))));
        let stats = eng.stats();
        assert_eq!(stats.bloom_rejects, 1);
        assert_eq!(stats.matches, 1);
    }

    #[test]
    fn bucket_counters_partition_matches() {
        let doc =
            parse_html("<div id='top' class='wrap'><p class='lead'>x</p><span>y</span></div>")
                .unwrap();
        let eng = engine(
            "#top { width: 1px; } .wrap { width: 2px; } .lead { width: 3px; } \
             p { width: 4px; } * { width: 5px; } [disabled] { width: 6px; }",
        );
        for node in doc.elements().collect::<Vec<_>>() {
            eng.compute_style(&doc, node, None);
        }
        let stats = eng.stats();
        // Every exact walk came from exactly one bucket.
        assert_eq!(
            stats.matches,
            stats.matches_id + stats.matches_class + stats.matches_tag + stats.matches_universal
        );
        // div pulls #top + .wrap; p pulls .lead + p; all three pull the
        // two universal-bucketed selectors (`*` and `[disabled]`).
        assert_eq!(stats.matches_id, 1);
        assert_eq!(stats.matches_class, 2);
        assert_eq!(stats.matches_tag, 1);
        assert_eq!(stats.matches_universal, 6);
    }

    #[test]
    fn stylesheet_mut_bumps_generation_and_reindexes() {
        let doc = parse_html("<p id='x'>t</p>").unwrap();
        let p = doc.element_by_id("x").unwrap();
        let mut eng = engine("p { width: 1px; }");
        assert_eq!(eng.generation(), 0);
        assert_eq!(
            eng.compute_style(&doc, p, None).get("width"),
            Some(&CssValue::Length(Length::px(1.0)))
        );
        // Inject a higher-specificity rule through the AUTOGREEN path.
        let extra = parse_stylesheet("#x { width: 7px; }").unwrap();
        eng.stylesheet_mut().extend(extra);
        assert_eq!(eng.generation(), 1);
        assert_eq!(
            eng.compute_style(&doc, p, None).get("width"),
            Some(&CssValue::Length(Length::px(7.0))),
            "stale rule index survived a stylesheet mutation"
        );
    }
}
