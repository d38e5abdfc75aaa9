//! The GreenWeb language extensions (Sec. 4, Table 2, Fig. 3).
//!
//! GreenWeb annotations are ordinary CSS rules using the `:QoS`
//! pseudo-class and `on<event>-qos` properties:
//!
//! ```css
//! div#ex:QoS { ontouchstart-qos: continuous; }
//! li.row:QoS { onclick-qos: single, short; }
//! #canvas:QoS { ontouchmove-qos: continuous, 20, 100; }
//! ```
//!
//! [`AnnotationTable::from_stylesheet`] extracts them; `lookup` resolves
//! the annotation for a concrete `(element, event)` pair using selector
//! matching with CSS specificity, so annotations inherit CSS's modularity:
//! they select elements independently of how callbacks are implemented
//! (Sec. 4.2's "modular design").

use crate::qos::{QosSpec, QosTarget, QosType, ResponseExpectation};
use crate::{CssValue, Declaration, Rule, Selector, Specificity, Stylesheet};
use greenweb_dom::{Document, EventType, NodeId};
use std::fmt;

/// Error raised for malformed GreenWeb annotations.
///
/// The variants are typed so the runtime can degrade gracefully: a
/// [`LangError::BadValue`] still names the event it was meant for, which
/// lets [`AnnotationTable::from_stylesheet_lossy`] substitute the event's
/// Table 1 category default instead of dropping the annotation (and the
/// rest of the stylesheet) on the floor.
#[derive(Debug, Clone, PartialEq)]
pub enum LangError {
    /// An `on<event>-qos` property names an event the runtime doesn't
    /// know; no fallback is possible.
    UnknownEvent {
        /// The offending CSS property (e.g. `onhover-qos`).
        property: String,
        /// What the event parser objected to.
        detail: String,
    },
    /// The QoS value of a known event is malformed; the event's category
    /// default is a safe fallback.
    BadValue {
        /// The annotated event.
        event: EventType,
        /// The offending CSS property.
        property: String,
        /// What the value parser objected to.
        detail: String,
    },
}

impl LangError {
    /// The event this error concerns, when it could be determined.
    pub fn event(&self) -> Option<EventType> {
        match self {
            LangError::UnknownEvent { .. } => None,
            LangError::BadValue { event, .. } => Some(*event),
        }
    }
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LangError::UnknownEvent { property, detail } => {
                write!(f, "greenweb annotation error: {detail} in `{property}`")
            }
            LangError::BadValue {
                event,
                property,
                detail,
            } => write!(
                f,
                "greenweb annotation error: {detail} in `{property}` (on{event})"
            ),
        }
    }
}

impl std::error::Error for LangError {}

/// One extracted annotation: a selector, an event, and the QoS spec.
#[derive(Debug, Clone, PartialEq)]
pub struct Annotation {
    /// The CSS selector choosing the annotated elements.
    pub selector: Selector,
    /// The annotated DOM event.
    pub event: EventType,
    /// The declared QoS information.
    pub spec: QosSpec,
}

impl Annotation {
    /// Renders the annotation back to GreenWeb CSS (used by AUTOGREEN's
    /// generation phase).
    pub fn to_css(&self) -> String {
        let value = match (self.spec.qos_type, self.spec.target) {
            (QosType::Continuous, t) if t == QosTarget::CONTINUOUS => "continuous".to_string(),
            (QosType::Single, t) if t == QosTarget::SINGLE_SHORT => "single, short".to_string(),
            (QosType::Single, t) if t == QosTarget::SINGLE_LONG => "single, long".to_string(),
            (kind, t) => format!("{kind}, {}, {}", t.imperceptible_ms, t.usable_ms),
        };
        format!("{} {{ on{}-qos: {value}; }}", self.selector, self.event)
    }
}

impl fmt::Display for Annotation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_css())
    }
}

/// All GreenWeb annotations of an application, with selector-based
/// lookup.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AnnotationTable {
    annotations: Vec<Annotation>,
}

impl AnnotationTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        AnnotationTable::default()
    }

    /// Extracts every annotation from `:QoS` rules in `stylesheet`.
    ///
    /// # Errors
    ///
    /// Returns the first [`LangError`] of
    /// [`AnnotationTable::from_stylesheet_lossy`]: the first `:QoS`
    /// declaration, in source order, naming an unknown event or carrying
    /// a malformed QoS value. Non-QoS declarations inside `:QoS` rules
    /// are ignored (CSS forward compatibility).
    pub fn from_stylesheet(stylesheet: &Stylesheet) -> Result<Self, LangError> {
        let (table, errors) = Self::from_stylesheet_lossy(stylesheet);
        match errors.into_iter().next() {
            Some(first) => Err(first),
            None => Ok(table),
        }
    }

    /// Like [`AnnotationTable::from_stylesheet`], but malformed
    /// annotations degrade instead of aborting the extraction: every
    /// well-formed annotation is kept, every error is returned, and a
    /// malformed *value* on a known event falls back to the event's
    /// Table 1 category default ([`QosSpec::default_for_event`]) so the
    /// element still gets QoS treatment. Only an unknown event drops the
    /// declaration entirely.
    pub fn from_stylesheet_lossy(stylesheet: &Stylesheet) -> (Self, Vec<LangError>) {
        let mut table = AnnotationTable::new();
        let mut errors = Vec::new();
        for rule in stylesheet.qos_rules() {
            for decl in rule.declarations() {
                match parse_declaration(decl) {
                    None => continue,
                    Some(Ok((event, spec))) => table.push_for_rule(rule, event, spec),
                    Some(Err(e)) => {
                        if let Some(event) = e.event() {
                            table.push_for_rule(rule, event, QosSpec::default_for_event(event));
                        }
                        errors.push(e);
                    }
                }
            }
        }
        (table, errors)
    }

    /// Pushes one `(event, spec)` annotation for every `:QoS` selector of
    /// `rule`.
    fn push_for_rule(&mut self, rule: &Rule, event: EventType, spec: QosSpec) {
        for selector in rule.selectors() {
            if !selector.has_qos_pseudo() {
                continue;
            }
            self.annotations.push(Annotation {
                selector: selector.clone(),
                event,
                spec,
            });
        }
    }

    /// Adds one annotation.
    pub fn push(&mut self, annotation: Annotation) {
        self.annotations.push(annotation);
    }

    /// All annotations, in source order.
    pub fn annotations(&self) -> &[Annotation] {
        &self.annotations
    }

    /// Number of annotations.
    pub fn len(&self) -> usize {
        self.annotations.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.annotations.is_empty()
    }

    /// Resolves the QoS spec for `event` on `node`: among matching
    /// annotations, the one with the highest selector specificity wins
    /// (source order breaks ties, later winning, like CSS).
    pub fn lookup(&self, doc: &Document, node: NodeId, event: EventType) -> Option<&QosSpec> {
        self.lookup_entry(doc, node, event).map(|(_, a)| &a.spec)
    }

    /// Like [`AnnotationTable::lookup`], but also returns the index of
    /// the winning annotation. The index identifies the annotation *rule*
    /// — the GreenWeb runtime keys its frame models on it, since every
    /// element matched by one rule exercises the same code path.
    pub fn lookup_entry(
        &self,
        doc: &Document,
        node: NodeId,
        event: EventType,
    ) -> Option<(usize, &Annotation)> {
        let mut best: Option<(Specificity, usize, &Annotation)> = None;
        for (order, a) in self.annotations.iter().enumerate() {
            if a.event != event || !a.selector.matches(doc, node) {
                continue;
            }
            let spec = a.selector.specificity();
            if best.is_none_or(|(s, o, _)| (spec, order) >= (s, o)) {
                best = Some((spec, order, a));
            }
        }
        best.map(|(_, order, a)| (order, a))
    }

    /// Renders the whole table as a GreenWeb CSS stylesheet.
    pub fn to_css(&self) -> String {
        self.annotations
            .iter()
            .map(Annotation::to_css)
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// The `:QoS` spec per event type of one element, indexed by position
/// in [`EventType::ALL`].
type SpecRow = [Option<QosSpec>; EventType::ALL.len()];

/// What judging reads of an app's annotations: for the document element
/// and for the first element (in document order) carrying each `id`,
/// the spec [`AnnotationTable::lookup`] gives every event type on the
/// document it was built from.
///
/// The ids are sorted and each indexes a row of specs; elements with
/// equal rows share one, so the table stays small beside a document.
#[derive(Debug, Clone, PartialEq)]
pub struct QosTargets {
    /// Every distinct `id`, sorted, with the row of its first element.
    ids: Box<[(Box<str>, u32)]>,
    /// Distinct spec rows; row 0 is the document element's.
    rows: Box<[SpecRow]>,
}

impl QosTargets {
    /// Resolves `table` once on every element of `doc` that judging can
    /// name. The document element is the root's first element child, or
    /// the root itself when it has none.
    pub fn new(doc: &Document, table: &AnnotationTable) -> Self {
        let row_of = |node| EventType::ALL.map(|event| table.lookup(doc, node, event).copied());
        let document_element = doc
            .children(doc.root())
            .find(|&c| doc.element(c).is_some())
            .unwrap_or_else(|| doc.root());
        let mut rows = vec![row_of(document_element)];
        let mut named: Vec<(&str, NodeId)> = doc
            .elements()
            .filter_map(|node| Some((doc.element(node)?.id()?, node)))
            .collect();
        // A stable sort keeps each id's elements in document order, so
        // `dedup` keeps the first, as `Document::element_by_id` finds it.
        named.sort_by_key(|&(id, _)| id);
        named.dedup_by_key(|&mut (id, _)| id);
        let ids = named
            .into_iter()
            .map(|(id, node)| {
                let row = row_of(node);
                let index = rows.iter().position(|r| *r == row).unwrap_or_else(|| {
                    rows.push(row);
                    rows.len() - 1
                });
                (Box::from(id), index as u32)
            })
            .collect();
        QosTargets {
            ids,
            rows: rows.into_boxed_slice(),
        }
    }

    /// The spec for `event` on the element `id` names, or on the
    /// document element when `id` is `None` or names no element.
    pub fn lookup(&self, id: Option<&str>, event: EventType) -> Option<&QosSpec> {
        let row = id
            .and_then(|id| self.ids.binary_search_by(|(k, _)| (**k).cmp(id)).ok())
            .map_or(0, |i| self.ids[i].1 as usize);
        // `EventType::ALL` lists the variants in declaration order.
        self.rows[row][event as usize].as_ref()
    }
}

/// Parses one declaration. `None` for non-QoS properties (ignored for
/// CSS forward compatibility); `Some(Err)` for malformed annotations.
fn parse_declaration(decl: &Declaration) -> Option<Result<(EventType, QosSpec), LangError>> {
    let property = decl.property.as_str();
    let event_name = property
        .strip_prefix("on")
        .and_then(|rest| rest.strip_suffix("-qos"))?;
    let event: EventType = match event_name.parse() {
        Ok(event) => event,
        Err(e) => {
            return Some(Err(LangError::UnknownEvent {
                property: property.to_string(),
                detail: e.to_string(),
            }))
        }
    };
    Some(match parse_qos_value(&decl.value) {
        Ok(spec) => Ok((event, spec)),
        Err(detail) => Err(LangError::BadValue {
            event,
            property: property.to_string(),
            detail,
        }),
    })
}

/// Parses the value grammar of Table 2:
///
/// ```text
/// CDecl  ::= continuous [, v, v]
/// SDecl  ::= single, short | long | v, v
/// ```
fn parse_qos_value(value: &CssValue) -> Result<QosSpec, String> {
    let items = value.items();
    let first = items
        .first()
        .and_then(|v| v.as_keyword())
        .ok_or_else(|| "QoS value must start with `continuous` or `single`".to_string())?;
    let qos_type = match first {
        "continuous" => QosType::Continuous,
        "single" => QosType::Single,
        other => {
            return Err(format!(
                "unknown QoS type `{other}` (expected `continuous` or `single`)"
            ))
        }
    };
    match (qos_type, items.len()) {
        (QosType::Continuous, 1) => Ok(QosSpec::continuous()),
        (QosType::Single, 2) => {
            let word = items[1]
                .as_keyword()
                .ok_or_else(|| "expected `short` or `long`".to_string())?;
            match word {
                "short" => Ok(QosSpec::single(ResponseExpectation::Short)),
                "long" => Ok(QosSpec::single(ResponseExpectation::Long)),
                other => Err(format!("expected `short` or `long`, found `{other}`")),
            }
        }
        (_, 3) => {
            // Explicit T_I, T_U values (in milliseconds). "Note that both
            // values must either appear or be omitted together" (Table 2).
            let ti = items[1]
                .as_number()
                .ok_or_else(|| "expected numeric T_I value".to_string())?;
            let tu = items[2]
                .as_number()
                .ok_or_else(|| "expected numeric T_U value".to_string())?;
            if ti <= 0.0 || tu <= 0.0 || ti > tu {
                return Err(format!(
                    "invalid QoS targets ({ti}, {tu}): need 0 < T_I <= T_U"
                ));
            }
            Ok(QosSpec::with_target(qos_type, QosTarget::new(ti, tu)))
        }
        (QosType::Single, 1) => {
            Err("`single` requires `short`/`long` or explicit targets".to_string())
        }
        _ => Err("malformed QoS declaration value".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_stylesheet;
    use greenweb_dom::parse_html;

    fn table(css: &str) -> AnnotationTable {
        AnnotationTable::from_stylesheet(&parse_stylesheet(css).unwrap()).unwrap()
    }

    #[test]
    fn extracts_fig4_annotation() {
        let t = table("div#ex:QoS { ontouchstart-qos: continuous; }");
        assert_eq!(t.len(), 1);
        let a = &t.annotations()[0];
        assert_eq!(a.event, EventType::TouchStart);
        assert_eq!(a.spec, QosSpec::continuous());
    }

    #[test]
    fn extracts_fig5_annotation_with_targets() {
        let t = table("#c:QoS { ontouchmove-qos: continuous, 20, 100; }");
        let spec = &t.annotations()[0].spec;
        assert_eq!(spec.qos_type, QosType::Continuous);
        assert_eq!(spec.target, QosTarget::new(20.0, 100.0));
    }

    #[test]
    fn extracts_single_short_and_long() {
        let t = table(
            "#a:QoS { onclick-qos: single, short; }
             #b:QoS { onload-qos: single, long; }",
        );
        assert_eq!(t.annotations()[0].spec.target, QosTarget::SINGLE_SHORT);
        assert_eq!(t.annotations()[1].spec.target, QosTarget::SINGLE_LONG);
    }

    #[test]
    fn non_qos_rules_ignored() {
        let t = table("div { width: 10px; } #a:QoS { onclick-qos: single, short; }");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn unknown_event_errors() {
        let sheet = parse_stylesheet("#a:QoS { onhover-qos: continuous; }").unwrap();
        let err = AnnotationTable::from_stylesheet(&sheet).unwrap_err();
        assert!(err.to_string().contains("hover"));
    }

    #[test]
    fn bad_values_error() {
        for css in [
            "#a:QoS { onclick-qos: sometimes; }",
            "#a:QoS { onclick-qos: single; }",
            "#a:QoS { onclick-qos: single, maybe; }",
            "#a:QoS { onclick-qos: continuous, 100, 20; }",
            "#a:QoS { onclick-qos: continuous, -5, 20; }",
        ] {
            let sheet = parse_stylesheet(css).unwrap();
            assert!(
                AnnotationTable::from_stylesheet(&sheet).is_err(),
                "should reject {css}"
            );
        }
    }

    #[test]
    fn lossy_keeps_good_annotations_and_reports_errors() {
        let sheet = parse_stylesheet(
            "#a:QoS { onclick-qos: single, short; }
             #b:QoS { onhover-qos: continuous; }
             #c:QoS { ontouchmove-qos: sideways; }",
        )
        .unwrap();
        assert!(AnnotationTable::from_stylesheet(&sheet).is_err());
        let (t, errors) = AnnotationTable::from_stylesheet_lossy(&sheet);
        assert_eq!(errors.len(), 2);
        // The good annotation survives.
        assert_eq!(t.annotations()[0].spec.target, QosTarget::SINGLE_SHORT);
        // The bad value on a known event falls back to its category
        // default (touchmove → continuous)...
        assert_eq!(t.len(), 2);
        assert_eq!(t.annotations()[1].event, EventType::TouchMove);
        assert_eq!(t.annotations()[1].spec, QosSpec::continuous());
        // ...and the unknown event is dropped with a typed error.
        assert!(matches!(&errors[0], LangError::UnknownEvent { .. }));
        assert!(matches!(
            &errors[1],
            LangError::BadValue {
                event: EventType::TouchMove,
                ..
            }
        ));
        assert_eq!(errors[1].event(), Some(EventType::TouchMove));
        assert_eq!(errors[0].event(), None);
    }

    #[test]
    fn lossy_on_clean_stylesheet_matches_strict() {
        let css = "div#ex:QoS { ontouchstart-qos: continuous; }
                   #b:QoS { onclick-qos: single, short; }";
        let sheet = parse_stylesheet(css).unwrap();
        let strict = AnnotationTable::from_stylesheet(&sheet).unwrap();
        let (lossy, errors) = AnnotationTable::from_stylesheet_lossy(&sheet);
        assert!(errors.is_empty());
        assert_eq!(strict, lossy);
    }

    #[test]
    fn lossy_fallback_still_resolves_by_selector() {
        // A truncated/garbled value must not cost the element its QoS
        // treatment: the fallback annotation matches the same selector.
        let doc = parse_html("<div id='c'></div>").unwrap();
        let c = doc.element_by_id("c").unwrap();
        let sheet = parse_stylesheet("#c:QoS { ontouchmove-qos: continuous, 20; }").unwrap();
        let (t, errors) = AnnotationTable::from_stylesheet_lossy(&sheet);
        assert_eq!(errors.len(), 1);
        let spec = t.lookup(&doc, c, EventType::TouchMove).unwrap();
        assert_eq!(*spec, QosSpec::continuous());
    }

    #[test]
    fn lookup_matches_by_selector() {
        let doc = parse_html("<div id='ex' class='c'></div><div id='other'></div>").unwrap();
        let ex = doc.element_by_id("ex").unwrap();
        let other = doc.element_by_id("other").unwrap();
        let t = table("div#ex:QoS { ontouchstart-qos: continuous; }");
        assert!(t.lookup(&doc, ex, EventType::TouchStart).is_some());
        assert!(t.lookup(&doc, other, EventType::TouchStart).is_none());
        assert!(t.lookup(&doc, ex, EventType::Click).is_none());
    }

    #[test]
    fn lookup_prefers_higher_specificity() {
        let doc = parse_html("<div id='ex' class='c'></div>").unwrap();
        let ex = doc.element_by_id("ex").unwrap();
        let t = table(
            "div:QoS { onclick-qos: single, long; }
             #ex:QoS { onclick-qos: single, short; }
             .c:QoS { onclick-qos: continuous; }",
        );
        let spec = t.lookup(&doc, ex, EventType::Click).unwrap();
        assert_eq!(spec.target, QosTarget::SINGLE_SHORT);
    }

    #[test]
    fn lookup_later_wins_at_equal_specificity() {
        let doc = parse_html("<div id='ex'></div>").unwrap();
        let ex = doc.element_by_id("ex").unwrap();
        let t = table(
            "#ex:QoS { onclick-qos: single, short; }
             #ex:QoS { onclick-qos: single, long; }",
        );
        assert_eq!(
            t.lookup(&doc, ex, EventType::Click).unwrap().target,
            QosTarget::SINGLE_LONG
        );
    }

    #[test]
    fn css_round_trip() {
        let css = "div#ex:QoS { ontouchstart-qos: continuous; }\n\
                   #b:QoS { onclick-qos: single, short; }\n\
                   #c:QoS { ontouchmove-qos: continuous, 20, 100; }";
        let t = table(css);
        let regenerated = table(&t.to_css());
        assert_eq!(t, regenerated);
    }

    #[test]
    fn multiple_declarations_in_one_rule() {
        let t = table("#x:QoS { onclick-qos: single, short; ontouchmove-qos: continuous; }");
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn event_types_index_spec_rows_in_declaration_order() {
        for (i, event) in EventType::ALL.into_iter().enumerate() {
            assert_eq!(event as usize, i);
        }
    }

    #[test]
    fn qos_targets_share_equal_rows() {
        let doc = parse_html("<main><p id='a'></p><p id='b'></p><p id='c' class='k'></p></main>")
            .unwrap();
        let t = QosTargets::new(
            &doc,
            &table("p:QoS { onclick-qos: continuous; } .k:QoS { onclick-qos: single, long; }"),
        );
        // The document element's row, one for `a` and `b`, one for `c`.
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.ids.len(), 3);
        assert_eq!(
            t.lookup(Some("b"), EventType::Click),
            Some(&QosSpec::continuous())
        );
        assert_eq!(
            t.lookup(Some("c"), EventType::Click),
            Some(&QosSpec::single(ResponseExpectation::Long))
        );
        assert_eq!(t.lookup(None, EventType::Click), None);
        assert_eq!(t.lookup(Some("z"), EventType::Click), None);
    }

    #[test]
    fn annotation_without_qos_pseudo_not_extracted() {
        // A rule must carry :QoS on its selector to be an annotation.
        let sheet = parse_stylesheet(
            "#a { onclick-qos: single, short; } #b:QoS { onclick-qos: single, short; }",
        )
        .unwrap();
        let t = AnnotationTable::from_stylesheet(&sheet).unwrap();
        assert_eq!(t.len(), 1);
    }
}
