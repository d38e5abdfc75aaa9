//! The style resolver against its naive reference while the document
//! changes between resolves.
//!
//! Compiled selectors read the style atoms each element caches, so an
//! element whose `id` or `class` write left its atoms stale would match
//! wrongly on the production path while the naive `Selector::matches`
//! walk, which reads the attributes, stayed right. These properties
//! write attributes and move subtrees between resolves and compare the
//! two resolvers on every element after each round. The differential on
//! fresh documents runs in `tests/properties.rs`; its extended variant
//! runs here.
//!
//! The same generators drive the GreenWeb annotation differential.
//! `QosTargets::new` resolves every annotation once per `id` and for the
//! document element, and judging looks inputs up by `id`. On random
//! documents (ids that repeat, ids no element carries) and sheets mixing
//! style rules with annotations (malformed values, unknown events,
//! `:QoS` on any selector shape), each table lookup must equal
//! `AnnotationTable::lookup` on the element `Document::element_by_id`
//! finds, or on the document element when it finds none.

mod style_gen;

use greenweb_css::lang::{AnnotationTable, QosTargets};
use greenweb_css::{parse_stylesheet, StyleEngine};
use greenweb_det::prop::{check, Gen, DEFAULT_CASES};
use greenweb_dom::{parse_html, Document, ElementData, EventType, NodeId};
use style_gen::{
    assert_resolver_matches_naive, gen_class_list, gen_style_document, gen_stylesheet_source,
    resolver_matches_naive, DATA_VALUES, STYLE_CLASSES, STYLE_PROPS, STYLE_TAGS,
};

/// Every element of `doc`, attached or not.
fn elements(doc: &Document) -> Vec<NodeId> {
    (0..doc.len())
        .filter_map(|i| doc.node_at(i))
        .filter(|&n| doc.element(n).is_some())
        .collect()
}

/// One random write to `doc`, described for a failure message.
fn mutate(g: &mut Gen, doc: &mut Document) -> String {
    let nodes = elements(doc);
    let node = *g.choose(&nodes);
    fn el(doc: &mut Document, node: NodeId) -> &mut ElementData {
        doc.element_mut(node).expect("element")
    }
    match g.usize_in(0, 8) {
        0 => {
            let classes = gen_class_list(g);
            let name = if g.bool_with(0.3) { "CLASS" } else { "class" };
            el(doc, node).set_attribute(name, &*classes);
            format!("{node:?}.class = {classes:?}")
        }
        1 => {
            let id = format!("e{}", g.usize_in(0, 10));
            let name = if g.bool_with(0.3) { "ID" } else { "id" };
            el(doc, node).set_attribute(name, &*id);
            format!("{node:?}.id = {id:?}")
        }
        2 => {
            let name = *g.choose(&["class", "id", "data-x", "style"]);
            el(doc, node).remove_attribute(name);
            format!("{node:?} drops {name}")
        }
        3 => {
            let value = *g.choose(&DATA_VALUES);
            el(doc, node).set_attribute("data-x", value);
            format!("{node:?}.data-x = {value:?}")
        }
        4 => {
            let style = format!(
                "{}: {}px{}",
                *g.choose(&STYLE_PROPS),
                g.usize_in(0, 80),
                if g.bool_with(0.2) { " !important" } else { "" }
            );
            el(doc, node).set_attribute("style", &*style);
            format!("{node:?}.style = {style:?}")
        }
        5 => {
            let child = doc.create_element(*g.choose(&STYLE_TAGS));
            if g.bool_with(0.5) {
                let class = *g.choose(&STYLE_CLASSES);
                el(doc, child).set_attribute("class", class);
            }
            doc.append_child(node, child);
            format!("new {child:?} under {node:?}")
        }
        6 => {
            doc.detach(node);
            format!("{node:?} detached")
        }
        _ => {
            // A detached subtree moves under an element outside it.
            let detached: Vec<NodeId> = nodes
                .iter()
                .copied()
                .filter(|&n| doc.parent(n).is_none())
                .collect();
            if detached.is_empty() {
                return "nothing to reattach".to_string();
            }
            let moved = *g.choose(&detached);
            if doc.is_ancestor_or_self(moved, node) {
                return format!("{moved:?} cannot move under {node:?}");
            }
            doc.append_child(node, moved);
            format!("{moved:?} reattached under {node:?}")
        }
    }
}

/// One case: a random document and stylesheet, then rounds of random
/// writes, each followed by a full comparison.
fn resolver_matches_naive_across_mutations(g: &mut Gen) {
    let html = gen_style_document(g);
    let css = gen_stylesheet_source(g);
    let mut doc = parse_html(&html).unwrap_or_else(|e| panic!("html {html:?}: {e}"));
    let engine =
        StyleEngine::new(parse_stylesheet(&css).unwrap_or_else(|e| panic!("css {css:?}: {e}")));
    let mut log = Vec::new();
    for _ in 0..g.usize_in(1, 6) {
        for _ in 0..g.usize_in(1, 4) {
            log.push(mutate(g, &mut doc));
        }
        assert_resolver_matches_naive(
            &engine,
            &doc,
            &format!("css: {css}\nhtml: {html}\nwrites: {log:#?}"),
        );
    }
}

#[test]
fn style_resolver_matches_naive_across_mutations() {
    check(
        "style_resolver_matches_naive_across_mutations",
        DEFAULT_CASES,
        resolver_matches_naive_across_mutations,
    );
}

/// Both differentials at 50 times the cases, for the extended fuzz run
/// (`cargo test --release -p greenweb-css -- --ignored`).
#[test]
#[ignore = "extended fuzz; run with --ignored"]
fn style_resolver_matches_naive_extended() {
    check(
        "style_resolver_matches_naive_extended",
        50 * DEFAULT_CASES,
        resolver_matches_naive,
    );
    check(
        "style_resolver_matches_naive_across_mutations_extended",
        50 * DEFAULT_CASES,
        resolver_matches_naive_across_mutations,
    );
}

/// One case of the annotation differential: every id of a random
/// document, two it lacks, and the document element, under every event.
fn qos_targets_match_lookup(g: &mut Gen) {
    let html = gen_style_document(g);
    let css = gen_stylesheet_source(g);
    let doc = parse_html(&html).unwrap_or_else(|e| panic!("html {html:?}: {e}"));
    let sheet = parse_stylesheet(&css).unwrap_or_else(|e| panic!("css {css:?}: {e}"));
    let (table, _errors) = AnnotationTable::from_stylesheet_lossy(&sheet);
    let targets = QosTargets::new(&doc, &table);
    let document_element = doc
        .children(doc.root())
        .find(|&c| doc.element(c).is_some())
        .unwrap_or_else(|| doc.root());
    let mut ids: Vec<&str> = doc
        .elements()
        .filter_map(|node| doc.element(node)?.id())
        .collect();
    ids.extend(["e99", "missing"]);
    for event in EventType::ALL {
        assert_eq!(
            targets.lookup(None, event),
            table.lookup(&doc, document_element, event),
            "root {event}\ncss: {css}\nhtml: {html}"
        );
        for &id in &ids {
            let node = doc.element_by_id(id).unwrap_or(document_element);
            assert_eq!(
                targets.lookup(Some(id), event),
                table.lookup(&doc, node, event),
                "#{id} {event}\ncss: {css}\nhtml: {html}"
            );
        }
    }
}

#[test]
fn qos_targets_match_per_node_lookup() {
    check(
        "qos_targets_match_per_node_lookup",
        DEFAULT_CASES,
        qos_targets_match_lookup,
    );
}

/// The differential at 50 times the cases, for the extended fuzz run
/// (`cargo test --release -p greenweb-css -- --ignored`).
#[test]
#[ignore = "extended fuzz; run with --ignored"]
fn qos_targets_match_per_node_lookup_extended() {
    check(
        "qos_targets_match_per_node_lookup_extended",
        50 * DEFAULT_CASES,
        qos_targets_match_lookup,
    );
}
