//! Random documents and stylesheets for the style system's differential
//! properties, and the comparison they share: the production resolver
//! (bucketed, Bloom-filtered, compiled selectors, first-wins layering)
//! against the naive reference (`Selector::matches` over every rule,
//! forward layering).
//!
//! The same documents and declarations feed the GreenWeb annotation
//! differential (`qos_differential.rs`): ids that repeat, and
//! `on<event>-qos` declarations that are well-formed, malformed, or name
//! an unknown event.
//!
//! Shared by the `greenweb-css` integration tests and the workspace's
//! `tests/properties.rs` (through `#[path]`); each uses a subset.

use greenweb_css::{parse_stylesheet, StyleEngine};
use greenweb_det::prop::Gen;
use greenweb_dom::{parse_html, Document};
use std::fmt::Write as _;

pub const STYLE_TAGS: [&str; 5] = ["div", "p", "span", "ul", "li"];
pub const STYLE_CLASSES: [&str; 6] = ["a", "b", "hot", "cold", "nav", "card"];
pub const STYLE_PROPS: [&str; 4] = ["width", "height", "margin", "color"];
/// Values of the `data-x` attribute that `[data-x=…]` selectors test.
pub const DATA_VALUES: [&str; 2] = ["v", "w"];
/// The events `on<event>-qos` declarations name: every DOM event type,
/// and `hover`, which is none.
const QOS_EVENTS: [&str; 9] = [
    "click",
    "scroll",
    "touchstart",
    "touchend",
    "touchmove",
    "load",
    "transitionend",
    "animationend",
    "hover",
];
/// `:QoS` values of Table 2's grammar, then malformed ones.
const QOS_VALUES: [&str; 10] = [
    "continuous",
    "single, short",
    "single, long",
    "continuous, 20, 100",
    "single, 50, 200",
    "sometimes",
    "single",
    "single, maybe",
    "continuous, 100, 20",
    "continuous, 20",
];

/// An attribute name as markup may spell it: usually lowercase,
/// sometimes upper-case (the DOM stores names lowercase either way).
fn attr_name(g: &mut Gen, name: &str) -> String {
    if g.bool_with(0.2) {
        name.to_ascii_uppercase()
    } else {
        name.to_string()
    }
}

/// A class list of one to three names; a name may repeat.
pub fn gen_class_list(g: &mut Gen) -> String {
    let mut classes = vec![*g.choose(&STYLE_CLASSES)];
    for _ in 0..g.usize_in(0, 3) {
        let class = if g.bool_with(0.2) {
            classes[0]
        } else {
            *g.choose(&STYLE_CLASSES)
        };
        classes.push(class);
    }
    classes.join(" ")
}

fn gen_style_element(g: &mut Gen, depth: u32, next_id: &mut usize, out: &mut String) {
    let tag = *g.choose(&STYLE_TAGS);
    let _ = write!(out, "<{tag}");
    if g.bool_with(0.3) {
        // Now and then an id repeats an earlier element's.
        let id = if *next_id > 0 && g.bool_with(0.15) {
            g.usize_in(0, *next_id)
        } else {
            *next_id += 1;
            *next_id - 1
        };
        let _ = write!(out, " {}='e{id}'", attr_name(g, "id"));
    }
    if g.bool_with(0.5) {
        let _ = write!(out, " {}='{}'", attr_name(g, "class"), gen_class_list(g));
    }
    if g.bool_with(0.2) {
        let _ = write!(out, " data-x='{}'", *g.choose(&DATA_VALUES));
    }
    if g.bool_with(0.25) {
        let _ = write!(
            out,
            " style='{}: {}px{}'",
            *g.choose(&STYLE_PROPS),
            g.usize_in(0, 500),
            if g.bool_with(0.2) { " !important" } else { "" }
        );
    }
    out.push('>');
    if depth > 0 {
        for _ in 0..g.usize_in(0, 4) {
            gen_style_element(g, depth - 1, next_id, out);
        }
    } else {
        out.push('x');
    }
    let _ = write!(out, "</{tag}>");
}

pub fn gen_style_document(g: &mut Gen) -> String {
    let mut html = String::new();
    let mut next_id = 0;
    for _ in 0..g.usize_in(1, 4) {
        gen_style_element(g, 3, &mut next_id, &mut html);
    }
    html
}

/// One compound: every simple-selector kind, alone and combined.
fn gen_compound(g: &mut Gen) -> String {
    let id = |g: &mut Gen| format!("#e{}", g.usize_in(0, 10));
    let class = |g: &mut Gen| format!(".{}", *g.choose(&STYLE_CLASSES));
    let tag = |g: &mut Gen| (*g.choose(&STYLE_TAGS)).to_string();
    match g.usize_in(0, 12) {
        0 => id(g),
        1 => class(g),
        2 => tag(g),
        3 => format!("{}{}", tag(g), class(g)),
        4 => "[style]".to_string(),
        5 => "*".to_string(),
        6 => format!("{}{}", class(g), class(g)),
        7 => format!("{}{}", id(g), class(g)),
        8 => format!("{}{}", tag(g), id(g)),
        9 => match g.usize_in(0, 3) {
            0 => "[data-x]".to_string(),
            1 => format!("[data-x={}]", *g.choose(&DATA_VALUES)),
            _ => format!("{}[data-x=\"{}\"]", tag(g), *g.choose(&DATA_VALUES)),
        },
        10 => match g.usize_in(0, 3) {
            0 => ":QoS".to_string(),
            1 => format!("{}:QoS", class(g)),
            _ => format!("{}:hover", tag(g)),
        },
        _ => format!("*{}", class(g)),
    }
}

pub fn gen_style_selector(g: &mut Gen) -> String {
    let combinator = |g: &mut Gen| if g.bool_with(0.5) { " " } else { " > " };
    match g.usize_in(0, 5) {
        0 => gen_compound(g),
        1 => format!("{} {}", gen_compound(g), gen_compound(g)),
        2 => format!("{} > {}", gen_compound(g), gen_compound(g)),
        3 => format!(
            "{}{}{}{}{}",
            gen_compound(g),
            combinator(g),
            gen_compound(g),
            combinator(g),
            gen_compound(g)
        ),
        _ => format!("{}, {}", gen_compound(g), gen_compound(g)),
    }
}

/// One declaration: usually a length property, sometimes a GreenWeb
/// `on<event>-qos` annotation (well-formed or not, on a known event or
/// not), which the cascade treats as any other property.
fn gen_declaration(g: &mut Gen, css: &mut String) {
    if g.bool_with(0.35) {
        let _ = write!(
            css,
            "on{}-qos: {}; ",
            *g.choose(&QOS_EVENTS),
            *g.choose(&QOS_VALUES)
        );
    } else {
        let _ = write!(
            css,
            "{}: {}px{}; ",
            *g.choose(&STYLE_PROPS),
            g.usize_in(0, 500),
            if g.bool_with(0.2) { " !important" } else { "" }
        );
    }
}

/// Up to twelve rules. Two in five put `:QoS` on the subject of their
/// last selector, making them GreenWeb annotations.
pub fn gen_stylesheet_source(g: &mut Gen) -> String {
    let mut css = String::new();
    for _ in 0..g.usize_in(0, 13) {
        css.push_str(&gen_style_selector(g));
        if g.bool_with(0.4) {
            css.push_str(":QoS");
        }
        css.push_str(" { ");
        for _ in 0..g.usize_in(1, 4) {
            gen_declaration(g, &mut css);
        }
        css.push_str("} ");
    }
    css
}

/// Asserts that `engine` resolves `doc` as its naive reference does:
/// the whole tree, and both views (with and without inline style) of
/// every element, detached ones included. `context` names the inputs in
/// a failure message.
pub fn assert_resolver_matches_naive(engine: &StyleEngine, doc: &Document, context: &str) {
    assert_eq!(
        engine.compute_all(doc),
        engine.compute_all_naive(doc),
        "tree resolve diverged\n{context}"
    );
    for node in (0..doc.len()).filter_map(|i| doc.node_at(i)) {
        if doc.element(node).is_none() {
            continue;
        }
        let (with_inline, without_inline) = engine.compute_style_both(doc, node, None);
        assert_eq!(
            with_inline,
            engine.compute_style_naive(doc, node, None),
            "with-inline view diverged at {node:?}\n{context}"
        );
        assert_eq!(
            without_inline,
            engine.compute_style_without_inline_naive(doc, node, None),
            "without-inline view diverged at {node:?}\n{context}"
        );
    }
}

/// One case of the differential property: a random document and a
/// random stylesheet, resolved both ways.
pub fn resolver_matches_naive(g: &mut Gen) {
    let html = gen_style_document(g);
    let css = gen_stylesheet_source(g);
    let doc = parse_html(&html).unwrap_or_else(|e| panic!("html {html:?}: {e}"));
    let engine =
        StyleEngine::new(parse_stylesheet(&css).unwrap_or_else(|e| panic!("css {css:?}: {e}")));
    assert_resolver_matches_naive(&engine, &doc, &format!("css: {css}\nhtml: {html}"));
}
