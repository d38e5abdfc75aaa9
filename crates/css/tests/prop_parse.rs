//! Property tests for the CSS engine: total functions never panic on
//! arbitrary input, structured inputs round-trip, and selector
//! specificity behaves like a monotone measure.

use greenweb_css::{parse_stylesheet, tokenize, Selector};
use greenweb_det::prop::{check, Gen, DEFAULT_CASES};

const LOWER: [char; 26] = [
    'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'j', 'k', 'l', 'm', 'n', 'o', 'p', 'q', 'r', 's',
    't', 'u', 'v', 'w', 'x', 'y', 'z',
];

fn ident(g: &mut Gen, min: usize, max: usize) -> String {
    let len = g.usize_in(min, max + 1);
    (0..len.max(min)).map(|_| *g.choose(&LOWER)).collect()
}

/// The tokenizer is total: any string either tokenizes or returns an
/// error — it never panics.
#[test]
fn tokenizer_never_panics() {
    check("tokenizer_never_panics", DEFAULT_CASES, |g| {
        let input = g.arbitrary_string(200);
        let _ = tokenize(&input);
    });
}

/// The stylesheet parser is total over arbitrary input.
#[test]
fn stylesheet_parser_never_panics() {
    check("stylesheet_parser_never_panics", DEFAULT_CASES, |g| {
        let input = g.arbitrary_string(200);
        let _ = parse_stylesheet(&input);
    });
}

/// Selector parsing is total over arbitrary input.
#[test]
fn selector_parser_never_panics() {
    check("selector_parser_never_panics", DEFAULT_CASES, |g| {
        let input = g.arbitrary_string(80);
        let _ = Selector::parse(&input);
    });
}

/// Well-formed selectors round-trip through Display.
#[test]
fn selector_display_round_trip() {
    check("selector_display_round_trip", DEFAULT_CASES, |g| {
        let tag = ident(g, 1, 6);
        let with_qos = g.bool_with(0.5);
        let mut src = tag;
        if g.bool_with(0.5) {
            src.push('#');
            src.push_str(&ident(g, 1, 7));
        }
        if g.bool_with(0.5) {
            src.push('.');
            src.push_str(&ident(g, 1, 6));
        }
        if with_qos {
            src.push_str(":QoS");
        }
        let parsed = Selector::parse(&src).unwrap();
        let reparsed = Selector::parse(&parsed.to_string()).unwrap();
        assert_eq!(&parsed, &reparsed);
        assert_eq!(parsed.has_qos_pseudo(), with_qos);
    });
}

/// Adding a simple selector never decreases specificity, and an id
/// outweighs any number of classes the generator can produce.
#[test]
fn specificity_is_monotone() {
    check("specificity_is_monotone", DEFAULT_CASES, |g| {
        let tag = ident(g, 1, 6);
        let classes = g.vec_of(6, |g| ident(g, 1, 6));
        let base = Selector::parse(&tag).unwrap().specificity();
        let mut with_classes = tag.clone();
        for c in &classes {
            with_classes.push('.');
            with_classes.push_str(c);
        }
        let classed = Selector::parse(&with_classes).unwrap().specificity();
        assert!(classed >= base);
        let with_id = format!("{with_classes}#x");
        let idd = Selector::parse(&with_id).unwrap().specificity();
        assert!(idd > classed);
    });
}

/// A stylesheet assembled from well-formed rules parses, and every
/// rule survives with its declarations intact.
#[test]
fn structured_stylesheets_parse_fully() {
    check("structured_stylesheets_parse_fully", DEFAULT_CASES, |g| {
        let count = g.usize_in(1, 10);
        let rules: Vec<(String, String, u32)> = (0..count)
            .map(|_| {
                let sel = ident(g, 1, 5);
                let mut prop = ident(g, 1, 1);
                for _ in 0..g.usize_in(0, 9) {
                    prop.push(*g.choose(&['a', 'b', 'c', '-']));
                }
                (sel, prop, g.usize_in(0, 10_000) as u32)
            })
            .collect();
        let css: String = rules
            .iter()
            .map(|(sel, prop, v)| format!("{sel} {{ {prop}: {v}px; }}\n"))
            .collect();
        let sheet = parse_stylesheet(&css).unwrap();
        assert_eq!(sheet.rules().len(), rules.len());
        for (rule, (_, prop, _)) in sheet.rules().iter().zip(&rules) {
            assert_eq!(rule.declarations().len(), 1);
            assert_eq!(rule.declarations()[0].property.as_str(), *prop);
        }
    });
}

/// Keyframe sampling is bounded by the endpoint values for monotone
/// two-frame animations.
#[test]
fn keyframe_sampling_is_bounded() {
    check("keyframe_sampling_is_bounded", DEFAULT_CASES, |g| {
        let from = g.f64_in(0.0, 500.0);
        let to = g.f64_in(0.0, 500.0);
        let t = g.f64_in(0.0, 1.0);
        let css = format!("@keyframes k {{ from {{ width: {from}px; }} to {{ width: {to}px; }} }}");
        let sheet = parse_stylesheet(&css).unwrap();
        let kf = sheet.keyframes_by_name("k").unwrap();
        let sampled = kf.sample("width", t).and_then(|v| v.as_number()).unwrap();
        let (lo, hi) = if from <= to { (from, to) } else { (to, from) };
        assert!(sampled >= lo - 1e-9 && sampled <= hi + 1e-9);
    });
}
