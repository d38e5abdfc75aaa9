//! The HTML parser is total: it returns a document or an error on any
//! input, and never panics. It slices the source by byte offset at every
//! name, attribute value, text run, comment and raw-text body, so each
//! of those positions gets arbitrary text, multi-byte characters
//! included.

use greenweb_det::prop::{check, Gen, DEFAULT_CASES};
use greenweb_dom::parse_html;

/// Markup fragments that drive the parser through every state: tag and
/// comment delimiters, raw-text elements in any case, quotes, and
/// multi-byte characters.
const FRAGMENTS: [&str; 24] = [
    "<", ">", "</", "/>", "<!--", "-->", "<!", "=", "'", "\"", " ", "div", "p", "SCRIPT", "style",
    "br", "id", "class", "x", "\u{2028}", "\u{a0}", "é", "🦀", "\0",
];

fn fragments(g: &mut Gen, max_len: usize) -> String {
    let len = g.usize_in(0, max_len + 1);
    (0..len).map(|_| *g.choose(&FRAGMENTS)).collect()
}

/// `text` on its own and inside each construct the parser slices.
fn parses_anywhere(text: &str) {
    let _ = parse_html(text);
    let _ = parse_html(&format!("<p title=\"{text}\">x</p>"));
    let _ = parse_html(&format!("<p title='{text}' id=a>x</p>"));
    let _ = parse_html(&format!("<div>{text}</div>"));
    let _ = parse_html(&format!("<!--{text}--><p></p>"));
    let _ = parse_html(&format!("<script>{text}</script><p></p>"));
    let _ = parse_html(&format!("<style>{text}</STYLE>"));
}

fn parser_never_panics(cases: u32) {
    check("html_parser_never_panics", cases, |g| {
        parses_anywhere(&g.arbitrary_string(200));
        parses_anywhere(&fragments(g, 60));
    });
}

#[test]
fn html_parser_never_panics() {
    parser_never_panics(DEFAULT_CASES);
}

/// The same property at 50 times the cases, for the extended fuzz run
/// (`cargo test --release -p greenweb-dom -- --ignored`).
#[test]
#[ignore = "extended fuzz; run with --ignored"]
fn html_parser_never_panics_extended() {
    parser_never_panics(50 * DEFAULT_CASES);
}
