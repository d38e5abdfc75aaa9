//! A small HTML parser.
//!
//! Supports the subset of HTML used by the GreenWeb workloads: nested
//! elements, single/double/unquoted attributes, valueless attributes,
//! void elements (`<br>`, `<img>`, …), self-closing syntax, comments,
//! doctype declarations, and raw-text elements (`<script>`, `<style>`),
//! whose contents are kept verbatim as a single text node.
//!
//! Recovery follows the pragmatic browser tradition: a stray end tag is
//! ignored; an unterminated element is closed at end of input.

use crate::document::{Document, NodeId};
use crate::node::{Attribute, ElementData, NodeKind};
use std::fmt;

/// Error produced by [`parse_html`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HtmlError {
    message: String,
    /// Byte offset in the input where the error was detected.
    pub offset: usize,
}

impl HtmlError {
    fn new(message: impl Into<String>, offset: usize) -> Self {
        HtmlError {
            message: message.into(),
            offset,
        }
    }
}

impl fmt::Display for HtmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "html parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for HtmlError {}

/// Elements that never have children and need no closing tag.
const VOID_ELEMENTS: &[&str] = &[
    "area", "base", "br", "col", "embed", "hr", "img", "input", "link", "meta", "param", "source",
    "track", "wbr",
];

/// Elements whose content is raw text up to the matching end tag.
const RAW_TEXT_ELEMENTS: &[&str] = &["script", "style"];

/// Source bytes per node the arena is reserved for up front. Markup
/// averages 16–28 bytes per node in the bundled apps and about 21 in the
/// benchmark's generated ones, so those parse without growing the arena
/// and hold at most 1.75 times the slots they fill; long text runs
/// reserve more.
const BYTES_PER_NODE: usize = 16;

/// Parses `input` into a [`Document`].
///
/// # Errors
///
/// Returns [`HtmlError`] on malformed markup that cannot be recovered
/// from, such as an unterminated tag or attribute string.
///
/// ```
/// let doc = greenweb_dom::parse_html("<ul><li>a</li><li>b</li></ul>").unwrap();
/// assert_eq!(doc.elements_by_tag("li").len(), 2);
/// ```
pub fn parse_html(input: &str) -> Result<Document, HtmlError> {
    Parser::new(input).parse()
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    doc: Document,
    stack: Vec<NodeId>,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        let mut doc = Document::new();
        doc.reserve_nodes(input.len() / BYTES_PER_NODE);
        let root = doc.root();
        Parser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            doc,
            stack: vec![root],
        }
    }

    fn parse(mut self) -> Result<Document, HtmlError> {
        while self.pos < self.bytes.len() {
            if self.peek() == Some(b'<') {
                self.parse_tag()?;
            } else {
                self.parse_text();
            }
        }
        Ok(self.doc)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek_at(&self, offset: usize) -> Option<u8> {
        self.bytes.get(self.pos + offset).copied()
    }

    fn current_parent(&self) -> NodeId {
        *self.stack.last().expect("stack never empties below root")
    }

    fn parse_text(&mut self) {
        let start = self.pos;
        while self.pos < self.bytes.len() && self.bytes[self.pos] != b'<' {
            self.pos += 1;
        }
        let text = &self.input[start..self.pos];
        if !text.trim().is_empty() {
            let node = self.doc.create_text(text);
            let parent = self.current_parent();
            self.doc.append_child(parent, node);
        }
    }

    fn parse_tag(&mut self) -> Result<(), HtmlError> {
        debug_assert_eq!(self.peek(), Some(b'<'));
        if self.input[self.pos..].starts_with("<!--") {
            return self.parse_comment();
        }
        if self.input[self.pos..].starts_with("<!") {
            return self.skip_doctype();
        }
        if self.peek_at(1) == Some(b'/') {
            return self.parse_end_tag();
        }
        self.parse_start_tag()
    }

    fn parse_comment(&mut self) -> Result<(), HtmlError> {
        let start = self.pos;
        self.pos += 4; // <!--
        match self.input[self.pos..].find("-->") {
            Some(end) => {
                let text = &self.input[self.pos..self.pos + end];
                let node = self.doc.create_node(NodeKind::Comment(text.to_string()));
                let parent = self.current_parent();
                self.doc.append_child(parent, node);
                self.pos += end + 3;
                Ok(())
            }
            None => Err(HtmlError::new("unterminated comment", start)),
        }
    }

    fn skip_doctype(&mut self) -> Result<(), HtmlError> {
        let start = self.pos;
        match self.input[self.pos..].find('>') {
            Some(end) => {
                self.pos += end + 1;
                Ok(())
            }
            None => Err(HtmlError::new("unterminated doctype", start)),
        }
    }

    fn parse_end_tag(&mut self) -> Result<(), HtmlError> {
        let start = self.pos;
        self.pos += 2; // </
        let name = self.read_name();
        if name.is_empty() {
            return Err(HtmlError::new("missing end tag name", start));
        }
        self.skip_whitespace();
        if self.peek() != Some(b'>') {
            return Err(HtmlError::new("unterminated end tag", start));
        }
        self.pos += 1;
        // Pop to the matching open element; ignore a stray end tag.
        if let Some(idx) = self.stack.iter().rposition(|&id| {
            self.doc
                .tag_name(id)
                .is_some_and(|tag| tag.eq_ignore_ascii_case(name))
        }) {
            self.stack.truncate(idx);
        }
        Ok(())
    }

    fn parse_start_tag(&mut self) -> Result<(), HtmlError> {
        let start = self.pos;
        self.pos += 1; // <
        let name = self.read_name();
        if name.is_empty() {
            // Treat a lone `<` as text, like browsers do.
            let node = self.doc.create_text("<");
            let parent = self.current_parent();
            self.doc.append_child(parent, node);
            return Ok(());
        }
        // The element enters the tree once its attributes are read.
        let mut data = ElementData::parsed(name);
        let mut stale_atoms = false;
        let self_closing = loop {
            self.skip_whitespace();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    break false;
                }
                Some(b'/') if self.peek_at(1) == Some(b'>') => {
                    self.pos += 2;
                    break true;
                }
                Some(_) => stale_atoms |= data.store_attribute(self.parse_attribute()?),
                None => return Err(HtmlError::new("unterminated start tag", start)),
            }
        };
        if stale_atoms {
            data.refresh_atoms();
        }
        let element = self.doc.create_node(NodeKind::Element(data));
        let parent = self.current_parent();
        self.doc.append_child(parent, element);
        if self_closing
            || VOID_ELEMENTS
                .iter()
                .any(|tag| tag.eq_ignore_ascii_case(name))
        {
            return Ok(());
        }
        if let Some(tag) = RAW_TEXT_ELEMENTS
            .iter()
            .find(|tag| tag.eq_ignore_ascii_case(name))
        {
            return self.parse_raw_text(element, tag);
        }
        self.stack.push(element);
        Ok(())
    }

    /// Reads the raw text of `element`, whose lowercase tag is `tag`, up
    /// to its end tag.
    fn parse_raw_text(&mut self, element: NodeId, tag: &str) -> Result<(), HtmlError> {
        let rest = &self.input[self.pos..];
        // The first `<` that opens `</tag`, ASCII-case-insensitively.
        let end = rest.match_indices("</").map(|(i, _)| i).find(|&i| {
            rest.as_bytes()[i + 2..]
                .get(..tag.len())
                .is_some_and(|name| name.eq_ignore_ascii_case(tag.as_bytes()))
        });
        let Some(end) = end else {
            return Err(HtmlError::new(
                format!("unterminated <{tag}> element"),
                self.pos,
            ));
        };
        let text = &rest[..end];
        if !text.is_empty() {
            let node = self.doc.create_text(text);
            self.doc.append_child(element, node);
        }
        self.pos += end + 2 + tag.len();
        // Skip to the closing `>`.
        match self.input[self.pos..].find('>') {
            Some(gt) => {
                self.pos += gt + 1;
                Ok(())
            }
            None => Err(HtmlError::new(
                format!("unterminated </{tag}> tag"),
                self.pos,
            )),
        }
    }

    fn parse_attribute(&mut self) -> Result<Attribute, HtmlError> {
        let start = self.pos;
        let name = self.read_attr_name();
        if name.is_empty() {
            return Err(HtmlError::new("expected attribute name", start));
        }
        self.skip_whitespace();
        let value = if self.peek() == Some(b'=') {
            self.pos += 1;
            self.skip_whitespace();
            self.read_attr_value()?
        } else {
            ""
        };
        Ok(Attribute::new(name, value))
    }

    fn read_attr_value(&mut self) -> Result<&'a str, HtmlError> {
        match self.peek() {
            Some(quote @ (b'"' | b'\'')) => {
                let start = self.pos;
                self.pos += 1;
                let value_start = self.pos;
                while self.pos < self.bytes.len() && self.bytes[self.pos] != quote {
                    self.pos += 1;
                }
                if self.pos >= self.bytes.len() {
                    return Err(HtmlError::new("unterminated attribute value", start));
                }
                let value = &self.input[value_start..self.pos];
                self.pos += 1;
                Ok(value)
            }
            _ => {
                let start = self.pos;
                while let Some(b) = self.peek() {
                    if b.is_ascii_whitespace() || b == b'>' || b == b'/' {
                        break;
                    }
                    self.pos += 1;
                }
                Ok(&self.input[start..self.pos])
            }
        }
    }

    fn read_name(&mut self) -> &'a str {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'-' || b == b'_' {
                self.pos += 1;
            } else {
                break;
            }
        }
        &self.input[start..self.pos]
    }

    fn read_attr_name(&mut self) -> &'a str {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b':') {
                self.pos += 1;
            } else {
                break;
            }
        }
        &self.input[start..self.pos]
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b) if b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_elements() {
        let doc = parse_html("<div><p>hello</p></div>").unwrap();
        let div = doc.elements_by_tag("div")[0];
        let p = doc.elements_by_tag("p")[0];
        assert_eq!(doc.parent(p), Some(div));
        assert_eq!(doc.text_content(p), "hello");
    }

    #[test]
    fn parses_attributes_all_quote_styles() {
        let doc = parse_html(r#"<input type="text" name='q' value=search disabled>"#).unwrap();
        let input = doc.elements_by_tag("input")[0];
        let el = doc.element(input).unwrap();
        assert_eq!(el.attribute("type"), Some("text"));
        assert_eq!(el.attribute("name"), Some("q"));
        assert_eq!(el.attribute("value"), Some("search"));
        assert_eq!(el.attribute("disabled"), Some(""));
    }

    #[test]
    fn void_elements_take_no_children() {
        let doc = parse_html("<div><br><p>x</p></div>").unwrap();
        let br = doc.elements_by_tag("br")[0];
        let p = doc.elements_by_tag("p")[0];
        assert_eq!(doc.children(br).count(), 0);
        assert_eq!(doc.parent(p), doc.parent(br));
    }

    #[test]
    fn self_closing_syntax() {
        let doc = parse_html("<div><span/><p>x</p></div>").unwrap();
        let span = doc.elements_by_tag("span")[0];
        assert_eq!(doc.children(span).count(), 0);
        let div = doc.elements_by_tag("div")[0];
        assert_eq!(doc.parent(doc.elements_by_tag("p")[0]), Some(div));
    }

    #[test]
    fn comments_preserved() {
        let doc = parse_html("<div><!-- note --></div>").unwrap();
        let div = doc.elements_by_tag("div")[0];
        let child = doc.first_child(div).unwrap();
        assert_eq!(doc.kind(child), &NodeKind::Comment(" note ".into()));
    }

    #[test]
    fn doctype_skipped() {
        let doc = parse_html("<!DOCTYPE html><p>x</p>").unwrap();
        assert_eq!(doc.elements_by_tag("p").len(), 1);
    }

    #[test]
    fn script_content_is_raw_text() {
        let doc = parse_html("<script>if (a < b) { f(); }</script>").unwrap();
        let script = doc.elements_by_tag("script")[0];
        assert_eq!(doc.text_content(script), "if (a < b) { f(); }");
    }

    /// The raw text of the only `<script>` in `html`, checking it is one
    /// text node.
    fn script_text(html: &str) -> String {
        let doc = parse_html(html).unwrap();
        let script = doc.elements_by_tag("script")[0];
        assert_eq!(doc.children(script).count(), 1);
        doc.text_content(script)
    }

    #[test]
    fn large_script_body_scans_in_linear_time() {
        // 256 KiB of `<` that never opens `</script`: a scan that
        // lowercases the rest of the input per character copies ~34 GB.
        let body = "a<b;".repeat(64 * 1024);
        let html = format!("<script>{body}</script><p>after</p>");
        assert_eq!(script_text(&html), body);
        let doc = parse_html(&html).unwrap();
        assert_eq!(doc.elements_by_tag("p").len(), 1);
        assert!(parse_html(&format!("<script>{body}")).is_err());
    }

    #[test]
    fn script_end_tag_matches_any_case_and_skips_to_gt() {
        assert_eq!(script_text("<script>f(a<b)</SCRIPT ><p>x</p>"), "f(a<b)");
        assert_eq!(script_text("<script>f(a<b)</Script><p>x</p>"), "f(a<b)");
    }

    #[test]
    fn style_content_is_raw_text() {
        let doc = parse_html("<style>div > p { color: red; }</style>").unwrap();
        let style = doc.elements_by_tag("style")[0];
        assert_eq!(doc.text_content(style), "div > p { color: red; }");
    }

    #[test]
    fn stray_end_tag_ignored() {
        let doc = parse_html("<div></span><p>x</p></div>").unwrap();
        let div = doc.elements_by_tag("div")[0];
        let p = doc.elements_by_tag("p")[0];
        assert_eq!(doc.parent(p), Some(div));
    }

    #[test]
    fn unterminated_element_closed_at_eof() {
        let doc = parse_html("<div><p>hi").unwrap();
        assert_eq!(doc.text_content(doc.root()), "hi");
    }

    #[test]
    fn unterminated_comment_errors() {
        let err = parse_html("<!-- oops").unwrap_err();
        assert!(err.to_string().contains("comment"));
    }

    #[test]
    fn unterminated_attribute_errors() {
        assert!(parse_html("<div id='x").is_err());
    }

    #[test]
    fn unterminated_script_errors() {
        assert!(parse_html("<script>var x = 1;").is_err());
    }

    #[test]
    fn whitespace_only_text_dropped() {
        let doc = parse_html("<div>\n  <p>x</p>\n</div>").unwrap();
        let div = doc.elements_by_tag("div")[0];
        assert_eq!(doc.children(div).count(), 1);
    }

    #[test]
    fn serialize_round_trip() {
        let html = "<div id=\"a\"><p class=\"b c\">text</p></div>";
        let doc = parse_html(html).unwrap();
        assert_eq!(doc.serialize(doc.root()), html);
    }

    #[test]
    fn case_insensitive_tags_match() {
        let doc = parse_html("<DIV><P>x</p></DIV>").unwrap();
        assert_eq!(doc.elements_by_tag("div").len(), 1);
        assert_eq!(doc.elements_by_tag("p").len(), 1);
    }
}
