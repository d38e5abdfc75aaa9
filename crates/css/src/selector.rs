//! Selectors: parsing, matching, and specificity.
//!
//! Supported grammar (a practical subset of Selectors Level 3 plus the
//! GreenWeb `:QoS` pseudo-class):
//!
//! ```text
//! selector         = compound (combinator compound)*
//! combinator       = ' ' | '>'
//! compound         = simple+
//! simple           = '*' | tag | '#' id | '.' class | ':' pseudo
//!                  | '[' attr ('=' value)? ']'
//! ```

use crate::tokenizer::{tokenize, Token};
use greenweb_dom::{Document, NodeId};
use std::fmt;

/// One simple selector within a compound.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SimpleSelector {
    /// `*`
    Universal,
    /// A tag name, stored lowercase.
    Tag(String),
    /// `#id`
    Id(String),
    /// `.class`
    Class(String),
    /// `:name` — pseudo-classes. `:QoS` is stored case-preserved but
    /// matched case-insensitively.
    PseudoClass(String),
    /// `[name]` / `[name=value]` — attribute presence or exact match.
    Attribute {
        /// Attribute name (lowercase).
        name: String,
        /// Exact value to match, or `None` for bare presence.
        value: Option<String>,
    },
}

impl fmt::Display for SimpleSelector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimpleSelector::Universal => write!(f, "*"),
            SimpleSelector::Tag(t) => write!(f, "{t}"),
            SimpleSelector::Id(id) => write!(f, "#{id}"),
            SimpleSelector::Class(c) => write!(f, ".{c}"),
            SimpleSelector::PseudoClass(p) => write!(f, ":{p}"),
            SimpleSelector::Attribute { name, value: None } => write!(f, "[{name}]"),
            SimpleSelector::Attribute {
                name,
                value: Some(v),
            } => write!(f, "[{name}=\"{v}\"]"),
        }
    }
}

/// A compound selector: a sequence of simple selectors that must all match
/// the same element (`div#intro.fancy:QoS`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct CompoundSelector {
    /// The simple selectors, in source order.
    pub parts: Vec<SimpleSelector>,
}

impl CompoundSelector {
    /// Whether this compound carries the GreenWeb `:QoS` pseudo-class.
    pub fn has_qos_pseudo(&self) -> bool {
        self.parts.iter().any(|p| match p {
            SimpleSelector::PseudoClass(name) => name.eq_ignore_ascii_case("qos"),
            _ => false,
        })
    }

    /// Whether `node` (an element) matches every simple selector.
    /// Pseudo-classes other than structural facts always match: the
    /// simulator has no hover/focus state, and `:QoS` is an annotation
    /// marker rather than a state filter (paper Sec. 4.1).
    pub fn matches(&self, doc: &Document, node: NodeId) -> bool {
        let Some(element) = doc.element(node) else {
            return false;
        };
        self.parts.iter().all(|part| match part {
            SimpleSelector::Universal => true,
            SimpleSelector::Tag(tag) => element.tag() == tag,
            SimpleSelector::Id(id) => element.id() == Some(id.as_str()),
            SimpleSelector::Class(class) => element.has_class(class),
            SimpleSelector::PseudoClass(_) => true,
            SimpleSelector::Attribute { name, value } => match value {
                None => element.attribute(name).is_some(),
                Some(v) => element.attribute(name) == Some(v.as_str()),
            },
        })
    }
}

impl fmt::Display for CompoundSelector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for part in &self.parts {
            write!(f, "{part}")?;
        }
        Ok(())
    }
}

/// How two compounds relate in a complex selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Combinator {
    /// Whitespace: ancestor.
    Descendant,
    /// `>`: parent.
    Child,
}

impl fmt::Display for Combinator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Combinator::Descendant => write!(f, " "),
            Combinator::Child => write!(f, " > "),
        }
    }
}

/// Selector specificity `(id, class+pseudo, tag)`, compared
/// lexicographically per the cascade.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Specificity {
    /// Count of ID selectors.
    pub ids: u32,
    /// Count of class selectors and pseudo-classes.
    pub classes: u32,
    /// Count of tag selectors.
    pub tags: u32,
}

impl Specificity {
    /// Creates a specificity triple.
    pub fn new(ids: u32, classes: u32, tags: u32) -> Self {
        Specificity { ids, classes, tags }
    }
}

impl fmt::Display for Specificity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{},{})", self.ids, self.classes, self.tags)
    }
}

/// A complex selector: compounds joined by combinators. The last compound
/// is the *subject* — the element the rule applies to.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Selector {
    /// `(compound, combinator-to-the-right)` pairs for all but the subject.
    pub ancestors: Vec<(CompoundSelector, Combinator)>,
    /// The subject compound.
    pub subject: CompoundSelector,
}

impl Selector {
    /// Parses a single selector from source text.
    ///
    /// # Errors
    ///
    /// Returns [`SelectorParseError`] on empty or malformed input.
    pub fn parse(input: &str) -> Result<Self, SelectorParseError> {
        let tokens = tokenize(input).map_err(|e| SelectorParseError {
            message: e.to_string(),
        })?;
        let mut selectors = parse_selector_list(&tokens)?;
        if selectors.len() != 1 {
            return Err(SelectorParseError {
                message: format!("expected one selector, found {}", selectors.len()),
            });
        }
        Ok(selectors.pop().expect("checked length"))
    }

    /// Computes the specificity of the whole selector.
    pub fn specificity(&self) -> Specificity {
        let mut spec = Specificity::default();
        let compounds = self
            .ancestors
            .iter()
            .map(|(c, _)| c)
            .chain(std::iter::once(&self.subject));
        for compound in compounds {
            for part in &compound.parts {
                match part {
                    SimpleSelector::Id(_) => spec.ids += 1,
                    SimpleSelector::Class(_)
                    | SimpleSelector::PseudoClass(_)
                    | SimpleSelector::Attribute { .. } => spec.classes += 1,
                    SimpleSelector::Tag(_) => spec.tags += 1,
                    SimpleSelector::Universal => {}
                }
            }
        }
        spec
    }

    /// Whether this selector's subject compound carries `:QoS`.
    pub fn has_qos_pseudo(&self) -> bool {
        self.subject.has_qos_pseudo()
    }

    /// Whether `node` matches this selector within `doc`, reading the
    /// tag and attributes only. The cascade's production resolver runs a
    /// compiled form of the selector that reads the cached style atoms
    /// too; this walk is the reference it is tested against.
    pub fn matches(&self, doc: &Document, node: NodeId) -> bool {
        if !self.subject.matches(doc, node) {
            return false;
        }
        // Walk ancestor compounds right-to-left.
        let mut current = node;
        for (compound, combinator) in self.ancestors.iter().rev() {
            match combinator {
                Combinator::Child => {
                    let Some(parent) = doc.parent(current) else {
                        return false;
                    };
                    if !compound.matches(doc, parent) {
                        return false;
                    }
                    current = parent;
                }
                Combinator::Descendant => {
                    let mut found = None;
                    let mut cursor = doc.parent(current);
                    while let Some(candidate) = cursor {
                        if compound.matches(doc, candidate) {
                            found = Some(candidate);
                            break;
                        }
                        cursor = doc.parent(candidate);
                    }
                    match found {
                        Some(anchor) => current = anchor,
                        None => return false,
                    }
                }
            }
        }
        true
    }
}

impl fmt::Display for Selector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (compound, combinator) in &self.ancestors {
            write!(f, "{compound}{combinator}")?;
        }
        write!(f, "{}", self.subject)
    }
}

/// Error produced when parsing selectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectorParseError {
    message: String,
}

impl fmt::Display for SelectorParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "selector parse error: {}", self.message)
    }
}

impl std::error::Error for SelectorParseError {}

/// Parses a comma-separated selector list from a token slice (used by the
/// stylesheet parser for rule preludes).
pub(crate) fn parse_selector_list(
    tokens: &[Token<'_>],
) -> Result<Vec<Selector>, SelectorParseError> {
    tokens
        .split(|t| *t == Token::Comma)
        .map(parse_complex)
        .collect()
}

/// Parses one complex selector. Each compound moves into the selector
/// whole, paired with the combinator that follows it, once the next
/// combinator is seen; the last compound is the subject.
fn parse_complex(tokens: &[Token<'_>]) -> Result<Selector, SelectorParseError> {
    let mut ancestors: Vec<(CompoundSelector, Combinator)> = Vec::new();
    let mut current = CompoundSelector::default();
    let mut saw_space = false;

    let mut iter = tokens.iter();
    while let Some(token) = iter.next() {
        match token {
            Token::Whitespace => {
                if !current.parts.is_empty() {
                    saw_space = true;
                }
            }
            Token::Delim('>') => {
                if current.parts.is_empty() {
                    return Err(SelectorParseError {
                        message: "combinator without left-hand compound".into(),
                    });
                }
                ancestors.push((std::mem::take(&mut current), Combinator::Child));
                saw_space = false;
            }
            other => {
                if saw_space && !current.parts.is_empty() {
                    ancestors.push((std::mem::take(&mut current), Combinator::Descendant));
                }
                saw_space = false;
                let simple = match other {
                    Token::Ident(name) => SimpleSelector::Tag(name.to_ascii_lowercase()),
                    Token::Hash(id) => SimpleSelector::Id((*id).to_owned()),
                    Token::Delim('*') => SimpleSelector::Universal,
                    Token::Delim('.') => match iter.next() {
                        Some(Token::Ident(name)) => SimpleSelector::Class((*name).to_owned()),
                        _ => {
                            return Err(SelectorParseError {
                                message: "expected class name after `.`".into(),
                            })
                        }
                    },
                    Token::Colon => match iter.next() {
                        Some(Token::Ident(name)) => SimpleSelector::PseudoClass((*name).to_owned()),
                        _ => {
                            return Err(SelectorParseError {
                                message: "expected pseudo-class name after `:`".into(),
                            })
                        }
                    },
                    Token::OpenBracket => {
                        let name = match iter.next() {
                            Some(Token::Ident(name)) => name.to_ascii_lowercase(),
                            _ => {
                                return Err(SelectorParseError {
                                    message: "expected attribute name after `[`".into(),
                                })
                            }
                        };
                        let value = match iter.next() {
                            Some(Token::CloseBracket) => None,
                            Some(Token::Delim('=')) => {
                                let v = match iter.next() {
                                    Some(Token::Ident(v)) => (*v).to_owned(),
                                    Some(Token::String(v)) => v.as_ref().to_owned(),
                                    _ => {
                                        return Err(SelectorParseError {
                                            message: "expected attribute value after `=`".into(),
                                        })
                                    }
                                };
                                match iter.next() {
                                    Some(Token::CloseBracket) => {}
                                    _ => {
                                        return Err(SelectorParseError {
                                            message: "expected `]` after attribute value".into(),
                                        })
                                    }
                                }
                                Some(v)
                            }
                            _ => {
                                return Err(SelectorParseError {
                                    message: "expected `]` or `=` in attribute selector".into(),
                                })
                            }
                        };
                        SimpleSelector::Attribute { name, value }
                    }
                    unexpected => {
                        return Err(SelectorParseError {
                            message: format!("unexpected token `{unexpected}` in selector"),
                        })
                    }
                };
                current.parts.push(simple);
            }
        }
    }
    if current.parts.is_empty() {
        return Err(SelectorParseError {
            message: "empty selector".into(),
        });
    }
    Ok(Selector {
        ancestors,
        subject: current,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenweb_dom::parse_html;

    #[test]
    fn parses_compound_with_qos() {
        let sel = Selector::parse("div#intro:QoS").unwrap();
        assert!(sel.ancestors.is_empty());
        assert_eq!(
            sel.subject.parts,
            vec![
                SimpleSelector::Tag("div".into()),
                SimpleSelector::Id("intro".into()),
                SimpleSelector::PseudoClass("QoS".into()),
            ]
        );
        assert!(sel.has_qos_pseudo());
    }

    #[test]
    fn qos_detection_is_case_insensitive() {
        assert!(Selector::parse("#a:qos").unwrap().has_qos_pseudo());
        assert!(Selector::parse("#a:QOS").unwrap().has_qos_pseudo());
        assert!(!Selector::parse("#a:hover").unwrap().has_qos_pseudo());
    }

    #[test]
    fn specificity_counts() {
        assert_eq!(
            Selector::parse("div#intro.fancy:QoS")
                .unwrap()
                .specificity(),
            Specificity::new(1, 2, 1)
        );
        assert_eq!(
            Selector::parse("ul li").unwrap().specificity(),
            Specificity::new(0, 0, 2)
        );
        assert_eq!(
            Selector::parse("*").unwrap().specificity(),
            Specificity::new(0, 0, 0)
        );
    }

    #[test]
    fn specificity_ordering() {
        let id = Selector::parse("#a").unwrap().specificity();
        let class = Selector::parse(".a.b.c.d").unwrap().specificity();
        assert!(id > class, "one id outweighs any number of classes");
    }

    fn doc() -> Document {
        parse_html(
            "<div id='outer' class='wrap'>\
               <section><p id='inner' class='text lead'>x</p></section>\
             </div><p id='outside'>y</p>",
        )
        .unwrap()
    }

    #[test]
    fn matches_tag_id_class() {
        let doc = doc();
        let inner = doc.element_by_id("inner").unwrap();
        assert!(Selector::parse("p").unwrap().matches(&doc, inner));
        assert!(Selector::parse("#inner").unwrap().matches(&doc, inner));
        assert!(Selector::parse(".lead").unwrap().matches(&doc, inner));
        assert!(Selector::parse("p#inner.text")
            .unwrap()
            .matches(&doc, inner));
        assert!(!Selector::parse("div").unwrap().matches(&doc, inner));
        assert!(!Selector::parse(".missing").unwrap().matches(&doc, inner));
    }

    #[test]
    fn matches_descendant_combinator() {
        let doc = doc();
        let inner = doc.element_by_id("inner").unwrap();
        let outside = doc.element_by_id("outside").unwrap();
        let sel = Selector::parse("div p").unwrap();
        assert!(sel.matches(&doc, inner));
        assert!(!sel.matches(&doc, outside));
    }

    #[test]
    fn matches_child_combinator() {
        let doc = doc();
        let inner = doc.element_by_id("inner").unwrap();
        assert!(Selector::parse("section > p").unwrap().matches(&doc, inner));
        assert!(!Selector::parse("div > p").unwrap().matches(&doc, inner));
    }

    #[test]
    fn chained_combinators() {
        let doc = doc();
        let inner = doc.element_by_id("inner").unwrap();
        assert!(Selector::parse(".wrap section > p.lead")
            .unwrap()
            .matches(&doc, inner));
    }

    #[test]
    fn universal_matches_any_element() {
        let doc = doc();
        for el in doc.elements().collect::<Vec<_>>() {
            assert!(Selector::parse("*").unwrap().matches(&doc, el));
        }
    }

    #[test]
    fn attribute_selectors_match() {
        let doc =
            parse_html("<input id='a' type='text' disabled><input id='b' type='radio'>").unwrap();
        let a = doc.element_by_id("a").unwrap();
        let b = doc.element_by_id("b").unwrap();
        let presence = Selector::parse("[disabled]").unwrap();
        assert!(presence.matches(&doc, a));
        assert!(!presence.matches(&doc, b));
        let exact = Selector::parse("input[type=text]").unwrap();
        assert!(exact.matches(&doc, a));
        assert!(!exact.matches(&doc, b));
        let quoted = Selector::parse("input[type=\"radio\"]").unwrap();
        assert!(quoted.matches(&doc, b));
    }

    #[test]
    fn attribute_selector_specificity_counts_as_class() {
        assert_eq!(
            Selector::parse("input[type=text]").unwrap().specificity(),
            Specificity::new(0, 1, 1)
        );
    }

    #[test]
    fn attribute_selector_round_trips() {
        for src in ["[disabled]", "input[type=\"text\"]"] {
            let sel = Selector::parse(src).unwrap();
            assert_eq!(Selector::parse(&sel.to_string()).unwrap(), sel);
        }
    }

    #[test]
    fn attribute_selector_parse_errors() {
        assert!(Selector::parse("[").is_err());
        assert!(Selector::parse("[=x]").is_err());
        assert!(Selector::parse("[a=]").is_err());
        assert!(Selector::parse("[a=b").is_err());
    }

    #[test]
    fn parse_errors() {
        assert!(Selector::parse("").is_err());
        assert!(Selector::parse("div >").is_err());
        assert!(Selector::parse("> div").is_err());
        assert!(Selector::parse(".").is_err());
        assert!(Selector::parse("a:").is_err());
    }

    #[test]
    fn display_round_trip() {
        for src in ["div#intro:QoS", "ul > li.item", "div p"] {
            let sel = Selector::parse(src).unwrap();
            assert_eq!(Selector::parse(&sel.to_string()).unwrap(), sel);
        }
    }
}
