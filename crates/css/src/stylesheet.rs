//! Stylesheet parsing: rules, declarations, and `@keyframes`.

use crate::intern::PropertyId;
use crate::selector::{parse_selector_list, Selector};
use crate::tokenizer::{tokenize_lossy, Token};
use crate::value::CssValue;
use std::fmt;

/// A single `property: value` declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Declaration {
    /// The interned property name, lowercase.
    pub property: PropertyId,
    /// Parsed value.
    pub value: CssValue,
    /// Whether the declaration carried `!important`.
    pub important: bool,
}

impl Declaration {
    /// Creates a declaration without `!important`.
    pub fn new(property: &str, value: CssValue) -> Self {
        Declaration {
            property: intern_lowercase(property),
            value,
            important: false,
        }
    }
}

/// Interns `name` lowercased, copying it only when it has an uppercase
/// letter.
fn intern_lowercase(name: &str) -> PropertyId {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        PropertyId::intern(&name.to_ascii_lowercase())
    } else {
        PropertyId::intern(name)
    }
}

impl fmt::Display for Declaration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.property, self.value)?;
        if self.important {
            write!(f, " !important")?;
        }
        Ok(())
    }
}

/// A style rule: selectors plus declarations.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    selectors: Vec<Selector>,
    declarations: Vec<Declaration>,
}

impl Rule {
    /// Creates a rule.
    pub fn new(selectors: Vec<Selector>, declarations: Vec<Declaration>) -> Self {
        Rule {
            selectors,
            declarations,
        }
    }

    /// The rule's selector list.
    pub fn selectors(&self) -> &[Selector] {
        &self.selectors
    }

    /// The rule's declarations in source order.
    pub fn declarations(&self) -> &[Declaration] {
        &self.declarations
    }

    /// Whether any selector carries the GreenWeb `:QoS` pseudo-class.
    pub fn is_qos_rule(&self) -> bool {
        self.selectors.iter().any(Selector::has_qos_pseudo)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, sel) in self.selectors.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{sel}")?;
        }
        write!(f, " {{ ")?;
        for decl in &self.declarations {
            write!(f, "{decl}; ")?;
        }
        write!(f, "}}")
    }
}

/// One keyframe within an `@keyframes` rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Keyframe {
    /// Progress offset in `[0, 1]` (`from` = 0, `to` = 1, `50%` = 0.5).
    pub offset: f64,
    /// Declarations applied at this offset.
    pub declarations: Vec<Declaration>,
}

/// An `@keyframes name { … }` rule.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyframesRule {
    /// The animation name.
    pub name: String,
    /// Keyframes sorted by offset.
    pub frames: Vec<Keyframe>,
}

impl KeyframesRule {
    /// Samples the animated value of `property` at progress `t ∈ [0, 1]`
    /// by interpolating between the two neighbouring keyframes.
    pub fn sample(&self, property: &str, t: f64) -> Option<CssValue> {
        let t = t.clamp(0.0, 1.0);
        let holding: Vec<(&f64, &CssValue)> = self
            .frames
            .iter()
            .filter_map(|frame| {
                frame
                    .declarations
                    .iter()
                    .find(|d| d.property.as_str() == property)
                    .map(|d| (&frame.offset, &d.value))
            })
            .collect();
        match holding.len() {
            0 => None,
            1 => Some(holding[0].1.clone()),
            _ => {
                // Find surrounding keyframes.
                let mut prev = holding[0];
                for &(offset, value) in &holding {
                    if *offset >= t {
                        let (o0, v0) = prev;
                        let (o1, v1) = (offset, value);
                        if (o1 - o0).abs() < f64::EPSILON {
                            return Some(v1.clone());
                        }
                        let local = (t - o0) / (o1 - o0);
                        return v0
                            .interpolate(v1, local)
                            .or_else(|| Some(if local >= 1.0 { v1.clone() } else { v0.clone() }));
                    }
                    prev = (offset, value);
                }
                Some(holding.last().expect("non-empty").1.clone())
            }
        }
    }
}

/// A parsed stylesheet: style rules plus `@keyframes` definitions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Stylesheet {
    rules: Vec<Rule>,
    keyframes: Vec<KeyframesRule>,
}

impl Stylesheet {
    /// Creates an empty stylesheet.
    pub fn new() -> Self {
        Stylesheet::default()
    }

    /// The style rules in source order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// The `@keyframes` rules in source order.
    pub fn keyframes(&self) -> &[KeyframesRule] {
        &self.keyframes
    }

    /// Finds a `@keyframes` rule by name.
    pub fn keyframes_by_name(&self, name: &str) -> Option<&KeyframesRule> {
        self.keyframes.iter().find(|k| k.name == name)
    }

    /// Appends every rule and keyframes definition of `other`.
    pub fn extend(&mut self, other: Stylesheet) {
        self.rules.extend(other.rules);
        self.keyframes.extend(other.keyframes);
    }

    /// The rules whose selectors carry `:QoS` — the GreenWeb annotations.
    pub fn qos_rules(&self) -> impl Iterator<Item = &Rule> {
        self.rules.iter().filter(|r| r.is_qos_rule())
    }
}

/// Error produced by [`parse_stylesheet`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CssError {
    message: String,
}

impl CssError {
    fn new(message: impl Into<String>) -> Self {
        CssError {
            message: message.into(),
        }
    }
}

impl fmt::Display for CssError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "css parse error: {}", self.message)
    }
}

impl std::error::Error for CssError {}

/// Parses a stylesheet from source text with browser-style error
/// recovery: a malformed rule, declaration, or token costs only itself —
/// the parser records an error and resumes at the next construct — so
/// one bad rule can never take the whole sheet (or its GreenWeb `:QoS`
/// annotations) down with it. Unknown at-rules other than `@keyframes`
/// are skipped wholesale, like real browsers do.
///
/// # Errors
///
/// Never fails; the `Result` is kept for API stability. Use
/// [`parse_stylesheet_with_errors`] to inspect what was recovered from.
pub fn parse_stylesheet(input: &str) -> Result<Stylesheet, CssError> {
    Ok(parse_stylesheet_with_errors(input).0)
}

/// Like [`parse_stylesheet`], but also returns every error the parser
/// recovered from, in source order.
pub fn parse_stylesheet_with_errors(input: &str) -> (Stylesheet, Vec<CssError>) {
    let (tokens, token_errors) = tokenize_lossy(input);
    let mut errors: Vec<CssError> = token_errors
        .into_iter()
        .map(|e| CssError::new(e.to_string()))
        .collect();
    let mut sheet = Stylesheet::new();
    let mut i = 0;
    while i < tokens.len() {
        match &tokens[i] {
            Token::Whitespace => i += 1,
            Token::CloseBrace => {
                // A stray `}` between rules; drop it and continue.
                errors.push(CssError::new("unexpected `}`"));
                i += 1;
            }
            Token::AtKeyword("keyframes") => {
                let (rule, next) = parse_keyframes(&tokens, i + 1, &mut errors);
                if let Some(rule) = rule {
                    sheet.keyframes.push(rule);
                }
                i = next;
            }
            Token::AtKeyword(_) => {
                i = skip_at_rule(&tokens, i + 1, &mut errors);
            }
            _ => {
                let (rule, next) = parse_style_rule(&tokens, i, &mut errors);
                if let Some(rule) = rule {
                    sheet.rules.push(rule);
                }
                i = next;
            }
        }
    }
    (sheet, errors)
}

/// Parses the declarations inside one `{ … }` block given as source text
/// (used for `style="…"` inline attributes). Malformed declarations are
/// skipped individually, like browsers treat `style` attributes, and
/// their errors are not reported.
pub fn parse_declarations_str(input: &str) -> Vec<Declaration> {
    let (tokens, _) = tokenize_lossy(input);
    parse_declarations(&tokens, &mut Vec::new())
}

/// Returns `(open_brace_index, close_brace_index)`. A block the input
/// truncates before its `}` is implicitly closed at end of input
/// (`close == tokens.len()`), mirroring the CSS rule that EOF closes all
/// open constructs. `None` when no `{` exists at or after `i`.
fn find_block(
    tokens: &[Token<'_>],
    mut i: usize,
    errors: &mut Vec<CssError>,
) -> Option<(usize, usize)> {
    while i < tokens.len() && tokens[i] != Token::OpenBrace {
        i += 1;
    }
    if i >= tokens.len() {
        errors.push(CssError::new("expected `{`"));
        return None;
    }
    let open = i;
    let mut depth = 0usize;
    while i < tokens.len() {
        match tokens[i] {
            Token::OpenBrace => depth += 1,
            Token::CloseBrace => {
                depth -= 1;
                if depth == 0 {
                    return Some((open, i));
                }
            }
            _ => {}
        }
        i += 1;
    }
    errors.push(CssError::new(
        "unbalanced braces: block implicitly closed at end of input",
    ));
    Some((open, tokens.len()))
}

fn parse_style_rule(
    tokens: &[Token<'_>],
    start: usize,
    errors: &mut Vec<CssError>,
) -> (Option<Rule>, usize) {
    let Some((open, close)) = find_block(tokens, start, errors) else {
        return (None, tokens.len());
    };
    let next = (close + 1).min(tokens.len());
    let prelude = &tokens[start..open];
    let selectors = match parse_selector_list(trim_ws(prelude)) {
        Ok(selectors) => selectors,
        Err(e) => {
            // Skip to the next rule: a malformed selector invalidates
            // only its own rule.
            errors.push(CssError::new(e.to_string()));
            return (None, next);
        }
    };
    let declarations = parse_declarations(&tokens[open + 1..close], errors);
    (Some(Rule::new(selectors, declarations)), next)
}

fn trim_ws<'t, 'a>(tokens: &'t [Token<'a>]) -> &'t [Token<'a>] {
    let mut start = 0;
    let mut end = tokens.len();
    while start < end && tokens[start] == Token::Whitespace {
        start += 1;
    }
    while end > start && tokens[end - 1] == Token::Whitespace {
        end -= 1;
    }
    &tokens[start..end]
}

fn parse_declarations(tokens: &[Token<'_>], errors: &mut Vec<CssError>) -> Vec<Declaration> {
    let mut declarations = Vec::new();
    for chunk in tokens.split(|t| *t == Token::Semicolon) {
        let chunk = trim_ws(chunk);
        if chunk.is_empty() {
            continue;
        }
        // A malformed declaration is dropped up to the next `;`, exactly
        // like browsers treat it; its neighbours are unaffected.
        let Some(colon) = chunk.iter().position(|t| *t == Token::Colon) else {
            errors.push(CssError::new("declaration missing `:`"));
            continue;
        };
        let property = match trim_ws(&chunk[..colon]) {
            [Token::Ident(name)] => intern_lowercase(name),
            _ => {
                errors.push(CssError::new("invalid property name"));
                continue;
            }
        };
        let mut value_tokens = trim_ws(&chunk[colon + 1..]);
        // Recognize a trailing `!important`.
        let important = match value_tokens {
            [rest @ .., Token::Delim('!'), Token::Ident(word)]
                if word.eq_ignore_ascii_case("important") =>
            {
                value_tokens = trim_ws(rest);
                true
            }
            _ => false,
        };
        let value = CssValue::from_tokens(value_tokens);
        declarations.push(Declaration {
            property,
            value,
            important,
        });
    }
    declarations
}

fn parse_keyframes(
    tokens: &[Token<'_>],
    start: usize,
    errors: &mut Vec<CssError>,
) -> (Option<KeyframesRule>, usize) {
    let Some((open, close)) = find_block(tokens, start, errors) else {
        return (None, tokens.len());
    };
    let next = (close + 1).min(tokens.len());
    let name = match trim_ws(&tokens[start..open]) {
        [Token::Ident(name)] => (*name).to_owned(),
        _ => {
            errors.push(CssError::new("expected keyframes name"));
            return (None, next);
        }
    };
    let body = &tokens[open + 1..close];
    let mut frames = Vec::new();
    let mut i = 0;
    while i < body.len() {
        if body[i] == Token::Whitespace {
            i += 1;
            continue;
        }
        let Some((frame_open, frame_close)) = find_block(body, i, errors) else {
            // Trailing garbage after the last keyframe: drop it, keep
            // the frames parsed so far.
            break;
        };
        let offsets: Result<Vec<f64>, CssError> = trim_ws(&body[i..frame_open])
            .split(|t| *t == Token::Comma)
            .map(|sel| match trim_ws(sel) {
                [Token::Ident("from")] => Ok(0.0),
                [Token::Ident("to")] => Ok(1.0),
                [Token::Percentage(p)] => Ok(p / 100.0),
                _ => Err(CssError::new("invalid keyframe selector")),
            })
            .collect();
        let declarations = parse_declarations(&body[frame_open + 1..frame_close], errors);
        match offsets {
            Ok(offsets) => {
                for offset in offsets {
                    frames.push(Keyframe {
                        offset,
                        declarations: declarations.clone(),
                    });
                }
            }
            // A bad keyframe selector costs only its own frame.
            Err(e) => errors.push(e),
        }
        i = (frame_close + 1).min(body.len());
    }
    frames.sort_by(|a, b| a.offset.partial_cmp(&b.offset).expect("finite offsets"));
    (Some(KeyframesRule { name, frames }), next)
}

fn skip_at_rule(tokens: &[Token<'_>], mut i: usize, errors: &mut Vec<CssError>) -> usize {
    // Skip to either a `;` (statement at-rule) or a balanced block.
    while i < tokens.len() {
        match tokens[i] {
            Token::Semicolon => return i + 1,
            Token::OpenBrace => {
                return match find_block(tokens, i, errors) {
                    Some((_, close)) => (close + 1).min(tokens.len()),
                    None => tokens.len(),
                };
            }
            _ => i += 1,
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{Length, TimeValue};

    #[test]
    fn parses_basic_rule() {
        let sheet = parse_stylesheet("h1 { font-weight: bold; }").unwrap();
        assert_eq!(sheet.rules().len(), 1);
        let rule = &sheet.rules()[0];
        assert_eq!(rule.declarations().len(), 1);
        assert_eq!(rule.declarations()[0].property.as_str(), "font-weight");
        assert_eq!(
            rule.declarations()[0].value,
            CssValue::Keyword("bold".into())
        );
    }

    #[test]
    fn parses_fig4_example() {
        // The paper's Fig. 4: a CSS transition plus a GreenWeb annotation.
        let css = "
            div#ex { width: 100px; transition: width 2s; }
            div#ex:QoS { ontouchstart-qos: continuous; }
        ";
        let sheet = parse_stylesheet(css).unwrap();
        assert_eq!(sheet.rules().len(), 2);
        let qos: Vec<_> = sheet.qos_rules().collect();
        assert_eq!(qos.len(), 1);
        assert_eq!(
            qos[0].declarations()[0].property.as_str(),
            "ontouchstart-qos"
        );
        assert_eq!(
            qos[0].declarations()[0].value,
            CssValue::Keyword("continuous".into())
        );
    }

    #[test]
    fn parses_fig5_example_with_explicit_targets() {
        // Fig. 5: continuous with explicit 20 ms / 100 ms targets.
        let css = "#canvas:QoS { ontouchmove-qos: continuous, 20, 100; }";
        let sheet = parse_stylesheet(css).unwrap();
        let rule = &sheet.rules()[0];
        assert!(rule.is_qos_rule());
        let items = rule.declarations()[0].value.items().len();
        assert_eq!(items, 3);
    }

    #[test]
    fn parses_multiple_selectors() {
        let sheet = parse_stylesheet("h1, h2.x, #y { margin: 0; }").unwrap();
        assert_eq!(sheet.rules()[0].selectors().len(), 3);
    }

    #[test]
    fn parses_important() {
        let sheet = parse_stylesheet("p { width: 10px !important; }").unwrap();
        assert!(sheet.rules()[0].declarations()[0].important);
        assert_eq!(
            sheet.rules()[0].declarations()[0].value,
            CssValue::Length(Length::px(10.0))
        );
    }

    #[test]
    fn missing_semicolon_on_last_declaration_ok() {
        let sheet = parse_stylesheet("p { width: 10px }").unwrap();
        assert_eq!(sheet.rules()[0].declarations().len(), 1);
    }

    #[test]
    fn parses_keyframes() {
        let css =
            "@keyframes slide { from { width: 0px; } 50% { width: 10px; } to { width: 100px; } }";
        let sheet = parse_stylesheet(css).unwrap();
        let kf = sheet.keyframes_by_name("slide").unwrap();
        assert_eq!(kf.frames.len(), 3);
        assert_eq!(kf.frames[1].offset, 0.5);
    }

    #[test]
    fn keyframes_sampling_interpolates() {
        let css = "@keyframes grow { from { width: 0px; } to { width: 100px; } }";
        let sheet = parse_stylesheet(css).unwrap();
        let kf = sheet.keyframes_by_name("grow").unwrap();
        assert_eq!(
            kf.sample("width", 0.5),
            Some(CssValue::Length(Length::px(50.0)))
        );
        assert_eq!(
            kf.sample("width", 0.0),
            Some(CssValue::Length(Length::px(0.0)))
        );
        assert_eq!(kf.sample("height", 0.5), None);
    }

    #[test]
    fn keyframes_sampling_multi_segment() {
        let css = "@keyframes z { from { left: 0px; } 25% { left: 100px; } to { left: 200px; } }";
        let sheet = parse_stylesheet(css).unwrap();
        let kf = sheet.keyframes_by_name("z").unwrap();
        assert_eq!(
            kf.sample("left", 0.125),
            Some(CssValue::Length(Length::px(50.0)))
        );
        assert_eq!(
            kf.sample("left", 0.625),
            Some(CssValue::Length(Length::px(150.0)))
        );
    }

    #[test]
    fn unknown_at_rules_skipped() {
        let css = "@media screen { p { color: red; } } h1 { margin: 0; } @import 'x';";
        let sheet = parse_stylesheet(css).unwrap();
        assert_eq!(sheet.rules().len(), 1);
    }

    #[test]
    fn unbalanced_braces_recover_at_eof() {
        // A truncated block is implicitly closed at end of input; its
        // parsed content survives and the problem is reported.
        let (sheet, errors) = parse_stylesheet_with_errors("p { width: 1px;");
        assert_eq!(sheet.rules().len(), 1);
        assert_eq!(sheet.rules()[0].declarations().len(), 1);
        assert_eq!(errors.len(), 1);
        assert!(errors[0].to_string().contains("unbalanced braces"));
        // The plain API recovers the same way.
        assert_eq!(parse_stylesheet("p { width: 1px;").unwrap(), sheet);
    }

    #[test]
    fn declaration_without_colon_skipped() {
        // The malformed declaration is dropped up to the next `;`; its
        // neighbours and the rule itself survive.
        let (sheet, errors) = parse_stylesheet_with_errors("p { width; height: 2px; margin 3px }");
        assert_eq!(sheet.rules().len(), 1);
        let decls = sheet.rules()[0].declarations();
        assert_eq!(decls.len(), 1);
        assert_eq!(decls[0].property.as_str(), "height");
        assert_eq!(errors.len(), 2);
    }

    #[test]
    fn bad_rule_does_not_kill_following_rules() {
        // Skip-to-next-rule: the malformed selector invalidates only its
        // own rule.
        let css = "£bad&sel { color: red; } h1 { margin: 0; }";
        let (sheet, errors) = parse_stylesheet_with_errors(css);
        assert_eq!(sheet.rules().len(), 1);
        assert_eq!(
            sheet.rules()[0].declarations()[0].property.as_str(),
            "margin"
        );
        assert!(!errors.is_empty());
    }

    #[test]
    fn stray_close_brace_between_rules_dropped() {
        let (sheet, errors) = parse_stylesheet_with_errors("} h1 { margin: 0; }");
        assert_eq!(sheet.rules().len(), 1);
        assert_eq!(errors.len(), 1);
        assert!(errors[0].to_string().contains("unexpected `}`"));
    }

    #[test]
    fn truncated_qos_block_keeps_annotation() {
        // Regression test for the chaos scenario that motivated
        // recovery: a stylesheet cut off mid-`:QoS` block (e.g. a
        // truncated download) must still surface the annotations parsed
        // so far, not silently drop every rule in the sheet.
        let css = "h1 { margin: 0; }\n#c:QoS { ontouchmove-qos: continuous";
        let (sheet, errors) = parse_stylesheet_with_errors(css);
        assert_eq!(sheet.rules().len(), 2);
        let qos: Vec<_> = sheet.qos_rules().collect();
        assert_eq!(qos.len(), 1);
        assert_eq!(
            qos[0].declarations()[0].property.as_str(),
            "ontouchmove-qos"
        );
        assert_eq!(
            qos[0].declarations()[0].value,
            CssValue::Keyword("continuous".into())
        );
        assert_eq!(errors.len(), 1);
    }

    #[test]
    fn recovery_reports_nothing_on_clean_sheets() {
        let css = "div#ex { width: 100px; } div#ex:QoS { ontouchstart-qos: continuous; }";
        let (sheet, errors) = parse_stylesheet_with_errors(css);
        assert!(errors.is_empty());
        assert_eq!(sheet.rules().len(), 2);
    }

    #[test]
    fn inline_declarations_parse() {
        let decls = parse_declarations_str("width: 100px; transition: width 2s");
        assert_eq!(decls.len(), 2);
        assert_eq!(
            decls[1].value,
            CssValue::Sequence(vec![
                CssValue::Keyword("width".into()),
                CssValue::Time(TimeValue::seconds(2.0)),
            ])
        );
    }

    #[test]
    fn extend_merges_sheets() {
        let mut a = parse_stylesheet("p { margin: 0; }").unwrap();
        let b =
            parse_stylesheet("h1 { margin: 0; } @keyframes k { from { width: 0px; } }").unwrap();
        a.extend(b);
        assert_eq!(a.rules().len(), 2);
        assert_eq!(a.keyframes().len(), 1);
    }
}
