//! Typed CSS values and interpolation.

use crate::tokenizer::Token;
use std::fmt;

/// A length value. Only absolute pixel lengths are animated by the engine;
/// `em` lengths resolve against a fixed 16 px font size, which is all the
//  workloads need.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Length {
    /// Resolved length in CSS pixels.
    pub px: f64,
}

impl Length {
    /// A length of `px` CSS pixels.
    pub fn px(px: f64) -> Self {
        Length { px }
    }
}

impl fmt::Display for Length {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}px", self.px)
    }
}

/// A time value, stored in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct TimeValue {
    /// Milliseconds.
    pub ms: f64,
}

impl TimeValue {
    /// A time of `ms` milliseconds.
    pub fn ms(ms: f64) -> Self {
        TimeValue { ms }
    }

    /// A time of `s` seconds.
    pub fn seconds(s: f64) -> Self {
        TimeValue { ms: s * 1000.0 }
    }
}

impl fmt::Display for TimeValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ms", self.ms)
    }
}

/// A parsed CSS property value.
#[derive(Debug, Clone, PartialEq)]
pub enum CssValue {
    /// A bare identifier: `bold`, `continuous`, `ease-in`.
    Keyword(String),
    /// A length: `100px`, `2em`.
    Length(Length),
    /// A duration: `2s`, `300ms`.
    Time(TimeValue),
    /// A unitless number.
    Number(f64),
    /// A percentage (`50%` → `50.0`).
    Percentage(f64),
    /// A quoted string.
    String(String),
    /// A comma-separated list of values (each item is the value of one
    /// comma-separated segment; multi-token segments become nested
    /// [`CssValue::Sequence`]s).
    List(Vec<CssValue>),
    /// A whitespace-separated sequence, e.g. `width 2s ease`.
    Sequence(Vec<CssValue>),
}

impl CssValue {
    /// Returns the keyword if this is a [`CssValue::Keyword`].
    pub fn as_keyword(&self) -> Option<&str> {
        match self {
            CssValue::Keyword(k) => Some(k),
            _ => None,
        }
    }

    /// Returns the numeric magnitude for number-like values (number,
    /// length in px, time in ms, percentage).
    pub fn as_number(&self) -> Option<f64> {
        match self {
            CssValue::Number(n) => Some(*n),
            CssValue::Length(l) => Some(l.px),
            CssValue::Time(t) => Some(t.ms),
            CssValue::Percentage(p) => Some(*p),
            _ => None,
        }
    }

    /// Flattens to the list of comma-separated items; a non-list value is a
    /// single item.
    pub fn items(&self) -> Vec<&CssValue> {
        match self {
            CssValue::List(items) => items.iter().collect(),
            other => vec![other],
        }
    }

    /// Linear interpolation between two numeric values of the same kind at
    /// progress `t ∈ [0, 1]`. Returns `None` for non-numeric or mismatched
    /// kinds (which per CSS are not animatable and snap at `t = 1`).
    pub fn interpolate(&self, to: &CssValue, t: f64) -> Option<CssValue> {
        let lerp = |a: f64, b: f64| a + (b - a) * t;
        match (self, to) {
            (CssValue::Number(a), CssValue::Number(b)) => Some(CssValue::Number(lerp(*a, *b))),
            (CssValue::Length(a), CssValue::Length(b)) => {
                Some(CssValue::Length(Length::px(lerp(a.px, b.px))))
            }
            (CssValue::Percentage(a), CssValue::Percentage(b)) => {
                Some(CssValue::Percentage(lerp(*a, *b)))
            }
            (CssValue::Time(a), CssValue::Time(b)) => {
                Some(CssValue::Time(TimeValue::ms(lerp(a.ms, b.ms))))
            }
            _ => None,
        }
    }

    /// Parses a value from the token slice of one declaration (everything
    /// between `:` and `;`). Commas produce a [`CssValue::List`];
    /// whitespace inside a list item produces a [`CssValue::Sequence`].
    pub fn from_tokens(tokens: &[Token<'_>]) -> CssValue {
        let mut items = tokens.split(|t| *t == Token::Comma).map(Self::from_item);
        let first = items.next().expect("split yields at least one item");
        match items.next() {
            None => first,
            Some(second) => CssValue::List([first, second].into_iter().chain(items).collect()),
        }
    }

    /// The value of one comma-separated item: its one value, or a
    /// [`CssValue::Sequence`] of several.
    fn from_item(tokens: &[Token<'_>]) -> CssValue {
        let mut values = tokens.iter().filter_map(Self::from_single_token);
        let Some(first) = values.next() else {
            return CssValue::Keyword(String::new());
        };
        match values.next() {
            None => first,
            Some(second) => CssValue::Sequence([first, second].into_iter().chain(values).collect()),
        }
    }

    fn from_single_token(token: &Token<'_>) -> Option<CssValue> {
        match token {
            Token::Ident(name) => Some(CssValue::Keyword((*name).to_owned())),
            Token::Number(n) => Some(CssValue::Number(*n)),
            Token::Percentage(p) => Some(CssValue::Percentage(*p)),
            Token::String(s) => Some(CssValue::String(s.as_ref().to_owned())),
            Token::Hash(h) => Some(CssValue::Keyword(format!("#{h}"))),
            Token::Dimension(n, unit) => Some(if unit.eq_ignore_ascii_case("px") {
                CssValue::Length(Length::px(*n))
            } else if unit.eq_ignore_ascii_case("em") {
                CssValue::Length(Length::px(*n * 16.0))
            } else if unit.eq_ignore_ascii_case("ms") {
                CssValue::Time(TimeValue::ms(*n))
            } else if unit.eq_ignore_ascii_case("s") {
                CssValue::Time(TimeValue::seconds(*n))
            } else {
                CssValue::Number(*n)
            }),
            // Function arguments and other tokens are dropped; the
            // simulator does not evaluate computed functions.
            _ => None,
        }
    }
}

impl fmt::Display for CssValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CssValue::Keyword(k) => write!(f, "{k}"),
            CssValue::Length(l) => write!(f, "{l}"),
            CssValue::Time(t) => write!(f, "{t}"),
            CssValue::Number(n) => write!(f, "{n}"),
            CssValue::Percentage(p) => write!(f, "{p}%"),
            CssValue::String(s) => write!(f, "{s:?}"),
            CssValue::List(items) => {
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                Ok(())
            }
            CssValue::Sequence(seq) => {
                for (i, item) in seq.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{item}")?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;

    fn parse_value(s: &str) -> CssValue {
        CssValue::from_tokens(&tokenize(s).unwrap())
    }

    #[test]
    fn parses_keyword() {
        assert_eq!(parse_value("bold"), CssValue::Keyword("bold".into()));
    }

    #[test]
    fn parses_lengths_and_times() {
        assert_eq!(parse_value("100px"), CssValue::Length(Length::px(100.0)));
        assert_eq!(parse_value("2em"), CssValue::Length(Length::px(32.0)));
        assert_eq!(parse_value("2s"), CssValue::Time(TimeValue::ms(2000.0)));
        assert_eq!(parse_value("300ms"), CssValue::Time(TimeValue::ms(300.0)));
    }

    #[test]
    fn parses_comma_list() {
        let v = parse_value("single, short");
        assert_eq!(
            v,
            CssValue::List(vec![
                CssValue::Keyword("single".into()),
                CssValue::Keyword("short".into()),
            ])
        );
        assert_eq!(v.items().len(), 2);
    }

    #[test]
    fn parses_sequence() {
        let v = parse_value("width 2s");
        assert_eq!(
            v,
            CssValue::Sequence(vec![
                CssValue::Keyword("width".into()),
                CssValue::Time(TimeValue::seconds(2.0)),
            ])
        );
    }

    #[test]
    fn parses_greenweb_value_with_targets() {
        // Third rule of Table 2: `continuous, 20, 100`.
        let v = parse_value("continuous, 20, 100");
        assert_eq!(
            v,
            CssValue::List(vec![
                CssValue::Keyword("continuous".into()),
                CssValue::Number(20.0),
                CssValue::Number(100.0),
            ])
        );
    }

    #[test]
    fn interpolate_lengths() {
        let from = CssValue::Length(Length::px(100.0));
        let to = CssValue::Length(Length::px(500.0));
        assert_eq!(
            from.interpolate(&to, 0.25),
            Some(CssValue::Length(Length::px(200.0)))
        );
    }

    #[test]
    fn interpolate_mismatched_kinds_returns_none() {
        let from = CssValue::Keyword("red".into());
        let to = CssValue::Length(Length::px(1.0));
        assert_eq!(from.interpolate(&to, 0.5), None);
    }

    #[test]
    fn as_number_across_kinds() {
        assert_eq!(parse_value("3").as_number(), Some(3.0));
        assert_eq!(parse_value("3px").as_number(), Some(3.0));
        assert_eq!(parse_value("1s").as_number(), Some(1000.0));
        assert_eq!(parse_value("bold").as_number(), None);
    }

    #[test]
    fn display_round_trip() {
        assert_eq!(parse_value("width 2s").to_string(), "width 2000ms");
        assert_eq!(parse_value("a, b").to_string(), "a, b");
    }
}
