//! CSS tokenizer, loosely following the CSS Syntax Module Level 3
//! tokenization algorithm, restricted to the token set the GreenWeb
//! dialect needs.
//!
//! One pass over the source bytes: a `char` is decoded only where a
//! non-ASCII byte starts one, and every name a token carries is a slice
//! of the input. A quoted string is copied only when it holds an escape.

use std::borrow::Cow;
use std::fmt;

/// A CSS token, borrowing its text from the tokenized source.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// An identifier (`div`, `font-weight`, `continuous`).
    Ident(&'a str),
    /// A `#name` hash token (ID selectors, hex colors).
    Hash(&'a str),
    /// An `@name` at-keyword (`@keyframes`, `@media`).
    AtKeyword(&'a str),
    /// A quoted string, quotes removed: borrowed from the source unless an
    /// escape had to be resolved.
    String(Cow<'a, str>),
    /// A number without a unit (`1.5`, `-2`).
    Number(f64),
    /// A number with a `%` suffix; the payload is the raw number (`50` for
    /// `50%`).
    Percentage(f64),
    /// A number with a unit (`16.6ms`, `2s`, `100px`).
    Dimension(f64, &'a str),
    /// `name(` — a function opener (`rgb(`, `cubic-bezier(`).
    Function(&'a str),
    /// `:`
    Colon,
    /// `;`
    Semicolon,
    /// `,`
    Comma,
    /// `{`
    OpenBrace,
    /// `}`
    CloseBrace,
    /// `(`
    OpenParen,
    /// `)`
    CloseParen,
    /// `[`
    OpenBracket,
    /// `]`
    CloseBracket,
    /// Any other single code point (`.`, `>`, `*`, `+`, `~`, `=`, `!`).
    Delim(char),
    /// One or more whitespace characters. Significant between selector
    /// parts (descendant combinator), insignificant elsewhere.
    Whitespace,
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Hash(s) => write!(f, "#{s}"),
            Token::AtKeyword(s) => write!(f, "@{s}"),
            Token::String(s) => write!(f, "{s:?}"),
            Token::Number(n) => write!(f, "{n}"),
            Token::Percentage(n) => write!(f, "{n}%"),
            Token::Dimension(n, u) => write!(f, "{n}{u}"),
            Token::Function(s) => write!(f, "{s}("),
            Token::Colon => write!(f, ":"),
            Token::Semicolon => write!(f, ";"),
            Token::Comma => write!(f, ","),
            Token::OpenBrace => write!(f, "{{"),
            Token::CloseBrace => write!(f, "}}"),
            Token::OpenParen => write!(f, "("),
            Token::CloseParen => write!(f, ")"),
            Token::OpenBracket => write!(f, "["),
            Token::CloseBracket => write!(f, "]"),
            Token::Delim(c) => write!(f, "{c}"),
            Token::Whitespace => write!(f, " "),
        }
    }
}

/// Error produced by [`tokenize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenizeError {
    message: String,
    /// Byte offset where the error occurred.
    pub offset: usize,
}

impl TokenizeError {
    fn new(message: &str, offset: usize) -> Self {
        TokenizeError {
            message: message.into(),
            offset,
        }
    }
}

impl fmt::Display for TokenizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "css tokenize error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for TokenizeError {}

/// Whether `b` can start an identifier. Every byte of a non-ASCII
/// character counts, so an identifier run always ends on a character
/// boundary.
fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b == b'-' || !b.is_ascii()
}

fn is_ident_byte(b: u8) -> bool {
    is_ident_start(b) || b.is_ascii_digit()
}

/// The character starting at byte `i`, which must be a character
/// boundary.
fn char_at(input: &str, i: usize) -> char {
    input[i..].chars().next().expect("a character starts here")
}

/// The end of the run of identifier bytes starting at `i`.
fn ident_end(bytes: &[u8], mut i: usize) -> usize {
    while bytes.get(i).copied().is_some_and(is_ident_byte) {
        i += 1;
    }
    i
}

fn digits_end(bytes: &[u8], mut i: usize) -> usize {
    while bytes.get(i).is_some_and(u8::is_ascii_digit) {
        i += 1;
    }
    i
}

/// The width in bytes of the whitespace character at `i`, if there is
/// one (`char::is_whitespace`, so U+00A0 and U+2028 count).
fn whitespace_at(input: &str, i: usize) -> Option<usize> {
    let b = *input.as_bytes().get(i)?;
    if b.is_ascii() {
        return char::from(b).is_whitespace().then_some(1);
    }
    let c = char_at(input, i);
    c.is_whitespace().then_some(c.len_utf8())
}

/// Tokenizes `input` into a flat token stream. Comments (`/* … */`) are
/// stripped; runs of whitespace collapse into one [`Token::Whitespace`].
///
/// # Errors
///
/// Returns [`TokenizeError`] for unterminated strings or comments. For
/// browser-style recovery, use [`tokenize_lossy`].
pub fn tokenize(input: &str) -> Result<Vec<Token<'_>>, TokenizeError> {
    let (tokens, mut errors) = tokenize_lossy(input);
    match errors.is_empty() {
        true => Ok(tokens),
        false => Err(errors.remove(0)),
    }
}

/// Tokenizes `input`, recovering from malformed constructs the way the
/// CSS Syntax Module prescribes for real browsers: an unterminated
/// comment consumes to end of input, an unterminated string yields the
/// content scanned so far. Every recovery is reported alongside the
/// token stream.
pub fn tokenize_lossy(input: &str) -> (Vec<Token<'_>>, Vec<TokenizeError>) {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut errors = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if let Some(width) = whitespace_at(input, i) {
            i += width;
            while let Some(width) = whitespace_at(input, i) {
                i += width;
            }
            tokens.push(Token::Whitespace);
            continue;
        }
        let token = match b {
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                // Per CSS Syntax §4.3.2: an unterminated comment runs to
                // end of input.
                match input[i + 2..].find("*/") {
                    Some(len) => i += 2 + len + 2,
                    None => {
                        errors.push(TokenizeError::new("unterminated comment", i));
                        i = bytes.len();
                    }
                }
                continue;
            }
            b'"' | b'\'' => {
                let start = i;
                i += 1;
                // `run` starts the text not yet copied into `owned`, which
                // exists only once an escape has been resolved.
                let mut run = i;
                let mut owned: Option<String> = None;
                let end = loop {
                    match bytes.get(i) {
                        Some(&ch) if ch == b => {
                            i += 1;
                            break i - 1;
                        }
                        Some(b'\\') if i + 1 < bytes.len() => {
                            let escaped = char_at(input, i + 1);
                            let s = owned.get_or_insert_with(String::new);
                            s.push_str(&input[run..i]);
                            s.push(escaped);
                            i += 1 + escaped.len_utf8();
                            run = i;
                        }
                        Some(b'\\') => {
                            // Trailing backslash at EOF: keep the content
                            // scanned so far.
                            errors.push(TokenizeError::new("unterminated string", start));
                            let end = i;
                            i = bytes.len();
                            break end;
                        }
                        Some(_) => i += 1,
                        None => {
                            // Per CSS Syntax §4.3.5: an unterminated
                            // string yields a string token at EOF.
                            errors.push(TokenizeError::new("unterminated string", start));
                            break i;
                        }
                    }
                };
                let tail = &input[run..end];
                Token::String(match owned {
                    Some(mut s) => {
                        s.push_str(tail);
                        Cow::Owned(s)
                    }
                    None => Cow::Borrowed(tail),
                })
            }
            b'#' | b'@' => {
                let start = i + 1;
                i = ident_end(bytes, start);
                let name = &input[start..i];
                if b == b'#' {
                    Token::Hash(name)
                } else {
                    Token::AtKeyword(name)
                }
            }
            b':' | b';' | b',' | b'{' | b'}' | b'(' | b')' | b'[' | b']' => {
                i += 1;
                match b {
                    b':' => Token::Colon,
                    b';' => Token::Semicolon,
                    b',' => Token::Comma,
                    b'{' => Token::OpenBrace,
                    b'}' => Token::CloseBrace,
                    b'(' => Token::OpenParen,
                    b')' => Token::CloseParen,
                    b'[' => Token::OpenBracket,
                    _ => Token::CloseBracket,
                }
            }
            _ if b.is_ascii_digit()
                || (b == b'.' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit))
                || ((b == b'-' || b == b'+')
                    && bytes
                        .get(i + 1)
                        .is_some_and(|d| d.is_ascii_digit() || *d == b'.')) =>
            {
                let start = i;
                if b == b'-' || b == b'+' {
                    i += 1;
                }
                let digits_start = i;
                i = digits_end(bytes, i);
                if bytes.get(i) == Some(&b'.') && bytes.get(i + 1).is_some_and(u8::is_ascii_digit) {
                    i = digits_end(bytes, i + 1);
                }
                if i == digits_start {
                    // A bare sign whose lookahead was `.` not followed by
                    // a digit (e.g. `+.x`): the sign is just a delimiter.
                    tokens.push(Token::Delim(char::from(b)));
                    continue;
                }
                let number: f64 = input[start..i]
                    .parse()
                    .expect("scanned digits parse as f64");
                if bytes.get(i) == Some(&b'%') {
                    i += 1;
                    Token::Percentage(number)
                } else if bytes.get(i).copied().is_some_and(is_ident_start) {
                    let unit_start = i;
                    i = ident_end(bytes, i);
                    Token::Dimension(number, &input[unit_start..i])
                } else {
                    Token::Number(number)
                }
            }
            _ if is_ident_start(b) => {
                // `-` alone (e.g. in `a - b`) is a delim; `-ident` is an ident.
                if b == b'-' && !bytes.get(i + 1).copied().is_some_and(is_ident_byte) {
                    i += 1;
                    tokens.push(Token::Delim('-'));
                    continue;
                }
                let start = i;
                i = ident_end(bytes, i);
                let name = &input[start..i];
                if bytes.get(i) == Some(&b'(') {
                    i += 1;
                    Token::Function(name)
                } else {
                    Token::Ident(name)
                }
            }
            _ => {
                // Every non-ASCII character is whitespace or starts an
                // identifier, so only ASCII reaches here.
                i += 1;
                Token::Delim(char::from(b))
            }
        };
        tokens.push(token);
    }
    (tokens, errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_simple_rule() {
        let tokens = tokenize("h1 { font-weight: bold; }").unwrap();
        assert_eq!(
            tokens,
            vec![
                Token::Ident("h1"),
                Token::Whitespace,
                Token::OpenBrace,
                Token::Whitespace,
                Token::Ident("font-weight"),
                Token::Colon,
                Token::Whitespace,
                Token::Ident("bold"),
                Token::Semicolon,
                Token::Whitespace,
                Token::CloseBrace,
            ]
        );
    }

    #[test]
    fn tokenizes_dimensions_and_percentages() {
        let tokens = tokenize("16.6ms 2s 100px 50% 1.5 -3em").unwrap();
        let nonspace: Vec<_> = tokens
            .into_iter()
            .filter(|t| *t != Token::Whitespace)
            .collect();
        assert_eq!(
            nonspace,
            vec![
                Token::Dimension(16.6, "ms"),
                Token::Dimension(2.0, "s"),
                Token::Dimension(100.0, "px"),
                Token::Percentage(50.0),
                Token::Number(1.5),
                Token::Dimension(-3.0, "em"),
            ]
        );
    }

    #[test]
    fn tokenizes_qos_pseudo_class() {
        let tokens = tokenize("div#intro:QoS").unwrap();
        assert_eq!(
            tokens,
            vec![
                Token::Ident("div"),
                Token::Hash("intro"),
                Token::Colon,
                Token::Ident("QoS"),
            ]
        );
    }

    #[test]
    fn tokenizes_function() {
        let tokens = tokenize("cubic-bezier(0.4, 0, 1, 1)").unwrap();
        assert_eq!(tokens[0], Token::Function("cubic-bezier"));
        assert_eq!(*tokens.last().unwrap(), Token::CloseParen);
    }

    #[test]
    fn strips_comments() {
        let tokens = tokenize("a /* comment */ b").unwrap();
        let idents: Vec<_> = tokens
            .iter()
            .filter_map(|t| match t {
                Token::Ident(name) => Some(*name),
                _ => None,
            })
            .collect();
        assert_eq!(idents, vec!["a", "b"]);
    }

    #[test]
    fn string_quotes_and_escapes() {
        let tokens = tokenize(r#""he said \"hi\"" 'x'"#).unwrap();
        assert_eq!(tokens[0], Token::String("he said \"hi\"".into()));
        assert_eq!(tokens[2], Token::String("x".into()));
    }

    #[test]
    fn unterminated_comment_errors() {
        assert!(tokenize("/* oops").is_err());
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(tokenize("'oops").is_err());
    }

    #[test]
    fn lossy_recovers_unterminated_comment() {
        let (tokens, errors) = tokenize_lossy("a /* oops");
        assert_eq!(tokens, vec![Token::Ident("a"), Token::Whitespace]);
        assert_eq!(errors.len(), 1);
        assert!(errors[0].to_string().contains("unterminated comment"));
    }

    #[test]
    fn lossy_recovers_unterminated_string() {
        let (tokens, errors) = tokenize_lossy("'oops");
        assert_eq!(tokens, vec![Token::String("oops".into())]);
        assert_eq!(errors.len(), 1);
        let (tokens, errors) = tokenize_lossy("'trailing\\");
        assert_eq!(tokens, vec![Token::String("trailing".into())]);
        assert_eq!(errors.len(), 1);
    }

    #[test]
    fn lossy_matches_strict_on_clean_input() {
        let input = "h1 { font-weight: bold; } /* c */ 'str' 50%";
        let (tokens, errors) = tokenize_lossy(input);
        assert!(errors.is_empty());
        assert_eq!(tokens, tokenize(input).unwrap());
    }

    #[test]
    fn error_offsets_are_byte_offsets() {
        // `é` is one character but two bytes.
        let (_, errors) = tokenize_lossy("é/*");
        assert_eq!(errors[0].offset, 2);
        let (_, errors) = tokenize_lossy("é 'x");
        assert_eq!(errors[0].offset, 3);
        assert!(errors[0]
            .to_string()
            .starts_with("css tokenize error at byte 3: "));
        let (_, errors) = tokenize_lossy("🦀\u{a0}\"x\\");
        assert_eq!(errors[0].offset, 6);
    }

    #[test]
    fn strings_borrow_unless_escaped() {
        let tokens = tokenize(r#"'plain' "esc\"aped""#).unwrap();
        assert!(matches!(&tokens[0], Token::String(Cow::Borrowed("plain"))));
        assert!(matches!(&tokens[2], Token::String(Cow::Owned(s)) if s == "esc\"aped"));
        let (tokens, errors) = tokenize_lossy("'tail\\");
        assert_eq!(tokens, vec![Token::String("tail".into())]);
        assert_eq!(errors.len(), 1);
    }

    #[test]
    fn unicode_whitespace_separates_and_non_ascii_names_stay_whole() {
        let tokens = tokenize("\u{a0}a;\u{2028} \u{a0}é🦀(").unwrap();
        assert_eq!(
            tokens,
            vec![
                Token::Whitespace,
                Token::Ident("a"),
                Token::Semicolon,
                Token::Whitespace,
                Token::Function("é🦀"),
            ]
        );
        // Inside a name, a non-ASCII character is a name character even
        // when it is whitespace.
        assert_eq!(
            tokenize("x\u{2028}").unwrap(),
            vec![Token::Ident("x\u{2028}")]
        );
        assert_eq!(
            tokenize("2px\u{a0}").unwrap(),
            vec![Token::Dimension(2.0, "px\u{a0}")]
        );
    }

    #[test]
    fn at_keyword() {
        let tokens = tokenize("@keyframes slide").unwrap();
        assert_eq!(tokens[0], Token::AtKeyword("keyframes"));
    }

    #[test]
    fn negative_ident_vs_number() {
        let tokens = tokenize("-webkit-foo -3").unwrap();
        assert_eq!(tokens[0], Token::Ident("-webkit-foo"));
        assert_eq!(tokens[2], Token::Number(-3.0));
    }

    #[test]
    fn delims() {
        let tokens = tokenize("* > . ! =").unwrap();
        let delims: Vec<_> = tokens
            .into_iter()
            .filter_map(|t| match t {
                Token::Delim(c) => Some(c),
                _ => None,
            })
            .collect();
        assert_eq!(delims, vec!['*', '>', '.', '!', '=']);
    }
}
