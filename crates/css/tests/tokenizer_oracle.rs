//! The byte-walking tokenizer against its char-walking predecessor.
//!
//! `oracle` is the tokenizer as it was before it walked bytes: it
//! collected the input into a `Vec<char>`, built a `String` per token,
//! and reported error offsets as char indices. Both must produce the same
//! tokens and the same errors, the offsets compared after mapping the
//! oracle's char index to a byte offset, on arbitrary strings (which mix
//! in U+2028, `é`, `🦀` and NUL), on CSS-shaped fragments, and on every
//! bundled workload's stylesheet. The byte walker slices the input at
//! every token boundary, so these properties also guard it against
//! slicing inside a character.

use greenweb_css::{tokenize_lossy, Token};
use greenweb_det::prop::{check, Gen, DEFAULT_CASES};

mod oracle {
    /// A CSS token.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Token {
        /// An identifier (`div`, `font-weight`, `continuous`).
        Ident(String),
        /// A `#name` hash token (ID selectors, hex colors).
        Hash(String),
        /// An `@name` at-keyword (`@keyframes`, `@media`).
        AtKeyword(String),
        /// A quoted string, quotes removed.
        String(String),
        /// A number without a unit (`1.5`, `-2`).
        Number(f64),
        /// A number with a `%` suffix; the payload is the raw number (`50` for
        /// `50%`).
        Percentage(f64),
        /// A number with a unit (`16.6ms`, `2s`, `100px`).
        Dimension(f64, String),
        /// `name(` — a function opener (`rgb(`, `cubic-bezier(`).
        Function(String),
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

    /// Error produced by [`tokenize_lossy`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct TokenizeError {
        pub message: String,
        /// Byte offset where the error occurred.
        pub offset: usize,
    }

    fn is_ident_start(c: char) -> bool {
        c.is_ascii_alphabetic() || c == '_' || c == '-' || !c.is_ascii()
    }

    fn is_ident_char(c: char) -> bool {
        is_ident_start(c) || c.is_ascii_digit()
    }

    /// Tokenizes `input`, recovering from malformed constructs the way the
    /// CSS Syntax Module prescribes for real browsers: an unterminated
    /// comment consumes to end of input, an unterminated string yields the
    /// content scanned so far. Every recovery is reported alongside the
    /// token stream.
    pub fn tokenize_lossy(input: &str) -> (Vec<Token>, Vec<TokenizeError>) {
        let mut tokens = Vec::new();
        let mut errors = Vec::new();
        let chars: Vec<char> = input.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            match c {
                _ if c.is_whitespace() => {
                    while i < chars.len() && chars[i].is_whitespace() {
                        i += 1;
                    }
                    tokens.push(Token::Whitespace);
                }
                '/' if chars.get(i + 1) == Some(&'*') => {
                    let start = i;
                    i += 2;
                    loop {
                        if i + 1 >= chars.len() {
                            // Per CSS Syntax §4.3.2: an unterminated comment
                            // runs to end of input.
                            errors.push(TokenizeError {
                                message: "unterminated comment".into(),
                                offset: start,
                            });
                            i = chars.len();
                            break;
                        }
                        if chars[i] == '*' && chars[i + 1] == '/' {
                            i += 2;
                            break;
                        }
                        i += 1;
                    }
                }
                '"' | '\'' => {
                    let quote = c;
                    let start = i;
                    i += 1;
                    let mut s = String::new();
                    loop {
                        match chars.get(i) {
                            Some(&ch) if ch == quote => {
                                i += 1;
                                break;
                            }
                            Some('\\') => {
                                if let Some(&escaped) = chars.get(i + 1) {
                                    s.push(escaped);
                                    i += 2;
                                } else {
                                    // Trailing backslash at EOF: keep the
                                    // content scanned so far.
                                    errors.push(TokenizeError {
                                        message: "unterminated string".into(),
                                        offset: start,
                                    });
                                    i = chars.len();
                                    break;
                                }
                            }
                            Some(&ch) => {
                                s.push(ch);
                                i += 1;
                            }
                            None => {
                                // Per CSS Syntax §4.3.5: an unterminated
                                // string yields a string token at EOF.
                                errors.push(TokenizeError {
                                    message: "unterminated string".into(),
                                    offset: start,
                                });
                                break;
                            }
                        }
                    }
                    tokens.push(Token::String(s));
                }
                '#' => {
                    i += 1;
                    let mut name = String::new();
                    while i < chars.len() && is_ident_char(chars[i]) {
                        name.push(chars[i]);
                        i += 1;
                    }
                    tokens.push(Token::Hash(name));
                }
                '@' => {
                    i += 1;
                    let mut name = String::new();
                    while i < chars.len() && is_ident_char(chars[i]) {
                        name.push(chars[i]);
                        i += 1;
                    }
                    tokens.push(Token::AtKeyword(name));
                }
                ':' => {
                    i += 1;
                    tokens.push(Token::Colon);
                }
                ';' => {
                    i += 1;
                    tokens.push(Token::Semicolon);
                }
                ',' => {
                    i += 1;
                    tokens.push(Token::Comma);
                }
                '{' => {
                    i += 1;
                    tokens.push(Token::OpenBrace);
                }
                '}' => {
                    i += 1;
                    tokens.push(Token::CloseBrace);
                }
                '(' => {
                    i += 1;
                    tokens.push(Token::OpenParen);
                }
                ')' => {
                    i += 1;
                    tokens.push(Token::CloseParen);
                }
                '[' => {
                    i += 1;
                    tokens.push(Token::OpenBracket);
                }
                ']' => {
                    i += 1;
                    tokens.push(Token::CloseBracket);
                }
                _ if c.is_ascii_digit()
                    || (c == '.' && chars.get(i + 1).is_some_and(char::is_ascii_digit))
                    || ((c == '-' || c == '+')
                        && chars
                            .get(i + 1)
                            .is_some_and(|d| d.is_ascii_digit() || *d == '.')) =>
                {
                    let start = i;
                    if c == '-' || c == '+' {
                        i += 1;
                    }
                    let digits_start = i;
                    while i < chars.len() && chars[i].is_ascii_digit() {
                        i += 1;
                    }
                    if chars.get(i) == Some(&'.')
                        && chars.get(i + 1).is_some_and(char::is_ascii_digit)
                    {
                        i += 1;
                        while i < chars.len() && chars[i].is_ascii_digit() {
                            i += 1;
                        }
                    }
                    if i == digits_start {
                        // A bare sign whose lookahead was `.` not followed by
                        // a digit (e.g. `+.x`): the sign is just a delimiter.
                        tokens.push(Token::Delim(c));
                        continue;
                    }
                    let number: f64 = chars[start..i]
                        .iter()
                        .collect::<String>()
                        .parse()
                        .expect("scanned digits parse as f64");
                    if chars.get(i) == Some(&'%') {
                        i += 1;
                        tokens.push(Token::Percentage(number));
                    } else if i < chars.len() && is_ident_start(chars[i]) {
                        let mut unit = String::new();
                        while i < chars.len() && is_ident_char(chars[i]) {
                            unit.push(chars[i]);
                            i += 1;
                        }
                        tokens.push(Token::Dimension(number, unit));
                    } else {
                        tokens.push(Token::Number(number));
                    }
                }
                _ if is_ident_start(c) => {
                    // `-` alone (e.g. in `a - b`) is a delim; `-ident` is an ident.
                    if c == '-' && !chars.get(i + 1).copied().is_some_and(is_ident_char) {
                        i += 1;
                        tokens.push(Token::Delim('-'));
                        continue;
                    }
                    let mut name = String::new();
                    while i < chars.len() && is_ident_char(chars[i]) {
                        name.push(chars[i]);
                        i += 1;
                    }
                    if chars.get(i) == Some(&'(') {
                        i += 1;
                        tokens.push(Token::Function(name));
                    } else {
                        tokens.push(Token::Ident(name));
                    }
                }
                _ => {
                    i += 1;
                    tokens.push(Token::Delim(c));
                }
            }
        }
        (tokens, errors)
    }
}

/// The oracle's token for `token`.
fn to_oracle(token: &Token<'_>) -> oracle::Token {
    match token {
        Token::Ident(s) => oracle::Token::Ident((*s).to_owned()),
        Token::Hash(s) => oracle::Token::Hash((*s).to_owned()),
        Token::AtKeyword(s) => oracle::Token::AtKeyword((*s).to_owned()),
        Token::String(s) => oracle::Token::String(s.as_ref().to_owned()),
        Token::Number(n) => oracle::Token::Number(*n),
        Token::Percentage(n) => oracle::Token::Percentage(*n),
        Token::Dimension(n, unit) => oracle::Token::Dimension(*n, (*unit).to_owned()),
        Token::Function(s) => oracle::Token::Function((*s).to_owned()),
        Token::Colon => oracle::Token::Colon,
        Token::Semicolon => oracle::Token::Semicolon,
        Token::Comma => oracle::Token::Comma,
        Token::OpenBrace => oracle::Token::OpenBrace,
        Token::CloseBrace => oracle::Token::CloseBrace,
        Token::OpenParen => oracle::Token::OpenParen,
        Token::CloseParen => oracle::Token::CloseParen,
        Token::OpenBracket => oracle::Token::OpenBracket,
        Token::CloseBracket => oracle::Token::CloseBracket,
        Token::Delim(c) => oracle::Token::Delim(*c),
        Token::Whitespace => oracle::Token::Whitespace,
    }
}

/// Asserts that both tokenizers agree on `input`.
fn agrees_with_oracle(input: &str) {
    let (tokens, errors) = tokenize_lossy(input);
    let (expected_tokens, expected_errors) = oracle::tokenize_lossy(input);
    let tokens: Vec<oracle::Token> = tokens.iter().map(to_oracle).collect();
    assert_eq!(tokens, expected_tokens, "tokens of {input:?}");
    let errors: Vec<String> = errors.iter().map(ToString::to_string).collect();
    let expected_errors: Vec<String> = expected_errors
        .iter()
        .map(|e| {
            let byte = input
                .char_indices()
                .nth(e.offset)
                .map_or(input.len(), |(byte, _)| byte);
            format!("css tokenize error at byte {byte}: {}", e.message)
        })
        .collect();
    assert_eq!(errors, expected_errors, "errors of {input:?}");
}

/// Fragments that reach every branch of the tokenizer: comment and
/// string delimiters, escapes, signs and decimal points, units, every
/// ASCII whitespace byte (vertical tab included, which
/// `char::is_whitespace` counts and `u8::is_ascii_whitespace` does not),
/// and multi-byte characters, whitespace or not.
const FRAGMENTS: [&str; 33] = [
    "/*", "*/", "/", "*", "'", "\"", "\\", "-", "+", ".", "1", "2.5", "px", "%", "#", "@", "(",
    ")", "{", "}", ":", ";", " ", "\t", "\n", "\r", "\x0b", "\x0c", "\u{2028}", "\u{a0}", "é",
    "🦀", "\0",
];

fn fragments(g: &mut Gen, max_len: usize) -> String {
    let len = g.usize_in(0, max_len + 1);
    (0..len).map(|_| *g.choose(&FRAGMENTS)).collect()
}

fn arbitrary_inputs_agree(cases: u32) {
    check("tokenizer_matches_char_oracle", cases, |g| {
        agrees_with_oracle(&g.arbitrary_string(200));
        agrees_with_oracle(&fragments(g, 60));
    });
}

#[test]
fn tokenizer_matches_char_oracle() {
    arbitrary_inputs_agree(DEFAULT_CASES);
}

/// The same property at 50 times the cases, for the extended fuzz run
/// (`cargo test --release -p greenweb-css -- --ignored`).
#[test]
#[ignore = "extended fuzz; run with --ignored"]
fn tokenizer_matches_char_oracle_extended() {
    arbitrary_inputs_agree(50 * DEFAULT_CASES);
}

#[test]
fn tokenizer_matches_char_oracle_on_bundled_workloads() {
    for workload in greenweb_workloads::all() {
        agrees_with_oracle(&workload.app.css_source());
        agrees_with_oracle(&workload.unannotated_app.css_source());
    }
}
