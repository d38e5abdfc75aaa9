//! # greenweb-css
//!
//! A CSS engine for the GreenWeb browser simulator: tokenizer, parser,
//! selector matching with specificity, the cascade, CSS transitions, and
//! keyframe animations.
//!
//! The engine is a *dialect host* for the GreenWeb language extensions
//! (PLDI 2016, Sec. 4): the `:QoS` pseudo-class parses as an ordinary
//! pseudo-class and `on<event>-qos` parses as an ordinary declaration, so
//! the cascade styles a page without knowing their semantics — mirroring
//! how the paper layers its extension on top of stock CSS syntax. The
//! extension itself sits beside the engine: [`qos`] holds the Sec. 3 QoS
//! abstractions and [`lang`] extracts annotations from any stylesheet and
//! resolves them by selector matching. The `greenweb` crate re-exports
//! both under the same names; they live here so that an app bundle
//! (`greenweb-engine`) can resolve its own annotations.
//!
//! ```
//! use greenweb_css::{parse_stylesheet, Specificity};
//!
//! let sheet = parse_stylesheet(
//!     "div#intro:QoS { ontouchstart-qos: continuous; } h1 { font-weight: bold; }",
//! ).unwrap();
//! assert_eq!(sheet.rules().len(), 2);
//! let qos_rule = &sheet.rules()[0];
//! assert_eq!(qos_rule.selectors()[0].specificity(), Specificity::new(1, 1, 1));
//! ```

#![forbid(unsafe_code)]

pub mod animation;
pub mod bloom;
mod bucket;
pub mod cascade;
pub mod intern;
pub mod lang;
pub mod qos;
pub mod selector;
pub mod stylesheet;
pub mod tokenizer;
pub mod transition;
pub mod value;

pub use bloom::{ancestor_filter, AncestorFilter};
pub use cascade::{ComputedStyle, StyleEngine, StyleStats};
pub use intern::PropertyId;
pub use selector::{Combinator, CompoundSelector, Selector, SimpleSelector, Specificity};
pub use stylesheet::{
    parse_declarations_str, parse_stylesheet, parse_stylesheet_with_errors, CssError, Declaration,
    KeyframesRule, Rule, Stylesheet,
};
pub use tokenizer::{tokenize, tokenize_lossy, Token};
pub use transition::{TransitionSpec, TransitionState};
pub use value::{CssValue, Length, TimeValue};
