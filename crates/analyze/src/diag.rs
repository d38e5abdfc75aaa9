//! Lint-coded diagnostics: the `GW0xx` registry, severities, synthesized
//! source locations, and deterministic text/JSON rendering.
//!
//! The CSS and script ASTs carry no byte spans, so locations are
//! *synthesized*: the analyzer searches the app's source text for the
//! construct it is reporting (a selector, a property, a registration
//! line) and records the 1-based line it found, plus a context snippet.
//! That keeps diagnostics clickable without threading spans through
//! every parser in the workspace.

use greenweb_trace::json::Obj;
use std::fmt;

/// Diagnostic severity, ordered most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The app is wrong: an annotation is dropped at runtime or a QoS
    /// target is provably missed. CI fails on new errors.
    Error,
    /// Suspicious but runnable: shadowed/dead rules, uncovered handlers,
    /// unboundable loops.
    Warn,
    /// Informational: cost bounds, AUTOGREEN cross-check results.
    Note,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warn => "warn",
            Severity::Note => "note",
        })
    }
}

/// The lint-code registry. Codes are grouped by pass:
/// `GW00x` front end, `GW01x` annotation sanity, `GW02x` handler
/// coverage, `GW03x` cost bounds, `GW04x` platform feasibility,
/// `GW05x` effect purity/scheduling, `GW06x` invalidation pressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintCode {
    /// GW001: the stylesheet needed browser-style error recovery.
    CssRecovered,
    /// GW002: the HTML document failed to parse.
    HtmlParse,
    /// GW003: a script failed to parse, compile, or load.
    ScriptLoad,
    /// GW010: an `on<event>-qos` property names an unknown event; the
    /// annotation is dropped at runtime.
    UnknownQosEvent,
    /// GW011: a QoS value on a known event is malformed; the runtime
    /// substitutes the event's Table 1 category default.
    BadQosValue,
    /// GW012: a `:QoS` selector matches no element — the annotation is
    /// dead.
    DeadAnnotation,
    /// GW013: an annotation matches elements but never wins a cascade
    /// lookup — it is shadowed by more specific or later rules.
    ShadowedAnnotation,
    /// GW014: two annotations of equal specificity declare different QoS
    /// for the same (element, event); source order silently decides.
    ConflictingAnnotations,
    /// GW020: a registered event handler has no reachable annotation.
    UncoveredHandler,
    /// GW021: AUTOGREEN can generate an annotation for an uncovered
    /// handler.
    AutoAnnotatable,
    /// GW022: AUTOGREEN would also skip this uncovered handler.
    AutoGreenSkip,
    /// GW030: a handler's statically derived lower-bound cost.
    HandlerCostBound,
    /// GW031: a loop in a handler has no statically countable bound; it
    /// analyzes to ⊤ (contributes nothing to the lower bound).
    UnboundedLoop,
    /// GW040: a single-response QoS target is lower than the handler's
    /// cost bound even at peak performance — a guaranteed deadline miss.
    UnsatisfiableTarget,
    /// GW041: the imperceptible-scenario target is below the cost bound
    /// at peak; only the usable scenario can be met.
    InfeasibleImperceptible,
    /// GW042: a continuous (per-frame) target is below the handler's
    /// cost bound at peak.
    ContinuousOverBudget,
    /// GW050: every handler on an annotated hot event is statically
    /// pure (or logs-only) — the annotation buys nothing; the engine can
    /// skip governor transitions for it entirely.
    InertHandler,
    /// GW051: a handler provably arms a zero-delay `setTimeout` chain —
    /// a busy-loop in disguise that defeats DVFS idling.
    ZeroDelayChain,
    /// GW060: a handler on a high-frequency event (scroll/touchmove) may
    /// mutate document structure, forcing clear-all style invalidation
    /// on every firing.
    HotStructureMutation,
}

impl LintCode {
    /// The stable `GW0xx` code string.
    pub fn code(self) -> &'static str {
        match self {
            LintCode::CssRecovered => "GW001",
            LintCode::HtmlParse => "GW002",
            LintCode::ScriptLoad => "GW003",
            LintCode::UnknownQosEvent => "GW010",
            LintCode::BadQosValue => "GW011",
            LintCode::DeadAnnotation => "GW012",
            LintCode::ShadowedAnnotation => "GW013",
            LintCode::ConflictingAnnotations => "GW014",
            LintCode::UncoveredHandler => "GW020",
            LintCode::AutoAnnotatable => "GW021",
            LintCode::AutoGreenSkip => "GW022",
            LintCode::HandlerCostBound => "GW030",
            LintCode::UnboundedLoop => "GW031",
            LintCode::UnsatisfiableTarget => "GW040",
            LintCode::InfeasibleImperceptible => "GW041",
            LintCode::ContinuousOverBudget => "GW042",
            LintCode::InertHandler => "GW050",
            LintCode::ZeroDelayChain => "GW051",
            LintCode::HotStructureMutation => "GW060",
        }
    }

    /// A short kebab-case name for the lint.
    pub fn name(self) -> &'static str {
        match self {
            LintCode::CssRecovered => "css-recovered",
            LintCode::HtmlParse => "html-parse",
            LintCode::ScriptLoad => "script-load",
            LintCode::UnknownQosEvent => "unknown-qos-event",
            LintCode::BadQosValue => "bad-qos-value",
            LintCode::DeadAnnotation => "dead-annotation",
            LintCode::ShadowedAnnotation => "shadowed-annotation",
            LintCode::ConflictingAnnotations => "conflicting-annotations",
            LintCode::UncoveredHandler => "uncovered-handler",
            LintCode::AutoAnnotatable => "auto-annotatable",
            LintCode::AutoGreenSkip => "autogreen-skip",
            LintCode::HandlerCostBound => "handler-cost-bound",
            LintCode::UnboundedLoop => "unbounded-loop",
            LintCode::UnsatisfiableTarget => "unsatisfiable-target",
            LintCode::InfeasibleImperceptible => "infeasible-imperceptible",
            LintCode::ContinuousOverBudget => "continuous-over-budget",
            LintCode::InertHandler => "inert-handler",
            LintCode::ZeroDelayChain => "zero-delay-chain",
            LintCode::HotStructureMutation => "hot-structure-mutation",
        }
    }

    /// The lint's default severity.
    pub fn severity(self) -> Severity {
        match self {
            LintCode::HtmlParse
            | LintCode::ScriptLoad
            | LintCode::UnknownQosEvent
            | LintCode::UnsatisfiableTarget => Severity::Error,
            LintCode::CssRecovered
            | LintCode::BadQosValue
            | LintCode::DeadAnnotation
            | LintCode::ShadowedAnnotation
            | LintCode::ConflictingAnnotations
            | LintCode::UncoveredHandler
            | LintCode::UnboundedLoop
            | LintCode::InfeasibleImperceptible
            | LintCode::ContinuousOverBudget
            | LintCode::InertHandler
            | LintCode::ZeroDelayChain
            | LintCode::HotStructureMutation => Severity::Warn,
            LintCode::AutoAnnotatable | LintCode::AutoGreenSkip | LintCode::HandlerCostBound => {
                Severity::Note
            }
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// Which source of the [`greenweb_engine::App`] a diagnostic points at.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Area {
    /// The joined stylesheet (`App::css_source`).
    Css,
    /// The HTML document.
    Html,
    /// The `n`-th setup script.
    Script(usize),
    /// The application as a whole.
    App,
}

impl fmt::Display for Area {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Area::Css => f.write_str("css"),
            Area::Html => f.write_str("html"),
            Area::Script(i) => write!(f, "script[{i}]"),
            Area::App => f.write_str("app"),
        }
    }
}

/// A synthesized source location: area, best-effort 1-based line, and a
/// context snippet of the construct being reported.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Location {
    /// Which app source the diagnostic concerns.
    pub area: Area,
    /// Best-effort 1-based line within that source.
    pub line: Option<u32>,
    /// The construct (selector, property, registration…) being reported.
    pub context: String,
}

impl Location {
    /// A location with no line information.
    pub fn new(area: Area, context: impl Into<String>) -> Self {
        Location {
            area,
            line: None,
            context: context.into(),
        }
    }

    /// Attaches the line where `needle` first occurs in `source`.
    pub fn locate(mut self, source: &str, needle: &str) -> Self {
        self.line = line_of(source, needle);
        self
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(line) => write!(f, "{}:{line}", self.area),
            None => write!(f, "{}", self.area),
        }
    }
}

/// The 1-based line of the first occurrence of `needle` in `source`.
pub fn line_of(source: &str, needle: &str) -> Option<u32> {
    if needle.is_empty() {
        return None;
    }
    let at = source.find(needle)?;
    Some(1 + source[..at].bytes().filter(|&b| b == b'\n').count() as u32)
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The lint that fired.
    pub code: LintCode,
    /// Severity (the code's default unless a pass downgrades it).
    pub severity: Severity,
    /// Where it fired.
    pub location: Location,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// A diagnostic at the code's default severity.
    pub fn new(code: LintCode, location: Location, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            location,
            message: message.into(),
        }
    }

    /// The deterministic sort key: code, then location, then message.
    pub fn sort_key(&self) -> (LintCode, &Location, &str) {
        (self.code, &self.location, &self.message)
    }

    /// Renders the one-line text form.
    pub fn render(&self) -> String {
        format!(
            "{}[{}] {}: {} [{}]",
            self.severity, self.code, self.location, self.message, self.location.context
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Writes one diagnostic's members (stable field order).
pub(crate) fn write_diagnostic(o: &mut Obj<'_>, d: &Diagnostic) {
    o.field("code", d.code.code())
        .field("name", d.code.name())
        .field("severity", format_args!("{}", d.severity))
        .field("area", format_args!("{}", d.location.area))
        .field("line", d.location.line)
        .field("context", &d.location.context)
        .field("message", &d.message);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_grouped() {
        let all = [
            LintCode::CssRecovered,
            LintCode::HtmlParse,
            LintCode::ScriptLoad,
            LintCode::UnknownQosEvent,
            LintCode::BadQosValue,
            LintCode::DeadAnnotation,
            LintCode::ShadowedAnnotation,
            LintCode::ConflictingAnnotations,
            LintCode::UncoveredHandler,
            LintCode::AutoAnnotatable,
            LintCode::AutoGreenSkip,
            LintCode::HandlerCostBound,
            LintCode::UnboundedLoop,
            LintCode::UnsatisfiableTarget,
            LintCode::InfeasibleImperceptible,
            LintCode::ContinuousOverBudget,
            LintCode::InertHandler,
            LintCode::ZeroDelayChain,
            LintCode::HotStructureMutation,
        ];
        let mut codes: Vec<&str> = all.iter().map(|c| c.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), all.len(), "duplicate lint code");
        for c in all {
            assert!(c.code().starts_with("GW0"), "{}", c.code());
        }
    }

    #[test]
    fn line_of_counts_newlines() {
        let src = "a\nbb\nccc\n";
        assert_eq!(line_of(src, "a"), Some(1));
        assert_eq!(line_of(src, "bb"), Some(2));
        assert_eq!(line_of(src, "ccc"), Some(3));
        assert_eq!(line_of(src, "zz"), None);
    }

    #[test]
    fn render_and_json_are_stable() {
        let d = Diagnostic::new(
            LintCode::DeadAnnotation,
            Location::new(Area::Css, "#ghost:QoS").locate("x\n#ghost:QoS {}", "#ghost:QoS"),
            "selector matches no element",
        );
        assert_eq!(
            d.render(),
            "warn[GW012] css:2: selector matches no element [#ghost:QoS]"
        );
        let mut json = String::new();
        greenweb_trace::json::object(&mut json, |o| write_diagnostic(o, &d));
        assert!(json.contains("\"line\":2"));
    }
}
