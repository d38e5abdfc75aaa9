//! GreenLint: static analysis of GreenWeb QoS annotations.
//!
//! The paper's AUTOGREEN annotator is purely profile-based — it only
//! judges targets it has observed dynamically — so dead, shadowed,
//! contradictory, or physically unsatisfiable annotations ship silently
//! and surface as runtime deadline misses. GreenLint catches them before
//! a single simulated frame runs, in five passes over a parsed
//! [`App`]:
//!
//! 1. **Annotation sanity** ([`passes::annotation_sanity`]) — dead
//!    selectors, cascade-shadowed rules, conflicting equal-specificity
//!    targets, malformed `on<event>-qos` values (GW01x).
//! 2. **Handler coverage** ([`passes::handler_coverage`]) — registered
//!    handlers with no reachable annotation, cross-checked against
//!    AUTOGREEN's static plan (GW02x).
//! 3. **Cost bounds** ([`cost::CostAnalyzer`]) — an abstract
//!    interpretation of each handler's bytecode yielding a lower-bound
//!    work estimate in the engine cost model's units (GW03x). Passes 3
//!    and 5 are two domains of one bytecode walker (`absint`), so both
//!    resolve names, fold constants and fork on ⊤ the same way.
//! 4. **Platform feasibility** ([`passes::platform_feasibility`]) —
//!    bounds vs. the ACMP's peak configuration: targets that are
//!    guaranteed deadline misses (GW04x).
//! 5. **Effect bounds** ([`effects::EffectAnalyzer`]) — the walker's
//!    second domain, computing a sound *upper* bound on everything each
//!    handler may do: inert annotated handlers (GW050), provable
//!    zero-delay timer chains (GW051), and structure mutation on
//!    high-frequency events (GW060).
//!    The summaries are also exported ([`infer_effect_summaries`]) for
//!    the engine, which checks `dynamic ⊆ static` containment against
//!    them at every callback return.
//!
//! Diagnostics carry stable `GW0xx` codes and render deterministically
//! as text or JSON, so golden files diff cleanly in CI.

#![forbid(unsafe_code)]

mod absint;
pub mod cost;
pub mod diag;
pub mod effects;
pub mod passes;

pub use cost::{CostAnalyzer, HandlerCost};
pub use diag::{Area, Diagnostic, LintCode, Location, Severity};
pub use effects::EffectAnalyzer;
pub use greenweb_trace::json::json_escape;
pub use passes::{describe_element, FeasibilityFinding, ListenerInfo};

use greenweb::lang::AnnotationTable;
use greenweb::AutoGreen;
use greenweb_acmp::{CoreType, PerfGovernor, Platform, WorkUnit};
use greenweb_css::parse_stylesheet_with_errors;
use greenweb_dom::{parse_html, EventType, NodeId};
use greenweb_engine::{
    App, Browser, BrowserError, EffectSummary, GovernorScheduler, HandlerSummary, Scheduler,
};
use greenweb_script::compiler::CompiledProgram;
use greenweb_script::{compile, parse_program, Program};
use greenweb_trace::json::{self, Fixed};
use std::collections::BTreeMap;

/// One setup script, through the front end once. The front-end
/// diagnostics and both bytecode passes (cost lower bounds, effect upper
/// bounds) read the same units instead of re-parsing the sources.
pub(crate) struct ScriptUnit {
    /// Parsed AST; `None` when the script fails to parse.
    pub(crate) program: Option<Program>,
    /// Bytecode, or the parse or compile error as its GW003 diagnostic
    /// reads.
    pub(crate) compiled: Result<CompiledProgram, String>,
}

/// The units of `app`'s setup scripts. Their bytecode is what
/// [`App::compiled_script`] holds — the prototype tables the engine's
/// closures execute — so GreenLint inlines the functions the engine
/// runs, not a second compile of them.
pub(crate) fn app_units(app: &App) -> Vec<ScriptUnit> {
    parse_units(&app.scripts, |index| app.compiled_script(index))
}

/// Parses every setup script once and takes its bytecode from
/// `precompiled(index)`, compiling only the scripts it has none for, as
/// the browser does at load.
pub(crate) fn parse_units<'a>(
    scripts: &[String],
    precompiled: impl Fn(usize) -> Option<&'a CompiledProgram>,
) -> Vec<ScriptUnit> {
    scripts
        .iter()
        .enumerate()
        .map(|(index, source)| {
            let program = parse_program(source).map_err(|e| e.to_string());
            let compiled = match (&program, precompiled(index)) {
                (Err(e), _) => Err(e.clone()),
                (Ok(_), Some(compiled)) => Ok(compiled.clone()), // an `Arc` alias
                (Ok(program), None) => compile(program).map_err(|e| e.to_string()),
            };
            ScriptUnit {
                program: program.ok(),
                compiled,
            }
        })
        .collect()
}

/// The full result of analyzing one application.
#[derive(Debug, Clone, Default)]
pub struct AnalysisReport {
    /// The analyzed app's name.
    pub app_name: String,
    /// Every finding, sorted by [`Diagnostic::sort_key`] (deterministic).
    pub diagnostics: Vec<Diagnostic>,
    /// The GW040 findings in structured form, for cross-validation.
    pub unsatisfiable: Vec<FeasibilityFinding>,
    /// The inferred per-listener effect summaries, in `(node, event,
    /// index)` order — ready to attach as `App::effect_summaries`.
    pub effect_summaries: Vec<HandlerSummary>,
}

impl AnalysisReport {
    /// Diagnostics of `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Whether any error-severity diagnostic fired (the CI gate).
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// Diagnostics with the given lint code.
    pub fn with_code(&self, code: LintCode) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.code == code).collect()
    }

    /// Renders the human-readable report: one line per diagnostic plus a
    /// summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render());
            out.push('\n');
        }
        out.push_str(&format!(
            "{}: {} error(s), {} warning(s), {} note(s)\n",
            self.app_name,
            self.count(Severity::Error),
            self.count(Severity::Warn),
            self.count(Severity::Note),
        ));
        out
    }

    /// Renders the deterministic JSON form (stable field order, sorted
    /// diagnostics; byte-identical across runs on the same app).
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        json::object(&mut out, |o| {
            o.field("app", &self.app_name)
                .obj("summary", |s| {
                    s.field("error", self.count(Severity::Error))
                        .field("warn", self.count(Severity::Warn))
                        .field("note", self.count(Severity::Note));
                })
                .arr("diagnostics", |a| {
                    for d in &self.diagnostics {
                        a.obj(|o| diag::write_diagnostic(o, d));
                    }
                })
                .arr("unsatisfiable", |a| {
                    for f in &self.unsatisfiable {
                        a.obj(|o| {
                            o.field("element", &f.element)
                                .field("node_id", &f.node_id)
                                .field("event", format_args!("{}", f.event))
                                .field("qos_type", format_args!("{}", f.qos_type))
                                .field("bound_ms", Fixed(f.bound_ms, 3))
                                .field("imperceptible_ms", Fixed(f.imperceptible_ms, 3))
                                .field("usable_ms", Fixed(f.usable_ms, 3));
                        });
                    }
                });
        });
        out
    }

    /// Renders the inferred effect-summary table as deterministic JSON
    /// (already in `(node, event, index)` order).
    pub fn render_effects_json(&self) -> String {
        let mut out = String::new();
        json::object(&mut out, |o| {
            o.field("app", &self.app_name)
                .field("handlers", self.effect_summaries.as_slice());
        });
        out
    }
}

/// Infers the effect-summary table for every listener `app` registers,
/// ready to attach as `App::effect_summaries`. Empty when the app fails
/// to load (no listener ever fires, so nothing needs a summary).
pub fn infer_effect_summaries(app: &App) -> Vec<HandlerSummary> {
    let Ok(browser) = Browser::new(app, GovernorScheduler::new(PerfGovernor)) else {
        return Vec::new();
    };
    let units = app_units(app);
    effect_summaries_of(&browser, &EffectAnalyzer::from_units(&units))
}

/// Summarizes every registered listener callback — all event types, in
/// the browser's deterministic `(node, event, index)` order. A callback
/// that is not a VM closure has no bytecode to analyze and gets ⊤
/// (assuming nothing is the only sound choice).
fn effect_summaries_of<S: Scheduler>(
    browser: &Browser<S>,
    analyzer: &EffectAnalyzer,
) -> Vec<HandlerSummary> {
    let mut summaries = Vec::new();
    for (node, event) in browser.listener_targets() {
        for (index, callback) in browser.listener_callbacks(node, event).iter().enumerate() {
            let summary = analyzer
                .analyze_callback(callback)
                .unwrap_or_else(EffectSummary::top);
            summaries.push(HandlerSummary {
                node,
                event,
                index,
                summary,
            });
        }
    }
    summaries
}

/// Runs all five passes over `app`.
pub fn analyze(app: &App) -> AnalysisReport {
    analyze_on(app, &Platform::odroid_xu_e())
}

/// Like [`analyze`], with an explicit target platform for the
/// feasibility pass.
pub fn analyze_on(app: &App, platform: &Platform) -> AnalysisReport {
    let mut report = AnalysisReport {
        app_name: app.name.clone(),
        ..AnalysisReport::default()
    };
    let out = &mut report.diagnostics;
    let css_source = app.css_source();

    // Front end: everything the loaders would trip over.
    let (sheet, css_errors) = parse_stylesheet_with_errors(&css_source);
    for e in &css_errors {
        out.push(Diagnostic::new(
            LintCode::CssRecovered,
            Location::new(Area::Css, "stylesheet"),
            format!("recovered from a stylesheet error: {e}"),
        ));
    }
    let units = app_units(app);
    for (i, unit) in units.iter().enumerate() {
        if let Err(detail) = &unit.compiled {
            out.push(Diagnostic::new(
                LintCode::ScriptLoad,
                Location::new(Area::Script(i), format!("script {i}")),
                detail.clone(),
            ));
        }
    }
    let doc = match parse_html(&app.html) {
        Ok(doc) => doc,
        Err(e) => {
            out.push(Diagnostic::new(
                LintCode::HtmlParse,
                Location::new(Area::Html, "document"),
                e.to_string(),
            ));
            out.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
            return report;
        }
    };

    // Pass 1: annotation sanity, on the lossy table (same recovery the
    // runtime applies, so analyzer and runtime agree on what survives).
    let (table, lang_errors) = AnnotationTable::from_stylesheet_lossy(&sheet);
    passes::annotation_sanity(&doc, &css_source, &table, &lang_errors, out);

    // Passes 2-5 need the loaded app (setup scripts register listeners).
    let mut browser = match Browser::new(app, GovernorScheduler::new(PerfGovernor)) {
        Ok(browser) => browser,
        Err(e) => {
            let (code, area) = match &e {
                BrowserError::Html(_) => (LintCode::HtmlParse, Area::Html),
                BrowserError::Css(_) => (LintCode::CssRecovered, Area::Css),
                BrowserError::Parse(_) | BrowserError::Script(_) | BrowserError::Budget(_) => {
                    (LintCode::ScriptLoad, Area::App)
                }
            };
            out.push(Diagnostic::new(
                code,
                Location::new(area, "load"),
                format!("app failed to load: {e}"),
            ));
            out.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
            return report;
        }
    };
    // Effect upper bounds for every registered listener (all event
    // types), computed before pass 2 so AUTOGREEN's static precheck is
    // effect-aware, and installed on the browser so `static_precheck`
    // sees exactly the table the engine would consume.
    // The units hold the bytecode `App::build` compiled and each
    // callback is walked through its own prototype table, so the engine
    // and every pass below share one compiled artifact.
    let summaries = effect_summaries_of(&browser, &EffectAnalyzer::from_units(&units));
    browser.set_effect_summaries(&summaries);

    let live_doc = browser.document();
    let listeners: Vec<ListenerInfo> = browser
        .listener_targets()
        .into_iter()
        .filter(|(_, event)| event.is_user_interaction())
        .map(|(node, event)| ListenerInfo {
            node,
            event,
            covered: table.lookup(live_doc, node, event).is_some(),
        })
        .collect();

    // Pass 2: handler coverage vs. AUTOGREEN's static plan.
    let plan = AutoGreen::new().static_precheck(&browser);
    passes::handler_coverage(live_doc, &app.html, &listeners, &plan, out);

    // Pass 3: per-handler cost lower bounds.
    let peak = platform.peak();
    let ipc = platform.cluster(CoreType::Big).ipc;
    let rate_per_ms = WorkUnit::rate(peak, ipc) / 1_000.0;
    let analyzer = CostAnalyzer::from_units(&units, rate_per_ms);
    let mut costs: BTreeMap<(NodeId, EventType), HandlerCost> = BTreeMap::new();
    for info in &listeners {
        let mut total = HandlerCost::default();
        let mut analyzed = 0usize;
        for callback in browser.listener_callbacks(info.node, info.event) {
            if let Some(cost) = analyzer.analyze_callback(callback) {
                total = total.plus(&cost);
                analyzed += 1;
            }
        }
        if analyzed == 0 {
            continue;
        }
        let element = describe_element(live_doc, info.node);
        let context = format!("{element} on{}", info.event);
        if total.unbounded_loops > 0 {
            out.push(Diagnostic::new(
                LintCode::UnboundedLoop,
                Location::new(Area::App, context.clone()),
                format!(
                    "`{element}` on{}: {} loop(s) have no statically countable bound; \
                     they contribute nothing to the cost estimate",
                    info.event, total.unbounded_loops
                ),
            ));
        }
        let guaranteed = total.guaranteed_ms(rate_per_ms) + app.cost.input_ipc_ms;
        out.push(Diagnostic::new(
            LintCode::HandlerCostBound,
            Location::new(Area::App, context),
            format!(
                "`{element}` on{}: handler guarantees >= {:.0} explicit cycles + {:.2} ms \
                 independent work ({:.2} ms at peak{})",
                info.event,
                total.work_cycles,
                total.gpu_ms,
                guaranteed,
                if total.fuel_exhausted {
                    ", exploration truncated"
                } else {
                    ""
                },
            ),
        ));
        costs.insert((info.node, info.event), total);
    }

    // Pass 4: feasibility at the platform's peak configuration.
    report.unsatisfiable =
        passes::platform_feasibility(app, live_doc, &table, &listeners, &costs, platform, out);

    // Pass 5: effect lints over the summary table.
    let mut by_target: BTreeMap<(NodeId, EventType), Vec<&EffectSummary>> = BTreeMap::new();
    for hs in &summaries {
        by_target
            .entry((hs.node, hs.event))
            .or_default()
            .push(&hs.summary);
    }
    for ((node, event), sums) in &by_target {
        let element = describe_element(live_doc, *node);
        let context = format!("{element} on{event}");
        let covered = table.lookup(live_doc, *node, *event).is_some();
        if covered
            && event.is_user_interaction()
            && sums.iter().all(|s| s.is_pure() || s.is_logs_only())
        {
            out.push(Diagnostic::new(
                LintCode::InertHandler,
                Location::new(Area::App, context.clone()),
                format!(
                    "`{element}` on{event}: every handler is statically pure{}; the QoS \
                     annotation drives governor transitions for no observable work",
                    if sums.iter().any(|s| s.may_log) {
                        " (logs only)"
                    } else {
                        ""
                    },
                ),
            ));
        }
        if sums.iter().any(|s| s.zero_delay_chain) {
            out.push(Diagnostic::new(
                LintCode::ZeroDelayChain,
                Location::new(Area::App, context.clone()),
                format!(
                    "`{element}` on{event}: handler provably arms a zero-delay setTimeout \
                     chain — a busy-loop in disguise that keeps the core out of idle"
                ),
            ));
        }
        if matches!(event, EventType::Scroll | EventType::TouchMove)
            && sums.iter().any(|s| s.may_mutate_structure())
        {
            out.push(Diagnostic::new(
                LintCode::HotStructureMutation,
                Location::new(Area::App, context.clone()),
                format!(
                    "`{element}` on{event}: handler may mutate document structure on a \
                     high-frequency event, forcing clear-all style invalidation every firing"
                ),
            ));
        }
    }
    report.effect_summaries = summaries;

    report
        .diagnostics
        .sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenweb_engine::{EffectTarget, TargetSet};

    fn app(html: &str, css: &str, script: &str) -> App {
        App::builder("lint-test")
            .html(html)
            .css(css)
            .script(script)
            .build()
    }

    #[test]
    fn clean_app_is_quiet_apart_from_notes() {
        let a = app(
            "<button id='go'>go</button>",
            "#go:QoS { onclick-qos: single, short; }",
            "addEventListener(getElementById('go'), 'click', function(e) { markDirty(); });",
        );
        let report = analyze(&a);
        assert!(!report.has_errors(), "{}", report.render_text());
        assert_eq!(report.count(Severity::Warn), 0, "{}", report.render_text());
        // The cost-bound note for the handler is expected.
        assert_eq!(report.with_code(LintCode::HandlerCostBound).len(), 1);
    }

    #[test]
    fn all_four_defect_classes_detected() {
        let a = app(
            "<button id='go'>go</button><div id='boat'></div><div id='slow'></div>",
            // Dead (nothing matches #ghost), conflicting (two equal
            // #go rules disagree), and an unknown event.
            "#ghost:QoS { onclick-qos: single, short; }
             #go:QoS { onclick-qos: single, short; }
             #go:QoS { onclick-qos: single, long; }
             #boat:QoS { onhover-qos: continuous; }
             #slow:QoS { onclick-qos: single, short; }",
            // Uncovered handler on #boat (its only annotation was
            // dropped), plus an unsatisfiable #slow: ~2.2 s of
            // guaranteed work at peak against a 300 ms usable target.
            "addEventListener(getElementById('go'), 'click', function(e) { markDirty(); });
             addEventListener(getElementById('slow'), 'click', function(e) {
                 work(8000000000); markDirty();
             });
             addEventListener(getElementById('boat'), 'touchstart', function(e) { markDirty(); });",
        );
        let report = analyze(&a);
        assert!(!report.with_code(LintCode::DeadAnnotation).is_empty());
        assert!(!report
            .with_code(LintCode::ConflictingAnnotations)
            .is_empty());
        assert!(!report.with_code(LintCode::UnknownQosEvent).is_empty());
        assert!(!report.with_code(LintCode::UncoveredHandler).is_empty());
        assert!(!report.with_code(LintCode::UnsatisfiableTarget).is_empty());
        assert!(report.has_errors());
        assert_eq!(report.unsatisfiable.len(), 1);
        let f = &report.unsatisfiable[0];
        assert_eq!(f.node_id.as_deref(), Some("slow"));
        assert!(f.bound_ms > f.usable_ms);
    }

    #[test]
    fn json_is_deterministic() {
        let a = app(
            "<button id='go'>go</button>",
            "#ghost:QoS { onclick-qos: single, short; }",
            "addEventListener(getElementById('go'), 'click', function(e) { markDirty(); });",
        );
        let first = analyze(&a).render_json();
        let second = analyze(&a).render_json();
        assert_eq!(first, second);
        assert!(first.contains("\"code\":\"GW012\""));
    }

    /// A callback is analyzed from the closure's own prototype table:
    /// the analyzers are built from no script at all, so the bytecode
    /// the closure holds is the only one they can walk, and its first
    /// parameter binds the dispatched event.
    #[test]
    fn callbacks_are_analyzed_from_their_own_bytecode() {
        let mut vm = greenweb_script::Vm::new();
        vm.run_source(
            "var f = function(e) { work(500); setAttribute(e.target, 'k', 'v'); };",
            &mut greenweb_script::NoHost,
        )
        .unwrap();
        let f = vm.global("f").unwrap();
        let effects = EffectAnalyzer::new(&[]).analyze_callback(&f).unwrap();
        assert_eq!(effects.work_cycles, Some(500.0));
        let subtree = [EffectTarget::ListenerSubtree];
        assert_eq!(effects.attr_targets, TargetSet::Known(subtree.into()));
        let cost = CostAnalyzer::new(&[], 3.6e6).analyze_callback(&f).unwrap();
        assert_eq!(cost.work_cycles, 500.0);
    }

    #[test]
    fn non_closures_are_not_analyzed() {
        let effects = EffectAnalyzer::new(&[]);
        let cost = CostAnalyzer::new(&[], 3.6e6);
        for value in [
            greenweb_script::Value::Null,
            greenweb_script::Value::Number(1.0),
            greenweb_script::Value::Str("f".into()),
        ] {
            assert!(effects.analyze_callback(&value).is_none(), "{value}");
            assert!(cost.analyze_callback(&value).is_none(), "{value}");
        }
    }

    /// One front-end pass per script yields the GW003 text of both a
    /// parse error and a compile error (`break` outside a loop parses).
    #[test]
    fn script_load_errors_name_the_front_end_failure() {
        let (bad_parse, bad_compile) = ("var = ;", "break;");
        let a = App::builder("broken-scripts")
            .html("<p>x</p>")
            .script(bad_parse)
            .script(bad_compile)
            .build();
        let messages: Vec<_> = analyze(&a)
            .with_code(LintCode::ScriptLoad)
            .into_iter()
            .filter(|d| matches!(d.location.area, Area::Script(_)))
            .map(|d| d.message.clone())
            .collect();
        let parse_error = parse_program(bad_parse).unwrap_err().to_string();
        let program = parse_program(bad_compile).unwrap();
        let compile_error = compile(&program).unwrap_err().to_string();
        assert_eq!(messages, [parse_error, compile_error]);
    }

    #[test]
    fn html_parse_failure_is_an_error() {
        let a = App::builder("broken").html("<div <div>").build();
        let report = analyze(&a);
        if report.diagnostics.is_empty() {
            // The HTML parser may recover from this; only assert the
            // report stays well-formed in that case.
            assert!(!report.has_errors());
        } else {
            assert!(report
                .diagnostics
                .iter()
                .all(|d| d.code == LintCode::HtmlParse || d.code == LintCode::CssRecovered));
        }
    }
}
