//! AUTOGREEN: automatic annotation (Sec. 5, Fig. 6).
//!
//! Three phases, exactly as in the paper:
//!
//! 1. **Instrumentation** — discover every DOM node with an event
//!    listener. In the original this injects detection code into each
//!    callback; here the engine's host records the same signals
//!    (rAF use, `animate()` use, armed CSS transitions/animations) for
//!    every input, so discovery is [`Browser::listener_targets`].
//! 2. **Profiling** — trigger each event's callback explicitly (a
//!    one-event trace) and check the detection signals: any animation
//!    mechanism ⇒ QoS type "continuous", otherwise "single".
//! 3. **Generation** — emit GreenWeb CSS rules and inject them back into
//!    the application.
//!
//! AUTOGREEN cannot know an event's intended response duration, so for
//! "single" events it conservatively assumes a *short* expectation,
//! favouring QoS over energy (Sec. 5) — the reason Table 3's full-
//! interaction methodology manually corrects `single, long` events.

use crate::lang::{Annotation, AnnotationTable};
use crate::qos::{QosSpec, ResponseExpectation};
use greenweb_acmp::PerfGovernor;
use greenweb_css::Selector;
use greenweb_dom::{EventType, NodeId};
use greenweb_engine::{App, Browser, BrowserError, GovernorScheduler, TargetSpec, Trace};
use std::fmt;

/// Why a listener target could not be annotated automatically — typed so
/// downstream tooling (the `greenweb-analyze` lints) can explain each
/// skip precisely instead of string-matching a prose reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SkipReason {
    /// The listener is registered on a node that is not an element, so
    /// no CSS selector can address it.
    NonElementNode,
    /// The element has neither an id nor a class; AUTOGREEN cannot
    /// generate a stable selector for it.
    NoStableSelector {
        /// The element's tag name.
        tag: String,
    },
    /// The profiling run produced no input record to inspect (the event
    /// never dispatched).
    NoInputRecord,
    /// Every callback registered at the target is statically pure (or
    /// logs-only): an annotation would drive governor transitions for no
    /// observable work.
    InertHandler,
}

impl fmt::Display for SkipReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SkipReason::NonElementNode => f.write_str("listener on a non-element node"),
            SkipReason::NoStableSelector { tag } => write!(
                f,
                "element `{tag}` has neither id nor class; cannot generate a stable selector"
            ),
            SkipReason::NoInputRecord => f.write_str("profiling produced no input record"),
            SkipReason::InertHandler => {
                f.write_str("every handler is statically pure; an annotation would be inert")
            }
        }
    }
}

/// Why a listener target could not be annotated automatically.
#[derive(Debug, Clone, PartialEq)]
pub struct SkippedTarget {
    /// The DOM node carrying the listener, when known.
    pub node: Option<NodeId>,
    /// The event that was skipped.
    pub event: EventType,
    /// The typed reason.
    pub reason: SkipReason,
}

/// One listener target the static pre-pass cleared for profiling: the
/// selector is already generated, only the QoS *type* still needs the
/// dynamic run.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnotationCandidate {
    /// The DOM node carrying the listener.
    pub node: NodeId,
    /// The listened-for event.
    pub event: EventType,
    /// The generated `:QoS` selector text.
    pub selector: String,
    /// The element id a profiling trace can target (absent when the
    /// selector was derived from a class; such candidates fall back to
    /// the conservative `single, short` without profiling).
    pub target_id: Option<String>,
    /// Some callback at this target provably schedules an animation
    /// frame or `animate()` on *every* execution path (from the static
    /// effect summaries, when attached): the QoS type is "continuous"
    /// without a profiling run.
    pub static_continuous: bool,
}

/// The outcome of AUTOGREEN's static pre-pass (phase 1): which listener
/// targets can be annotated at all, and why the rest cannot — decided
/// without running a single simulated frame.
#[derive(Debug, Clone, Default)]
pub struct StaticPlan {
    /// Targets cleared for the profiling phase.
    pub candidates: Vec<AnnotationCandidate>,
    /// Targets no annotation can ever be generated for.
    pub skipped: Vec<SkippedTarget>,
}

/// The outcome of an AUTOGREEN pass.
#[derive(Debug, Clone, Default)]
pub struct AutoGreenReport {
    /// Annotations that were generated.
    pub annotations: AnnotationTable,
    /// Targets that could not be annotated.
    pub skipped: Vec<SkippedTarget>,
}

impl AutoGreenReport {
    /// Fraction of discovered targets that were annotated.
    pub fn coverage(&self) -> f64 {
        let total = self.annotations.len() + self.skipped.len();
        if total == 0 {
            0.0
        } else {
            self.annotations.len() as f64 / total as f64
        }
    }
}

impl fmt::Display for AutoGreenReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "autogreen: {} annotations, {} skipped ({:.0}% coverage)",
            self.annotations.len(),
            self.skipped.len(),
            self.coverage() * 100.0
        )?;
        for a in self.annotations.annotations() {
            writeln!(f, "  {a}")?;
        }
        Ok(())
    }
}

/// How long (virtual ms) each profiling run observes the callback's
/// aftermath for animation signals.
const PROFILE_WINDOW_MS: f64 = 700.0;

/// The automatic annotator.
#[derive(Debug, Clone, Default)]
pub struct AutoGreen;

impl AutoGreen {
    /// Creates an annotator.
    pub fn new() -> Self {
        AutoGreen
    }

    /// Runs the three phases on `app`, returning the annotated app and
    /// the report.
    ///
    /// # Errors
    ///
    /// Returns [`BrowserError`] if the app fails to load or a profiled
    /// callback raises a script error.
    pub fn annotate(&self, app: &App) -> Result<(App, AutoGreenReport), BrowserError> {
        let report = self.detect(app)?;
        let mut annotated = app.clone();
        if !report.annotations.is_empty() {
            annotated.css.push(format!(
                "/* generated by AUTOGREEN */\n{}",
                report.annotations.to_css()
            ));
        }
        Ok((annotated, report))
    }

    /// Phase 1 as a pure static pre-pass: walks the discovered listener
    /// targets and decides — from the DOM alone, before any profiling
    /// run — which can be annotated (and through which selector) and
    /// which never can (with a typed [`SkipReason`]). `greenweb-analyze`
    /// consumes this plan to explain AUTOGREEN's coverage statically.
    pub fn static_precheck<S: greenweb_engine::Scheduler>(
        &self,
        browser: &Browser<S>,
    ) -> StaticPlan {
        let mut plan = StaticPlan::default();
        for (node, event) in browser.listener_targets() {
            // Only user interactions are QoS-bearing (Sec. 3.1); skip
            // browser-generated events like transitionend.
            if !event.is_user_interaction() {
                continue;
            }
            // Effect-aware skip: when a static summary covers every
            // callback at the target and each is pure (or logs-only),
            // the handler does nothing an annotation could protect.
            let summaries = browser.effect_summaries_for(node, event);
            let callback_count = browser.listener_callbacks(node, event).len();
            if callback_count > 0
                && summaries.len() == callback_count
                && summaries
                    .iter()
                    .all(|hs| hs.summary.is_pure() || hs.summary.is_logs_only())
            {
                plan.skipped.push(SkippedTarget {
                    node: Some(node),
                    event,
                    reason: SkipReason::InertHandler,
                });
                continue;
            }
            let static_continuous = summaries
                .iter()
                .any(|hs| hs.summary.rafs_min + hs.summary.animates_min >= 1);
            let doc = browser.document();
            let Some(element) = doc.element(node) else {
                plan.skipped.push(SkippedTarget {
                    node: Some(node),
                    event,
                    reason: SkipReason::NonElementNode,
                });
                continue;
            };
            // Selector generation: prefer the id; fall back to
            // tag + first class (every element that rule matches shares
            // the same handler registration pattern in practice — and
            // over-matching is safe, it only annotates more elements of
            // the same class).
            let selector = match (element.id(), element.classes().next()) {
                (Some(id), _) => format!("#{id}:QoS"),
                (None, Some(class)) => format!("{}.{class}:QoS", element.tag()),
                (None, None) => {
                    plan.skipped.push(SkippedTarget {
                        node: Some(node),
                        event,
                        reason: SkipReason::NoStableSelector {
                            tag: element.tag().to_string(),
                        },
                    });
                    continue;
                }
            };
            plan.candidates.push(AnnotationCandidate {
                node,
                event,
                selector,
                target_id: element.id().map(str::to_string),
                static_continuous,
            });
        }
        plan
    }

    /// Phases 1–2: the static pre-pass plus per-event profiling.
    ///
    /// # Errors
    ///
    /// Same as [`AutoGreen::annotate`].
    pub fn detect(&self, app: &App) -> Result<AutoGreenReport, BrowserError> {
        // Phase 1: instrumentation/discovery, statically prechecked.
        let browser = Browser::new(app, GovernorScheduler::new(PerfGovernor))?;
        let plan = self.static_precheck(&browser);
        let mut report = AutoGreenReport {
            skipped: plan.skipped,
            ..AutoGreenReport::default()
        };
        for candidate in plan.candidates {
            let event = candidate.event;
            // A statically guaranteed animation mechanism needs no
            // profiling run: every path through some callback schedules
            // one, so the dynamic signal check could only agree.
            if candidate.static_continuous {
                report.annotations.push(Annotation {
                    selector: Selector::parse(&candidate.selector)
                        .expect("generated selector is well-formed"),
                    event,
                    spec: QosSpec::continuous(),
                });
                continue;
            }
            // Profiling needs a concrete element to poke; without an id
            // the trace cannot target the node, so skip profiling and
            // assume the conservative single/short.
            let Some(target_id) = candidate.target_id else {
                report.annotations.push(Annotation {
                    selector: Selector::parse(&candidate.selector)
                        .expect("generated selector is well-formed"),
                    event,
                    spec: QosSpec::single(ResponseExpectation::Short),
                });
                continue;
            };
            // Phase 2: profiling run — trigger the event, observe signals.
            let trace = Trace::builder()
                .event(10.0, event, TargetSpec::Id(target_id))
                .end_ms(PROFILE_WINDOW_MS)
                .build();
            let mut profiler = Browser::new(app, GovernorScheduler::new(PerfGovernor))?;
            let run = profiler.run(&trace)?;
            let Some(input) = run.inputs.first() else {
                report.skipped.push(SkippedTarget {
                    node: Some(candidate.node),
                    event,
                    reason: SkipReason::NoInputRecord,
                });
                continue;
            };
            let continuous = input.used_raf || input.used_animate || input.armed_css_animation;
            let spec = if continuous {
                QosSpec::continuous()
            } else {
                // Conservative: assume short (favour QoS over energy).
                QosSpec::single(ResponseExpectation::Short)
            };
            let selector =
                Selector::parse(&candidate.selector).expect("generated selector is well-formed");
            report.annotations.push(Annotation {
                selector,
                event,
                spec,
            });
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qos::{QosTarget, QosType};
    use greenweb_dom::parse_html;
    use greenweb_engine::{EffectSummary, HandlerSummary};

    fn detect(app: &App) -> AutoGreenReport {
        AutoGreen::new().detect(app).unwrap()
    }

    fn app_with(script: &str, css: &str) -> App {
        App::builder("autogreen-test")
            .html("<div id='box' style='width: 10px'></div><button id='btn'>x</button>")
            .css(css)
            .script(script)
            .build()
    }

    fn summarized(app: &App, summary: EffectSummary) -> App {
        // Attach `summary` to every registered listener callback, the
        // way `greenweb-analyze` would after inference.
        let browser = Browser::new(app, GovernorScheduler::new(PerfGovernor)).unwrap();
        let mut out = app.clone();
        out.effect_summaries = browser
            .listener_targets()
            .into_iter()
            .map(|(node, event)| HandlerSummary {
                node,
                event,
                index: 0,
                summary: summary.clone(),
            })
            .collect();
        out
    }

    #[test]
    fn inert_handlers_are_skipped_statically() {
        let app = app_with(
            "addEventListener(getElementById('btn'), 'click', function(e) { log('tap'); });",
            "",
        );
        let logs_only = {
            let mut s = EffectSummary::pure();
            s.may_log = true;
            s
        };
        let report = detect(&summarized(&app, logs_only));
        assert!(report.annotations.is_empty(), "{report}");
        assert!(report
            .skipped
            .iter()
            .any(|s| s.reason == SkipReason::InertHandler));
        // Without summaries the same app is annotated conservatively.
        let blind = detect(&app);
        assert_eq!(blind.annotations.len(), 1);
    }

    #[test]
    fn statically_continuous_candidates_skip_profiling() {
        let app = app_with(
            "addEventListener(getElementById('btn'), 'click', function(e) {
                 animate(getElementById('box'), 'width', 200, 150);
             });",
            "",
        );
        let guaranteed_animation = {
            let mut s = EffectSummary::pure();
            s.may_animate = true;
            s.may_dirty = true;
            s.animates_min = 1;
            s
        };
        let report = detect(&summarized(&app, guaranteed_animation));
        assert_eq!(
            report.annotations.annotations()[0].spec.qos_type,
            QosType::Continuous
        );
    }

    #[test]
    fn detects_raf_callback_as_continuous() {
        let app = app_with(
            "addEventListener(getElementById('box'), 'touchstart', function(e) {
                 requestAnimationFrame(function(t) { markDirty(); });
             });",
            "",
        );
        let report = detect(&app);
        assert_eq!(report.annotations.len(), 1);
        let a = &report.annotations.annotations()[0];
        assert_eq!(a.spec.qos_type, QosType::Continuous);
        assert_eq!(a.event, EventType::TouchStart);
    }

    #[test]
    fn detects_css_transition_as_continuous() {
        let app = app_with(
            "addEventListener(getElementById('box'), 'click', function(e) {
                 setStyle(getElementById('box'), 'width', 500);
             });",
            "#box { transition: width 300ms; }",
        );
        let report = detect(&app);
        assert_eq!(
            report.annotations.annotations()[0].spec.qos_type,
            QosType::Continuous
        );
    }

    #[test]
    fn detects_animate_as_continuous() {
        let app = app_with(
            "addEventListener(getElementById('btn'), 'click', function(e) {
                 animate(getElementById('box'), 'width', 200, 150);
             });",
            "",
        );
        let report = detect(&app);
        assert_eq!(
            report.annotations.annotations()[0].spec.qos_type,
            QosType::Continuous
        );
    }

    #[test]
    fn plain_callback_is_single_short() {
        let app = app_with(
            "addEventListener(getElementById('btn'), 'click', function(e) {
                 work(1000000);
                 markDirty();
             });",
            "",
        );
        let report = detect(&app);
        let a = &report.annotations.annotations()[0];
        assert_eq!(a.spec.qos_type, QosType::Single);
        // Conservative short target (Sec. 5).
        assert_eq!(a.spec.target, QosTarget::SINGLE_SHORT);
    }

    #[test]
    fn style_write_without_transition_stays_single() {
        let app = app_with(
            "addEventListener(getElementById('box'), 'click', function(e) {
                 setStyle(getElementById('box'), 'width', 500);
             });",
            "", // no transition declared
        );
        let report = detect(&app);
        assert_eq!(
            report.annotations.annotations()[0].spec.qos_type,
            QosType::Single
        );
    }

    #[test]
    fn annotate_injects_generated_css() {
        let app = app_with(
            "addEventListener(getElementById('btn'), 'click', function(e) { markDirty(); });",
            "",
        );
        let (annotated, report) = AutoGreen::new().annotate(&app).unwrap();
        assert_eq!(report.annotations.len(), 1);
        assert!(annotated.css_source().contains("AUTOGREEN"));
        assert!(annotated.css_source().contains("#btn:QoS"));
        // The generated annotation round-trips through the parser.
        let sheet = greenweb_css::parse_stylesheet(&annotated.css_source()).unwrap();
        let table = AnnotationTable::from_stylesheet(&sheet).unwrap();
        assert_eq!(table.len(), 1);
        let doc = parse_html(&annotated.html).unwrap();
        let btn = doc.element_by_id("btn").unwrap();
        assert!(table.lookup(&doc, btn, EventType::Click).is_some());
    }

    #[test]
    fn elements_without_id_are_skipped() {
        let app = App::builder("no-id")
            .html("<button>anon</button>")
            .script("addEventListener(document(), 'click', function(e) { markDirty(); });")
            .build();
        let report = detect(&app);
        assert!(report.annotations.is_empty() || !report.skipped.is_empty());
    }

    #[test]
    fn idless_element_with_class_gets_class_selector() {
        // A classed button without an id: AUTOGREEN cannot profile it
        // (no id to target in a trace) but still annotates it through a
        // tag.class selector with the conservative single/short spec.
        let app = App::builder("classy")
            .html("<div id='page'><button class='cta'>go</button></div>")
            .script(
                "var page = getElementById('page');
                 var i = 0;
                 // Register on the classed button: find it as the page's
                 // first child (no id available by construction).
                 addEventListener(page, 'load', function(e) { markDirty(); });",
            )
            .build();
        // Register a listener on the id-less button directly through a
        // second script that walks to it via createElement-free means:
        // the host API addresses nodes by handle, so use the page's
        // subtree (handle = index of the button element in the arena).
        let mut app = app;
        app.scripts.push(
            "var btnHandle = 2; // #page=1, button=2 in arena order
             addEventListener(btnHandle, 'click', function(e) { markDirty(); });"
                .to_string(),
        );
        let report = detect(&app);
        let class_annotation = report
            .annotations
            .annotations()
            .iter()
            .find(|a| a.event == EventType::Click)
            .expect("click annotation generated for the classed button");
        assert_eq!(class_annotation.selector.to_string(), "button.cta:QoS");
        assert_eq!(
            class_annotation.spec,
            QosSpec::single(ResponseExpectation::Short)
        );
    }

    #[test]
    fn coverage_reflects_skips() {
        let report = AutoGreenReport::default();
        assert_eq!(report.coverage(), 0.0);
        let app = app_with(
            "addEventListener(getElementById('btn'), 'click', function(e) { markDirty(); });",
            "",
        );
        let report = detect(&app);
        assert_eq!(report.coverage(), 1.0);
    }

    #[test]
    fn multiple_events_all_profiled() {
        let app = app_with(
            "addEventListener(getElementById('btn'), 'click', function(e) { markDirty(); });
             addEventListener(getElementById('box'), 'touchmove', function(e) {
                 requestAnimationFrame(function(t) { markDirty(); });
             });",
            "",
        );
        let report = detect(&app);
        assert_eq!(report.annotations.len(), 2);
        let types: Vec<QosType> = report
            .annotations
            .annotations()
            .iter()
            .map(|a| a.spec.qos_type)
            .collect();
        assert!(types.contains(&QosType::Single));
        assert!(types.contains(&QosType::Continuous));
    }
}
