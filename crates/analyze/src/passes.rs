//! Passes 1, 2 and 4: annotation sanity, handler coverage, and platform
//! feasibility.
//!
//! Pass 1 re-uses the *runtime's* cascade resolution
//! ([`AnnotationTable::lookup_entry`]: highest specificity wins, later
//! source order breaks ties) to decide winners, so a rule the analyzer
//! calls shadowed is exactly a rule the runtime would never pick.
//!
//! Pass 4 combines pass-3 lower bounds with the platform's *fastest*
//! configuration (big core at maximum frequency): a target that cannot
//! be met even there is a guaranteed deadline miss, no scheduler can
//! save it. To keep the "guaranteed" claim honest the verdict uses only
//! components that provably under-estimate the simulated run: explicit
//! `work()`/`gpuWork()` payloads, the input IPC charge, the fixed
//! paint/composite stages, and the element-scaled style/layout stages
//! only when no script can shrink the document.

use crate::cost::HandlerCost;
use crate::diag::{Area, Diagnostic, LintCode, Location};
use greenweb::lang::{AnnotationTable, LangError};
use greenweb::qos::QosType;
use greenweb_acmp::{CoreType, Platform, WorkUnit};
use greenweb_dom::{Document, EventType, NodeId};
use greenweb_engine::App;
use std::collections::{BTreeMap, BTreeSet};

/// Pass 1: dead, shadowed, conflicting, and malformed annotations.
pub fn annotation_sanity(
    doc: &Document,
    css_source: &str,
    table: &AnnotationTable,
    errors: &[LangError],
    out: &mut Vec<Diagnostic>,
) {
    for error in errors {
        let (code, property) = match error {
            LangError::UnknownEvent { property, .. } => (LintCode::UnknownQosEvent, property),
            LangError::BadValue { property, .. } => (LintCode::BadQosValue, property),
        };
        out.push(Diagnostic::new(
            code,
            Location::new(Area::Css, property.clone()).locate(css_source, property),
            error.to_string(),
        ));
    }

    let annotations = table.annotations();
    let events: BTreeSet<EventType> = annotations.iter().map(|a| a.event).collect();
    let elements: Vec<NodeId> = doc.elements().collect();

    // Who matches whom, and who ever wins a cascade lookup. Winners are
    // decided by the same lookup_entry the runtime uses.
    let mut match_counts = vec![0usize; annotations.len()];
    let mut winners = vec![false; annotations.len()];
    let mut conflicts: BTreeSet<(usize, usize)> = BTreeSet::new();
    for &node in &elements {
        for &event in &events {
            let matching: Vec<usize> = annotations
                .iter()
                .enumerate()
                .filter(|(_, a)| a.event == event && a.selector.matches(doc, node))
                .map(|(i, _)| i)
                .collect();
            for &i in &matching {
                match_counts[i] += 1;
            }
            if matching.is_empty() {
                continue;
            }
            let (winner, _) = table
                .lookup_entry(doc, node, event)
                .expect("a matching annotation exists");
            winners[winner] = true;
            // Equal-specificity rules that disagree with the winner on
            // the spec: source order silently decides (GW014).
            let top = annotations[winner].selector.specificity();
            for &i in &matching {
                if i != winner
                    && annotations[i].selector.specificity() == top
                    && annotations[i].spec != annotations[winner].spec
                {
                    conflicts.insert((i, winner));
                }
            }
        }
    }

    let conflicted: BTreeSet<usize> = conflicts.iter().map(|&(loser, _)| loser).collect();
    for (i, a) in annotations.iter().enumerate() {
        let selector = a.selector.to_string();
        let context = format!("{selector} on{}-qos", a.event);
        if match_counts[i] == 0 {
            out.push(Diagnostic::new(
                LintCode::DeadAnnotation,
                Location::new(Area::Css, context).locate(css_source, &selector),
                format!(
                    "`{selector}` matches no element; the on{}-qos annotation is dead",
                    a.event
                ),
            ));
        } else if !winners[i] && !conflicted.contains(&i) {
            out.push(Diagnostic::new(
                LintCode::ShadowedAnnotation,
                Location::new(Area::Css, context).locate(css_source, &selector),
                format!(
                    "`{selector}` matches elements but never wins the on{}-qos cascade; \
                     a more specific or later rule always shadows it",
                    a.event
                ),
            ));
        }
    }
    for (loser, winner) in conflicts {
        let l = &annotations[loser];
        let w = &annotations[winner];
        let selector = l.selector.to_string();
        out.push(Diagnostic::new(
            LintCode::ConflictingAnnotations,
            Location::new(Area::Css, format!("{selector} on{}-qos", l.event))
                .locate(css_source, &selector),
            format!(
                "`{selector}` declares `{}` but the equally specific, later `{}` declares `{}` \
                 for the same elements and event; source order silently decides",
                l.spec, w.selector, w.spec
            ),
        ));
    }
}

/// A human-readable handle for a DOM element in diagnostics.
pub fn describe_element(doc: &Document, node: NodeId) -> String {
    match doc.element(node) {
        Some(e) => match (e.id(), e.classes().next()) {
            (Some(id), _) => format!("{}#{id}", e.tag()),
            (None, Some(class)) => format!("{}.{class}", e.tag()),
            (None, None) => e.tag().to_string(),
        },
        None => format!("node {node:?}"),
    }
}

/// One registered user-interaction listener target, with its annotation
/// lookup result attached.
#[derive(Debug, Clone)]
pub struct ListenerInfo {
    /// The DOM node carrying the listener.
    pub node: NodeId,
    /// The listened-for event.
    pub event: EventType,
    /// Whether [`AnnotationTable::lookup`] resolves a spec for it.
    pub covered: bool,
}

/// Pass 2: registered handlers with no reachable annotation, cross-checked
/// against AUTOGREEN's static plan ([`greenweb::StaticPlan`]).
pub fn handler_coverage(
    doc: &Document,
    html: &str,
    listeners: &[ListenerInfo],
    plan: &greenweb::StaticPlan,
    out: &mut Vec<Diagnostic>,
) {
    for info in listeners {
        if info.covered {
            continue;
        }
        let element = describe_element(doc, info.node);
        let needle = doc
            .element(info.node)
            .and_then(|e| e.id())
            .map(str::to_string)
            .unwrap_or_default();
        let location = || Location::new(Area::Html, element.clone()).locate(html, &needle);
        out.push(Diagnostic::new(
            LintCode::UncoveredHandler,
            location(),
            format!(
                "`{element}` handles on{} but no annotation reaches it; \
                 the scheduler treats its responses as best-effort",
                info.event
            ),
        ));
        if let Some(candidate) = plan
            .candidates
            .iter()
            .find(|c| c.node == info.node && c.event == info.event)
        {
            out.push(Diagnostic::new(
                LintCode::AutoAnnotatable,
                location(),
                format!(
                    "AUTOGREEN can annotate it: `{} {{ on{}-qos: ...; }}`",
                    candidate.selector, info.event
                ),
            ));
        } else if let Some(skip) = plan
            .skipped
            .iter()
            .find(|s| s.node == Some(info.node) && s.event == info.event)
        {
            out.push(Diagnostic::new(
                LintCode::AutoGreenSkip,
                location(),
                format!("AUTOGREEN would skip it too: {}", skip.reason),
            ));
        }
    }
}

/// One statically unmeetable QoS target (a GW040 finding), in structured
/// form so the dynamic cross-validation suite can reproduce it.
#[derive(Debug, Clone, PartialEq)]
pub struct FeasibilityFinding {
    /// The `id` attribute of the annotated element, when it has one (the
    /// handle a trace can target).
    pub node_id: Option<String>,
    /// The element descriptor used in the diagnostic.
    pub element: String,
    /// The annotated event.
    pub event: EventType,
    /// The QoS type of the winning annotation.
    pub qos_type: QosType,
    /// The guaranteed lower bound of the response, ms, at peak.
    pub bound_ms: f64,
    /// The annotation's imperceptible target T_I, ms.
    pub imperceptible_ms: f64,
    /// The annotation's usable target T_U, ms.
    pub usable_ms: f64,
}

/// Pass 4: flags annotations whose targets are below the guaranteed cost
/// of their handler even at the platform's peak configuration. Returns
/// the GW040 findings in structured form.
pub fn platform_feasibility(
    app: &App,
    doc: &Document,
    table: &AnnotationTable,
    listeners: &[ListenerInfo],
    costs: &BTreeMap<(NodeId, EventType), HandlerCost>,
    platform: &Platform,
    out: &mut Vec<Diagnostic>,
) -> Vec<FeasibilityFinding> {
    let peak = platform.peak();
    let ipc = platform.cluster(CoreType::Big).ipc;
    let rate_per_ms = WorkUnit::rate(peak, ipc) / 1_000.0;
    let elements = doc.elements().count();
    // Scripts that can detach nodes may shrink the document between load
    // and the judged frame, so the element-scaled pipeline term is only a
    // lower bound when no such call appears anywhere. (A textual check
    // over-approximates reachability, which errs on the sound side.)
    let dom_may_shrink = app
        .scripts
        .iter()
        .any(|s| s.contains("removeChild") || s.contains("setText"));
    let pipeline_ms = pipeline_floor_ms(app, elements, rate_per_ms, dom_may_shrink);

    let mut findings = Vec::new();
    for info in listeners {
        let Some(spec) = table.lookup(doc, info.node, info.event) else {
            continue;
        };
        let Some(cost) = costs.get(&(info.node, info.event)) else {
            continue;
        };
        if cost.fuel_exhausted {
            // Termination is unknown; no honest verdict exists.
            continue;
        }
        let callback_ms = cost.guaranteed_ms(rate_per_ms) + app.cost.input_ipc_ms;
        let bound_ms = callback_ms + pipeline_ms;
        let element = describe_element(doc, info.node);
        let context = format!("{element} on{}", info.event);
        let location = Location::new(Area::App, context.clone());
        let target = spec.target;
        if bound_ms > target.usable_ms {
            let (code, verb) = match spec.qos_type {
                QosType::Single => (LintCode::UnsatisfiableTarget, "usable target"),
                QosType::Continuous => (LintCode::ContinuousOverBudget, "per-frame usable target"),
            };
            out.push(Diagnostic::new(
                code,
                location,
                format!(
                    "`{element}` on{}: response is guaranteed to take >= {bound_ms:.1} ms even at \
                     peak (big core, max frequency), above the {verb} of {:.1} ms",
                    info.event, target.usable_ms
                ),
            ));
            if spec.qos_type == QosType::Single {
                findings.push(FeasibilityFinding {
                    node_id: doc
                        .element(info.node)
                        .and_then(|e| e.id())
                        .map(str::to_string),
                    element,
                    event: info.event,
                    qos_type: spec.qos_type,
                    bound_ms,
                    imperceptible_ms: target.imperceptible_ms,
                    usable_ms: target.usable_ms,
                });
            }
        } else if bound_ms > target.imperceptible_ms {
            out.push(Diagnostic::new(
                LintCode::InfeasibleImperceptible,
                location,
                format!(
                    "`{element}` on{}: response is guaranteed to take >= {bound_ms:.1} ms at peak, \
                     above the imperceptible target of {:.1} ms; only the usable scenario can be met",
                    info.event, target.imperceptible_ms
                ),
            ));
        }
    }
    findings
}

/// The guaranteed per-frame pipeline time at peak, in milliseconds.
fn pipeline_floor_ms(app: &App, elements: usize, rate_per_ms: f64, dom_may_shrink: bool) -> f64 {
    let m = &app.cost;
    // Surges only ever multiply a frame's cost *up* in the bundled cost
    // models, but a factor below one would make some frames cheaper, so
    // the floor takes the minimum multiplier.
    let mult = if m.surge_every > 0 {
        m.surge_factor.min(1.0)
    } else {
        1.0
    };
    let element_cycles = if dom_may_shrink {
        0.0
    } else {
        (m.style_cycles_per_element + m.layout_cycles_per_element) * elements as f64
    };
    let cycles = (element_cycles + m.paint_cycles + m.composite_cycles) * mult;
    cycles / rate_per_ms + m.composite_independent_ms
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenweb_css::parse_stylesheet;
    use greenweb_dom::parse_html;

    fn sanity(html: &str, css: &str) -> Vec<Diagnostic> {
        let doc = parse_html(html).unwrap();
        let sheet = parse_stylesheet(css).unwrap();
        let (table, errors) = AnnotationTable::from_stylesheet_lossy(&sheet);
        let mut out = Vec::new();
        annotation_sanity(&doc, css, &table, &errors, &mut out);
        out
    }

    #[test]
    fn dead_annotation_detected() {
        let out = sanity(
            "<div id='real'></div>",
            "#ghost:QoS { onclick-qos: single, short; }",
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code, LintCode::DeadAnnotation);
        assert_eq!(out[0].location.line, Some(1));
    }

    #[test]
    fn shadowed_annotation_detected() {
        let out = sanity(
            "<div id='x' class='c'></div>",
            ".c:QoS { onclick-qos: single, long; }\n#x:QoS { onclick-qos: single, short; }",
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code, LintCode::ShadowedAnnotation);
        assert!(out[0].render().contains(".c:QoS"));
    }

    #[test]
    fn conflicting_annotations_detected() {
        let out = sanity(
            "<div id='x'></div>",
            "#x:QoS { onclick-qos: single, short; }\n#x:QoS { onclick-qos: single, long; }",
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code, LintCode::ConflictingAnnotations);
    }

    #[test]
    fn equal_duplicates_do_not_conflict() {
        let out = sanity(
            "<div id='x'></div>",
            "#x:QoS { onclick-qos: single, short; }\n#x:QoS { onclick-qos: single, short; }",
        );
        // The earlier duplicate never wins but declares the same spec:
        // harmless, so only the shadow warning fires.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code, LintCode::ShadowedAnnotation);
    }

    #[test]
    fn malformed_values_reported() {
        let out = sanity(
            "<div id='x'></div>",
            "#x:QoS { onhover-qos: continuous; }\n#x:QoS { onclick-qos: sideways; }",
        );
        let codes: Vec<LintCode> = out.iter().map(|d| d.code).collect();
        assert!(codes.contains(&LintCode::UnknownQosEvent));
        assert!(codes.contains(&LintCode::BadQosValue));
    }

    #[test]
    fn clean_annotations_produce_nothing() {
        let out = sanity(
            "<div id='x'></div>",
            "#x:QoS { onclick-qos: single, short; }",
        );
        assert!(out.is_empty(), "{out:?}");
    }
}
