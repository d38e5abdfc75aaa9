//! # greenweb
//!
//! A reproduction of **GreenWeb** (Zhu & Reddi, PLDI 2016): language
//! extensions for energy-efficient mobile Web computing, and a runtime
//! that honours them on an asymmetric (big.LITTLE) CPU.
//!
//! The crate implements the paper's four contributions:
//!
//! * **QoS abstractions** ([`qos`], Sec. 3): *QoS type* (single vs.
//!   continuous) and *QoS target* (imperceptible T_I vs. usable T_U), with
//!   the Table 1 defaults.
//! * **Language extensions** ([`lang`], Sec. 4): the `:QoS` CSS
//!   pseudo-class and `on<event>-qos` properties of Table 2, parsed from
//!   ordinary stylesheets into an annotation table with selector matching
//!   and specificity. Both modules are defined in `greenweb-css`, below
//!   the engine, and re-exported here under the same paths.
//! * **AUTOGREEN** ([`autogreen`], Sec. 5): automatic annotation by
//!   instrumented profiling — trigger each event, detect rAF /
//!   `animate()` / CSS transitions, and inject generated `:QoS` rules.
//! * **The GreenWeb runtime** ([`runtime`] + [`model`], Sec. 6): frame
//!   latency models fit from two-point DVFS profiling (Eq. 1), per-frame
//!   ⟨core, frequency⟩ prediction minimizing energy under the QoS target,
//!   feedback-driven adjustment, and re-profiling on misprediction.
//!
//! [`metrics`] computes the paper's evaluation metrics (QoS violation,
//! normalized energy); [`uai`] implements the Sec. 8 user-agent
//! intervention that defends against mis-annotation with an energy
//! budget.
//!
//! ```
//! use greenweb::lang::AnnotationTable;
//! use greenweb::qos::{QosType, Scenario};
//! use greenweb_css::parse_stylesheet;
//! use greenweb_dom::{parse_html, EventType};
//!
//! let sheet = parse_stylesheet(
//!     "div#ex:QoS { ontouchstart-qos: continuous; }",
//! ).unwrap();
//! let doc = parse_html("<div id='ex'></div>").unwrap();
//! let table = AnnotationTable::from_stylesheet(&sheet).unwrap();
//! let node = doc.element_by_id("ex").unwrap();
//! let spec = table.lookup(&doc, node, EventType::TouchStart).unwrap();
//! assert_eq!(spec.qos_type, QosType::Continuous);
//! assert_eq!(spec.target.for_scenario(Scenario::Imperceptible), 16.6);
//! ```

#![forbid(unsafe_code)]

pub mod autogreen;
pub mod ebs;
pub mod metrics;
pub mod model;
pub mod runtime;
pub mod uai;

pub use greenweb_css::{lang, qos};

pub use autogreen::{
    AnnotationCandidate, AutoGreen, AutoGreenReport, SkipReason, SkippedTarget, StaticPlan,
};
pub use ebs::EbsScheduler;
pub use lang::{Annotation, AnnotationTable, LangError};
pub use metrics::{
    mean_violation, violation_for_input, violation_rate_in_window,
    violation_rate_in_window_or_zero, RunMetrics,
};
pub use model::{ConfigPredictor, FrameModel};
pub use qos::{QosSpec, QosTarget, QosType, Scenario};
pub use runtime::GreenWebScheduler;
pub use uai::EnergyBudgetUai;
