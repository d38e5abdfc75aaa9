//! The two QoS abstractions of Sec. 3, with the Table 1 defaults.
//!
//! *QoS type* captures **how** users perceive an interaction's response:
//! through the latency of a single response frame, or through the
//! smoothness of a continuous frame sequence. *QoS target* captures the
//! performance **level** required: the *imperceptible* target T_I (faster
//! adds no perceivable value) and the *usable* target T_U (slower and the
//! user disengages).

use std::fmt;

/// How user experience is evaluated for an event (Sec. 3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QosType {
    /// One response frame; experience is its latency.
    Single,
    /// A sequence of frames; experience is each frame's latency.
    Continuous,
}

impl fmt::Display for QosType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QosType::Single => write!(f, "single"),
            QosType::Continuous => write!(f, "continuous"),
        }
    }
}

/// Expected response duration of a "single"-type interaction (Sec. 3.3):
/// lightweight interactions feel instant; heavyweight ones buy patience.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResponseExpectation {
    /// Users expect an instant response (display a search box).
    Short,
    /// Users knowingly wait (page load, image filter).
    Long,
}

/// Which battery scenario the runtime optimizes for (Sec. 7.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// Abundant battery: deliver the imperceptible target T_I.
    Imperceptible,
    /// Tight battery: deliver the usable target T_U.
    Usable,
}

impl Scenario {
    /// Both scenarios.
    pub const ALL: [Scenario; 2] = [Scenario::Imperceptible, Scenario::Usable];
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scenario::Imperceptible => write!(f, "imperceptible"),
            Scenario::Usable => write!(f, "usable"),
        }
    }
}

/// A `(T_I, T_U)` pair in milliseconds (Sec. 3.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosTarget {
    /// Imperceptible target T_I: faster is imperceptible.
    pub imperceptible_ms: f64,
    /// Usable target T_U: slower is unusable.
    pub usable_ms: f64,
}

impl QosTarget {
    /// Default for "continuous": 60 FPS imperceptible, 30 FPS usable.
    pub const CONTINUOUS: QosTarget = QosTarget {
        imperceptible_ms: 16.6,
        usable_ms: 33.3,
    };

    /// Default for "single, short": 100 ms instant, 300 ms limit.
    pub const SINGLE_SHORT: QosTarget = QosTarget {
        imperceptible_ms: 100.0,
        usable_ms: 300.0,
    };

    /// Default for "single, long": 1 s focus, 10 s attention limit.
    pub const SINGLE_LONG: QosTarget = QosTarget {
        imperceptible_ms: 1_000.0,
        usable_ms: 10_000.0,
    };

    /// A custom target pair.
    ///
    /// # Panics
    ///
    /// Panics if either value is non-positive or T_I exceeds T_U.
    pub fn new(imperceptible_ms: f64, usable_ms: f64) -> Self {
        assert!(
            imperceptible_ms > 0.0 && usable_ms > 0.0,
            "QoS targets must be positive"
        );
        assert!(
            imperceptible_ms <= usable_ms,
            "imperceptible target must not exceed usable target"
        );
        QosTarget {
            imperceptible_ms,
            usable_ms,
        }
    }

    /// The target latency for `scenario`, in milliseconds.
    pub fn for_scenario(&self, scenario: Scenario) -> f64 {
        match scenario {
            Scenario::Imperceptible => self.imperceptible_ms,
            Scenario::Usable => self.usable_ms,
        }
    }
}

impl fmt::Display for QosTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}) ms", self.imperceptible_ms, self.usable_ms)
    }
}

/// A full QoS annotation: type plus target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosSpec {
    /// The QoS type.
    pub qos_type: QosType,
    /// The QoS target pair.
    pub target: QosTarget,
}

impl QosSpec {
    /// "continuous" with the Table 1 defaults.
    pub fn continuous() -> Self {
        QosSpec {
            qos_type: QosType::Continuous,
            target: QosTarget::CONTINUOUS,
        }
    }

    /// "single" with the Table 1 defaults for `expectation`.
    pub fn single(expectation: ResponseExpectation) -> Self {
        QosSpec {
            qos_type: QosType::Single,
            target: match expectation {
                ResponseExpectation::Short => QosTarget::SINGLE_SHORT,
                ResponseExpectation::Long => QosTarget::SINGLE_LONG,
            },
        }
    }

    /// A spec with explicit targets (the third rule of Table 2).
    pub fn with_target(qos_type: QosType, target: QosTarget) -> Self {
        QosSpec { qos_type, target }
    }

    /// The Table 1 category default for `event` — the fallback the
    /// runtime substitutes when an annotation is malformed: move-type
    /// interactions are continuous, page load is single/long, every
    /// other discrete interaction is single/short.
    pub fn default_for_event(event: greenweb_dom::EventType) -> Self {
        use greenweb_dom::EventType;
        match event {
            EventType::TouchMove | EventType::Scroll => QosSpec::continuous(),
            EventType::Load => QosSpec::single(ResponseExpectation::Long),
            _ => QosSpec::single(ResponseExpectation::Short),
        }
    }
}

impl fmt::Display for QosSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.qos_type, self.target)
    }
}

/// One row of Table 1: a QoS category with the interactions that fall in
/// it.
#[derive(Debug, Clone, PartialEq)]
pub struct QosCategory {
    /// The QoS type of the category.
    pub qos_type: QosType,
    /// The default target pair.
    pub target: QosTarget,
    /// Human description (as in the paper's Table 1).
    pub description: &'static str,
    /// LTM interactions that produce this category (L/T/M letters).
    pub interactions: &'static str,
}

impl QosCategory {
    /// The three categories of Table 1.
    pub fn table1() -> [QosCategory; 3] {
        [
            QosCategory {
                qos_type: QosType::Continuous,
                target: QosTarget::CONTINUOUS,
                description: "QoS experience is evaluated by continuous frame latencies.",
                interactions: "T, M",
            },
            QosCategory {
                qos_type: QosType::Single,
                target: QosTarget::SINGLE_SHORT,
                description:
                    "QoS experience is evaluated by single frame latency. Users expect short response period.",
                interactions: "T",
            },
            QosCategory {
                qos_type: QosType::Single,
                target: QosTarget::SINGLE_LONG,
                description:
                    "QoS experience is evaluated by single frame latency. Users expect long response period.",
                interactions: "L, T",
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_defaults_match_paper() {
        assert_eq!(QosTarget::CONTINUOUS.imperceptible_ms, 16.6);
        assert_eq!(QosTarget::CONTINUOUS.usable_ms, 33.3);
        assert_eq!(QosTarget::SINGLE_SHORT.imperceptible_ms, 100.0);
        assert_eq!(QosTarget::SINGLE_SHORT.usable_ms, 300.0);
        assert_eq!(QosTarget::SINGLE_LONG.imperceptible_ms, 1_000.0);
        assert_eq!(QosTarget::SINGLE_LONG.usable_ms, 10_000.0);
    }

    #[test]
    fn scenario_selects_target() {
        let t = QosTarget::SINGLE_SHORT;
        assert_eq!(t.for_scenario(Scenario::Imperceptible), 100.0);
        assert_eq!(t.for_scenario(Scenario::Usable), 300.0);
    }

    #[test]
    fn spec_constructors() {
        assert_eq!(QosSpec::continuous().qos_type, QosType::Continuous);
        assert_eq!(
            QosSpec::single(ResponseExpectation::Long).target,
            QosTarget::SINGLE_LONG
        );
        let custom = QosSpec::with_target(QosType::Continuous, QosTarget::new(20.0, 100.0));
        assert_eq!(custom.target.imperceptible_ms, 20.0);
    }

    #[test]
    #[should_panic(expected = "must not exceed")]
    fn inverted_targets_panic() {
        QosTarget::new(300.0, 100.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_target_panics() {
        QosTarget::new(0.0, 100.0);
    }

    #[test]
    fn table1_has_three_categories() {
        let cats = QosCategory::table1();
        assert_eq!(cats.len(), 3);
        // Magnitudes differ by ~an order across categories (Sec. 3.3).
        assert!(cats[1].target.imperceptible_ms / cats[0].target.imperceptible_ms > 5.0);
        assert!(cats[2].target.imperceptible_ms / cats[1].target.imperceptible_ms > 5.0);
    }

    #[test]
    fn category_defaults_by_event() {
        use greenweb_dom::EventType;
        assert_eq!(
            QosSpec::default_for_event(EventType::TouchMove),
            QosSpec::continuous()
        );
        assert_eq!(
            QosSpec::default_for_event(EventType::Scroll),
            QosSpec::continuous()
        );
        assert_eq!(
            QosSpec::default_for_event(EventType::Click).target,
            QosTarget::SINGLE_SHORT
        );
        assert_eq!(
            QosSpec::default_for_event(EventType::Load).target,
            QosTarget::SINGLE_LONG
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(QosType::Continuous.to_string(), "continuous");
        assert_eq!(Scenario::Usable.to_string(), "usable");
        assert_eq!(
            QosSpec::continuous().to_string(),
            "continuous (16.6, 33.3) ms"
        );
    }
}
