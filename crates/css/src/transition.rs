//! CSS transitions (the Fig. 4 animation mechanism of the paper).
//!
//! A `transition: width 2s ease` declaration arms the element: when the
//! `width` property later changes, the browser interpolates from the old
//! to the new value over the duration, producing one frame per VSync —
//! exactly the "continuous" QoS-type workload GreenWeb annotates.

use crate::value::{CssValue, TimeValue};
use std::fmt;

/// A timing function (easing curve).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum TimingFunction {
    /// Constant velocity.
    Linear,
    /// The CSS `ease` curve: `cubic-bezier(0.25, 0.1, 0.25, 1)`.
    #[default]
    Ease,
    /// `cubic-bezier(0.42, 0, 1, 1)`.
    EaseIn,
    /// `cubic-bezier(0, 0, 0.58, 1)`.
    EaseOut,
    /// `cubic-bezier(0.42, 0, 0.58, 1)`.
    EaseInOut,
}

impl TimingFunction {
    /// Parses a timing-function keyword; unknown keywords fall back to
    /// [`TimingFunction::Ease`] (the CSS initial value).
    pub fn from_keyword(keyword: &str) -> Self {
        match keyword {
            "linear" => TimingFunction::Linear,
            "ease-in" => TimingFunction::EaseIn,
            "ease-out" => TimingFunction::EaseOut,
            "ease-in-out" => TimingFunction::EaseInOut,
            _ => TimingFunction::Ease,
        }
    }

    /// Maps linear progress `t ∈ [0, 1]` through the curve.
    pub fn apply(self, t: f64) -> f64 {
        let t = t.clamp(0.0, 1.0);
        match self {
            TimingFunction::Linear => t,
            TimingFunction::Ease => cubic_bezier(0.25, 0.1, 0.25, 1.0, t),
            TimingFunction::EaseIn => cubic_bezier(0.42, 0.0, 1.0, 1.0, t),
            TimingFunction::EaseOut => cubic_bezier(0.0, 0.0, 0.58, 1.0, t),
            TimingFunction::EaseInOut => cubic_bezier(0.42, 0.0, 0.58, 1.0, t),
        }
    }
}

impl fmt::Display for TimingFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            TimingFunction::Linear => "linear",
            TimingFunction::Ease => "ease",
            TimingFunction::EaseIn => "ease-in",
            TimingFunction::EaseOut => "ease-out",
            TimingFunction::EaseInOut => "ease-in-out",
        };
        f.write_str(name)
    }
}

/// Evaluates the y coordinate of a CSS cubic bezier at x-progress `x`
/// using bisection on the x polynomial (endpoints are fixed at (0,0) and
/// (1,1) per the CSS spec).
fn cubic_bezier(x1: f64, y1: f64, x2: f64, y2: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let sample = |p1: f64, p2: f64, t: f64| {
        // B(t) with P0 = 0 and P3 = 1.
        3.0 * (1.0 - t) * (1.0 - t) * t * p1 + 3.0 * (1.0 - t) * t * t * p2 + t * t * t
    };
    let mut lo = 0.0;
    let mut hi = 1.0;
    let mut t = x;
    for _ in 0..32 {
        let cx = sample(x1, x2, t);
        if (cx - x).abs() < 1e-7 {
            break;
        }
        if cx < x {
            lo = t;
        } else {
            hi = t;
        }
        t = (lo + hi) / 2.0;
    }
    sample(y1, y2, t)
}

/// A parsed `transition` declaration for one property.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionSpec {
    /// The transitioned property (`width`), or `all`.
    pub property: String,
    /// Transition duration.
    pub duration: TimeValue,
    /// Delay before the transition starts.
    pub delay: TimeValue,
    /// Easing curve.
    pub timing: TimingFunction,
}

impl TransitionSpec {
    /// Parses the value of a `transition` property. Accepts the shorthand
    /// grammar `<property> <duration> [<timing>] [<delay>]`, possibly
    /// comma-separated for multiple properties.
    pub fn parse_list(value: &CssValue) -> Vec<TransitionSpec> {
        value
            .items()
            .into_iter()
            .filter_map(Self::parse_single)
            .collect()
    }

    fn parse_single(value: &CssValue) -> Option<TransitionSpec> {
        let parts: Vec<&CssValue> = match value {
            CssValue::Sequence(seq) => seq.iter().collect(),
            other => vec![other],
        };
        let mut property: Option<String> = None;
        let mut times: Vec<TimeValue> = Vec::new();
        let mut timing = TimingFunction::default();
        for part in parts {
            match part {
                CssValue::Keyword(k) => {
                    if property.is_none() {
                        property = Some(k.clone());
                    } else {
                        timing = TimingFunction::from_keyword(k);
                    }
                }
                CssValue::Time(t) => times.push(*t),
                _ => {}
            }
        }
        Some(TransitionSpec {
            property: property?,
            duration: times.first().copied().unwrap_or(TimeValue::ms(0.0)),
            delay: times.get(1).copied().unwrap_or(TimeValue::ms(0.0)),
            timing,
        })
    }

    /// Whether this spec covers `property` (exact match or `all`).
    pub fn covers(&self, property: &str) -> bool {
        self.property == "all" || self.property == property
    }
}

impl fmt::Display for TransitionSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} {}",
            self.property, self.duration, self.timing, self.delay
        )
    }
}

/// A running transition on one element property.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionState {
    /// The transitioned property.
    pub property: String,
    /// Start value.
    pub from: CssValue,
    /// End value.
    pub to: CssValue,
    /// Absolute start time in milliseconds (virtual clock).
    pub start_ms: f64,
    /// Duration in milliseconds.
    pub duration_ms: f64,
    /// Easing curve.
    pub timing: TimingFunction,
}

impl TransitionState {
    /// Starts a transition at `now_ms` per `spec`.
    pub fn start(
        spec: &TransitionSpec,
        property: &str,
        from: CssValue,
        to: CssValue,
        now_ms: f64,
    ) -> Self {
        TransitionState {
            property: property.to_string(),
            from,
            to,
            start_ms: now_ms + spec.delay.ms,
            duration_ms: spec.duration.ms,
            timing: spec.timing,
        }
    }

    /// Linear progress in `[0, 1]` at `now_ms` (before easing).
    pub fn progress(&self, now_ms: f64) -> f64 {
        if self.duration_ms <= 0.0 {
            return 1.0;
        }
        ((now_ms - self.start_ms) / self.duration_ms).clamp(0.0, 1.0)
    }

    /// The interpolated value at `now_ms`. Non-interpolable values snap to
    /// `to` at 50 % progress, per CSS discrete animation behaviour.
    pub fn value_at(&self, now_ms: f64) -> CssValue {
        let t = self.timing.apply(self.progress(now_ms));
        self.from.interpolate(&self.to, t).unwrap_or_else(|| {
            if t < 0.5 {
                self.from.clone()
            } else {
                self.to.clone()
            }
        })
    }

    /// Whether the transition has reached its end at `now_ms`.
    pub fn is_finished(&self, now_ms: f64) -> bool {
        self.progress(now_ms) >= 1.0
    }

    /// The absolute end time in milliseconds.
    pub fn end_ms(&self) -> f64 {
        self.start_ms + self.duration_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stylesheet::parse_declarations_str;
    use crate::value::Length;

    fn parse_transition(decl: &str) -> Vec<TransitionSpec> {
        let decls = parse_declarations_str(decl);
        TransitionSpec::parse_list(&decls[0].value)
    }

    #[test]
    fn parses_fig4_transition() {
        let specs = parse_transition("transition: width 2s");
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].property, "width");
        assert_eq!(specs[0].duration, TimeValue::seconds(2.0));
        assert_eq!(specs[0].timing, TimingFunction::Ease);
    }

    #[test]
    fn parses_full_shorthand() {
        let specs = parse_transition("transition: opacity 300ms ease-in 100ms");
        assert_eq!(specs[0].property, "opacity");
        assert_eq!(specs[0].duration, TimeValue::ms(300.0));
        assert_eq!(specs[0].delay, TimeValue::ms(100.0));
        assert_eq!(specs[0].timing, TimingFunction::EaseIn);
    }

    #[test]
    fn parses_comma_separated_list() {
        let specs = parse_transition("transition: width 2s, height 1s linear");
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[1].property, "height");
        assert_eq!(specs[1].timing, TimingFunction::Linear);
    }

    #[test]
    fn all_covers_everything() {
        let specs = parse_transition("transition: all 1s");
        assert!(specs[0].covers("width"));
        assert!(specs[0].covers("anything"));
    }

    #[test]
    fn linear_progress_and_values() {
        let spec = parse_transition("transition: width 2s linear").remove(0);
        let state = TransitionState::start(
            &spec,
            "width",
            CssValue::Length(Length::px(100.0)),
            CssValue::Length(Length::px(500.0)),
            0.0,
        );
        assert_eq!(state.value_at(0.0), CssValue::Length(Length::px(100.0)));
        assert_eq!(state.value_at(1000.0), CssValue::Length(Length::px(300.0)));
        assert_eq!(state.value_at(2000.0), CssValue::Length(Length::px(500.0)));
        assert!(!state.is_finished(1999.0));
        assert!(state.is_finished(2000.0));
        assert_eq!(state.end_ms(), 2000.0);
    }

    #[test]
    fn delay_shifts_start() {
        let spec = parse_transition("transition: width 1s linear 500ms").remove(0);
        let state = TransitionState::start(
            &spec,
            "width",
            CssValue::Length(Length::px(0.0)),
            CssValue::Length(Length::px(100.0)),
            0.0,
        );
        assert_eq!(state.value_at(250.0), CssValue::Length(Length::px(0.0)));
        assert_eq!(state.value_at(1000.0), CssValue::Length(Length::px(50.0)));
        assert!(state.is_finished(1500.0));
    }

    #[test]
    fn zero_duration_is_instant() {
        let spec = parse_transition("transition: width 0s").remove(0);
        let state = TransitionState::start(
            &spec,
            "width",
            CssValue::Length(Length::px(0.0)),
            CssValue::Length(Length::px(100.0)),
            10.0,
        );
        assert!(state.is_finished(10.0));
    }

    #[test]
    fn discrete_values_snap_at_half() {
        let spec = parse_transition("transition: color 1s linear").remove(0);
        let state = TransitionState::start(
            &spec,
            "color",
            CssValue::Keyword("red".into()),
            CssValue::Keyword("blue".into()),
            0.0,
        );
        assert_eq!(state.value_at(100.0), CssValue::Keyword("red".into()));
        assert_eq!(state.value_at(900.0), CssValue::Keyword("blue".into()));
    }

    #[test]
    fn easing_curves_are_monotone_and_bounded() {
        for tf in [
            TimingFunction::Linear,
            TimingFunction::Ease,
            TimingFunction::EaseIn,
            TimingFunction::EaseOut,
            TimingFunction::EaseInOut,
        ] {
            let mut prev = 0.0;
            for i in 0..=100 {
                let t = i as f64 / 100.0;
                let y = tf.apply(t);
                assert!((0.0..=1.0 + 1e-9).contains(&y), "{tf} out of range at {t}");
                assert!(y >= prev - 1e-6, "{tf} not monotone at {t}");
                prev = y;
            }
            assert_eq!(tf.apply(0.0), 0.0);
            assert!((tf.apply(1.0) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn ease_in_is_slow_then_fast() {
        let half = TimingFunction::EaseIn.apply(0.5);
        assert!(half < 0.5, "ease-in should lag linear at t=0.5, got {half}");
        let half_out = TimingFunction::EaseOut.apply(0.5);
        assert!(
            half_out > 0.5,
            "ease-out should lead linear, got {half_out}"
        );
    }

    #[test]
    fn unknown_timing_keyword_falls_back_to_ease() {
        assert_eq!(TimingFunction::from_keyword("bouncy"), TimingFunction::Ease);
    }
}
