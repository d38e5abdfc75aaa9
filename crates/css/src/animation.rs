//! CSS keyframe animations (`@keyframes` + the `animation` property).
//!
//! Together with transitions and `requestAnimationFrame`, keyframe
//! animations are the third animation mechanism AUTOGREEN detects when
//! classifying an event's QoS type as "continuous" (paper Sec. 5).

use crate::stylesheet::KeyframesRule;
use crate::transition::TimingFunction;
use crate::value::{CssValue, TimeValue};
use std::fmt;

/// Iteration count of an animation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IterationCount {
    /// A finite number of iterations (CSS allows fractional counts).
    Finite(f64),
    /// `infinite`.
    Infinite,
}

impl Default for IterationCount {
    fn default() -> Self {
        IterationCount::Finite(1.0)
    }
}

impl fmt::Display for IterationCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IterationCount::Finite(n) => write!(f, "{n}"),
            IterationCount::Infinite => write!(f, "infinite"),
        }
    }
}

/// A parsed `animation` shorthand: `name duration [timing] [delay] [count]`.
#[derive(Debug, Clone, PartialEq)]
pub struct AnimationSpec {
    /// The `@keyframes` rule name.
    pub name: String,
    /// Duration of one iteration.
    pub duration: TimeValue,
    /// Start delay.
    pub delay: TimeValue,
    /// Easing applied within each iteration.
    pub timing: TimingFunction,
    /// How many times the animation plays.
    pub iterations: IterationCount,
}

impl AnimationSpec {
    /// Parses the value of an `animation` property (single animation; the
    /// workloads do not use comma-separated animation lists).
    pub fn parse(value: &CssValue) -> Option<AnimationSpec> {
        let parts: Vec<&CssValue> = match value {
            CssValue::Sequence(seq) => seq.iter().collect(),
            other => vec![other],
        };
        let mut name: Option<String> = None;
        let mut times: Vec<TimeValue> = Vec::new();
        let mut timing = TimingFunction::default();
        let mut iterations = IterationCount::default();
        for part in parts {
            match part {
                CssValue::Keyword(k) if k == "infinite" => {
                    iterations = IterationCount::Infinite;
                }
                CssValue::Keyword(k)
                    if matches!(
                        k.as_str(),
                        "linear" | "ease" | "ease-in" | "ease-out" | "ease-in-out"
                    ) =>
                {
                    timing = TimingFunction::from_keyword(k);
                }
                CssValue::Keyword(k) if name.is_none() => {
                    name = Some(k.clone());
                }
                CssValue::Time(t) => times.push(*t),
                CssValue::Number(n) => iterations = IterationCount::Finite(*n),
                _ => {}
            }
        }
        Some(AnimationSpec {
            name: name?,
            duration: times.first().copied().unwrap_or(TimeValue::ms(0.0)),
            delay: times.get(1).copied().unwrap_or(TimeValue::ms(0.0)),
            timing,
            iterations,
        })
    }
}

impl fmt::Display for AnimationSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} {} {}",
            self.name, self.duration, self.timing, self.delay, self.iterations
        )
    }
}

/// A running keyframe animation on one element.
#[derive(Debug, Clone, PartialEq)]
pub struct AnimationState {
    /// The animation definition.
    pub spec: AnimationSpec,
    /// Absolute start time (after delay) in milliseconds.
    pub start_ms: f64,
}

impl AnimationState {
    /// Starts `spec` at virtual time `now_ms`.
    pub fn start(spec: AnimationSpec, now_ms: f64) -> Self {
        let start_ms = now_ms + spec.delay.ms;
        AnimationState { spec, start_ms }
    }

    /// Progress within the current iteration in `[0, 1]` (after easing),
    /// or `None` before the delay has elapsed.
    pub fn progress(&self, now_ms: f64) -> Option<f64> {
        if now_ms < self.start_ms {
            return None;
        }
        if self.spec.duration.ms <= 0.0 {
            return Some(1.0);
        }
        let elapsed = (now_ms - self.start_ms) / self.spec.duration.ms;
        let raw = match self.spec.iterations {
            IterationCount::Infinite => elapsed.fract(),
            IterationCount::Finite(n) => {
                if elapsed >= n {
                    // Hold the final keyframe.
                    return Some(self.spec.timing.apply(1.0));
                }
                elapsed.fract()
            }
        };
        Some(self.spec.timing.apply(raw))
    }

    /// Samples `property` from the keyframes at `now_ms`.
    pub fn sample(
        &self,
        keyframes: &KeyframesRule,
        property: &str,
        now_ms: f64,
    ) -> Option<CssValue> {
        let t = self.progress(now_ms)?;
        keyframes.sample(property, t)
    }

    /// Whether the animation has completed (always `false` for infinite).
    pub fn is_finished(&self, now_ms: f64) -> bool {
        match self.spec.iterations {
            IterationCount::Infinite => false,
            IterationCount::Finite(n) => now_ms >= self.start_ms + self.spec.duration.ms * n,
        }
    }

    /// The absolute end time, or `None` for infinite animations.
    pub fn end_ms(&self) -> Option<f64> {
        match self.spec.iterations {
            IterationCount::Infinite => None,
            IterationCount::Finite(n) => Some(self.start_ms + self.spec.duration.ms * n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stylesheet::{parse_declarations_str, parse_stylesheet};
    use crate::value::Length;

    fn spec(decl: &str) -> AnimationSpec {
        let decls = parse_declarations_str(decl);
        AnimationSpec::parse(&decls[0].value).unwrap()
    }

    #[test]
    fn parses_shorthand() {
        let s = spec("animation: slide 2s linear 100ms 3");
        assert_eq!(s.name, "slide");
        assert_eq!(s.duration, TimeValue::seconds(2.0));
        assert_eq!(s.delay, TimeValue::ms(100.0));
        assert_eq!(s.timing, TimingFunction::Linear);
        assert_eq!(s.iterations, IterationCount::Finite(3.0));
    }

    #[test]
    fn parses_infinite() {
        let s = spec("animation: spin 1s infinite");
        assert_eq!(s.iterations, IterationCount::Infinite);
    }

    #[test]
    fn progress_respects_delay_and_iterations() {
        let s = spec("animation: slide 1s linear 500ms 2");
        let state = AnimationState::start(s, 0.0);
        assert_eq!(state.progress(100.0), None);
        assert_eq!(state.progress(1000.0), Some(0.5));
        // Second iteration wraps.
        assert_eq!(state.progress(1750.0), Some(0.25));
        assert!(!state.is_finished(2000.0));
        assert!(state.is_finished(2500.0));
        assert_eq!(state.end_ms(), Some(2500.0));
    }

    #[test]
    fn finished_holds_final_frame() {
        let s = spec("animation: slide 1s linear");
        let state = AnimationState::start(s, 0.0);
        assert_eq!(state.progress(5000.0), Some(1.0));
    }

    #[test]
    fn infinite_never_finishes() {
        let s = spec("animation: spin 1s linear infinite");
        let state = AnimationState::start(s, 0.0);
        assert!(!state.is_finished(1.0e12));
        assert_eq!(state.end_ms(), None);
        assert_eq!(state.progress(1500.0), Some(0.5));
    }

    #[test]
    fn samples_keyframes() {
        let sheet =
            parse_stylesheet("@keyframes grow { from { width: 0px; } to { width: 100px; } }")
                .unwrap();
        let kf = sheet.keyframes_by_name("grow").unwrap();
        let s = spec("animation: grow 2s linear");
        let state = AnimationState::start(s, 0.0);
        assert_eq!(
            state.sample(kf, "width", 1000.0),
            Some(CssValue::Length(Length::px(50.0)))
        );
        assert_eq!(state.sample(kf, "height", 1000.0), None);
    }

    #[test]
    fn zero_duration_completes_immediately() {
        let s = spec("animation: pop 0s");
        let state = AnimationState::start(s, 42.0);
        assert!(state.is_finished(42.0));
        assert_eq!(state.progress(42.0), Some(1.0));
    }
}
