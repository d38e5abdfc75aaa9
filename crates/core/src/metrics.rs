//! Evaluation metrics (Sec. 7).
//!
//! *QoS violation* is "the percentage by which a frame latency exceeds
//! the QoS target" — a 200 ms frame against a 100 ms target is a 100 %
//! violation. Events with a "continuous" QoS type report the geometric
//! mean over all associated frames (Sec. 7.2). Energy is reported
//! normalized to a baseline run (Perf in the paper's figures).

use crate::degrade::{DegradationLevel, DegradationLog};
use crate::qos::QosType;
use greenweb_acmp::{Duration, SimTime};
use greenweb_css::StyleStats;
use greenweb_engine::{InputId, LayoutStats, PaintStats, ScriptStats, SimReport};
use greenweb_trace::json::{self, ToJson};
use greenweb_trace::{Histogram, LatencySummary};
use std::collections::HashMap;

/// The QoS expectation used to judge one input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InputExpectation {
    /// The QoS type.
    pub qos_type: QosType,
    /// The target latency, in milliseconds, for the active scenario.
    pub target_ms: f64,
}

/// Violation percentage of one frame latency against a target.
fn frame_violation_pct(latency_ms: f64, target_ms: f64) -> f64 {
    ((latency_ms - target_ms) / target_ms * 100.0).max(0.0)
}

/// The QoS violation of one input per the paper's definition.
///
/// Returns `None` if the input produced no frames (nothing to judge).
pub fn violation_for_input(
    report: &SimReport,
    uid: InputId,
    expectation: InputExpectation,
) -> Option<f64> {
    let frames = report.frames_for(uid);
    if frames.is_empty() {
        return None;
    }
    match expectation.qos_type {
        QosType::Single => {
            // The response frame is the first frame.
            let first = frames.iter().find(|f| f.seq == 0)?;
            Some(frame_violation_pct(
                first.latency.as_millis_f64(),
                expectation.target_ms,
            ))
        }
        QosType::Continuous => {
            // Geometric mean over all associated frames. Violations of 0
            // are common, so the mean is taken over (1 + v) ratio factors
            // and converted back to a percentage.
            let product_log: f64 = frames
                .iter()
                .map(|f| {
                    let ratio =
                        frame_violation_pct(f.latency.as_millis_f64(), expectation.target_ms)
                            / 100.0;
                    (1.0 + ratio).ln()
                })
                .sum();
            Some(((product_log / frames.len() as f64).exp() - 1.0) * 100.0)
        }
    }
}

/// Mean violation over a set of judged inputs (0 when none were judged).
pub fn mean_violation(violations: &[f64]) -> f64 {
    if violations.is_empty() {
        0.0
    } else {
        violations.iter().sum::<f64>() / violations.len() as f64
    }
}

/// Aggregated metrics of one run.
///
/// # Empty-window semantics
///
/// These metrics aggregate over the *whole* run. The windowed companion
/// [`violation_rate_in_window`] deliberately returns `Option<f64>`:
/// `None` means the window held no frames — "no evidence" — which is a
/// different claim from `Some(0.0)`, "frames ran and none violated".
/// Callers that genuinely want to treat an empty window as a clean
/// window (e.g. chaos before/after ratios, where no frames during the
/// storm means nothing regressed) should say so explicitly through
/// [`violation_rate_in_window_or_zero`] rather than scattering
/// `unwrap_or(0.0)` at call sites.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// Total energy in millijoules.
    pub energy_mj: f64,
    /// Mean QoS violation (%) over annotated inputs that produced frames.
    pub violation_pct: f64,
    /// Number of inputs that were judged.
    pub judged_inputs: usize,
    /// Inputs that carried a QoS expectation but could not be judged
    /// (they produced no frames — e.g. the input was dropped by a fault,
    /// or the run ended first). A nonzero value means `violation_pct`
    /// silently excludes real user-visible failures.
    pub unjudged_expected: usize,
    /// Total frames produced.
    pub frames: usize,
    /// Percentile summary of all frame latencies.
    pub latency: LatencySummary,
    /// Fraction of time on the big cluster.
    pub big_residency: f64,
    /// Configuration switches per frame (Fig. 12's metric).
    pub switches_per_frame: f64,
    /// `(DVFS switches, migrations)`.
    pub switches: (u64, u64),
    /// Style-system counters. Deterministic (counters, never timings),
    /// so they participate in the serial/parallel parity diff.
    pub style: StyleStats,
    /// Script-pipeline counters (compiles, precompiled hits, callbacks,
    /// charged ops, VM dispatches, fold wins). Deterministic like
    /// `style`.
    pub script: ScriptStats,
    /// Layout-pipeline counters (relayouts, elements measured, subtree
    /// reuses, fingerprint-dirty elements). The dirty count is
    /// identical in both rendering modes; the laid-out/reuse split is
    /// where the rendering-mode pin (`RunSpec::paint_incremental`) shows.
    pub layout: LayoutStats,
    /// Paint-pipeline counters (full/partial repaints, display items
    /// emitted/reused, damage items and area) — damage numbers are
    /// mode-independent like `layout.dirty_elements`.
    pub paint: PaintStats,
}

impl RunMetrics {
    /// Computes metrics for `report`, judging each input against
    /// `expectations` (inputs absent from the map are not judged —
    /// they are not "directly triggered by mobile user interactions",
    /// Table 3's note).
    pub fn compute(report: &SimReport, expectations: &HashMap<InputId, InputExpectation>) -> Self {
        let violations: Vec<f64> = report
            .inputs
            .iter()
            .filter_map(|input| {
                let expectation = expectations.get(&input.uid)?;
                violation_for_input(report, input.uid, *expectation)
            })
            .collect();
        let mut latency = Histogram::new();
        for frame in &report.frames {
            latency.record(frame.latency.as_millis_f64());
        }
        RunMetrics {
            energy_mj: report.total_mj(),
            violation_pct: mean_violation(&violations),
            judged_inputs: violations.len(),
            // Every expectation that produced no judgment is an input the
            // user cared about but the run never answered; surfacing the
            // count keeps zero-frame inputs from vanishing silently.
            unjudged_expected: expectations.len().saturating_sub(violations.len()),
            frames: report.frames.len(),
            latency: latency.summary(),
            big_residency: report.big_residency_fraction(),
            switches_per_frame: report.switches_per_frame(),
            switches: report.switches,
            style: report.style,
            script: report.script,
            layout: report.layout,
            paint: report.paint,
        }
    }

    /// Energy normalized to `baseline` (1.0 = same energy).
    pub fn energy_normalized_to(&self, baseline: &RunMetrics) -> f64 {
        if baseline.energy_mj == 0.0 {
            return 0.0;
        }
        self.energy_mj / baseline.energy_mj
    }

    /// Extra violation percentage points over `baseline` (clamped at 0,
    /// matching the paper's "additional violations on top of Perf").
    pub fn extra_violation_over(&self, baseline: &RunMetrics) -> f64 {
        (self.violation_pct - baseline.violation_pct).max(0.0)
    }

    /// Renders the deterministic JSON form: stable field order, floats
    /// via Rust's shortest-round-trip `Display` so equal metrics render
    /// byte-identically. The parity suite diffs this string between
    /// serial and parallel batch runs.
    ///
    /// The trailing `"style"`, `"script"`, `"layout"`, and `"paint"`
    /// objects are deliberately flat and last: the workload parity test
    /// (`oracle_pins_leave_metrics_unchanged`) strips
    /// `"style"`+`"layout"`+`"paint"` for its paint-mode row — reused
    /// subtrees skip style resolution, so the style counters move with
    /// the rendering mode too — and then requires the two renderings to
    /// be byte-identical.
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(640);
        self.write_json(&mut out);
        out
    }
}

impl ToJson for RunMetrics {
    fn write_json(&self, out: &mut String) {
        let (style, script, layout, paint) = (&self.style, &self.script, &self.layout, &self.paint);
        json::object(out, |o| {
            o.field("energy_mj", self.energy_mj)
                .field("violation_pct", self.violation_pct)
                .field("judged_inputs", self.judged_inputs)
                .field("unjudged_expected", self.unjudged_expected)
                .field("frames", self.frames)
                .obj("latency", |l| {
                    l.field("count", self.latency.count)
                        .field("p50_ms", self.latency.p50_ms)
                        .field("p95_ms", self.latency.p95_ms)
                        .field("p99_ms", self.latency.p99_ms)
                        .field("max_ms", self.latency.max_ms);
                })
                .field("big_residency", self.big_residency)
                .field("switches_per_frame", self.switches_per_frame)
                .field("dvfs_switches", self.switches.0)
                .field("migrations", self.switches.1)
                .obj("style", |s| {
                    s.field("resolves", style.resolves)
                        .field("matches", style.matches)
                        .field("bloom_rejects", style.bloom_rejects);
                })
                .obj("script", |s| {
                    s.field("programs", script.programs)
                        .field("compiles", script.compiles)
                        .field("precompiled_hits", script.precompiled_hits)
                        .field("handlers", script.handlers)
                        .field("handler_recompiles", script.handler_recompiles)
                        .field("callbacks", script.callbacks)
                        .field("ops", script.ops)
                        .field("dispatches", script.dispatches)
                        .field("fold_wins", script.fold_wins);
                })
                .obj("layout", |l| {
                    l.field("relayouts", layout.relayouts)
                        .field("elements_laid_out", layout.elements_laid_out)
                        .field("subtree_reuses", layout.subtree_reuses)
                        .field("dirty_elements", layout.dirty_elements);
                })
                .obj("paint", |p| {
                    p.field("full_repaints", paint.full_repaints)
                        .field("partial_repaints", paint.partial_repaints)
                        .field("items_emitted", paint.items_emitted)
                        .field("items_reused", paint.items_reused)
                        .field("damage_items", paint.damage_items)
                        .field("damage_area", paint.damage_area);
                });
        });
    }
}

/// Fraction of frames completing in `[from, to)` whose latency exceeds
/// `target_ms`, or `None` when the window holds no frames — an empty
/// window is "no evidence", which is not the same claim as "zero
/// violations". Chaos harnesses use this to compare the violation rate
/// during a fault storm against the rate after the watchdog has
/// re-converged.
pub fn violation_rate_in_window(
    report: &SimReport,
    target_ms: f64,
    from: SimTime,
    to: SimTime,
) -> Option<f64> {
    let mut total = 0usize;
    let mut violated = 0usize;
    for frame in &report.frames {
        if frame.completed_at < from || frame.completed_at >= to {
            continue;
        }
        total += 1;
        if frame.latency.as_millis_f64() > target_ms {
            violated += 1;
        }
    }
    if total == 0 {
        None
    } else {
        Some(violated as f64 / total as f64)
    }
}

/// [`violation_rate_in_window`] with the empty-window case collapsed to
/// `0.0` — the single sanctioned place that conflation happens.
///
/// Use this when a frameless window should read as "nothing violated"
/// rather than "no evidence": chaos before/after ratios compare a storm
/// window against a recovery window, and a storm so severe that no frame
/// completed must score as at-least-as-bad via the *other* window, not
/// divide by zero here.
pub fn violation_rate_in_window_or_zero(
    report: &SimReport,
    target_ms: f64,
    from: SimTime,
    to: SimTime,
) -> f64 {
    violation_rate_in_window(report, target_ms, from, to).unwrap_or(0.0)
}

/// Robustness metrics of one chaos run: what was injected, how far the
/// runtime degraded, and how long it took to come back.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosMetrics {
    /// Total faults the injector fired.
    pub injected_faults: usize,
    /// Fault counts by category (`"load-spike"`, `"vsync"`, `"input"`,
    /// `"sensor"`).
    pub faults_by_category: HashMap<&'static str, usize>,
    /// Ladder escalations the watchdog recorded.
    pub escalations: usize,
    /// Ladder recoveries (de-escalations).
    pub recoveries: usize,
    /// The most degraded level entered.
    pub deepest_level: DegradationLevel,
    /// Time from first escalation to the final return to
    /// [`DegradationLevel::Annotated`]; `None` if never degraded or not
    /// yet recovered.
    pub recovery_latency: Option<Duration>,
}

impl ChaosMetrics {
    /// Computes chaos metrics from a run's report and the scheduler's
    /// degradation log. Works for fault-free runs too (all zeros).
    pub fn compute(report: &SimReport, log: &DegradationLog) -> Self {
        let mut faults_by_category = HashMap::new();
        let mut injected_faults = 0;
        if let Some(chaos) = &report.chaos {
            injected_faults = chaos.total();
            for fault in &chaos.faults {
                *faults_by_category.entry(fault.kind.category()).or_insert(0) += 1;
            }
        }
        ChaosMetrics {
            injected_faults,
            faults_by_category,
            escalations: log.escalations(),
            recoveries: log.recoveries(),
            deepest_level: log.deepest(),
            recovery_latency: log.recovery_latency(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenweb_acmp::{Duration, EnergyBreakdown, SimTime};
    use greenweb_dom::EventType;
    use greenweb_engine::{FrameRecord, InputRecord};

    fn report_with_frames(frames: Vec<FrameRecord>) -> SimReport {
        let inputs = frames
            .iter()
            .map(|f| f.uid)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .map(|uid| InputRecord {
                uid,
                event: EventType::Click,
                target_id: None,
                at: SimTime::ZERO,
                had_listener: true,
                used_raf: false,
                used_animate: false,
                armed_css_animation: false,
                frames: 0,
            })
            .collect();
        SimReport {
            app: "t".into(),
            scheduler: "t".into(),
            energy: EnergyBreakdown {
                active_mj: 100.0,
                idle_mj: 20.0,
            },
            frames,
            inputs,
            residency: Default::default(),
            switches: (4, 2),
            busy_time: Duration::from_millis(10),
            total_time: Duration::from_millis(100),
            chaos: None,
            style: StyleStats::default(),
            script: ScriptStats::default(),
            layout: LayoutStats::default(),
            paint: PaintStats::default(),
            effect_checks: 0,
            effect_violations: Vec::new(),
        }
    }

    fn frame(uid: u64, seq: u32, latency_ms: u64) -> FrameRecord {
        FrameRecord {
            uid: InputId(uid),
            event: EventType::Click,
            seq,
            latency: Duration::from_millis(latency_ms),
            completed_at: SimTime::from_millis(1000),
        }
    }

    #[test]
    fn paper_example_100pct_violation() {
        // Sec. 7.2: "a frame latency of 200 ms leads to an 100% QoS
        // violation under a 100 ms QoS target".
        let report = report_with_frames(vec![frame(0, 0, 200)]);
        let v = violation_for_input(
            &report,
            InputId(0),
            InputExpectation {
                qos_type: QosType::Single,
                target_ms: 100.0,
            },
        )
        .unwrap();
        assert!((v - 100.0).abs() < 1e-9);
    }

    #[test]
    fn meeting_target_is_zero_violation() {
        let report = report_with_frames(vec![frame(0, 0, 80)]);
        let v = violation_for_input(
            &report,
            InputId(0),
            InputExpectation {
                qos_type: QosType::Single,
                target_ms: 100.0,
            },
        )
        .unwrap();
        assert_eq!(v, 0.0);
    }

    #[test]
    fn single_judges_only_response_frame() {
        // Later frames (post-frame work) must not count for "single".
        let report = report_with_frames(vec![frame(0, 0, 80), frame(0, 1, 500)]);
        let v = violation_for_input(
            &report,
            InputId(0),
            InputExpectation {
                qos_type: QosType::Single,
                target_ms: 100.0,
            },
        )
        .unwrap();
        assert_eq!(v, 0.0);
    }

    #[test]
    fn continuous_uses_geometric_mean() {
        // Frames at 33.3 target: one 66.6 (100% violation), one at target.
        let report = report_with_frames(vec![frame(0, 0, 67), frame(0, 1, 33)]);
        let v = violation_for_input(
            &report,
            InputId(0),
            InputExpectation {
                qos_type: QosType::Continuous,
                target_ms: 33.5,
            },
        )
        .unwrap();
        // geomean(1+1.0, 1+0.0) - 1 = sqrt(2.0) - 1 ≈ 41.4%.
        assert!(v > 30.0 && v < 50.0, "geomean violation {v}");
    }

    #[test]
    fn no_frames_returns_none() {
        let report = report_with_frames(vec![]);
        assert!(violation_for_input(
            &report,
            InputId(9),
            InputExpectation {
                qos_type: QosType::Single,
                target_ms: 100.0,
            },
        )
        .is_none());
    }

    #[test]
    fn run_metrics_aggregate() {
        let report = report_with_frames(vec![frame(0, 0, 200), frame(1, 0, 50)]);
        let mut expectations = HashMap::new();
        for uid in [0, 1] {
            expectations.insert(
                InputId(uid),
                InputExpectation {
                    qos_type: QosType::Single,
                    target_ms: 100.0,
                },
            );
        }
        let metrics = RunMetrics::compute(&report, &expectations);
        assert_eq!(metrics.judged_inputs, 2);
        assert_eq!(metrics.unjudged_expected, 0);
        assert!((metrics.violation_pct - 50.0).abs() < 1e-9);
        assert_eq!(metrics.energy_mj, 120.0);
        assert_eq!(metrics.frames, 2);
        assert_eq!(metrics.latency.count, 2);
        assert!(metrics.latency.p99_ms > metrics.latency.p50_ms);
        assert_eq!(metrics.switches, (4, 2));
        assert_eq!(metrics.switches_per_frame, 3.0);
    }

    #[test]
    fn expected_but_frameless_inputs_are_counted() {
        // Input 1 carries an expectation but produced no frames (say, it
        // was dropped by a fault): it must not vanish from the metrics.
        let report = report_with_frames(vec![frame(0, 0, 50)]);
        let mut expectations = HashMap::new();
        for uid in [0, 1] {
            expectations.insert(
                InputId(uid),
                InputExpectation {
                    qos_type: QosType::Single,
                    target_ms: 100.0,
                },
            );
        }
        let metrics = RunMetrics::compute(&report, &expectations);
        assert_eq!(metrics.judged_inputs, 1);
        assert_eq!(metrics.unjudged_expected, 1);
    }

    #[test]
    fn empty_window_is_distinguished_from_zero_violations() {
        let report = report_with_frames(vec![frame(0, 0, 50)]);
        // Frames complete at t = 1000 ms; a window before that holds no
        // frames and must report "no evidence", not a clean 0.0.
        assert_eq!(
            violation_rate_in_window(&report, 100.0, SimTime::ZERO, SimTime::from_millis(500)),
            None
        );
        assert_eq!(
            violation_rate_in_window(
                &report,
                100.0,
                SimTime::from_millis(500),
                SimTime::from_millis(1500)
            ),
            Some(0.0)
        );
    }

    #[test]
    fn normalization_and_extra_violation() {
        let report = report_with_frames(vec![frame(0, 0, 200)]);
        let mut expectations = HashMap::new();
        expectations.insert(
            InputId(0),
            InputExpectation {
                qos_type: QosType::Single,
                target_ms: 100.0,
            },
        );
        let a = RunMetrics::compute(&report, &expectations);
        let mut b = a.clone();
        b.energy_mj = 60.0;
        b.violation_pct = 110.0;
        assert!((b.energy_normalized_to(&a) - 0.5).abs() < 1e-9);
        assert!((b.extra_violation_over(&a) - 10.0).abs() < 1e-9);
        assert_eq!(a.extra_violation_over(&b), 0.0);
    }

    #[test]
    fn unjudged_inputs_ignored() {
        let report = report_with_frames(vec![frame(0, 0, 500)]);
        let metrics = RunMetrics::compute(&report, &HashMap::new());
        assert_eq!(metrics.judged_inputs, 0);
        assert_eq!(metrics.violation_pct, 0.0);
    }
}
