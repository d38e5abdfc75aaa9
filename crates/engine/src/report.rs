//! Simulation output: everything the evaluation layer needs to compute
//! the paper's metrics.

use crate::events::InputId;
use crate::fault::ChaosReport;
use crate::frame::FrameRecord;
use crate::layout::{LayoutStats, PaintStats};
use greenweb_acmp::{CpuConfig, Duration, EnergyBreakdown, SimTime};
use greenweb_css::StyleStats;
use greenweb_dom::EventType;
use greenweb_script::ScriptStats;
use std::collections::HashMap;

/// Per-input observations — including the animation-mechanism signals
/// AUTOGREEN's detection code checks for (Sec. 5).
#[derive(Debug, Clone, PartialEq)]
pub struct InputRecord {
    /// The input's unique ID.
    pub uid: InputId,
    /// DOM event type.
    pub event: EventType,
    /// Target element id attribute, if it had one.
    pub target_id: Option<String>,
    /// Arrival time.
    pub at: SimTime,
    /// Whether any listener fired.
    pub had_listener: bool,
    /// The callback called `requestAnimationFrame`.
    pub used_raf: bool,
    /// The callback called `animate()`.
    pub used_animate: bool,
    /// A style write armed a CSS transition or keyframe animation.
    pub armed_css_animation: bool,
    /// Frames attributed to this input (filled at end of run).
    pub frames: u32,
}

/// The result of one simulated run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Application name.
    pub app: String,
    /// Scheduler/governor name.
    pub scheduler: String,
    /// Energy over the measurement window.
    pub energy: EnergyBreakdown,
    /// Every frame latency record, in completion order.
    pub frames: Vec<FrameRecord>,
    /// Every input, in arrival order.
    pub inputs: Vec<InputRecord>,
    /// Wall-clock residency per configuration (Fig. 11 data).
    pub residency: HashMap<CpuConfig, Duration>,
    /// `(DVFS switches, migrations)` (Fig. 12 data).
    pub switches: (u64, u64),
    /// Total CPU-busy time.
    pub busy_time: Duration,
    /// The measurement window length.
    pub total_time: Duration,
    /// Record of injected faults, when the run had a fault plan attached.
    pub chaos: Option<ChaosReport>,
    /// Style-system counters (resolves, exact matches, Bloom rejects,
    /// cache hits/misses) — deterministic, never wall-clock.
    pub style: StyleStats,
    /// Script-pipeline counters (compiles, precompiled hits, callback
    /// dispatches, charged ops, VM dispatches, fold wins) — deterministic
    /// like `style`. `ops` is backend-independent by the tick-parity
    /// contract; `dispatches`/`fold_wins` are zero on the tree-walking
    /// oracle backend.
    pub script: ScriptStats,
    /// Layout-pipeline counters (relayouts, elements measured, subtree
    /// reuses, fingerprint-dirty elements) — deterministic like `style`.
    /// The dirty count is identical in both rendering modes; the
    /// laid-out/reuse split is where [`crate::RunSpec::paint_incremental`] shows.
    pub layout: LayoutStats,
    /// Paint-pipeline counters (full/partial repaints, display items
    /// emitted/reused, damage items and area) — deterministic, with the
    /// damage numbers mode-independent like `layout.dirty_elements`.
    pub paint: PaintStats,
    /// Callback returns checked against a static effect summary. Zero
    /// when the run had no summaries attached — the soundness harness
    /// asserts this is positive so its gate cannot pass vacuously.
    pub effect_checks: u64,
    /// Every `dynamic ⊆ static` containment violation: a dynamically
    /// observed effect that escaped its handler's static summary. Any
    /// entry is an analyzer soundness bug (or a deliberately poisoned
    /// summary in the gate's self-check).
    pub effect_violations: Vec<String>,
}

impl SimReport {
    /// Total energy in millijoules.
    pub fn total_mj(&self) -> f64 {
        self.energy.total_mj()
    }

    /// The frames attributed to one input.
    pub fn frames_for(&self, uid: InputId) -> Vec<&FrameRecord> {
        self.frames.iter().filter(|f| f.uid == uid).collect()
    }

    /// The input record for `uid`.
    pub fn input(&self, uid: InputId) -> Option<&InputRecord> {
        self.inputs.iter().find(|i| i.uid == uid)
    }

    /// Configuration switches per frame produced — the Fig. 12 metric
    /// ("configuration switching frequency").
    pub fn switches_per_frame(&self) -> f64 {
        if self.frames.is_empty() {
            return 0.0;
        }
        (self.switches.0 + self.switches.1) as f64 / self.frames.len() as f64
    }

    /// Fraction of the window resident on the big cluster.
    ///
    /// Sums integer nanoseconds before the one conversion to `f64`:
    /// float addition is not associative, and `residency` is a `HashMap`
    /// whose iteration order varies between instances, so summing
    /// converted floats would make equal reports disagree by ULPs.
    pub fn big_residency_fraction(&self) -> f64 {
        let total: u64 = self.residency.values().map(|d| d.as_nanos()).sum();
        if total == 0 {
            return 0.0;
        }
        let big: u64 = self
            .residency
            .iter()
            .filter(|(c, _)| c.core == greenweb_acmp::CoreType::Big)
            .map(|(_, d)| d.as_nanos())
            .sum();
        big as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenweb_acmp::CoreType;

    fn report() -> SimReport {
        let mut residency = HashMap::new();
        residency.insert(
            CpuConfig::new(CoreType::Big, 1800),
            Duration::from_millis(250),
        );
        residency.insert(
            CpuConfig::new(CoreType::Little, 350),
            Duration::from_millis(750),
        );
        SimReport {
            app: "t".into(),
            scheduler: "t".into(),
            energy: EnergyBreakdown {
                active_mj: 10.0,
                idle_mj: 5.0,
            },
            frames: vec![
                FrameRecord {
                    uid: InputId(0),
                    event: EventType::Click,
                    seq: 0,
                    latency: Duration::from_millis(20),
                    completed_at: SimTime::from_millis(30),
                },
                FrameRecord {
                    uid: InputId(1),
                    event: EventType::TouchMove,
                    seq: 0,
                    latency: Duration::from_millis(10),
                    completed_at: SimTime::from_millis(60),
                },
            ],
            inputs: vec![InputRecord {
                uid: InputId(0),
                event: EventType::Click,
                target_id: Some("b".into()),
                at: SimTime::from_millis(5),
                had_listener: true,
                used_raf: false,
                used_animate: false,
                armed_css_animation: false,
                frames: 1,
            }],
            residency,
            switches: (3, 1),
            busy_time: Duration::from_millis(100),
            total_time: Duration::from_millis(1000),
            chaos: None,
            style: StyleStats::default(),
            script: ScriptStats::default(),
            layout: LayoutStats::default(),
            paint: PaintStats::default(),
            effect_checks: 0,
            effect_violations: Vec::new(),
        }
    }

    #[test]
    fn total_and_lookup_helpers() {
        let r = report();
        assert_eq!(r.total_mj(), 15.0);
        assert_eq!(r.frames_for(InputId(0)).len(), 1);
        assert_eq!(r.frames_for(InputId(9)).len(), 0);
        assert!(r.input(InputId(0)).is_some());
        assert!(r.input(InputId(9)).is_none());
    }

    #[test]
    fn switches_per_frame_divides_by_frames() {
        let r = report();
        assert_eq!(r.switches_per_frame(), 2.0);
        let empty = SimReport {
            frames: Vec::new(),
            ..report()
        };
        assert_eq!(empty.switches_per_frame(), 0.0);
    }

    #[test]
    fn big_residency_fraction_from_residency_map() {
        let r = report();
        assert!((r.big_residency_fraction() - 0.25).abs() < 1e-9);
        let empty = SimReport {
            residency: HashMap::new(),
            ..report()
        };
        assert_eq!(empty.big_residency_fraction(), 0.0);
    }
}
