//! An event-based-scheduling (EBS) baseline (Zhu et al., HPCA 2015),
//! reimplemented as the paper's Sec. 9 comparison point.
//!
//! EBS has no QoS annotations. It measures each event class's frame
//! latency and uses that *measurement* as a proxy for the user's
//! expectation: an event that takes long is assumed to be one users
//! naturally tolerate being long, so its latency budget is set to a
//! slack factor over its own inherent (peak-performance) latency.
//!
//! The paper's criticism — which this implementation exists to make
//! measurable — is that "the measured latency is merely an artifact of a
//! particular mobile system's capability": a heavyweight tap that users
//! expect to answer in 100 ms (MSN's tile switch) gets budgeted at
//! `slack × inherent latency` instead, so EBS happily slows it past the
//! real expectation; conversely, a trivially fast event is pinned near
//! its inherent latency even when users would tolerate far more, wasting
//! energy. GreenWeb's annotations express the *inherent user
//! expectation* and dodge both failure modes.

use crate::model::{ConfigPredictor, FrameModel};
use greenweb_acmp::{CpuConfig, Platform, PowerModel, SimTime};
use greenweb_dom::{EventType, NodeId};
use greenweb_engine::{FrameRecord, InputId, Scheduler, SchedulerCtx};
use std::collections::HashMap;

type ClassKey = (EventType, NodeId);

#[derive(Debug, Default)]
struct EbsClass {
    model: FrameModel,
    pending_profile: Option<CpuConfig>,
}

/// The EBS baseline scheduler.
#[derive(Debug)]
pub struct EbsScheduler {
    predictor: ConfigPredictor,
    classes: HashMap<ClassKey, EbsClass>,
    active: HashMap<InputId, ClassKey>,
}

/// Latency budget as a multiple of the event's inherent
/// (peak-configuration) latency. The HPCA'15 system exposes a
/// comparable slack knob.
const SLACK: f64 = 2.0;

impl EbsScheduler {
    /// Creates an EBS scheduler with 2× slack on the default hardware
    /// model.
    pub fn new() -> Self {
        EbsScheduler {
            predictor: ConfigPredictor::new(Platform::odroid_xu_e(), PowerModel::odroid_xu_e()),
            classes: HashMap::new(),
            active: HashMap::new(),
        }
    }

    fn platform(&self) -> Platform {
        self.predictor.platform().clone()
    }

    /// The derived latency budget for a fitted class: slack × predicted
    /// latency at the peak configuration — a property of the machine,
    /// not of the user.
    fn derived_budget_ms(&self, model: &FrameModel) -> Option<f64> {
        let peak = self.predictor.platform().peak();
        Some(model.predict_latency_ms(peak)? * SLACK)
    }

    fn decide(&mut self, class: ClassKey) -> Option<CpuConfig> {
        let platform = self.platform();
        let state = self.classes.entry(class).or_default();
        // EBS profiles blindly (it has no target to be target-aware
        // about): the full four-point schedule.
        if let Some(config) = state.model.next_profile_config(&platform, f64::INFINITY) {
            state.pending_profile = Some(config);
            return Some(config);
        }
        state.pending_profile = None;
        let budget = self.derived_budget_ms(&self.classes[&class].model)?;
        self.predictor
            .best_config(&self.classes[&class].model, budget)
    }
}

impl Default for EbsScheduler {
    fn default() -> Self {
        EbsScheduler::new()
    }
}

impl Scheduler for EbsScheduler {
    fn name(&self) -> String {
        "ebs".into()
    }

    fn on_input(
        &mut self,
        _now: SimTime,
        uid: InputId,
        event: EventType,
        target: NodeId,
        _ctx: &SchedulerCtx<'_>,
    ) -> Option<CpuConfig> {
        // Annotation-free: every user event is handled uniformly.
        let class = (event, target);
        self.active.insert(uid, class);
        self.decide(class)
    }

    fn on_frame_start(
        &mut self,
        _now: SimTime,
        origins: &[(InputId, EventType)],
        _ctx: &SchedulerCtx<'_>,
    ) -> Option<CpuConfig> {
        let class = origins
            .iter()
            .find_map(|(uid, _)| self.active.get(uid).copied())?;
        self.decide(class)
    }

    fn on_frames_complete(
        &mut self,
        _now: SimTime,
        records: &[FrameRecord],
        _ctx: &SchedulerCtx<'_>,
    ) -> Option<CpuConfig> {
        for record in records {
            let Some(class) = self.active.get(&record.uid).copied() else {
                continue;
            };
            let state = self.classes.entry(class).or_default();
            if let Some(config) = state.pending_profile.take() {
                state
                    .model
                    .add_sample(config, record.latency.as_millis_f64());
            }
        }
        None
    }

    fn on_idle(&mut self, _now: SimTime, _ctx: &SchedulerCtx<'_>) -> Option<CpuConfig> {
        Some(self.predictor.platform().lowest())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qos::Scenario;
    use crate::GreenWebScheduler;
    use greenweb_engine::{App, Browser, Trace};

    /// A lightweight tap users expect instantly, and a heavyweight tap
    /// users expect within 100 ms (annotated accordingly for GreenWeb;
    /// EBS sees neither annotation).
    fn app() -> App {
        App::builder("ebs-demo")
            .html("<div id='page'><button id='light'>l</button><button id='heavy'>h</button></div>")
            .css(
                "#light:QoS { onclick-qos: single, short; }
                 #heavy:QoS { onclick-qos: single, short; }",
            )
            .script(
                "addEventListener(getElementById('light'), 'click', function(e) {
                     work(8000000);
                     markDirty();
                 });
                 addEventListener(getElementById('heavy'), 'click', function(e) {
                     work(280000000);
                     markDirty();
                 });",
            )
            .build()
    }

    fn heavy_taps() -> Trace {
        let mut t = Trace::builder();
        for i in 0..8 {
            t = t.click_id(50.0 + i as f64 * 900.0, "heavy");
        }
        t.end_ms(7_500.0).build()
    }

    #[test]
    fn ebs_violates_true_expectation_on_heavy_events() {
        // EBS budgets the heavy tap at slack × inherent latency (~2 ×
        // 80 ms ≈ 160 ms), blowing the user's true 100 ms expectation —
        // the paper's core criticism.
        let trace = heavy_taps();
        let mut ebs = Browser::new(&app(), EbsScheduler::new()).unwrap();
        let ebs_report = ebs.run(&trace).unwrap();
        let mut gw = Browser::new(&app(), GreenWebScheduler::new(Scenario::Imperceptible)).unwrap();
        let gw_report = gw.run(&trace).unwrap();
        // Compare post-profiling taps (the last three).
        let late = |report: &greenweb_engine::SimReport| -> f64 {
            (5..8)
                .map(|i| {
                    report.frames_for(greenweb_engine::InputId(i))[0]
                        .latency
                        .as_millis_f64()
                })
                .sum::<f64>()
                / 3.0
        };
        let ebs_late = late(&ebs_report);
        let gw_late = late(&gw_report);
        assert!(
            gw_late <= 110.0,
            "greenweb must meet the annotated 100 ms target, got {gw_late}"
        );
        assert!(
            ebs_late > 120.0,
            "ebs should overshoot the user's expectation, got {ebs_late}"
        );
    }

    #[test]
    fn ebs_decisions_track_inherent_latency_not_user_tolerance() {
        // For a LIGHT event whose users would tolerate 300 ms, EBS pins
        // near the inherent few-ms latency — a config faster (and more
        // expensive) than the expectation requires.
        let mut t = Trace::builder();
        for i in 0..8 {
            t = t.click_id(50.0 + i as f64 * 600.0, "light");
        }
        let trace = t.end_ms(5_200.0).build();
        let mut ebs = Browser::new(&app(), EbsScheduler::new()).unwrap();
        let ebs_report = ebs.run(&trace).unwrap();
        let mut gw = Browser::new(&app(), GreenWebScheduler::new(Scenario::Usable)).unwrap();
        let gw_report = gw.run(&trace).unwrap();
        // GreenWeb can exploit the full 300 ms budget; EBS cannot.
        assert!(
            gw_report.total_mj() <= ebs_report.total_mj() * 1.02,
            "greenweb {} mJ should not exceed ebs {} mJ",
            gw_report.total_mj(),
            ebs_report.total_mj()
        );
    }

    #[test]
    fn ebs_is_deterministic_and_profiles_per_class() {
        let trace = heavy_taps();
        let a = Browser::new(&app(), EbsScheduler::new())
            .unwrap()
            .run(&trace)
            .unwrap();
        let b = Browser::new(&app(), EbsScheduler::new())
            .unwrap()
            .run(&trace)
            .unwrap();
        assert_eq!(a.total_mj(), b.total_mj());
        assert_eq!(a.scheduler, "ebs");
    }
}
