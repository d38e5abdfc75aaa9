//! The GreenWeb runtime (Sec. 6): a [`Scheduler`] that consumes QoS
//! annotations and drives the ACMP configuration on a per-frame basis.
//!
//! For every annotated event class (event type × target element) the
//! runtime maintains a [`FrameModel`]. The first four frames of a class
//! are profiling runs (max/min frequency on each core, Sec. 6.2); once
//! fitted, every frame start predicts the minimum-energy configuration
//! meeting the scenario's QoS target. Measured latencies feed back:
//! a violated frame bumps a per-class bias one level up, a strongly
//! over-predicted frame bumps it down, and a streak of mispredictions
//! beyond a threshold resets the model and re-profiles. When the browser
//! goes idle the runtime drops to the lowest configuration ("allocate
//! just enough energy … and conserve energy afterwards", Sec. 3.2).

use crate::lang::{AnnotationTable, LangError};
use crate::model::{ConfigPredictor, FrameModel};
use crate::qos::{QosSpec, Scenario};
use greenweb_acmp::{CpuConfig, Platform, PowerModel, SimTime};
use greenweb_css::Stylesheet;
use greenweb_dom::{Document, EventType, NodeId};
use greenweb_engine::{FrameRecord, InputId, Scheduler, SchedulerCtx};
use greenweb_trace::{record_into, EventKind as TraceKind, TraceHandle};
use std::collections::HashMap;

/// An event class: all inputs resolved by the same annotation rule share
/// a frame model — every element a rule selects exercises the same code
/// path, so one Eq. 1 fit covers them (and profiling amortizes across
/// elements, e.g. all 60 MSN tiles).
type ClassKey = (EventType, usize);

#[derive(Debug, Default)]
struct ClassState {
    model: FrameModel,
    /// The configuration the in-flight profiling frame runs at.
    pending_profile: Option<CpuConfig>,
    /// Feedback boost (in configuration levels) applied on top of the
    /// prediction; raised on violations, decayed when headroom reappears.
    bias: u32,
    /// Consecutive mispredictions (re-profile when it hits the
    /// threshold).
    streak: u32,
    /// The frame right after a bias adjustment is still draining backlog;
    /// skip it when judging model quality.
    settling: bool,
    /// The last prediction: `(config, predicted latency)`.
    last_prediction: Option<(CpuConfig, f64)>,
}

#[derive(Debug, Clone, Copy)]
struct ActiveEvent {
    class: ClassKey,
    /// The spec the developer declared.
    spec: QosSpec,
}

/// The GreenWeb runtime scheduler.
#[derive(Debug)]
pub struct GreenWebScheduler {
    scenario: Scenario,
    annotations: AnnotationTable,
    predictor: ConfigPredictor,
    classes: HashMap<ClassKey, ClassState>,
    active: HashMap<InputId, ActiveEvent>,
    /// Whether feedback adjustment is enabled (ablation knob).
    pub feedback_enabled: bool,
    /// Completion time of the most recent frame of a continuous event;
    /// while a continuous sequence is live the runtime must keep
    /// optimizing rather than drop to the idle configuration.
    last_continuous_frame: Option<SimTime>,
    /// Typed errors from lossy annotation extraction at attach time.
    annotation_errors: Vec<LangError>,
    /// Trace recorder shared with the browser, when tracing is on.
    trace: Option<TraceHandle>,
}

/// How long after the last continuous frame the runtime still considers
/// the animation live (a few VSync periods).
const CONTINUOUS_HOLD_MS: f64 = 60.0;

/// Prediction error, relative to the target, treated as a misprediction.
const MISPREDICTION_TOLERANCE: f64 = 0.25;

/// Consecutive mispredictions before a class model is re-profiled.
const REPROFILE_THRESHOLD: u32 = 6;

impl GreenWebScheduler {
    /// Creates a runtime for `scenario` on the default ODroid hardware
    /// model. Annotations are read from the app stylesheet at attach
    /// time.
    pub fn new(scenario: Scenario) -> Self {
        Self::with_hardware(scenario, Platform::odroid_xu_e(), PowerModel::odroid_xu_e())
    }

    /// Creates a runtime with an explicit statically-profiled hardware
    /// description.
    pub fn with_hardware(scenario: Scenario, platform: Platform, power: PowerModel) -> Self {
        GreenWebScheduler {
            scenario,
            annotations: AnnotationTable::new(),
            predictor: ConfigPredictor::new(platform, power),
            classes: HashMap::new(),
            active: HashMap::new(),
            feedback_enabled: true,
            last_continuous_frame: None,
            annotation_errors: Vec::new(),
            trace: None,
        }
    }

    /// The scenario this runtime optimizes for.
    pub fn scenario(&self) -> Scenario {
        self.scenario
    }

    /// The extracted annotation table (populated at attach).
    pub fn annotations(&self) -> &AnnotationTable {
        &self.annotations
    }

    /// Malformed-annotation errors collected during lossy extraction at
    /// attach time. A non-empty list means some annotations run on their
    /// category-default fallback.
    pub fn annotation_errors(&self) -> &[LangError] {
        &self.annotation_errors
    }

    fn platform(&self) -> &Platform {
        self.predictor.platform()
    }

    fn target_ms(&self, spec: &QosSpec) -> f64 {
        spec.target.for_scenario(self.scenario)
    }

    fn apply_bias(&self, config: CpuConfig, bias: u32) -> CpuConfig {
        let platform = self.platform();
        let mut current = config;
        for _ in 0..bias {
            match platform.step_up(current) {
                Some(next) => current = next,
                None => break,
            }
        }
        current
    }

    /// Decides the configuration for the next frame of `class` given the
    /// active `target_ms`. Returns the profiling config while the class
    /// model is unfitted. Every decision is traced with its "why":
    /// target, prediction (if any), and whether it was a profiling run.
    fn decide(&mut self, now: SimTime, class: ClassKey, target_ms: f64) -> Option<CpuConfig> {
        // Split borrows: compute with immutable predictor, then mutate.
        let platform = self.predictor.platform().clone();
        let state = self.classes.entry(class).or_default();
        if let Some(profile_config) = state.model.next_profile_config(&platform, target_ms) {
            state.pending_profile = Some(profile_config);
            state.last_prediction = None;
            record_into(&self.trace, now, || TraceKind::Decision {
                target_ms,
                predicted_ms: None,
                chosen: profile_config,
                profiling: true,
            });
            return Some(profile_config);
        }
        state.pending_profile = None;
        let base = self
            .predictor
            .best_config(&self.classes[&class].model, target_ms)?;
        let bias = self.classes[&class].bias;
        let chosen = self.apply_bias(base, bias);
        let predicted = self.classes[&class]
            .model
            .predict_latency_ms(chosen)
            .unwrap_or(target_ms);
        let state = self.classes.get_mut(&class).expect("created above");
        state.last_prediction = Some((chosen, predicted));
        record_into(&self.trace, now, || TraceKind::Decision {
            target_ms,
            predicted_ms: Some(predicted),
            chosen,
            profiling: false,
        });
        Some(chosen)
    }

    fn feedback(&mut self, class: ClassKey, target_ms: f64, measured_ms: f64) -> Option<CpuConfig> {
        let platform = self.platform().clone();
        let state = self.classes.get_mut(&class)?;
        // Profiling sample? (Profiling is part of model construction and
        // still happens when the adaptive feedback loop is ablated.)
        if let Some(config) = state.pending_profile.take() {
            state.model.add_sample(config, measured_ms);
            return None;
        }
        if !self.feedback_enabled {
            return None;
        }
        let (config, predicted_ms) = state.last_prediction?;
        let violated = measured_ms > target_ms;
        // Model-quality accounting: prediction error relative to the
        // target. The frame right after an adjustment is still draining
        // pipeline backlog and says nothing about the model.
        let error = (measured_ms - predicted_ms).abs() / target_ms;
        if violated {
            // Persistent violations always count toward recalibration.
            state.streak += 1;
        } else if state.settling {
            state.settling = false;
        } else if error > MISPREDICTION_TOLERANCE {
            state.streak += 1;
        } else {
            state.streak = 0;
        }
        if state.streak >= REPROFILE_THRESHOLD {
            // Recalibrate: fresh profiling runs (Sec. 6.2).
            state.model.reset();
            state.streak = 0;
            state.bias = 0;
            state.settling = false;
            return None;
        }
        if violated {
            // Under-prediction: next available level up, or little→big
            // migration (Sec. 6.2).
            state.bias += 1;
            state.settling = true;
            return platform.step_up(config);
        }
        if state.bias > 0 && measured_ms < target_ms * 0.7 {
            // Over-prediction: decay the boost once headroom reappears
            // (the opposite adjustment of Sec. 6.2). The base prediction
            // is already the minimum-energy feasible configuration, so
            // the boost never goes negative.
            state.bias -= 1;
            state.settling = true;
        }
        None
    }
}

impl Scheduler for GreenWebScheduler {
    fn name(&self) -> String {
        format!("greenweb-{}", self.scenario)
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn on_attach(&mut self, stylesheet: &Stylesheet, _doc: &Document) {
        // Lossy extraction: a malformed annotation degrades to its
        // event's category default instead of silently discarding every
        // annotation in the sheet (the old all-or-nothing behaviour).
        let (table, errors) = AnnotationTable::from_stylesheet_lossy(stylesheet);
        for annotation in table.annotations() {
            self.annotations.push(annotation.clone());
        }
        self.annotation_errors.extend(errors);
    }

    fn attach_trace(&mut self, trace: TraceHandle) {
        self.trace = Some(trace);
    }

    fn on_input(
        &mut self,
        now: SimTime,
        uid: InputId,
        event: EventType,
        target: NodeId,
        ctx: &SchedulerCtx<'_>,
    ) -> Option<CpuConfig> {
        // Unannotated events get no per-event decision.
        let (rule_index, annotation) = self.annotations.lookup_entry(ctx.doc, target, event)?;
        let active = ActiveEvent {
            class: (event, rule_index),
            spec: annotation.spec,
        };
        self.active.insert(uid, active);
        let target_ms = self.target_ms(&active.spec);
        self.decide(now, active.class, target_ms)
    }

    fn on_frame_start(
        &mut self,
        now: SimTime,
        origins: &[(InputId, EventType)],
        _ctx: &SchedulerCtx<'_>,
    ) -> Option<CpuConfig> {
        // The most stringent target among the batched annotated inputs
        // governs the frame.
        let mut chosen: Option<(f64, ActiveEvent)> = None;
        for (uid, _) in origins {
            if let Some(active) = self.active.get(uid) {
                let target_ms = self.target_ms(&active.spec);
                if chosen.is_none_or(|(t, _)| target_ms < t) {
                    chosen = Some((target_ms, *active));
                }
            }
        }
        let (target_ms, active) = chosen?;
        self.decide(now, active.class, target_ms)
    }

    fn on_frames_complete(
        &mut self,
        _now: SimTime,
        records: &[FrameRecord],
        _ctx: &SchedulerCtx<'_>,
    ) -> Option<CpuConfig> {
        let mut decision = None;
        for record in records {
            let Some(active) = self.active.get(&record.uid).copied() else {
                continue;
            };
            if active.spec.qos_type == crate::qos::QosType::Continuous {
                self.last_continuous_frame = Some(record.completed_at);
                // A discrete event's (tap's) first frame is anchored at
                // the input and includes the wait for the next VSync —
                // not a property of the configuration — so it is not a
                // valid model sample. Move-type events are VSync-aligned
                // by the browser's input pipeline, so every one of their
                // frames (each seq 0 of its own input) is a clean
                // per-frame latency.
                let vsync_aligned =
                    matches!(record.event, EventType::TouchMove | EventType::Scroll);
                if record.seq == 0 && !vsync_aligned {
                    continue;
                }
            }
            let measured_ms = record.latency.as_millis_f64();
            let target_ms = self.target_ms(&active.spec);
            if let Some(config) = self.feedback(active.class, target_ms, measured_ms) {
                decision = Some(config);
            }
        }
        decision
    }

    fn on_idle(&mut self, now: SimTime, ctx: &SchedulerCtx<'_>) -> Option<CpuConfig> {
        // While a continuous sequence is live, the engine goes briefly
        // idle between each composite and the next VSync; the runtime
        // must keep the predicted configuration so the next frame's
        // callbacks run at the intended speed ("continuously optimize
        // for frame latency until the last relevant frame", Table 2).
        if let Some(last) = self.last_continuous_frame {
            if now.saturating_since(last).as_millis_f64() < CONTINUOUS_HOLD_MS {
                return None;
            }
        }
        // Post-frame work is not QoS-critical; conserve energy (Sec. 3.2).
        // Drop to the current cluster's frequency floor right away (a
        // cheap DVFS switch); the quiet-period timer migrates to the
        // little cluster only if idleness persists, so short inter-event
        // gaps don't pay two migrations — keeping DVFS switches the
        // dominant switch kind, as the paper observes in Fig. 12.
        Some(self.platform().min_config(ctx.cpu.config().core))
    }

    fn timer_period(&self) -> Option<greenweb_acmp::Duration> {
        // A coarse fallback tick so the runtime eventually drops to the
        // low-power configuration after the last frame of an animation
        // (the engine only raises `on_idle` at task boundaries).
        Some(greenweb_acmp::Duration::from_millis(50))
    }

    fn on_timer(
        &mut self,
        now: SimTime,
        utilization: f64,
        ctx: &SchedulerCtx<'_>,
    ) -> Option<CpuConfig> {
        let animation_live = self
            .last_continuous_frame
            .is_some_and(|last| now.saturating_since(last).as_millis_f64() < CONTINUOUS_HOLD_MS);
        // `utilization` summarizes the *previous* window; a response may
        // be executing right now (e.g. a tap that arrived moments ago).
        // Never demote a busy CPU — that would silently override the
        // per-event prediction mid-frame.
        if utilization < 0.05 && !animation_live && !ctx.cpu.is_busy() {
            Some(self.platform().lowest())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenweb_acmp::CoreType;
    use greenweb_engine::{App, Browser, Trace};

    fn continuous_app(css_extra: &str) -> App {
        App::builder("anim")
            .html("<div id='c' style='width: 0px'></div>")
            .css(css_extra)
            .script(
                "var n = 0;
                 function step(ts) {
                     n = n + 1;
                     work(8000000);
                     markDirty();
                     if (n < 40) { requestAnimationFrame(step); }
                 }
                 addEventListener(getElementById('c'), 'touchstart', function(e) {
                     requestAnimationFrame(step);
                 });",
            )
            .build()
    }

    fn run_scenario(app: &App, scenario: Scenario) -> greenweb_engine::SimReport {
        let trace = Trace::builder()
            .touchstart_id(10.0, "c")
            .end_ms(1500.0)
            .build();
        let mut browser = Browser::new(app, GreenWebScheduler::new(scenario)).unwrap();
        browser.run(&trace).unwrap()
    }

    #[test]
    fn annotations_extracted_on_attach() {
        let app = continuous_app("#c:QoS { ontouchstart-qos: continuous; }");
        let browser = Browser::new(&app, GreenWebScheduler::new(Scenario::Usable)).unwrap();
        let _ = browser; // attach ran without error
    }

    #[test]
    fn unannotated_events_leave_config_alone() {
        let app = continuous_app(""); // no :QoS rule
        let report = run_scenario(&app, Scenario::Usable);
        // Without annotations the runtime only acts on idle; it must not
        // have profiled (no migrations beyond idle drops).
        assert_eq!(report.scheduler, "greenweb-usable");
        assert!(!report.frames.is_empty());
    }

    #[test]
    fn usable_scenario_prefers_little_core() {
        let app = continuous_app("#c:QoS { ontouchstart-qos: continuous; }");
        let usable = run_scenario(&app, Scenario::Usable);
        let imperceptible = run_scenario(&app, Scenario::Imperceptible);
        assert!(
            usable.big_residency_fraction() < imperceptible.big_residency_fraction(),
            "usable {} vs imperceptible {}",
            usable.big_residency_fraction(),
            imperceptible.big_residency_fraction()
        );
        assert!(
            usable.total_mj() < imperceptible.total_mj(),
            "usable must save energy over imperceptible"
        );
    }

    #[test]
    fn greenweb_saves_energy_vs_perf_on_continuous() {
        use greenweb_acmp::PerfGovernor;
        use greenweb_engine::GovernorScheduler;
        let app = continuous_app("#c:QoS { ontouchstart-qos: continuous; }");
        let trace = Trace::builder()
            .touchstart_id(10.0, "c")
            .end_ms(1500.0)
            .build();
        let perf = Browser::new(&app, GovernorScheduler::new(PerfGovernor))
            .unwrap()
            .run(&trace)
            .unwrap();
        let green = run_scenario(&app, Scenario::Usable);
        assert!(
            green.total_mj() < perf.total_mj() * 0.8,
            "greenweb {} mJ vs perf {} mJ",
            green.total_mj(),
            perf.total_mj()
        );
    }

    #[test]
    fn usable_frames_meet_usable_target_after_profiling() {
        let app = continuous_app("#c:QoS { ontouchstart-qos: continuous; }");
        let report = run_scenario(&app, Scenario::Usable);
        let frames = report.frames_for(greenweb_engine::InputId(0));
        assert!(frames.len() >= 20);
        // Skip the 4 profiling frames and one settling frame.
        let late = &frames[6..];
        let violations = late
            .iter()
            .filter(|f| f.latency.as_millis_f64() > 33.4)
            .count();
        assert!(
            violations * 10 <= late.len(),
            "{violations}/{} late frames violate the usable target",
            late.len()
        );
    }

    #[test]
    fn idle_drops_to_lowest_config() {
        let mut sched = GreenWebScheduler::new(Scenario::Usable);
        let platform = Platform::odroid_xu_e();
        let doc = greenweb_dom::parse_html("<p></p>").unwrap();
        let cpu = greenweb_acmp::Cpu::new(platform.clone(), PowerModel::odroid_xu_e());
        let ctx = SchedulerCtx {
            doc: &doc,
            cpu: &cpu,
        };
        // Idle first drops to the current cluster's floor...
        assert_eq!(
            sched.on_idle(SimTime::ZERO, &ctx),
            Some(platform.min_config(CoreType::Big))
        );
        // ...and the quiet-period timer completes the drop to little.
        assert_eq!(
            sched.on_timer(SimTime::from_millis(100), 0.0, &ctx),
            Some(platform.lowest())
        );
    }

    #[test]
    fn bias_steps_configs() {
        let sched = GreenWebScheduler::new(Scenario::Usable);
        let platform = Platform::odroid_xu_e();
        let base = platform.min_config(CoreType::Big);
        assert_eq!(
            sched.apply_bias(base, 1),
            CpuConfig::new(CoreType::Big, 900)
        );
        // Crossing a cluster boundary upward migrates little→big.
        assert_eq!(
            sched.apply_bias(platform.max_config(CoreType::Little), 1),
            platform.min_config(CoreType::Big)
        );
        // Saturates at the top; zero bias is the identity.
        assert_eq!(sched.apply_bias(platform.peak(), 5), platform.peak());
        assert_eq!(sched.apply_bias(base, 0), base);
    }

    #[test]
    fn profiling_schedule_runs_then_predicts() {
        let mut sched = GreenWebScheduler::new(Scenario::Usable);
        let class = (EventType::TouchStart, 0usize);
        // Profiling decisions: with this workload the little cluster's
        // max-frequency sample (5 + 20000/600 = 38.3 ms) already misses
        // the 33.3 ms target, so target-aware profiling skips little@min
        // - three profiling runs, not four.
        let platform = Platform::odroid_xu_e();
        let mut profile_configs = Vec::new();
        for _ in 0..3 {
            let config = sched.decide(SimTime::ZERO, class, 33.3).unwrap();
            profile_configs.push(config);
            // Report a plausible Eq.1-ish latency for that config.
            let latency = 5.0 + 20_000.0 / config.freq_mhz as f64;
            sched.feedback(class, 33.3, latency);
        }
        assert_eq!(profile_configs[0], platform.max_config(CoreType::Big));
        assert_eq!(profile_configs[1], platform.min_config(CoreType::Big));
        assert_eq!(profile_configs[2], platform.max_config(CoreType::Little));
        // ...then a fitted prediction.
        let predicted = sched.decide(SimTime::ZERO, class, 33.3).unwrap();
        assert!(sched.classes[&class].model.is_fitted());
        assert!(sched.classes[&class].last_prediction.is_some());
        // The prediction should not be a profiling endpoint necessarily;
        // it must meet the target per the model.
        let lat = sched.classes[&class]
            .model
            .predict_latency_ms(predicted)
            .unwrap();
        assert!(lat <= 33.3 + 1e-9);
    }

    #[test]
    fn violation_feedback_steps_up() {
        let mut sched = GreenWebScheduler::new(Scenario::Usable);
        let class = (EventType::TouchMove, 0usize);
        // Finish profiling.
        for _ in 0..4 {
            let config = sched.decide(SimTime::ZERO, class, 33.3).unwrap();
            let latency = 5.0 + 20_000.0 / config.freq_mhz as f64;
            sched.feedback(class, 33.3, latency);
        }
        let chosen = sched.decide(SimTime::ZERO, class, 33.3).unwrap();
        // A violated frame must bump the config a level up.
        let correction = sched.feedback(class, 33.3, 50.0);
        assert_eq!(
            correction,
            Platform::odroid_xu_e().step_up(chosen),
            "violation must step up from {chosen}"
        );
        assert_eq!(sched.classes[&class].bias, 1);
    }

    #[test]
    fn repeated_mispredictions_trigger_reprofiling() {
        let mut sched = GreenWebScheduler::new(Scenario::Usable);
        let class = (EventType::TouchMove, 0usize);
        for _ in 0..4 {
            let config = sched.decide(SimTime::ZERO, class, 33.3).unwrap();
            let latency = 5.0 + 20_000.0 / config.freq_mhz as f64;
            sched.feedback(class, 33.3, latency);
        }
        assert!(sched.classes[&class].model.is_fitted());
        // Wildly wrong measurements, repeatedly: the model survives one
        // short of the threshold...
        for _ in 1..REPROFILE_THRESHOLD {
            sched.decide(SimTime::ZERO, class, 33.3).unwrap();
            sched.feedback(class, 33.3, 500.0);
        }
        assert!(sched.classes[&class].model.is_fitted());
        // ...and the threshold-th misprediction resets it.
        sched.decide(SimTime::ZERO, class, 33.3).unwrap();
        sched.feedback(class, 33.3, 500.0);
        assert!(
            !sched.classes[&class].model.is_fitted(),
            "model must reset after repeated mispredictions"
        );
    }

    #[test]
    fn greenweb_scheduler_exposes_itself_via_as_any() {
        let erased: Box<dyn Scheduler> = Box::new(GreenWebScheduler::new(Scenario::Usable));
        assert!(erased
            .as_any()
            .and_then(|any| any.downcast_ref::<GreenWebScheduler>())
            .is_some());
    }

    #[test]
    fn feedback_disabled_makes_no_corrections() {
        let mut sched = GreenWebScheduler::new(Scenario::Usable);
        sched.feedback_enabled = false;
        let class = (EventType::TouchMove, 0usize);
        assert_eq!(sched.feedback(class, 33.3, 500.0), None);
    }

    #[test]
    fn malformed_annotation_degrades_to_category_default() {
        use crate::qos::QosTarget;
        // A truncated :QoS value must not panic the runtime or strip the
        // sheet: the event keeps QoS treatment at its category default.
        let app = continuous_app("#c:QoS { ontouchstart-qos: continuous, 20; }");
        let sheet = greenweb_css::parse_stylesheet(&app.css.join("\n")).unwrap();
        let doc = greenweb_dom::parse_html(&app.html).unwrap();
        let mut sched = GreenWebScheduler::new(Scenario::Usable);
        sched.on_attach(&sheet, &doc);
        assert_eq!(sched.annotation_errors().len(), 1);
        assert_eq!(sched.annotations().len(), 1);
        // touchstart is a discrete interaction → single/short fallback.
        assert_eq!(
            sched.annotations().annotations()[0].spec.target,
            QosTarget::SINGLE_SHORT
        );
        // The run still completes end to end.
        let report = run_scenario(&app, Scenario::Usable);
        assert!(!report.frames.is_empty());
    }
}
