//! Seeded, deterministic fault injection for the frame pipeline.
//!
//! A [`FaultPlan`] describes *which* chaos to inject (load spikes,
//! dropped/jittered VSync ticks, delayed/dropped/duplicated inputs) and
//! carries a seed; a [`FaultInjector`] executes the plan with one
//! independent [`DetRng`] stream per fault category, so two runs with
//! the same plan inject byte-identical fault schedules, and enabling one
//! category never perturbs another's stream.
//!
//! Every fault that actually fires is appended to a log the browser
//! publishes as a [`ChaosReport`], so every fault a run survived is
//! also on record.

use crate::events::TraceEvent;
use greenweb_acmp::{Duration, SimTime};
use greenweb_det::DetRng;
use greenweb_dom::EventType;
use std::fmt;

/// Load-spike injection: each callback's cost is multiplied with some
/// probability, modeling GC pauses, ad-script bursts, and cache-cold
/// execution the profiler never saw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSpikeSpec {
    /// Probability a given callback execution spikes.
    pub prob: f64,
    /// Cost multiplier applied when it does (> 1).
    pub multiplier: f64,
}

/// VSync fault injection: display ticks can be dropped entirely or
/// delivered late (timing jitter).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VsyncFaultSpec {
    /// Probability a tick is swallowed (no frame work that interval).
    pub drop_prob: f64,
    /// Probability a tick is delivered late.
    pub jitter_prob: f64,
    /// Maximum lateness of a jittered tick, in milliseconds.
    pub jitter_max_ms: f64,
}

/// Input-delivery fault injection: trace inputs can arrive late (and
/// thereby reordered), be lost, or be delivered twice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InputFaultSpec {
    /// Probability an input is delayed.
    pub delay_prob: f64,
    /// Maximum delay, in milliseconds.
    pub delay_max_ms: f64,
    /// Probability an input is dropped.
    pub drop_prob: f64,
    /// Probability an input is duplicated (the copy arrives a few
    /// milliseconds later).
    pub duplicate_prob: f64,
}

/// What chaos to inject. Categories left `None` are not injected, so a
/// plan can isolate a single failure mode or combine all three.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultSpec {
    /// Callback cost multipliers.
    pub load_spike: Option<LoadSpikeSpec>,
    /// Dropped / jittered display ticks.
    pub vsync: Option<VsyncFaultSpec>,
    /// Delayed / dropped / duplicated inputs.
    pub input: Option<InputFaultSpec>,
    /// Restrict injection to `[start_ms, end_ms)`; `None` means the whole
    /// run. A bounded window confines the faults to one stretch of the
    /// run, so the frames after it show how the runtime recovers once
    /// they stop.
    pub window_ms: Option<(f64, f64)>,
}

/// A seeded, reproducible fault schedule: spec + seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for all fault streams. Same seed + same spec = identical
    /// injected schedule, byte for byte.
    pub seed: u64,
    /// What to inject.
    pub spec: FaultSpec,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed. Compose with the
    /// `with_*` builders.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            spec: FaultSpec::default(),
        }
    }

    /// Enables load spikes.
    pub fn with_load_spikes(mut self, prob: f64, multiplier: f64) -> Self {
        self.spec.load_spike = Some(LoadSpikeSpec { prob, multiplier });
        self
    }

    /// Enables VSync drop/jitter.
    pub fn with_vsync_faults(
        mut self,
        drop_prob: f64,
        jitter_prob: f64,
        jitter_max_ms: f64,
    ) -> Self {
        self.spec.vsync = Some(VsyncFaultSpec {
            drop_prob,
            jitter_prob,
            jitter_max_ms,
        });
        self
    }

    /// Enables input delay/drop/duplication.
    pub fn with_input_faults(
        mut self,
        delay_prob: f64,
        delay_max_ms: f64,
        drop_prob: f64,
        duplicate_prob: f64,
    ) -> Self {
        self.spec.input = Some(InputFaultSpec {
            delay_prob,
            delay_max_ms,
            drop_prob,
            duplicate_prob,
        });
        self
    }

    /// Restricts injection to the window `[start_ms, end_ms)`.
    pub fn with_window_ms(mut self, start_ms: f64, end_ms: f64) -> Self {
        self.spec.window_ms = Some((start_ms, end_ms));
        self
    }

    /// A "storm" preset used by the chaos harness: all three categories at
    /// aggressive rates.
    pub fn storm(seed: u64) -> Self {
        FaultPlan::new(seed)
            .with_load_spikes(0.35, 6.0)
            .with_vsync_faults(0.05, 0.10, 12.0)
            .with_input_faults(0.15, 120.0, 0.05, 0.10)
    }
}

/// One fault that actually fired.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// A callback's cost was multiplied.
    LoadSpike {
        /// The applied multiplier.
        multiplier: f64,
    },
    /// A VSync tick was swallowed.
    VsyncDrop,
    /// A VSync tick was delivered late.
    VsyncJitter {
        /// How late.
        delay: Duration,
    },
    /// An input was delivered late.
    InputDelayed {
        /// The input's event type.
        event: EventType,
        /// How late.
        by: Duration,
    },
    /// An input was lost.
    InputDropped {
        /// The input's event type.
        event: EventType,
    },
    /// An input was delivered twice.
    InputDuplicated {
        /// The input's event type.
        event: EventType,
    },
}

impl FaultKind {
    /// Coarse category name, used for report summaries.
    pub fn category(&self) -> &'static str {
        match self {
            FaultKind::LoadSpike { .. } => "load-spike",
            FaultKind::VsyncDrop | FaultKind::VsyncJitter { .. } => "vsync",
            FaultKind::InputDelayed { .. }
            | FaultKind::InputDropped { .. }
            | FaultKind::InputDuplicated { .. } => "input",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::LoadSpike { multiplier } => {
                write!(f, "callback cost x{multiplier}")
            }
            FaultKind::VsyncDrop => write!(f, "vsync tick dropped"),
            FaultKind::VsyncJitter { delay } => {
                write!(f, "vsync tick deferred {:.2} ms", delay.as_millis_f64())
            }
            FaultKind::InputDelayed { event, by } => {
                write!(f, "{} delayed {:.2} ms", event.name(), by.as_millis_f64())
            }
            FaultKind::InputDropped { event } => write!(f, "{} dropped", event.name()),
            FaultKind::InputDuplicated { event } => write!(f, "{} duplicated", event.name()),
        }
    }
}

/// A fault that fired, with its injection time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectedFault {
    /// Simulation time the fault took effect. For input faults this is
    /// the input's *original* trace time.
    pub at: SimTime,
    /// What happened.
    pub kind: FaultKind,
}

/// The record of everything a [`FaultInjector`] did during a run:
/// attached to the [`crate::SimReport`] so chaos runs are observable and
/// benchmarkable.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChaosReport {
    /// The plan's seed (0 when no injector ran).
    pub seed: u64,
    /// Every fault that fired, in injection order.
    pub faults: Vec<InjectedFault>,
}

impl ChaosReport {
    /// Total number of injected faults.
    pub fn total(&self) -> usize {
        self.faults.len()
    }

    /// Number of injected faults in `category` (see
    /// [`FaultKind::category`]).
    pub fn count(&self, category: &str) -> usize {
        self.faults
            .iter()
            .filter(|f| f.kind.category() == category)
            .count()
    }
}

impl fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "chaos seed {}: {} faults ({} load-spike, {} vsync, {} input)",
            self.seed,
            self.total(),
            self.count("load-spike"),
            self.count("vsync"),
            self.count("input"),
        )
    }
}

/// How the injector wants a VSync tick handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VsyncDisposition {
    /// Deliver normally.
    Deliver,
    /// Swallow the tick: no frame work this interval.
    Drop,
    /// Deliver the tick late by the given amount.
    Defer(Duration),
}

/// Executes a [`FaultPlan`] against a run. One forked RNG stream per
/// category keeps the schedule stable when categories are toggled.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    callback_rng: DetRng,
    vsync_rng: DetRng,
    input_rng: DetRng,
    log: Vec<InjectedFault>,
}

impl FaultInjector {
    /// Builds the injector for `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let root = DetRng::new(plan.seed);
        FaultInjector {
            plan,
            callback_rng: root.fork("callback"),
            vsync_rng: root.fork("vsync"),
            input_rng: root.fork("input"),
            log: Vec::new(),
        }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    fn active_at(&self, now: SimTime) -> bool {
        match self.plan.spec.window_ms {
            None => true,
            Some((start, end)) => {
                let ms = now.as_millis_f64();
                ms >= start && ms < end
            }
        }
    }

    /// Cost multiplier for a callback starting at `now` (1.0 = no fault).
    pub fn callback_multiplier(&mut self, now: SimTime) -> f64 {
        let Some(spec) = self.plan.spec.load_spike else {
            return 1.0;
        };
        if !self.active_at(now) || !self.callback_rng.gen_bool(spec.prob) {
            return 1.0;
        }
        self.log.push(InjectedFault {
            at: now,
            kind: FaultKind::LoadSpike {
                multiplier: spec.multiplier,
            },
        });
        spec.multiplier
    }

    /// Disposition for the VSync tick at `now`.
    pub fn on_vsync(&mut self, now: SimTime) -> VsyncDisposition {
        let Some(spec) = self.plan.spec.vsync else {
            return VsyncDisposition::Deliver;
        };
        if !self.active_at(now) {
            return VsyncDisposition::Deliver;
        }
        if self.vsync_rng.gen_bool(spec.drop_prob) {
            self.log.push(InjectedFault {
                at: now,
                kind: FaultKind::VsyncDrop,
            });
            return VsyncDisposition::Drop;
        }
        if self.vsync_rng.gen_bool(spec.jitter_prob) {
            let delay =
                Duration::from_millis_f64(self.vsync_rng.f64_in(0.5, spec.jitter_max_ms.max(0.6)));
            self.log.push(InjectedFault {
                at: now,
                kind: FaultKind::VsyncJitter { delay },
            });
            return VsyncDisposition::Defer(delay);
        }
        VsyncDisposition::Deliver
    }

    /// Applies input faults to a trace's events: drops, duplicates, and
    /// delays (which reorder). Returns the perturbed delivery schedule
    /// sorted by arrival time.
    pub fn perturb_inputs(&mut self, events: &[TraceEvent]) -> Vec<TraceEvent> {
        let Some(spec) = self.plan.spec.input else {
            return events.to_vec();
        };
        let mut out: Vec<TraceEvent> = Vec::with_capacity(events.len());
        for event in events {
            if !self.active_at(event.at) {
                out.push(event.clone());
                continue;
            }
            if self.input_rng.gen_bool(spec.drop_prob) {
                self.log.push(InjectedFault {
                    at: event.at,
                    kind: FaultKind::InputDropped { event: event.event },
                });
                continue;
            }
            let mut delivered = event.clone();
            if self.input_rng.gen_bool(spec.delay_prob) {
                let by = Duration::from_millis_f64(
                    self.input_rng.f64_in(0.5, spec.delay_max_ms.max(0.6)),
                );
                self.log.push(InjectedFault {
                    at: event.at,
                    kind: FaultKind::InputDelayed {
                        event: event.event,
                        by,
                    },
                });
                delivered.at += by;
            }
            if self.input_rng.gen_bool(spec.duplicate_prob) {
                self.log.push(InjectedFault {
                    at: event.at,
                    kind: FaultKind::InputDuplicated { event: event.event },
                });
                let mut copy = delivered.clone();
                copy.at += Duration::from_millis_f64(self.input_rng.f64_in(1.0, 8.0));
                out.push(copy);
            }
            out.push(delivered);
        }
        out.sort_by_key(|e| e.at);
        out
    }

    /// The faults injected so far, as a report.
    pub fn report(&self) -> ChaosReport {
        ChaosReport {
            seed: self.plan.seed,
            faults: self.log.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::Trace;

    fn sample_trace() -> Trace {
        let mut b = Trace::builder();
        for i in 0..40 {
            b = b.click_id(10.0 + i as f64 * 50.0, "x");
        }
        b.end_ms(2_500.0).build()
    }

    #[test]
    fn empty_plan_injects_nothing() {
        let mut inj = FaultInjector::new(FaultPlan::new(1));
        let trace = sample_trace();
        assert_eq!(inj.perturb_inputs(&trace.events), trace.events);
        assert_eq!(inj.callback_multiplier(SimTime::from_millis(5)), 1.0);
        assert_eq!(
            inj.on_vsync(SimTime::from_millis(16)),
            VsyncDisposition::Deliver
        );
        assert_eq!(inj.report().total(), 0);
    }

    #[test]
    fn same_seed_same_schedule() {
        let plan = FaultPlan::storm(42);
        let trace = sample_trace();
        let run = || {
            let mut inj = FaultInjector::new(plan);
            let inputs = inj.perturb_inputs(&trace.events);
            let mults: Vec<f64> = (0..50)
                .map(|i| inj.callback_multiplier(SimTime::from_millis(i * 7)))
                .collect();
            let vsyncs: Vec<VsyncDisposition> = (1..50)
                .map(|i| inj.on_vsync(SimTime::from_millis(i * 16)))
                .collect();
            (inputs, mults, vsyncs, inj.report())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn toggling_a_category_leaves_the_others_schedules_alone() {
        let trace = sample_trace();
        let log = |plan: FaultPlan| {
            let mut inj = FaultInjector::new(plan);
            inj.perturb_inputs(&trace.events);
            for i in 1..200 {
                inj.on_vsync(SimTime::from_millis(i * 16));
                inj.callback_multiplier(SimTime::from_millis(i * 16 + 3));
            }
            inj.report().faults
        };
        let storm = FaultPlan::storm(42);
        let mut no_vsync = storm;
        no_vsync.spec.vsync = None;
        let (full, without) = (log(storm), log(no_vsync));
        for category in ["vsync", "load-spike", "input"] {
            assert!(full.iter().any(|f| f.kind.category() == category));
        }
        let non_vsync: Vec<InjectedFault> = full
            .into_iter()
            .filter(|f| f.kind.category() != "vsync")
            .collect();
        assert_eq!(non_vsync, without);
    }

    #[test]
    fn different_seeds_differ() {
        let trace = sample_trace();
        let schedule = |seed| {
            let mut inj = FaultInjector::new(FaultPlan::storm(seed));
            inj.perturb_inputs(&trace.events);
            inj.report()
        };
        assert_ne!(schedule(1), schedule(2));
    }

    #[test]
    fn every_fired_fault_is_logged() {
        let mut inj = FaultInjector::new(
            FaultPlan::new(7)
                .with_load_spikes(1.0, 4.0)
                .with_vsync_faults(1.0, 0.0, 0.0),
        );
        assert_eq!(inj.callback_multiplier(SimTime::from_millis(1)), 4.0);
        assert_eq!(
            inj.on_vsync(SimTime::from_millis(2)),
            VsyncDisposition::Drop
        );
        let report = inj.report();
        assert_eq!(report.total(), 2);
        assert_eq!(report.count("load-spike"), 1);
        assert_eq!(report.count("vsync"), 1);
    }

    #[test]
    fn window_bounds_injection() {
        let mut inj = FaultInjector::new(
            FaultPlan::new(3)
                .with_load_spikes(1.0, 4.0)
                .with_window_ms(100.0, 200.0),
        );
        assert_eq!(inj.callback_multiplier(SimTime::from_millis(50)), 1.0);
        assert_eq!(inj.callback_multiplier(SimTime::from_millis(150)), 4.0);
        assert_eq!(inj.callback_multiplier(SimTime::from_millis(250)), 1.0);
        assert_eq!(inj.report().total(), 1);
    }

    #[test]
    fn dropped_inputs_shrink_duplicates_grow() {
        let trace = sample_trace();
        let mut drop_all =
            FaultInjector::new(FaultPlan::new(5).with_input_faults(0.0, 0.0, 1.0, 0.0));
        assert!(drop_all.perturb_inputs(&trace.events).is_empty());
        assert_eq!(drop_all.report().count("input"), trace.events.len());
        let mut dup_all =
            FaultInjector::new(FaultPlan::new(5).with_input_faults(0.0, 0.0, 0.0, 1.0));
        assert_eq!(
            dup_all.perturb_inputs(&trace.events).len(),
            2 * trace.events.len()
        );
    }

    #[test]
    fn perturbed_inputs_stay_sorted() {
        let trace = sample_trace();
        let mut inj = FaultInjector::new(FaultPlan::storm(11));
        let events = inj.perturb_inputs(&trace.events);
        for pair in events.windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
    }
}
