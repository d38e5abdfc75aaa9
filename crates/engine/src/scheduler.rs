//! The scheduling interface between the browser engine and energy
//! policies.
//!
//! The engine calls the scheduler at the points the paper's runtime acts
//! on (Sec. 6): input arrival, frame start (the per-frame prediction
//! point), frame completion (the feedback point), idle, and a periodic
//! utilization timer (for the cpufreq-style baselines). Returning
//! `Some(config)` asks the engine to switch the ACMP configuration, which
//! charges the platform's DVFS/migration cost to any running work.

use crate::events::InputId;
use crate::frame::FrameRecord;
use greenweb_acmp::{Cpu, CpuConfig, Duration, Governor, SimTime};
use greenweb_css::Stylesheet;
use greenweb_dom::{Document, EventType, NodeId};
use greenweb_trace::TraceHandle;

/// Read-only view of browser state handed to scheduler hooks.
#[derive(Debug)]
pub struct SchedulerCtx<'a> {
    /// The live document.
    pub doc: &'a Document,
    /// The CPU (configuration, platform, statistics).
    pub cpu: &'a Cpu,
}

/// An energy/QoS policy driving the ACMP configuration.
///
/// All hooks default to "no change"; implement only what the policy
/// needs.
pub trait Scheduler {
    /// Policy name for reports.
    fn name(&self) -> String;

    /// Called once before the run with the app's stylesheet and document;
    /// the GreenWeb runtime extracts its `:QoS` annotations here.
    fn on_attach(&mut self, _stylesheet: &Stylesheet, _doc: &Document) {}

    /// Hands the policy a shared trace recorder so it can emit
    /// decision events. Policies that don't trace ignore it.
    fn attach_trace(&mut self, _trace: TraceHandle) {}

    /// A user input arrived (CPU is waking up if idle).
    fn on_input(
        &mut self,
        _now: SimTime,
        _uid: InputId,
        _event: EventType,
        _target: NodeId,
        _ctx: &SchedulerCtx<'_>,
    ) -> Option<CpuConfig> {
        None
    }

    /// A frame is about to be produced for the given originating inputs.
    fn on_frame_start(
        &mut self,
        _now: SimTime,
        _origins: &[(InputId, EventType)],
        _ctx: &SchedulerCtx<'_>,
    ) -> Option<CpuConfig> {
        None
    }

    /// One or more frame latencies were measured (the feedback signal).
    fn on_frames_complete(
        &mut self,
        _now: SimTime,
        _records: &[FrameRecord],
        _ctx: &SchedulerCtx<'_>,
    ) -> Option<CpuConfig> {
        None
    }

    /// The CPU went idle (no runnable browser work).
    fn on_idle(&mut self, _now: SimTime, _ctx: &SchedulerCtx<'_>) -> Option<CpuConfig> {
        None
    }

    /// Period of the utilization timer, if the policy wants one.
    fn timer_period(&self) -> Option<Duration> {
        None
    }

    /// Periodic utilization sample (busy fraction since last tick).
    fn on_timer(
        &mut self,
        _now: SimTime,
        _utilization: f64,
        _ctx: &SchedulerCtx<'_>,
    ) -> Option<CpuConfig> {
        None
    }

    /// Downcasting hook: a policy returns `Some(self)` so callers
    /// holding a `dyn Scheduler` (a [`crate::SchedulerFactory`]'s
    /// output, or a wrapper forwarding to its inner policy) can recover
    /// the concrete type and read its configuration.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

impl Scheduler for Box<dyn Scheduler> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn on_attach(&mut self, stylesheet: &Stylesheet, doc: &Document) {
        (**self).on_attach(stylesheet, doc);
    }

    fn attach_trace(&mut self, trace: TraceHandle) {
        (**self).attach_trace(trace);
    }

    fn on_input(
        &mut self,
        now: SimTime,
        uid: InputId,
        event: EventType,
        target: NodeId,
        ctx: &SchedulerCtx<'_>,
    ) -> Option<CpuConfig> {
        (**self).on_input(now, uid, event, target, ctx)
    }

    fn on_frame_start(
        &mut self,
        now: SimTime,
        origins: &[(InputId, EventType)],
        ctx: &SchedulerCtx<'_>,
    ) -> Option<CpuConfig> {
        (**self).on_frame_start(now, origins, ctx)
    }

    fn on_frames_complete(
        &mut self,
        now: SimTime,
        records: &[FrameRecord],
        ctx: &SchedulerCtx<'_>,
    ) -> Option<CpuConfig> {
        (**self).on_frames_complete(now, records, ctx)
    }

    fn on_idle(&mut self, now: SimTime, ctx: &SchedulerCtx<'_>) -> Option<CpuConfig> {
        (**self).on_idle(now, ctx)
    }

    fn timer_period(&self) -> Option<Duration> {
        (**self).timer_period()
    }

    fn on_timer(
        &mut self,
        now: SimTime,
        utilization: f64,
        ctx: &SchedulerCtx<'_>,
    ) -> Option<CpuConfig> {
        (**self).on_timer(now, utilization, ctx)
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        (**self).as_any()
    }
}

/// Adapts a cpufreq-style [`Governor`] to the [`Scheduler`] interface.
#[derive(Debug, Clone)]
pub struct GovernorScheduler<G> {
    governor: G,
}

impl<G: Governor> GovernorScheduler<G> {
    /// Wraps `governor`.
    pub fn new(governor: G) -> Self {
        GovernorScheduler { governor }
    }

    /// The wrapped governor.
    pub fn governor(&self) -> &G {
        &self.governor
    }
}

impl<G: Governor> Scheduler for GovernorScheduler<G> {
    fn name(&self) -> String {
        self.governor.name().to_string()
    }

    fn on_input(
        &mut self,
        now: SimTime,
        _uid: InputId,
        _event: EventType,
        _target: NodeId,
        ctx: &SchedulerCtx<'_>,
    ) -> Option<CpuConfig> {
        Some(
            self.governor
                .on_wakeup(now, ctx.cpu.config(), ctx.cpu.platform()),
        )
    }

    fn timer_period(&self) -> Option<Duration> {
        self.governor.timer_period()
    }

    fn on_timer(
        &mut self,
        now: SimTime,
        utilization: f64,
        ctx: &SchedulerCtx<'_>,
    ) -> Option<CpuConfig> {
        Some(
            self.governor
                .on_timer(now, utilization, ctx.cpu.config(), ctx.cpu.platform()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenweb_acmp::{PerfGovernor, Platform, PowerModel};
    use greenweb_dom::parse_html;

    #[test]
    fn governor_scheduler_delegates() {
        let mut s = GovernorScheduler::new(PerfGovernor);
        assert_eq!(s.name(), "perf");
        assert_eq!(s.timer_period(), None);
        let doc = parse_html("<p id='p'></p>").unwrap();
        let cpu = Cpu::new(Platform::odroid_xu_e(), PowerModel::odroid_xu_e());
        let ctx = SchedulerCtx {
            doc: &doc,
            cpu: &cpu,
        };
        let p = doc.element_by_id("p").unwrap();
        let cfg = s.on_input(SimTime::ZERO, InputId(0), EventType::Click, p, &ctx);
        assert_eq!(cfg, Some(Platform::odroid_xu_e().peak()));
    }
}
