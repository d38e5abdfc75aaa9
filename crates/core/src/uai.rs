//! User-agent intervention against mis-annotation (Sec. 8).
//!
//! A developer can annotate maliciously or carelessly — e.g. setting
//! every event's QoS target "to an extremely low value, which causes the
//! Web runtime always to operate at the highest performance with maximal
//! energy consumption". The paper proposes a UAI policy: give each
//! application an energy budget and ignore overly aggressive annotations
//! once it is consumed. [`EnergyBudgetUai`] implements that policy as a
//! scheduler decorator: while within budget it is transparent; once the
//! app's measured energy exceeds the budget it overrides every decision
//! with the lowest-power configuration.

use greenweb_acmp::{CpuConfig, Duration, SimTime};
use greenweb_css::Stylesheet;
use greenweb_dom::{Document, EventType, NodeId};
use greenweb_engine::{FrameRecord, InputId, Scheduler, SchedulerCtx};
use greenweb_trace::TraceHandle;

/// A scheduler decorator enforcing an application energy budget.
#[derive(Debug)]
pub struct EnergyBudgetUai<S> {
    inner: S,
    budget_mj: f64,
    tripped: bool,
}

impl<S: Scheduler> EnergyBudgetUai<S> {
    /// Wraps `inner` with a budget of `budget_mj` millijoules.
    ///
    /// # Panics
    ///
    /// Panics if the budget is not positive.
    pub fn new(inner: S, budget_mj: f64) -> Self {
        assert!(budget_mj > 0.0, "energy budget must be positive");
        EnergyBudgetUai {
            inner,
            budget_mj,
            tripped: false,
        }
    }

    /// Whether the budget has been exhausted.
    pub fn is_tripped(&self) -> bool {
        self.tripped
    }

    /// The wrapped scheduler.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn check(&mut self, ctx: &SchedulerCtx<'_>) {
        // Budget accounting reads the CPU's one energy ledger, the same
        // energy the run reports.
        if !self.tripped && ctx.cpu.energy().total_mj() >= self.budget_mj {
            self.tripped = true;
        }
    }

    fn clamp(&self, ctx: &SchedulerCtx<'_>, decision: Option<CpuConfig>) -> Option<CpuConfig> {
        if self.tripped {
            Some(ctx.cpu.platform().lowest())
        } else {
            decision
        }
    }
}

impl<S: Scheduler> Scheduler for EnergyBudgetUai<S> {
    fn name(&self) -> String {
        format!("uai({})", self.inner.name())
    }

    fn on_attach(&mut self, stylesheet: &Stylesheet, doc: &Document) {
        self.inner.on_attach(stylesheet, doc);
    }

    fn attach_trace(&mut self, trace: TraceHandle) {
        self.inner.attach_trace(trace);
    }

    fn on_input(
        &mut self,
        now: SimTime,
        uid: InputId,
        event: EventType,
        target: NodeId,
        ctx: &SchedulerCtx<'_>,
    ) -> Option<CpuConfig> {
        self.check(ctx);
        let decision = self.inner.on_input(now, uid, event, target, ctx);
        self.clamp(ctx, decision)
    }

    fn on_frame_start(
        &mut self,
        now: SimTime,
        origins: &[(InputId, EventType)],
        ctx: &SchedulerCtx<'_>,
    ) -> Option<CpuConfig> {
        self.check(ctx);
        let decision = self.inner.on_frame_start(now, origins, ctx);
        self.clamp(ctx, decision)
    }

    fn on_frames_complete(
        &mut self,
        now: SimTime,
        records: &[FrameRecord],
        ctx: &SchedulerCtx<'_>,
    ) -> Option<CpuConfig> {
        self.check(ctx);
        let decision = self.inner.on_frames_complete(now, records, ctx);
        self.clamp(ctx, decision)
    }

    fn on_idle(&mut self, now: SimTime, ctx: &SchedulerCtx<'_>) -> Option<CpuConfig> {
        self.check(ctx);
        let decision = self.inner.on_idle(now, ctx);
        self.clamp(ctx, decision)
    }

    fn timer_period(&self) -> Option<Duration> {
        self.inner.timer_period()
    }

    fn on_timer(
        &mut self,
        now: SimTime,
        utilization: f64,
        ctx: &SchedulerCtx<'_>,
    ) -> Option<CpuConfig> {
        self.check(ctx);
        let decision = self.inner.on_timer(now, utilization, ctx);
        self.clamp(ctx, decision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qos::Scenario;
    use crate::runtime::GreenWebScheduler;
    use greenweb_engine::{App, Browser, Trace};

    /// A mis-annotated app: an absurd 1 ms target on a heavy animation
    /// forces the runtime to pin peak performance.
    fn misannotated_app() -> App {
        App::builder("hostile")
            .html("<div id='c'></div>")
            .css("#c:QoS { ontouchstart-qos: continuous, 1, 1; }")
            .script(
                "var n = 0;
                 function step(ts) {
                     n = n + 1;
                     work(10000000);
                     markDirty();
                     if (n < 60) { requestAnimationFrame(step); }
                 }
                 addEventListener(getElementById('c'), 'touchstart', function(e) {
                     requestAnimationFrame(step);
                 });",
            )
            .build()
    }

    fn run(app: &App, budget_mj: Option<f64>) -> greenweb_engine::SimReport {
        let trace = Trace::builder()
            .touchstart_id(10.0, "c")
            .end_ms(1500.0)
            .build();
        let inner = GreenWebScheduler::new(Scenario::Imperceptible);
        match budget_mj {
            Some(budget) => {
                let mut b = Browser::new(app, EnergyBudgetUai::new(inner, budget)).unwrap();
                b.run(&trace).unwrap()
            }
            None => {
                let mut b = Browser::new(app, inner).unwrap();
                b.run(&trace).unwrap()
            }
        }
    }

    #[test]
    fn budget_caps_misannotated_energy() {
        let app = misannotated_app();
        let unprotected = run(&app, None);
        let protected = run(&app, Some(unprotected.total_mj() * 0.3));
        assert!(
            protected.total_mj() < unprotected.total_mj() * 0.8,
            "uai {} vs raw {}",
            protected.total_mj(),
            unprotected.total_mj()
        );
        assert!(protected.scheduler.starts_with("uai("));
    }

    #[test]
    fn generous_budget_is_transparent() {
        let app = misannotated_app();
        let unprotected = run(&app, None);
        let generous = run(&app, Some(unprotected.total_mj() * 100.0));
        let delta = (generous.total_mj() - unprotected.total_mj()).abs();
        assert!(
            delta / unprotected.total_mj() < 0.01,
            "generous budget changed energy by {delta} mJ"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_budget_rejected() {
        EnergyBudgetUai::new(GreenWebScheduler::new(Scenario::Usable), 0.0);
    }

    #[test]
    fn trip_state_visible() {
        let uai = EnergyBudgetUai::new(GreenWebScheduler::new(Scenario::Usable), 1.0);
        assert!(!uai.is_tripped());
        assert_eq!(uai.name(), "uai(greenweb-usable)");
    }
}
