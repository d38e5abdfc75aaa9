//! A [`SchedulerFactory`] wrapper whose schedulers time every event hook
//! (attach, input, frame start/complete, idle, timer), so the traced pass
//! can split scheduler time out of the event loop.

use crate::alloc;
use greenweb_acmp::{CpuConfig, Duration, SimTime};
use greenweb_css::Stylesheet;
use greenweb_dom::{Document, EventType, NodeId};
use greenweb_engine::{FrameRecord, InputId, Scheduler, SchedulerCtx, SchedulerFactory};
use greenweb_trace::TraceHandle;
use greenweb_workloads::harness::Policy;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Host time, call count and allocations of scheduler hooks.
#[derive(Debug, Default)]
pub struct HookStats {
    ns: AtomicU64,
    calls: AtomicU64,
    allocs: AtomicU64,
}

impl HookStats {
    /// `(nanoseconds, calls, allocator calls)` so far.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        // Statistics only, read on the thread that ran the hooks.
        (
            self.ns.load(Ordering::Relaxed),
            self.calls.load(Ordering::Relaxed),
            self.allocs.load(Ordering::Relaxed),
        )
    }
}

/// Builds the policy's scheduler wrapped in a hook timer.
pub struct TimedFactory {
    /// The wrapped policy.
    pub policy: Policy,
    /// Where every built scheduler adds its hook timings.
    pub stats: Arc<HookStats>,
}

impl SchedulerFactory for TimedFactory {
    fn build(&self) -> Box<dyn Scheduler> {
        Box::new(TimedScheduler {
            inner: self.policy.build(),
            stats: Arc::clone(&self.stats),
        })
    }
}

struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    stats: Arc<HookStats>,
}

impl TimedScheduler {
    fn timed<R>(&mut self, hook: impl FnOnce(&mut dyn Scheduler) -> R) -> R {
        let allocs = alloc::count();
        let started = Instant::now();
        let out = hook(&mut *self.inner);
        let ns = started.elapsed().as_nanos() as u64;
        self.stats.ns.fetch_add(ns, Ordering::Relaxed);
        self.stats.calls.fetch_add(1, Ordering::Relaxed);
        self.stats
            .allocs
            .fetch_add(alloc::count() - allocs, Ordering::Relaxed);
        out
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn on_attach(&mut self, stylesheet: &Stylesheet, doc: &Document) {
        self.timed(|s| s.on_attach(stylesheet, doc));
    }

    fn attach_trace(&mut self, trace: TraceHandle) {
        self.timed(|s| s.attach_trace(trace));
    }

    fn on_input(
        &mut self,
        now: SimTime,
        uid: InputId,
        event: EventType,
        target: NodeId,
        ctx: &SchedulerCtx<'_>,
    ) -> Option<CpuConfig> {
        self.timed(|s| s.on_input(now, uid, event, target, ctx))
    }

    fn on_frame_start(
        &mut self,
        now: SimTime,
        origins: &[(InputId, EventType)],
        ctx: &SchedulerCtx<'_>,
    ) -> Option<CpuConfig> {
        self.timed(|s| s.on_frame_start(now, origins, ctx))
    }

    fn on_frames_complete(
        &mut self,
        now: SimTime,
        records: &[FrameRecord],
        ctx: &SchedulerCtx<'_>,
    ) -> Option<CpuConfig> {
        self.timed(|s| s.on_frames_complete(now, records, ctx))
    }

    fn on_idle(&mut self, now: SimTime, ctx: &SchedulerCtx<'_>) -> Option<CpuConfig> {
        self.timed(|s| s.on_idle(now, ctx))
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
        self.timed(|s| s.on_timer(now, utilization, ctx))
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }
}
