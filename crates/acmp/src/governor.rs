//! Baseline DVFS governors.
//!
//! The paper compares GreenWeb against two baselines (Sec. 7.1):
//!
//! * **Perf** — always the peak configuration; best QoS, most energy.
//! * **Interactive** — Android's default interactive cpufreq governor:
//!   jumps to a high frequency when the CPU comes out of idle, then scales
//!   with utilization, with a minimum hold time before lowering.
//!
//! [`PowersaveGovernor`] and [`OndemandGovernor`] are additional reference
//! points used by the ablation benches.
//!
//! Governors are utilization-driven and cluster-local: like Android on the
//! Exynos 5410, they manage the big cluster's frequency and never migrate
//! on their own (migration is the GreenWeb runtime's lever). This is what
//! makes `Interactive` track `Perf`'s energy under frame-heavy load —
//! the observation Fig. 10a hinges on.

use crate::platform::{CpuConfig, Platform};
use crate::time::{Duration, SimTime};
use std::fmt;

/// A DVFS policy driven by periodic utilization samples.
pub trait Governor: fmt::Debug {
    /// The governor's name, for reports.
    fn name(&self) -> &'static str;

    /// How often [`Governor::on_timer`] should be invoked; `None` means
    /// the policy is static and needs no timer.
    fn timer_period(&self) -> Option<Duration> {
        Some(Duration::from_millis(20))
    }

    /// Periodic decision: `utilization` is the busy fraction of the CPU
    /// since the previous tick, in `[0, 1]`. Returns the desired
    /// configuration.
    fn on_timer(
        &mut self,
        now: SimTime,
        utilization: f64,
        current: CpuConfig,
        platform: &Platform,
    ) -> CpuConfig;

    /// Called when the CPU leaves idle (an input arrived). Default: no
    /// change.
    fn on_wakeup(&mut self, _now: SimTime, current: CpuConfig, _platform: &Platform) -> CpuConfig {
        current
    }
}

/// Always the peak configuration (paper's *Perf* baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct PerfGovernor;

impl Governor for PerfGovernor {
    fn name(&self) -> &'static str {
        "perf"
    }

    fn timer_period(&self) -> Option<Duration> {
        None
    }

    fn on_timer(
        &mut self,
        _now: SimTime,
        _utilization: f64,
        _current: CpuConfig,
        platform: &Platform,
    ) -> CpuConfig {
        platform.peak()
    }

    fn on_wakeup(&mut self, _now: SimTime, _current: CpuConfig, platform: &Platform) -> CpuConfig {
        platform.peak()
    }
}

/// Always the lowest configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct PowersaveGovernor;

impl Governor for PowersaveGovernor {
    fn name(&self) -> &'static str {
        "powersave"
    }

    fn timer_period(&self) -> Option<Duration> {
        None
    }

    fn on_timer(
        &mut self,
        _now: SimTime,
        _utilization: f64,
        _current: CpuConfig,
        platform: &Platform,
    ) -> CpuConfig {
        platform.lowest()
    }

    fn on_wakeup(&mut self, _now: SimTime, _current: CpuConfig, platform: &Platform) -> CpuConfig {
        platform.lowest()
    }
}

/// Android's interactive governor (simplified but faithful state machine).
///
/// Parameters mirror the cpufreq sysfs knobs: `hispeed_freq`,
/// `go_hispeed_load`, `target_load`, `min_sample_time`,
/// `above_hispeed_delay`; [`InteractiveGovernor::android_default`] sets
/// them.
#[derive(Debug, Clone)]
pub struct InteractiveGovernor {
    /// Frequency to jump to when load exceeds `go_hispeed_load` (MHz,
    /// big cluster).
    hispeed_freq_mhz: u32,
    /// Load threshold that triggers the hispeed jump.
    go_hispeed_load: f64,
    /// Load the governor tries to hold by picking frequency.
    target_load: f64,
    /// Minimum time at a frequency before ramping down.
    min_sample_time: Duration,
    /// Time to hold at `hispeed_freq` before going above it.
    above_hispeed_delay: Duration,
    last_raise: SimTime,
    hispeed_since: Option<SimTime>,
}

impl InteractiveGovernor {
    /// The Android 4.x defaults (scaled to the Exynos 5410 big cluster).
    pub fn android_default(platform: &Platform) -> Self {
        InteractiveGovernor {
            hispeed_freq_mhz: platform.peak().freq_mhz * 3 / 4 / 100 * 100,
            go_hispeed_load: 0.85,
            target_load: 0.90,
            min_sample_time: Duration::from_millis(80),
            above_hispeed_delay: Duration::from_millis(20),
            last_raise: SimTime::ZERO,
            hispeed_since: None,
        }
    }

    fn clamp_to_big(&self, platform: &Platform, freq_mhz: u32) -> CpuConfig {
        let spec = platform.cluster(crate::platform::CoreType::Big);
        let snapped = freq_mhz.max(spec.min_mhz).min(spec.max_mhz);
        // Snap to the DVFS grid, rounding up (the kernel picks the lowest
        // frequency >= target).
        let offset = snapped - spec.min_mhz;
        let snapped = spec.min_mhz + offset.div_ceil(spec.step_mhz) * spec.step_mhz;
        CpuConfig::new(crate::platform::CoreType::Big, snapped.min(spec.max_mhz))
    }
}

impl Governor for InteractiveGovernor {
    fn name(&self) -> &'static str {
        "interactive"
    }

    fn on_timer(
        &mut self,
        now: SimTime,
        utilization: f64,
        current: CpuConfig,
        platform: &Platform,
    ) -> CpuConfig {
        let spec = platform.cluster(crate::platform::CoreType::Big);
        let cur_mhz = if current.core == crate::platform::CoreType::Big {
            current.freq_mhz
        } else {
            spec.min_mhz
        };
        // Frequency that would bring load back to target_load.
        let wanted = (cur_mhz as f64 * utilization / self.target_load).ceil() as u32;
        let mut target = self.clamp_to_big(platform, wanted);
        if utilization >= self.go_hispeed_load {
            if cur_mhz < self.hispeed_freq_mhz {
                // Jump to hispeed first.
                target = self.clamp_to_big(platform, self.hispeed_freq_mhz);
                self.hispeed_since = Some(now);
            } else {
                // Already at/above hispeed: only go higher after the delay.
                let held = self
                    .hispeed_since
                    .is_none_or(|t| now.saturating_since(t) >= self.above_hispeed_delay);
                if !held {
                    target = self.clamp_to_big(platform, cur_mhz);
                }
            }
        } else {
            self.hispeed_since = None;
        }

        if target.freq_mhz > cur_mhz {
            self.last_raise = now;
            target
        } else if target.freq_mhz < cur_mhz {
            // Ramp down only after min_sample_time at the higher frequency.
            if now.saturating_since(self.last_raise) >= self.min_sample_time {
                target
            } else {
                self.clamp_to_big(platform, cur_mhz)
            }
        } else {
            target
        }
    }

    fn on_wakeup(&mut self, now: SimTime, current: CpuConfig, platform: &Platform) -> CpuConfig {
        // Input boost: jump straight to hispeed.
        self.last_raise = now;
        self.hispeed_since = Some(now);
        let boosted = self.clamp_to_big(platform, self.hispeed_freq_mhz);
        if current.core == crate::platform::CoreType::Big && current.freq_mhz >= boosted.freq_mhz {
            current
        } else {
            boosted
        }
    }
}

/// The classic ondemand governor: jump to max above 80% utilization,
/// else scale proportionally to load.
#[derive(Debug, Clone, Copy, Default)]
pub struct OndemandGovernor;

/// Utilization above which [`OndemandGovernor`] jumps to the maximum
/// frequency.
const ONDEMAND_UP_THRESHOLD: f64 = 0.80;

impl Governor for OndemandGovernor {
    fn name(&self) -> &'static str {
        "ondemand"
    }

    fn on_timer(
        &mut self,
        _now: SimTime,
        utilization: f64,
        _current: CpuConfig,
        platform: &Platform,
    ) -> CpuConfig {
        let spec = platform.cluster(crate::platform::CoreType::Big);
        if utilization >= ONDEMAND_UP_THRESHOLD {
            platform.peak()
        } else {
            let wanted = (spec.max_mhz as f64 * utilization / ONDEMAND_UP_THRESHOLD) as u32;
            let snapped = wanted.max(spec.min_mhz).min(spec.max_mhz);
            let offset = snapped - spec.min_mhz;
            let snapped = spec.min_mhz + offset / spec.step_mhz * spec.step_mhz;
            CpuConfig::new(crate::platform::CoreType::Big, snapped)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::CoreType;

    fn plat() -> Platform {
        Platform::odroid_xu_e()
    }

    #[test]
    fn perf_always_peak() {
        let p = plat();
        let mut g = PerfGovernor;
        assert_eq!(g.on_timer(SimTime::ZERO, 0.0, p.lowest(), &p), p.peak());
        assert_eq!(g.on_wakeup(SimTime::ZERO, p.lowest(), &p), p.peak());
        assert_eq!(g.timer_period(), None);
    }

    #[test]
    fn powersave_always_lowest() {
        let p = plat();
        let mut g = PowersaveGovernor;
        assert_eq!(g.on_timer(SimTime::ZERO, 1.0, p.peak(), &p), p.lowest());
    }

    #[test]
    fn interactive_wakeup_boosts_to_hispeed() {
        let p = plat();
        let mut g = InteractiveGovernor::android_default(&p);
        let boosted = g.on_wakeup(SimTime::ZERO, p.lowest(), &p);
        assert_eq!(boosted.core, CoreType::Big);
        assert!(boosted.freq_mhz >= g.hispeed_freq_mhz);
    }

    #[test]
    fn interactive_ramps_to_peak_under_sustained_load() {
        let p = plat();
        let mut g = InteractiveGovernor::android_default(&p);
        let mut config = g.on_wakeup(SimTime::ZERO, p.lowest(), &p);
        let mut now = SimTime::ZERO;
        for _ in 0..20 {
            now += Duration::from_millis(20);
            config = g.on_timer(now, 1.0, config, &p);
        }
        assert_eq!(config, p.peak(), "sustained full load must reach peak");
    }

    #[test]
    fn interactive_holds_before_ramping_down() {
        let p = plat();
        let mut g = InteractiveGovernor::android_default(&p);
        let mut now = SimTime::from_millis(100);
        let mut config = g.on_wakeup(now, p.lowest(), &p);
        // Load disappears immediately, but min_sample_time must elapse
        // before the frequency drops.
        now += Duration::from_millis(20);
        let held = g.on_timer(now, 0.05, config, &p);
        assert_eq!(
            held.freq_mhz, config.freq_mhz,
            "must hold during sample time"
        );
        now += Duration::from_millis(100);
        config = g.on_timer(now, 0.05, config, &p);
        assert!(config.freq_mhz < held.freq_mhz, "must eventually ramp down");
    }

    #[test]
    fn interactive_never_migrates_to_little() {
        let p = plat();
        let mut g = InteractiveGovernor::android_default(&p);
        let mut now = SimTime::ZERO;
        let mut config = g.on_wakeup(now, p.lowest(), &p);
        for i in 0..50 {
            now += Duration::from_millis(20);
            let util = if i % 2 == 0 { 0.9 } else { 0.02 };
            config = g.on_timer(now, util, config, &p);
            assert_eq!(config.core, CoreType::Big);
        }
    }

    #[test]
    fn ondemand_jumps_to_max_above_threshold() {
        let p = plat();
        let mut g = OndemandGovernor;
        assert_eq!(g.on_timer(SimTime::ZERO, 0.9, p.lowest(), &p), p.peak());
        let low = g.on_timer(SimTime::ZERO, 0.1, p.peak(), &p);
        assert!(low.freq_mhz < p.peak().freq_mhz);
        assert_eq!(low.core, CoreType::Big);
    }

    #[test]
    fn interactive_snaps_to_dvfs_grid() {
        let p = plat();
        let g = InteractiveGovernor::android_default(&p);
        let snapped = g.clamp_to_big(&p, 1234);
        assert!(p.is_valid(snapped));
        assert!(snapped.freq_mhz >= 1234);
    }
}
