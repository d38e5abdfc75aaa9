//! CPU state: energy metering, per-configuration residency (Fig. 11), and
//! switch accounting (Fig. 12).
//!
//! The engine owns the clock; [`Cpu`] integrates power over the intervals
//! between state changes. Busy/idle and configuration changes must be
//! preceded by an [`Cpu::advance`] to the current time, which the mutating
//! methods do internally.

use crate::platform::{CpuConfig, Platform};
use crate::power::PowerModel;
use crate::time::{Duration, SimTime};
use crate::work::WorkUnit;
use std::collections::HashMap;
use std::fmt;

/// The kind of a configuration switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SwitchKind {
    /// Frequency change within a cluster (paper: 100 µs).
    Dvfs,
    /// Cluster migration (paper: 20 µs).
    Migration,
}

impl fmt::Display for SwitchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwitchKind::Dvfs => write!(f, "dvfs"),
            SwitchKind::Migration => write!(f, "migration"),
        }
    }
}

/// Accumulated energy, split by CPU state.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Energy spent executing work, in millijoules.
    pub active_mj: f64,
    /// Energy spent idling, in millijoules.
    pub idle_mj: f64,
}

impl EnergyBreakdown {
    /// Total energy in millijoules.
    pub fn total_mj(&self) -> f64 {
        self.active_mj + self.idle_mj
    }
}

/// A point-in-time reading of the CPU's power state, as tracing
/// samples it at display rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSample {
    /// The configuration at the sample point.
    pub config: CpuConfig,
    /// Whether the CPU was executing work.
    pub busy: bool,
    /// Instantaneous power draw at the sampled state, in milliwatts.
    pub power_mw: f64,
    /// Cumulative ground-truth energy.
    pub energy: EnergyBreakdown,
    /// Cumulative energy as the (possibly distorted) sensor reports it.
    pub metered: EnergyBreakdown,
}

/// The simulated CPU.
#[derive(Debug, Clone)]
pub struct Cpu {
    platform: Platform,
    power: PowerModel,
    config: CpuConfig,
    busy: bool,
    last_update: SimTime,
    energy: EnergyBreakdown,
    metered: EnergyBreakdown,
    sensor_gain: f64,
    residency: HashMap<CpuConfig, Duration>,
    busy_residency: HashMap<CpuConfig, Duration>,
    busy_time: Duration,
    total_time: Duration,
    dvfs_switches: u64,
    migrations: u64,
}

impl Cpu {
    /// Creates a CPU at the platform's peak configuration (how interactive
    /// Android devices come out of input boost), idle, at time zero.
    pub fn new(platform: Platform, power: PowerModel) -> Self {
        let config = platform.peak();
        Cpu {
            platform,
            power,
            config,
            busy: false,
            last_update: SimTime::ZERO,
            energy: EnergyBreakdown::default(),
            metered: EnergyBreakdown::default(),
            sensor_gain: 1.0,
            residency: HashMap::new(),
            busy_residency: HashMap::new(),
            busy_time: Duration::ZERO,
            total_time: Duration::ZERO,
            dvfs_switches: 0,
            migrations: 0,
        }
    }

    /// Overrides the initial configuration.
    pub fn with_config(mut self, config: CpuConfig) -> Self {
        assert!(self.platform.is_valid(config), "invalid config {config}");
        self.config = config;
        self
    }

    /// The platform description.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The power model.
    pub fn power_model(&self) -> &PowerModel {
        &self.power
    }

    /// The current configuration.
    pub fn config(&self) -> CpuConfig {
        self.config
    }

    /// Whether the CPU is currently executing work.
    pub fn is_busy(&self) -> bool {
        self.busy
    }

    /// IPC of the current configuration's cluster.
    pub fn current_ipc(&self) -> f64 {
        self.platform.cluster(self.config.core).ipc
    }

    /// Time `work` would take at the current configuration.
    pub fn duration_of(&self, work: &WorkUnit) -> Duration {
        work.duration_on(self.config, self.current_ipc())
    }

    /// Remaining work after executing `work` at the current configuration
    /// for `elapsed`.
    pub fn remaining_after(&self, work: &WorkUnit, elapsed: Duration) -> WorkUnit {
        work.remaining_after(self.config, self.current_ipc(), elapsed)
    }

    /// Integrates power up to `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` is earlier than the previous update.
    pub fn advance(&mut self, now: SimTime) {
        let span = now.since(self.last_update);
        if span.is_zero() {
            return;
        }
        let secs = span.as_secs_f64();
        if self.busy {
            let mw = self.power.active_mw(&self.platform, self.config);
            self.energy.active_mj += mw * secs;
            self.metered.active_mj += mw * secs * self.sensor_gain;
            self.busy_time += span;
            *self
                .busy_residency
                .entry(self.config)
                .or_insert(Duration::ZERO) += span;
        } else {
            let mw = self.power.idle_mw(self.config);
            self.energy.idle_mj += mw * secs;
            self.metered.idle_mj += mw * secs * self.sensor_gain;
        }
        *self.residency.entry(self.config).or_insert(Duration::ZERO) += span;
        self.total_time += span;
        self.last_update = now;
    }

    /// Marks the CPU busy or idle as of `now`.
    pub fn set_busy(&mut self, now: SimTime, busy: bool) {
        self.advance(now);
        self.busy = busy;
    }

    /// Switches to `to` as of `now`, returning the stall penalty the
    /// caller must add to the running work (zero when `to` equals the
    /// current configuration). The stall itself is charged as active time
    /// at the *new* configuration by the caller's subsequent advance.
    ///
    /// # Panics
    ///
    /// Panics if `to` is not a valid configuration of the platform.
    pub fn switch(&mut self, now: SimTime, to: CpuConfig) -> Duration {
        assert!(self.platform.is_valid(to), "invalid config {to}");
        self.advance(now);
        if to == self.config {
            return Duration::ZERO;
        }
        let kind = if to.core != self.config.core {
            SwitchKind::Migration
        } else {
            SwitchKind::Dvfs
        };
        match kind {
            SwitchKind::Dvfs => self.dvfs_switches += 1,
            SwitchKind::Migration => self.migrations += 1,
        }
        let cost = self.platform.switch_cost(self.config, to);
        self.config = to;
        cost
    }

    /// Accumulated energy (ground truth, as dissipated by the model).
    pub fn energy(&self) -> EnergyBreakdown {
        self.energy
    }

    /// Energy as reported by the platform's power sensor (the XU+E's
    /// on-board current/voltage meters). Equal to [`Cpu::energy`] unless a
    /// sensor distortion has been applied with [`Cpu::set_sensor_gain`] —
    /// fault injection uses that to model sensor noise and dropout.
    /// Policies that meter their own consumption (e.g. energy-budget UAI
    /// fallback) read this, not the ground truth.
    pub fn metered_energy(&self) -> EnergyBreakdown {
        self.metered
    }

    /// Sets the gain the power sensor applies to all subsequent energy
    /// increments: `1.0` is a faithful sensor, `0.0` a dropout (the meter
    /// reads nothing), other values model calibration noise. Advances the
    /// integrator to `now` first so the new gain only affects the future.
    pub fn set_sensor_gain(&mut self, now: SimTime, gain: f64) {
        self.advance(now);
        self.sensor_gain = gain.max(0.0);
    }

    /// The current power-sensor gain.
    pub fn sensor_gain(&self) -> f64 {
        self.sensor_gain
    }

    /// Reads the instantaneous power state. Callers should
    /// [`Cpu::advance`] to the sample time first so the cumulative
    /// energies are current.
    pub fn power_sample(&self) -> PowerSample {
        let power_mw = if self.busy {
            self.power.active_mw(&self.platform, self.config)
        } else {
            self.power.idle_mw(self.config)
        };
        PowerSample {
            config: self.config,
            busy: self.busy,
            power_mw,
            energy: self.energy,
            metered: self.metered,
        }
    }

    /// Total wall-clock residency per configuration (the Fig. 11 data).
    pub fn residency(&self) -> &HashMap<CpuConfig, Duration> {
        &self.residency
    }

    /// Busy-only residency per configuration.
    pub fn busy_residency(&self) -> &HashMap<CpuConfig, Duration> {
        &self.busy_residency
    }

    /// `(dvfs switches, migrations)` — the Fig. 12 data.
    pub fn switch_counts(&self) -> (u64, u64) {
        (self.dvfs_switches, self.migrations)
    }

    /// Total busy time.
    pub fn busy_time(&self) -> Duration {
        self.busy_time
    }

    /// Total simulated time observed.
    pub fn total_time(&self) -> Duration {
        self.total_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::CoreType;

    fn cpu() -> Cpu {
        Cpu::new(Platform::odroid_xu_e(), PowerModel::odroid_xu_e())
    }

    #[test]
    fn starts_at_peak_and_idle() {
        let c = cpu();
        assert_eq!(c.config(), Platform::odroid_xu_e().peak());
        assert!(!c.is_busy());
        assert_eq!(c.energy().total_mj(), 0.0);
    }

    #[test]
    fn idle_energy_integrates() {
        let mut c = cpu();
        c.advance(SimTime::from_secs(1));
        let e = c.energy();
        assert_eq!(e.active_mj, 0.0);
        let idle_mw = c.power_model().idle_mw(c.config());
        assert!((e.idle_mj - idle_mw).abs() < 1e-9);
    }

    #[test]
    fn busy_energy_integrates_at_active_power() {
        let mut c = cpu();
        c.set_busy(SimTime::ZERO, true);
        c.advance(SimTime::from_secs(2));
        let active_mw = c.power_model().active_mw(c.platform(), c.config());
        assert!((c.energy().active_mj - 2.0 * active_mw).abs() < 1e-9);
        assert_eq!(c.busy_time(), Duration::from_millis(2000));
        assert_eq!(c.total_time(), c.busy_time());
    }

    #[test]
    fn mixed_busy_idle_split() {
        let mut c = cpu();
        c.set_busy(SimTime::ZERO, true);
        c.set_busy(SimTime::from_millis(300), false);
        c.advance(SimTime::from_secs(1));
        assert_eq!(c.busy_time(), Duration::from_millis(300));
        assert_eq!(c.total_time(), Duration::from_millis(1000));
        assert!(c.energy().active_mj > 0.0);
        assert!(c.energy().idle_mj > 0.0);
    }

    #[test]
    fn switch_counts_and_costs() {
        let mut c = cpu();
        let p = Platform::odroid_xu_e();
        let cost1 = c.switch(SimTime::from_millis(1), CpuConfig::new(CoreType::Big, 1000));
        assert_eq!(cost1, Duration::from_micros(100));
        let cost2 = c.switch(SimTime::from_millis(2), p.lowest());
        assert_eq!(cost2, Duration::from_micros(20));
        let cost3 = c.switch(SimTime::from_millis(3), p.lowest());
        assert_eq!(cost3, Duration::ZERO);
        assert_eq!(c.switch_counts(), (1, 1));
    }

    #[test]
    fn residency_tracks_configs() {
        let mut c = cpu();
        let p = Platform::odroid_xu_e();
        c.advance(SimTime::from_millis(10));
        c.switch(SimTime::from_millis(10), p.lowest());
        c.advance(SimTime::from_millis(40));
        assert_eq!(c.residency()[&p.peak()], Duration::from_millis(10));
        assert_eq!(c.residency()[&p.lowest()], Duration::from_millis(30));
        let big_ns: u64 = c
            .residency()
            .iter()
            .filter(|(config, _)| config.core == CoreType::Big)
            .map(|(_, d)| d.as_nanos())
            .sum();
        assert_eq!(big_ns * 4, c.total_time().as_nanos());
    }

    #[test]
    fn lower_config_burns_less_energy_for_same_wall_time() {
        let mut fast = cpu();
        fast.set_busy(SimTime::ZERO, true);
        fast.advance(SimTime::from_secs(1));
        let mut slow = cpu().with_config(Platform::odroid_xu_e().lowest());
        slow.set_busy(SimTime::ZERO, true);
        slow.advance(SimTime::from_secs(1));
        assert!(slow.energy().total_mj() < fast.energy().total_mj() / 5.0);
    }

    #[test]
    #[should_panic(expected = "invalid config")]
    fn switch_rejects_invalid_config() {
        let mut c = cpu();
        c.switch(SimTime::ZERO, CpuConfig::new(CoreType::Big, 1234));
    }

    #[test]
    fn metered_energy_tracks_truth_with_unit_gain() {
        let mut c = cpu();
        c.set_busy(SimTime::ZERO, true);
        c.advance(SimTime::from_secs(1));
        assert_eq!(c.metered_energy(), c.energy());
    }

    #[test]
    fn sensor_gain_distorts_metered_but_not_truth() {
        let mut c = cpu();
        c.set_busy(SimTime::ZERO, true);
        c.advance(SimTime::from_millis(500));
        c.set_sensor_gain(SimTime::from_millis(500), 0.0); // dropout
        c.advance(SimTime::from_secs(1));
        let truth = c.energy().total_mj();
        let metered = c.metered_energy().total_mj();
        assert!((metered - truth / 2.0).abs() < 1e-9, "{metered} vs {truth}");
        c.set_sensor_gain(SimTime::from_secs(1), 2.0); // over-reading noise
        c.advance(SimTime::from_millis(1500));
        assert!(c.metered_energy().total_mj() > c.energy().total_mj() * 0.99);
    }

    #[test]
    fn power_sample_reflects_state() {
        let mut c = cpu();
        let idle = c.power_sample();
        assert!(!idle.busy);
        assert_eq!(idle.power_mw, c.power_model().idle_mw(c.config()));
        c.set_busy(SimTime::ZERO, true);
        c.advance(SimTime::from_secs(1));
        let busy = c.power_sample();
        assert!(busy.busy);
        assert_eq!(
            busy.power_mw,
            c.power_model().active_mw(c.platform(), c.config())
        );
        assert_eq!(busy.energy, c.energy());
        assert_eq!(busy.metered, c.metered_energy());
    }

    #[test]
    fn advance_is_idempotent_at_same_time() {
        let mut c = cpu();
        c.advance(SimTime::from_millis(5));
        let e = c.energy();
        c.advance(SimTime::from_millis(5));
        assert_eq!(c.energy(), e);
    }
}
