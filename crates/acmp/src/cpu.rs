//! CPU state: energy metering, per-configuration residency (Fig. 11), and
//! switch accounting (Fig. 12).
//!
//! The engine owns the clock; [`Cpu`] charges the intervals between state
//! changes to one ledger of integer busy and resident time per
//! configuration, priced when read. Busy/idle and configuration changes
//! must be preceded by an [`Cpu::advance`] to the current time, which the
//! mutating methods do internally.

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

/// One configuration's row of the energy ledger.
#[derive(Debug, Clone)]
struct Row {
    config: CpuConfig,
    active_mw: f64,
    idle_mw: f64,
    resident: Duration,
    busy: Duration,
}

/// The simulated CPU.
#[derive(Debug, Clone)]
pub struct Cpu {
    platform: Platform,
    /// One row per [`Platform::configs`] entry, in that order.
    rows: Vec<Row>,
    /// Index of the current configuration's row.
    current: usize,
    busy: bool,
    last_update: SimTime,
    dvfs_switches: u64,
    migrations: u64,
}

impl Cpu {
    /// Creates a CPU at the platform's peak configuration (how interactive
    /// Android devices come out of input boost), idle, at time zero.
    pub fn new(platform: Platform, power: PowerModel) -> Self {
        let peak = platform.peak();
        let rows = platform
            .configs()
            .map(|config| Row {
                config,
                active_mw: power.active_mw(&platform, config),
                idle_mw: power.idle_mw(config),
                resident: Duration::ZERO,
                busy: Duration::ZERO,
            })
            .collect();
        Cpu {
            platform,
            rows,
            current: 0,
            busy: false,
            last_update: SimTime::ZERO,
            dvfs_switches: 0,
            migrations: 0,
        }
        .with_config(peak)
    }

    /// Overrides the initial configuration.
    pub fn with_config(mut self, config: CpuConfig) -> Self {
        self.current = self.row_of(config);
        self
    }

    /// The ledger row of `config`; panics if the platform has no such
    /// configuration.
    fn row_of(&self, config: CpuConfig) -> usize {
        self.rows
            .iter()
            .position(|row| row.config == config)
            .unwrap_or_else(|| panic!("invalid config {config}"))
    }

    /// The platform description.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The current configuration.
    pub fn config(&self) -> CpuConfig {
        self.rows[self.current].config
    }

    /// Whether the CPU is currently executing work.
    pub fn is_busy(&self) -> bool {
        self.busy
    }

    /// IPC of the current configuration's cluster.
    pub fn current_ipc(&self) -> f64 {
        self.platform.cluster(self.config().core).ipc
    }

    /// Time `work` would take at the current configuration.
    pub fn duration_of(&self, work: &WorkUnit) -> Duration {
        work.duration_on(self.config(), self.current_ipc())
    }

    /// Remaining work after executing `work` at the current configuration
    /// for `elapsed`.
    pub fn remaining_after(&self, work: &WorkUnit, elapsed: Duration) -> WorkUnit {
        work.remaining_after(self.config(), self.current_ipc(), elapsed)
    }

    /// Charges the time up to `now` to the current configuration's row.
    ///
    /// # Panics
    ///
    /// Panics if `now` is earlier than the previous update.
    pub fn advance(&mut self, now: SimTime) {
        let span = now.since(self.last_update);
        if span.is_zero() {
            return;
        }
        let row = &mut self.rows[self.current];
        row.resident += span;
        if self.busy {
            row.busy += span;
        }
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
        let row = self.row_of(to);
        self.advance(now);
        if row == self.current {
            return Duration::ZERO;
        }
        let from = self.config();
        if to.core != from.core {
            self.migrations += 1;
        } else {
            self.dvfs_switches += 1;
        }
        self.current = row;
        self.platform.switch_cost(from, to)
    }

    /// Accumulated energy (ground truth, as dissipated by the model): each
    /// row's busy time at its active power plus its idle time at its idle
    /// power, summed in [`Platform::configs`] order. This is the run's one
    /// energy account: reports, traces and energy-budgeting policies all
    /// read it.
    pub fn energy(&self) -> EnergyBreakdown {
        let mut energy = EnergyBreakdown::default();
        for row in &self.rows {
            energy.active_mj += row.active_mw * row.busy.as_secs_f64();
            energy.idle_mj += row.idle_mw * (row.resident - row.busy).as_secs_f64();
        }
        energy
    }

    /// Instantaneous power draw at the current state, in milliwatts.
    pub fn power_mw(&self) -> f64 {
        let row = &self.rows[self.current];
        if self.busy {
            row.active_mw
        } else {
            row.idle_mw
        }
    }

    /// Total wall-clock residency of every configuration the CPU spent
    /// time in (the Fig. 11 data).
    pub fn residency(&self) -> HashMap<CpuConfig, Duration> {
        self.rows
            .iter()
            .filter(|row| !row.resident.is_zero())
            .map(|row| (row.config, row.resident))
            .collect()
    }

    /// `(dvfs switches, migrations)` — the Fig. 12 data.
    pub fn switch_counts(&self) -> (u64, u64) {
        (self.dvfs_switches, self.migrations)
    }

    /// Total busy time.
    pub fn busy_time(&self) -> Duration {
        self.rows
            .iter()
            .fold(Duration::ZERO, |sum, row| sum + row.busy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::CoreType;

    fn cpu() -> Cpu {
        Cpu::new(Platform::odroid_xu_e(), PowerModel::odroid_xu_e())
    }

    fn total_time(c: &Cpu) -> Duration {
        Duration::from_nanos(c.residency().values().map(|d| d.as_nanos()).sum())
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
        let idle_mw = PowerModel::odroid_xu_e().idle_mw(c.config());
        assert!((e.idle_mj - idle_mw).abs() < 1e-9);
    }

    #[test]
    fn busy_energy_integrates_at_active_power() {
        let mut c = cpu();
        c.set_busy(SimTime::ZERO, true);
        c.advance(SimTime::from_secs(2));
        let active_mw = PowerModel::odroid_xu_e().active_mw(c.platform(), c.config());
        assert!((c.energy().active_mj - 2.0 * active_mw).abs() < 1e-9);
        assert_eq!(c.busy_time(), Duration::from_millis(2000));
        assert_eq!(total_time(&c), c.busy_time());
    }

    #[test]
    fn mixed_busy_idle_split() {
        let mut c = cpu();
        c.set_busy(SimTime::ZERO, true);
        c.set_busy(SimTime::from_millis(300), false);
        c.advance(SimTime::from_secs(1));
        assert_eq!(c.busy_time(), Duration::from_millis(300));
        assert_eq!(total_time(&c), Duration::from_millis(1000));
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
        assert_eq!(big_ns * 4, total_time(&c).as_nanos());
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
    fn power_mw_reflects_state() {
        let mut c = cpu();
        let power = PowerModel::odroid_xu_e();
        assert_eq!(c.power_mw(), power.idle_mw(c.config()));
        c.set_busy(SimTime::ZERO, true);
        assert_eq!(c.power_mw(), power.active_mw(c.platform(), c.config()));
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
