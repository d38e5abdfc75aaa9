//! # greenweb-acmp
//!
//! An asymmetric chip-multiprocessor (ACMP) model standing in for the
//! Exynos 5410 big.LITTLE SoC the GreenWeb paper evaluates on (ODroid
//! XU+E, Sec. 7.1): an ARM Cortex-A15 "big" cluster (0.8–1.8 GHz in
//! 100 MHz steps) and a Cortex-A7 "LITTLE" cluster (350–600 MHz in 50 MHz
//! steps), with the paper's 100 µs DVFS and 20 µs cluster-migration
//! overheads.
//!
//! The crate provides:
//!
//! * [`time`] — integer-nanosecond simulated time shared by the whole
//!   workspace;
//! * [`platform`] — the ⟨core, frequency⟩ configuration space;
//! * [`work`] — the ground-truth execution model
//!   `T = T_independent + W / (IPC · f)` (the Xie et al. DVFS model the
//!   paper's Eq. 1 is fit against, with per-core IPC added);
//! * [`power`] — a `P = P_static + C · f · V(f)²` power model calibrated to
//!   plausible A15/A7 cluster numbers;
//! * [`cpu`] — energy metering, per-configuration residency (Fig. 11), and
//!   switch accounting (Fig. 12);
//! * [`governor`] — baseline DVFS policies: `Perf`, `Powersave`,
//!   Android-style `Interactive`, and `Ondemand`.
//!
//! ```
//! use greenweb_acmp::platform::{CoreType, CpuConfig, Platform};
//!
//! let platform = Platform::odroid_xu_e();
//! let peak = platform.max_config(CoreType::Big);
//! assert_eq!(peak, CpuConfig::new(CoreType::Big, 1800));
//! assert_eq!(platform.configs().count(), 11 + 6);
//! ```

#![forbid(unsafe_code)]

pub mod cpu;
pub mod governor;
pub mod platform;
pub mod power;
pub mod time;
pub mod work;

pub use cpu::{Cpu, EnergyBreakdown, SwitchKind};
pub use governor::{
    Governor, InteractiveGovernor, OndemandGovernor, PerfGovernor, PowersaveGovernor,
};
pub use platform::{CoreType, CpuConfig, Platform};
pub use power::PowerModel;
pub use time::{Duration, SimTime};
pub use work::WorkUnit;
