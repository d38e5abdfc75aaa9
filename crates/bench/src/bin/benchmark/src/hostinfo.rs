//! What the host was doing: peak memory, CPU steal and load, read from
//! Linux's `/proc`. Each reader returns `None` where `/proc` is missing.

use std::fs;

/// Resets the process's peak resident set size (`VmHWM`) to its current
/// size, so the next [`peak_rss_mb`] covers only what follows.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size since start or the last reset, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Cumulative `(total, steal)` CPU ticks over all CPUs.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user and nice.
    let total = ticks.iter().take(8).sum();
    Some((total, *ticks.get(7)?))
}

/// Share of CPU time stolen by the hypervisor between two
/// [`cpu_ticks`] readings, in percent.
pub fn steal_pct(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((t0, s0)), Some((t1, s1))) if t1 > t0 => {
            (s1.saturating_sub(s0)) as f64 / (t1 - t0) as f64 * 100.0
        }
        _ => 0.0,
    }
}

/// The 1-, 5- and 15-minute load averages as `/proc/loadavg` prints them.
pub fn load_average() -> String {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
