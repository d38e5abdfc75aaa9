//! A fixed reference kernel timed beside every measurement, so host times
//! can be reported at one reference machine speed.
//!
//! Small cloud machines change speed by tens of percent over seconds and
//! minutes (neighbours contend for caches and memory bandwidth without
//! showing up as steal time). Timing this kernel right after each pass and
//! scaling the pass by `REFERENCE_MS / kernel time` cancels that drift:
//! here the ratio of a `paper-full` pass to the kernel held within 1.5%
//! across two-minute windows in which the raw pass time moved 8%. The
//! kernel is the benchmark's own code, so a change to the program cannot
//! speed it up; it allocates nothing after start-up, so the program's
//! heap state cannot slow it down.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// Kernel time, in milliseconds, that calibrated times are scaled to:
/// about what the kernel takes on an unloaded 2 GHz x86-64 core.
pub const REFERENCE_MS: f64 = 2.0;

/// Keys hashed into the open-addressing table.
const KEYS: u64 = 40_000;
/// Slots of the table (a power of two, under 2/3 full).
const SLOTS: usize = 1 << 16;
/// Values copied and sorted.
const SORTED: u64 = 100_000;

/// Most threads one measurement runs the kernel on.
const MAX_THREADS: usize = 2;

/// The kernel's inputs and per-thread working memory, allocated and
/// written once, so running the kernel adds nothing to the process's
/// peak memory.
pub struct Calibrator {
    keys: Vec<u64>,
    values: Vec<u64>,
    scratch: Vec<Mutex<Scratch>>,
}

struct Scratch {
    table: Vec<u64>,
    sorted: Vec<u64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        let values: Vec<u64> = (0..SORTED)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        Calibrator {
            keys: (1..=KEYS)
                .map(|i| i.wrapping_mul(0xD6E8_FEB8_6659_FD93) | 1)
                .collect(),
            scratch: (0..MAX_THREADS)
                .map(|_| {
                    Mutex::new(Scratch {
                        table: vec![1; SLOTS],
                        sorted: values.clone(),
                    })
                })
                .collect(),
            values,
        }
    }
}

impl Calibrator {
    /// Runs the kernel once on each of `threads` threads (at most two) at
    /// the same time and returns their mean time in milliseconds. A pass
    /// that keeps two cores busy is calibrated on two cores, since either
    /// may be the slow one.
    pub fn measure(&self, threads: usize) -> f64 {
        let threads = threads.clamp(1, MAX_THREADS);
        let run = |slot: usize| {
            let mut scratch = self.scratch[slot]
                .lock()
                .expect("the calibration kernel does not panic");
            self.kernel(&mut scratch)
        };
        if threads == 1 {
            return run(0);
        }
        let total: f64 = std::thread::scope(|scope| {
            let runs: Vec<_> = (0..threads)
                .map(|slot| scope.spawn(move || run(slot)))
                .collect();
            runs.into_iter()
                .map(|run| run.join().expect("the calibration kernel does not panic"))
                .sum()
        });
        total / threads as f64
    }

    /// Factor that scales a host time measured beside a kernel run of
    /// `kernel_ms` to the reference speed.
    pub fn factor(kernel_ms: f64) -> f64 {
        REFERENCE_MS / kernel_ms
    }

    /// Hash every key into a cleared table, look each up, then sort a
    /// copy of the values: the hashing, branching and cache traffic of
    /// the engine's own work, in about [`REFERENCE_MS`].
    fn kernel(&self, scratch: &mut Scratch) -> f64 {
        let slot = |k: u64| (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize & (SLOTS - 1);
        let Scratch { table, sorted } = scratch;
        let started = Instant::now();
        table.fill(0);
        for &k in &self.keys {
            let mut i = slot(k);
            while table[i] != 0 && table[i] != k {
                i = (i + 1) & (SLOTS - 1);
            }
            table[i] = k;
        }
        let mut found = 0u64;
        for &k in self.keys.iter().rev() {
            let mut i = slot(k);
            while table[i] != k {
                i = (i + 1) & (SLOTS - 1);
            }
            found = found.wrapping_add(i as u64);
        }
        sorted.copy_from_slice(&self.values);
        sorted.sort_unstable();
        black_box((found, &sorted));
        started.elapsed().as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_takes_time_on_one_and_two_threads() {
        let calibrator = Calibrator::default();
        for threads in [1, 2] {
            let ms = calibrator.measure(threads);
            assert!(ms > 0.0 && ms.is_finite(), "{threads} threads: {ms} ms");
        }
        assert!((Calibrator::factor(REFERENCE_MS) - 1.0).abs() < 1e-12);
    }
}
