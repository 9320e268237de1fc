//! Host-speed probe: the yardstick that takes the shared host's speed
//! swings out of the benchmark's host times.
//!
//! The benchmark runs on a few cores of a shared host whose speed
//! drifts 1.5–2× over tens of seconds, and the same pass is slower by
//! that much whenever it falls into a slow phase. A probe thread runs
//! a fixed burst of work (allocate and sort small vectors, like the
//! simulator's own allocation-heavy code) every [`PERIOD`] and logs how
//! long each burst took. A host time measured over an interval is then
//! scaled to the nominal host speed by [`Speed::factor`]: the burst
//! time [`NOMINAL_BURST_S`] over the median burst time around that
//! interval, to the power [`ELASTICITY`].
//!
//! The benchmark command pins the process to one core, so the probe
//! feels the same neighbours as the workload. A probe on the other core
//! tracked `gpt2xl-oversub` pass time with a correlation of only 0.30;
//! on the same core, 0.83. Sharing the core, the probe takes about 2%
//! of it, and [`Speed::busy_share`] gives that share back.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Time between bursts.
pub const PERIOD: Duration = Duration::from_millis(50);
/// A burst's median duration at nominal host speed (a quiet moment of
/// a 2.1 GHz x86-64 host). Only ratios of host times matter, so this
/// just keeps scaled times close to raw ones.
pub const NOMINAL_BURST_S: f64 = 1.0e-3;
/// How much of the probe's slowdown the simulator feels: a pass takes
/// `(burst time)^ELASTICITY` longer. The sorting burst is more
/// sensitive to the neighbours than the simulator's memory-bound code.
/// Pinned `gpt2xl-oversub` pass times grew as the 0.58 power of burst
/// time. Over ten seeds per workload, exponents 0.5–0.6 gave every
/// workload its smallest spread, and 1 doubled the spread of
/// `gpt2xl-oversub` and `serve-colocated`.
pub const ELASTICITY: f64 = 0.6;
/// Bursts up to this long before and after an interval also count for
/// it, so a 0.1 s set-up window still has about twenty.
pub const PAD_S: f64 = 0.5;

/// Vectors sorted per burst, and their length.
const BURST_VECS: u64 = 30;
const VEC_LEN: u64 = 2000;

/// One burst: when it started (seconds since the probe's epoch) and
/// how long it took.
#[derive(Debug, Clone, Copy)]
struct Burst {
    at_s: f64,
    took_s: f64,
}

/// The fixed work of one burst.
fn burst() {
    for k in 0..BURST_VECS {
        let mut v: Vec<u64> = (0..VEC_LEN)
            .map(|x| x.wrapping_mul(0x9e37_79b9_7f4a_7c15 ^ k) >> 17)
            .collect();
        v.sort_unstable();
        black_box(&v);
    }
}

/// A running probe thread. Dropping it stops the thread and waits for
/// it, so every way out of the benchmark ends the thread.
pub struct Probe {
    epoch: Instant,
    stop: Arc<AtomicBool>,
    log: Arc<Mutex<Vec<Burst>>>,
    thread: Option<JoinHandle<()>>,
}

impl Probe {
    /// Starts the probe thread.
    pub fn start() -> Probe {
        let epoch = Instant::now();
        let stop = Arc::new(AtomicBool::new(false));
        let log = Arc::new(Mutex::new(Vec::new()));
        let (s, l) = (Arc::clone(&stop), Arc::clone(&log));
        let thread = std::thread::spawn(move || {
            while !s.load(Ordering::Relaxed) {
                let at = Instant::now();
                burst();
                let b = Burst {
                    at_s: at.duration_since(epoch).as_secs_f64(),
                    took_s: at.elapsed().as_secs_f64(),
                };
                l.lock().unwrap_or_else(|e| e.into_inner()).push(b);
                std::thread::sleep(PERIOD);
            }
        });
        Probe {
            epoch,
            stop,
            log,
            thread: Some(thread),
        }
    }

    /// Seconds since the probe started, on the clock [`Speed::factor`]
    /// takes intervals in.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Stops the probe, waits for its thread and returns its log.
    pub fn finish(mut self) -> Speed {
        self.halt();
        let bursts = std::mem::take(&mut *self.log.lock().unwrap_or_else(|e| e.into_inner()));
        Speed { bursts }
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            // A panic in the probe only loses samples; `factor` then
            // falls back to 1.
            let _ = t.join();
        }
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        self.halt();
    }
}

/// The probe's log after it stopped.
pub struct Speed {
    bursts: Vec<Burst>,
}

impl Speed {
    /// The factor that scales a host time measured over `[from_s, to_s]`
    /// to nominal host speed: [`NOMINAL_BURST_S`] over the median burst
    /// that started within [`PAD_S`] of the interval, to the power
    /// [`ELASTICITY`]. 1 without bursts.
    pub fn factor(&self, from_s: f64, to_s: f64) -> f64 {
        let mut near: Vec<f64> = self
            .bursts
            .iter()
            .filter(|b| b.at_s >= from_s - PAD_S && b.at_s <= to_s + PAD_S)
            .map(|b| b.took_s)
            .collect();
        if near.is_empty() {
            return 1.0;
        }
        near.sort_by(f64::total_cmp);
        (NOMINAL_BURST_S / near[near.len() / 2]).powf(ELASTICITY)
    }

    /// The share of `[from_s, to_s]` the probe's bursts took. When the
    /// probe shares a core with the workload, the workload's host time
    /// over that interval is short by this share.
    pub fn busy_share(&self, from_s: f64, to_s: f64) -> f64 {
        if to_s <= from_s {
            return 0.0;
        }
        let busy: f64 = self
            .bursts
            .iter()
            .map(|b| (b.at_s + b.took_s).min(to_s) - b.at_s.max(from_s))
            .filter(|overlap| *overlap > 0.0)
            .sum();
        busy / (to_s - from_s)
    }

    /// Bursts logged.
    pub fn bursts(&self) -> usize {
        self.bursts.len()
    }

    /// The median burst time over the whole run, in seconds.
    pub fn median_burst_s(&self) -> f64 {
        let mut all: Vec<f64> = self.bursts.iter().map(|b| b.took_s).collect();
        if all.is_empty() {
            return 0.0;
        }
        all.sort_by(f64::total_cmp);
        all[all.len() / 2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn speed(bursts: &[(f64, f64)]) -> Speed {
        Speed {
            bursts: bursts
                .iter()
                .map(|&(at_s, took_s)| Burst { at_s, took_s })
                .collect(),
        }
    }

    #[test]
    fn factor_is_nominal_over_the_median_burst_near_the_interval() {
        let s = speed(&[
            (0.0, 1e-3),
            (1.0, 2e-3),
            (1.2, 2e-3),
            (1.4, 4e-3),
            (9.0, 1e-3),
        ]);
        // Bursts at 1.0, 1.2 and 1.4 are near [1.1, 1.3]; their median
        // is 2 ms, twice the nominal burst.
        assert!((s.factor(1.1, 1.3) - 0.5f64.powf(ELASTICITY)).abs() < 1e-12);
        assert!((s.factor(8.9, 9.1) - 1.0).abs() < 1e-12);
        assert_eq!(s.factor(20.0, 21.0), 1.0);
        assert_eq!(s.bursts(), 5);
        assert!((s.median_burst_s() - 2e-3).abs() < 1e-12);
    }

    #[test]
    fn busy_share_counts_only_the_overlap() {
        let s = speed(&[(0.5, 0.2), (1.9, 0.2), (3.0, 0.1)]);
        // 0.1 s of the first burst and 0.1 s of the second fall in [0.6, 2.0].
        assert!((s.busy_share(0.6, 2.0) - 0.2 / 1.4).abs() < 1e-12);
        assert_eq!(s.busy_share(2.5, 2.9), 0.0);
        assert_eq!(s.busy_share(1.0, 1.0), 0.0);
    }

    #[test]
    fn probe_logs_bursts_and_stops() {
        let p = Probe::start();
        std::thread::sleep(Duration::from_millis(120));
        let t = p.now();
        let s = p.finish();
        assert!(s.bursts() >= 2, "{} bursts", s.bursts());
        let f = s.factor(0.0, t);
        assert!(f.is_finite() && f > 0.0, "{f}");
    }
}
