//! Log-linear latency histogram with bounded memory.
//!
//! Values (nanoseconds) below 32 land in exact buckets; above that each
//! power of two is split into 32 linear sub-buckets, so a reported
//! percentile is within about 3% of the true sample. A million-call
//! method costs 16 KiB, not a sample vector.

const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// Percentiles `pmax` chooses from, lowest first.
pub const PMAX_CANDIDATES: [f64; 7] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999, 99.9999];

/// Samples that must lie beyond a percentile for `pmax` to report it.
pub const PMAX_MIN_BEYOND: u64 = 10;

/// Histogram of per-call durations.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

/// The highest well-supported percentile of a histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pmax {
    /// Percentile chosen, for example 99.9.
    pub pct: f64,
    /// Its value, nanoseconds (bucket midpoint).
    pub value_ns: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: u64,
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let sub = (v >> (e - SUB_BITS)) & (SUB - 1);
    ((e - SUB_BITS + 1) as usize) * SUB as usize + sub as usize
}

/// Midpoint of bucket `b` in nanoseconds.
fn bucket_mid(b: usize) -> f64 {
    if (b as u64) < SUB {
        return b as f64;
    }
    let e = (b as u64 / SUB) as u32 + SUB_BITS - 1;
    let sub = b as u64 % SUB;
    let width = 1u64 << (e - SUB_BITS);
    ((SUB + sub) * width) as f64 + width as f64 / 2.0
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

impl Hist {
    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.n += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Rank (1-based) of percentile `pct` among `n` samples.
    fn rank(&self, pct: f64) -> u64 {
        // The epsilon keeps 99.99% of 100000 at rank 99990, not 99991.
        ((pct / 100.0 * self.n as f64 - 1e-6).ceil() as u64).clamp(1, self.n)
    }

    /// Value of percentile `pct` in nanoseconds; 0 when empty.
    pub fn percentile(&self, pct: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = self.rank(pct);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_mid(b);
            }
        }
        0.0
    }

    /// The highest percentile in [`PMAX_CANDIDATES`] with at least
    /// [`PMAX_MIN_BEYOND`] samples beyond it, or the median when no
    /// candidate has that many (`beyond` then says how thin it is).
    pub fn pmax(&self) -> Pmax {
        let mut best = PMAX_CANDIDATES[0];
        for &pct in &PMAX_CANDIDATES {
            if self.n > 0 && self.n - self.rank(pct) >= PMAX_MIN_BEYOND {
                best = pct;
            }
        }
        let beyond = if self.n == 0 {
            0
        } else {
            self.n - self.rank(best)
        };
        Pmax {
            pct: best,
            value_ns: self.percentile(best),
            beyond,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Hist::default();
        for i in 0..100u64 {
            h.record(i / 4);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.percentile(50.0), 12.0);
        assert_eq!(h.percentile(100.0), 24.0);
    }

    #[test]
    fn large_values_are_within_three_percent() {
        for v in [33u64, 1_000, 123_456, 9_876_543_210] {
            let mut h = Hist::default();
            h.record(v);
            let got = h.percentile(50.0);
            assert!(
                (got - v as f64).abs() / v as f64 <= 1.0 / 32.0,
                "{v} -> {got}"
            );
        }
    }

    #[test]
    fn pmax_picks_highest_percentile_with_ten_beyond() {
        let mut h = Hist::default();
        for i in 0..100u64 {
            h.record(i / 4);
        }
        // p99 leaves 1 sample beyond it, p90 leaves 10.
        let p = h.pmax();
        assert_eq!(p.pct, 90.0);
        assert_eq!(p.beyond, 10);
        assert_eq!(p.value_ns, 22.0);

        let mut big = Hist::default();
        for i in 0..100_000u64 {
            big.record(i % 30);
        }
        let p = big.pmax();
        assert_eq!(p.pct, 99.99);
        assert_eq!(p.beyond, 10);
    }

    #[test]
    fn pmax_on_thin_histograms_falls_back_to_the_median() {
        let mut h = Hist::default();
        assert_eq!(h.pmax().beyond, 0);
        assert_eq!(h.pmax().value_ns, 0.0);
        for v in 0..5 {
            h.record(v);
        }
        let p = h.pmax();
        assert_eq!(p.pct, 50.0);
        assert_eq!(p.beyond, 2);
    }
}
