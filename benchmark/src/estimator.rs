//! The noise-robust estimator every timing goes through.
//!
//! On a small shared host a window *median* does not repeat: a slow phase
//! of the host (a neighbor's burst, a frequency dip) drags half the
//! windows with it. Slow phases only ever add time, so the fastest tenth
//! of many short windows is the part of the distribution the host did not
//! touch. The headline value of a timing is therefore the **fast-decile
//! mean**; median and quartiles are kept beside it as diagnostics.

/// Window length for per-packet timings. Short enough that a run has
/// hundreds of them, long enough (some 300 iterations of 256 frames) that
/// one window averages over every slice of the trace many times.
pub const WINDOW_NS: u64 = 10_000_000;

/// Mean of the fastest tenth of `samples` (the minimum when there are
/// fewer than ten). Lower is faster. `NaN` for an empty slice.
pub fn fast_decile(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let k = (s.len() / 10).max(1);
    s[..k].iter().sum::<f64>() / k as f64
}

/// `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(samples, n=4)` gives them (the "exclusive"
/// method), so spreads computed here and by the driver agree. A single
/// sample is its own three quartiles.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => return (f64::NAN, f64::NAN, f64::NAN),
        1 => return (s[0], s[0], s[0]),
        _ => {}
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// A timing with its diagnostics.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Fast-decile mean: the reported value.
    pub value: f64,
    /// Median of the samples.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples (windows or repetitions).
    pub n: usize,
}

impl Summary {
    /// Summarizes samples with the fast-decile mean as the value.
    pub fn fast(samples: &[f64]) -> Summary {
        let (q1, median, q3) = quartiles(samples);
        Summary {
            value: fast_decile(samples),
            median,
            q1,
            q3,
            n: samples.len(),
        }
    }

    /// Summarizes samples with the median as the value (the p99 latency
    /// diagnostic, where the typical window is what is reported).
    pub fn typical(samples: &[f64]) -> Summary {
        let mut s = Summary::fast(samples);
        s.value = s.median;
        s
    }

    /// The same timing in other units: value and diagnostics times `k`.
    pub fn scaled(self, k: f64) -> Summary {
        Summary {
            value: self.value * k,
            median: self.median * k,
            q1: self.q1 * k,
            q3: self.q3 * k,
            n: self.n,
        }
    }

    /// A single exact reading (a count, a gauge).
    pub fn exact(value: f64) -> Summary {
        Summary {
            value,
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }
}

/// Cuts a stream of timed pieces of work into fixed-length windows and
/// keeps each window's cost per unit.
#[derive(Debug)]
pub struct Windows {
    window_ns: u64,
    acc_ns: u64,
    acc_units: u64,
    /// Cost per unit (ns) of every completed window.
    pub samples: Vec<f64>,
}

impl Windows {
    /// Windows of `window_ns` nanoseconds of timed work.
    pub fn new(window_ns: u64) -> Windows {
        Windows {
            window_ns,
            acc_ns: 0,
            acc_units: 0,
            samples: Vec::with_capacity(256),
        }
    }

    /// Adds one timed piece: `ns` nanoseconds for `units` units of work.
    /// Returns true when the piece completed a window.
    pub fn add(&mut self, ns: u64, units: u64) -> bool {
        self.acc_ns += ns;
        self.acc_units += units;
        let full = self.acc_ns >= self.window_ns && self.acc_units > 0;
        if full {
            self.samples
                .push(self.acc_ns as f64 / self.acc_units as f64);
            self.acc_ns = 0;
            self.acc_units = 0;
        }
        full
    }

    /// Closes the open window if it holds at least half a window of work
    /// (a shorter tail is dropped as too noisy to stand beside the rest).
    pub fn finish(&mut self) {
        if self.acc_ns * 2 >= self.window_ns && self.acc_units > 0 {
            self.samples
                .push(self.acc_ns as f64 / self.acc_units as f64);
        }
        self.acc_ns = 0;
        self.acc_units = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_decile_is_mean_of_fastest_tenth() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(fast_decile(&s), 5.5); // mean of 1..=10
        let mut shuffled = s.clone();
        shuffled.reverse();
        assert_eq!(fast_decile(&shuffled), 5.5);
        assert_eq!(fast_decile(&[9.0, 3.0, 7.0]), 3.0, "min below ten samples");
        assert_eq!(fast_decile(&s[..19]), 1.0, "19 samples: one-sample decile");
        assert_eq!(fast_decile(&s[..20]), 1.5);
        assert!(fast_decile(&[]).is_nan());
    }

    #[test]
    fn fast_decile_ignores_a_slow_phase_the_median_follows() {
        let quiet: Vec<f64> = (0..200).map(|i| 100.0 + f64::from(i % 7)).collect();
        let mut noisy = quiet.clone();
        for v in noisy.iter_mut().skip(60) {
            *v *= 1.6; // the host slows for 70 % of the run
        }
        let shift = |a: f64, b: f64| (b / a - 1.0).abs();
        assert!(shift(fast_decile(&quiet), fast_decile(&noisy)) < 0.01);
        assert!(shift(quartiles(&quiet).1, quartiles(&noisy).1) > 0.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&s), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn windows_cut_on_time_not_on_count() {
        let mut w = Windows::new(100);
        assert!(!w.add(60, 6));
        assert!(w.samples.is_empty());
        assert!(w.add(60, 6)); // 120 ns, 12 units
        assert_eq!(w.samples, vec![10.0]);
        w.add(30, 1);
        w.finish(); // 30 < half a window: dropped
        assert_eq!(w.samples.len(), 1);
        w.add(50, 5);
        w.finish(); // exactly half: kept
        assert_eq!(w.samples, vec![10.0, 10.0]);
    }
}
