//! Order statistics for host timings.

/// The median of `values` (mean of the middle pair for an even count);
/// `None` when there are no values.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// A percentile estimate together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The Harrell–Davis estimate of the quantile.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples ranked strictly above the nearest rank `ceil(p * n)`.
    pub beyond: usize,
}

impl Percentile {
    /// Samples that must lie beyond a percentile before it is reported as
    /// measured rather than as a guess about the tail.
    pub const MIN_BEYOND: usize = 10;

    /// Whether at least [`Percentile::MIN_BEYOND`] samples lie beyond
    /// the percentile's rank.
    pub fn resolved(&self) -> bool {
        self.beyond >= Self::MIN_BEYOND
    }
}

/// The `p`-quantile (`0 < p < 1`) of `values`, or `None` when there are
/// no values. Check [`Percentile::resolved`] before trusting it: a p90
/// needs at least 100 samples, a p50 at least 20.
///
/// The estimate is Harrell and Davis's: a Beta-weighted mean of all
/// order statistics, concentrated around rank `p * n`. A pass mixes a few
/// kinds of cell whose latencies form clusters; the single sample at the
/// nearest rank is then often the largest of one cluster and jumps with
/// noise, while the weighted mean moves only when the cells do.
pub fn percentile(values: &[f64], p: f64) -> Option<Percentile> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    let (a, b) = (p * (n + 1) as f64, (1.0 - p) * (n + 1) as f64);
    let mut below = 0.0;
    let mut value = 0.0;
    for (i, x) in sorted.iter().enumerate() {
        let upto = incomplete_beta(a, b, (i + 1) as f64 / n as f64);
        value += (upto - below) * x;
        below = upto;
    }
    Some(Percentile {
        value,
        samples: n,
        beyond: n - rank,
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The regularized incomplete beta function `I_x(a, b)`, by the
/// continued fraction of Numerical Recipes (§6.4), evaluated where it
/// converges fast.
fn incomplete_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_fraction(a, b, x) / a
    } else {
        1.0 - front * beta_fraction(b, a, 1.0 - x) / b
    }
}

/// The continued fraction behind [`incomplete_beta`] (modified Lentz).
fn beta_fraction(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let clamp = |v: f64| if v.abs() < TINY { TINY } else { v };
    let mut c = 1.0;
    let mut d = 1.0 / clamp(1.0 - (a + b) * x / (a + 1.0));
    let mut h = d;
    for m in 1..100_000 {
        let m = f64::from(m);
        let even = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m));
        d = 1.0 / clamp(1.0 + even * d);
        c = clamp(1.0 + even / c);
        h *= d * c;
        let odd = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0));
        d = 1.0 / clamp(1.0 + odd * d);
        c = clamp(1.0 + odd / c);
        let step = d * c;
        h *= step;
        if (step - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// `ln Γ(x)` for `x > 0` (Lanczos, g = 7, nine terms).
fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let t = x + 7.5;
    let series = G[1..]
        .iter()
        .enumerate()
        .fold(G[0], |acc, (i, g)| acc + g / (x + i as f64 + 1.0));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&values, 0.9).unwrap();
        assert!((p90.value - 90.5).abs() < 1e-6, "{p90:?}");
        assert_eq!(p90.samples, 100);
        assert_eq!(p90.beyond, 10);
        assert!(p90.resolved());

        let p90 = percentile(&values[..99], 0.9).unwrap();
        assert_eq!(p90.samples, 99);
        assert_eq!(p90.beyond, 9);
        assert!(!p90.resolved(), "99 samples leave only 9 beyond the p90");

        let p50 = percentile(&values[..20], 0.5).unwrap();
        assert_eq!(p50.beyond, 10);
        assert!(p50.resolved());
        assert!(!percentile(&values[..19], 0.5).unwrap().resolved());
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn harrell_davis_matches_known_values() {
        // Symmetric samples: the median estimate is their centre.
        let values: Vec<f64> = (1..=101).map(f64::from).collect();
        assert!((percentile(&values, 0.5).unwrap().value - 51.0).abs() < 1e-9);
        // One sample: every quantile is that sample.
        assert!((percentile(&[7.0], 0.9).unwrap().value - 7.0).abs() < 1e-9);
        // Weights sum to one: a constant sample set is reproduced.
        let flat = vec![3.5; 250];
        assert!((percentile(&flat, 0.9).unwrap().value - 3.5).abs() < 1e-9);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-12);
        assert!((incomplete_beta(2.0, 3.0, 0.4) - 0.5248).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_steady_between_clusters() {
        // Half the cells take about 50 ms, half about 100 ms. One fast
        // cell slowing by 30 ms moves the nearest-rank median, the slowest
        // fast cell, from 56 to 80 ms; it moves this estimate by under a
        // tenth of that.
        let cells = |slow_tail: f64| -> Vec<f64> {
            (0..200)
                .map(|i| match i % 2 {
                    0 => 50.0 + f64::from(i % 7) + if i == 0 { slow_tail } else { 0.0 },
                    _ => 100.0 + f64::from(i % 5),
                })
                .collect()
        };
        let quiet = percentile(&cells(0.0), 0.5).unwrap().value;
        let noisy = percentile(&cells(30.0), 0.5).unwrap().value;
        assert!((noisy - quiet).abs() < 2.4, "{quiet} vs {noisy}");
        assert!(percentile(&[1.0, 2.0, 3.0], 0.5).unwrap().value > 1.0);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let values: Vec<f64> = (0..200).rev().map(f64::from).collect();
        let forward: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.5), percentile(&forward, 0.5));
    }
}
