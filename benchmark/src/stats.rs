//! Percentile and share maths shared by every phase.
//!
//! Every timing the benchmark reports is a median or a named
//! percentile of per-frame (or per-batch) samples: a mean would let one
//! descheduled frame on a shared two-core box move the result.

/// Linear-interpolated percentile `p` (0..=100) of an ascending slice.
/// An empty sample has none: NaN, which the run reports as a metric it
/// could not measure.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Ascending copy of `samples` (NaN-free input assumed; total order).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50.0)
}

/// First percentile of unsorted samples: the timing estimator of every
/// per-frame metric.
///
/// The box this runs on adds time to frames and never takes it away, in
/// two ways a median cannot stand. A neighbour on the host slows
/// whatever runs by 15–45 % in spells of a tenth of a second to a minute,
/// and in a bad hour more of a run is inside a spell than outside; and
/// with three or more busy threads on two cores a frame either gets a
/// core at once or waits for one, so per-frame times have a fast and a
/// slow mode whose mix changes from run to run. The estimator must sit
/// inside the fast mode of a quiet moment, in every run. A lower quartile
/// did not: on the 8×2 workloads a quarter to four tenths of the frames
/// are in the fast mode, so it sat on the edge between the modes, and the
/// lower the percentile the steadier it read (README.md has the
/// numbers). The first percentile of 2480 samples is still the
/// twenty-fifth smallest, not one lucky frame; of twelve it is all but
/// the smallest.
/// Like a minimum it moves one for one when every frame gets slower, and
/// like one it is blind to a change that slows only some frames: the
/// saturated rate, `on_time_share` and the reported median and tail are
/// there for those.
pub fn p1(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 1.0)
}

/// `num / den`, or 0 when nothing was attempted (a share of nothing).
pub fn share(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Percentiles the tail report may name, ascending.
const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// The highest ladder percentile that still has at least ten samples
/// beyond it, with its value: `(percentile, value)`. Short samples fall
/// back to the median, the only order statistic they support.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples);
    let n = s.len() as f64;
    let pct = TAIL_LADDER
        .iter()
        .copied()
        // The epsilon keeps 99.9 % of 10 000 samples (10 beyond) in.
        .filter(|p| n * (100.0 - p) / 100.0 >= 10.0 - 1e-6)
        .fold(50.0, f64::max);
    (pct, percentile(&s, pct))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert_eq!(percentile(&s, 50.0), 2.5);
        assert!((percentile(&s, 25.0) - 1.75).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan() && median(&[]).is_nan() && tail(&[]).1.is_nan());
    }

    #[test]
    fn median_ignores_input_order_and_outliers() {
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[1.0, 1000.0, 2.0, 3.0, 2.5]), 2.5);
    }

    #[test]
    fn the_first_percentile_stays_in_the_fast_mode_of_a_two_mode_sample() {
        // 10 % of frames left alone at ~20, the rest delayed to ~30.
        let mut v: Vec<f64> = (0..20).map(|i| 20.0 + f64::from(i) * 0.01).collect();
        v.extend((0..180).map(|i| 30.0 + f64::from(i) * 0.01));
        assert!(percentile(&sorted(&v), 25.0) > 30.0);
        assert!((p1(&v) - 20.02).abs() < 0.01);
        // ... and moves one for one when every frame gets slower.
        let slower: Vec<f64> = v.iter().map(|x| x * 1.1).collect();
        assert!((p1(&slower) / p1(&v) - 1.1).abs() < 1e-9);
        assert!(p1(&[]).is_nan());
    }

    #[test]
    fn share_of_nothing_is_zero() {
        assert_eq!(share(3.0, 4.0), 0.75);
        assert_eq!(share(1.0, 0.0), 0.0);
    }

    #[test]
    fn tail_names_the_highest_percentile_with_ten_samples_beyond() {
        let few: Vec<f64> = (0..11).map(f64::from).collect();
        assert_eq!(tail(&few).0, 50.0);
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&hundred).0, 90.0);
        let many: Vec<f64> = (0..2000).map(f64::from).collect();
        let (pct, v) = tail(&many);
        assert_eq!(pct, 99.0);
        assert!((v - 1979.01).abs() < 1e-6);
        let lots: Vec<f64> = (0..20_000).map(f64::from).collect();
        assert_eq!(tail(&lots).0, 99.9);
    }
}
