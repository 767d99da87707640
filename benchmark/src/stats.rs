//! The few order statistics every metric is built from.

/// Median (mean of the two middle values for an even count). `NaN` for an
/// empty slice so a missing measurement can never read as a good one.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in (0, 1]): the smallest value with at least
/// `p` of the samples at or below it — the same rule `halide-serve`'s own
/// latency recorder uses, so the two agree on one sample set.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Samples of one end-to-end metric, in the order they were taken.
///
/// The reported value is the **median of the three thirds' bests**: the
/// samples are cut, in time order, into three equal parts, each part's best
/// sample (smallest time, largest rate) is taken, and the median of those
/// three is reported. Neighbours on a shared box slow a process by 1.3–1.5×
/// for seconds at a time, one-sidedly: the best sample of a third is the one
/// they disturbed least, and the median of three means two separate thirds
/// of the run reached the value, so neither one lucky round nor one wholly
/// disturbed third sets it. (Over ten runs of one commit on such a box the
/// plain median of rounds moved by 0.10–0.26, interquartile range ÷ median;
/// the median of five or seven shorter parts' bests by 0.06–0.22; this by
/// 0.03–0.17.)
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Series {
    samples: Vec<f64>,
}

impl Series {
    /// Adds the next sample.
    pub fn push(&mut self, value: f64) {
        self.samples.push(value);
    }

    /// The samples, in the order they were taken.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// The best sample of each non-empty third.
    fn bests(&self, higher_is_better: bool) -> Vec<f64> {
        let pick = if higher_is_better { f64::max } else { f64::min };
        let n = self.samples.len();
        (0..3)
            .filter_map(|i| {
                let third = &self.samples[i * n / 3..(i + 1) * n / 3];
                third.iter().copied().reduce(pick)
            })
            .collect()
    }

    /// The reported value: the median of the thirds' bests.
    pub fn value(&self, higher_is_better: bool) -> f64 {
        median(&self.bests(higher_is_better))
    }

    /// `(max − min) / median` over the thirds' bests: how far the three
    /// parts of one run disagree about the value. `compare` holds it against
    /// the metric's bound to decide whether a difference is resolvable at all.
    pub fn spread(&self, higher_is_better: bool) -> f64 {
        let bests = self.bests(higher_is_better);
        let max = bests.iter().copied().fold(f64::NAN, f64::max);
        let min = bests.iter().copied().fold(f64::NAN, f64::min);
        (max - min) / median(&bests)
    }
}

/// Geometric mean — the average the compilers sheet prescribes for ratios
/// and rates across programs, so no single app dominates.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 10.0);
        assert_eq!(percentile(&v, 0.95), 19.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn a_series_reports_the_median_of_its_thirds_bests() {
        let mut times = Series::default();
        for v in [12.0, 10.0, 30.0, 33.0, 11.0, 14.0] {
            times.push(v);
        }
        assert_eq!(times.value(false), 11.0, "bests 10, 30, 11");
        assert_eq!(times.spread(false), 20.0 / 11.0);
        assert_eq!(times.value(true), 14.0, "bests 12, 33, 14");
        assert_eq!(times.samples().len(), 6);

        // Thirds of uneven length; fewer samples than thirds.
        let mut seven = Series::default();
        (1..=7).for_each(|v| seven.push(f64::from(v)));
        assert_eq!(seven.value(true), 4.0, "thirds 1-2, 3-4, 5-7");
        let mut once = Series::default();
        once.push(5.0);
        assert_eq!((once.value(true), once.spread(true)), (5.0, 0.0));
        assert!(Series::default().value(false).is_nan());
        assert!(Series::default().spread(false).is_nan());
    }
}
