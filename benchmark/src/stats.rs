//! Order statistics over timing samples.

/// Five-number summary of a sample, plus its size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

/// The `q`-quantile (`0.0..=1.0`) of an ascending-sorted sample, linearly
/// interpolated between the two nearest ranks (NumPy's default). Panics on
/// an empty sample: every caller measures at least once.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

pub fn summarize(samples: &[f64]) -> Summary {
    let s = sorted(samples);
    Summary {
        n: s.len(),
        min: s[0],
        q1: quantile(&s, 0.25),
        median: quantile(&s, 0.5),
        q3: quantile(&s, 0.75),
        max: s[s.len() - 1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_interpolate_between_ranks() {
        let s = summarize(&[5.0, 1.0, 2.0, 4.0, 3.0]);
        assert_eq!(s, Summary { n: 5, min: 1.0, q1: 2.0, median: 3.0, q3: 4.0, max: 5.0 });
        let s = summarize(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((s.q1, s.q3), (1.75, 3.25));
    }

    #[test]
    fn percentiles_hit_the_tail() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.95), 96.0);
        assert_eq!(quantile(&v, 0.99), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 101.0);
    }
}
