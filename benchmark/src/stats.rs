//! Order statistics over run and slice samples.

/// The quartiles `[q1, median, q3]` of `values`, by the same rule as
/// Python's `statistics.quantiles(values, n=4)` (the "exclusive" method),
/// so a result set reads the same here as in any script that checks it.
/// One sample gives itself three times; no samples give zeros.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data: Vec<f64> = values.to_vec();
    data.sort_by(f64::total_cmp);
    match data.len() {
        0 => [0.0; 3],
        1 => [data[0]; 3],
        len => {
            let m = len + 1;
            let mut out = [0.0; 3];
            for (i, q) in out.iter_mut().enumerate() {
                let i = i + 1;
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                *q = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
            }
            out
        }
    }
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut data: Vec<f64> = values.to_vec();
    data.sort_by(f64::total_cmp);
    match data.len() {
        0 => 0.0,
        n if n % 2 == 1 => data[n / 2],
        n => (data[n / 2 - 1] + data[n / 2]) / 2.0,
    }
}

/// The nearest-rank `p`-th percentile of `values` (0 when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut data: Vec<f64> = values.to_vec();
    data.sort_by(f64::total_cmp);
    if data.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * data.len() as f64).ceil() as usize;
    data[rank.clamp(1, data.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }
}
