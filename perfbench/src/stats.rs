//! Order statistics over raw samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples`, linearly interpolated
/// between the two nearest ranks. `0.0` for an empty sample.
pub fn quantile(samples: &[u64], q: f64) -> f64 {
    let v: Vec<f64> = samples.iter().map(|&x| x as f64).collect();
    quantile_f(&v, q)
}

/// [`quantile`] over real-valued samples.
pub fn quantile_f(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `samples` (see [`quantile`]).
pub fn median(samples: &[u64]) -> f64 {
    quantile(samples, 0.5)
}

/// `part / whole`, or `0.0` when `whole` is zero.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3, 1, 2]), 2.0);
        assert_eq!(median(&[1, 2, 3, 4]), 2.5);
        assert_eq!(quantile(&[10, 20], 0.95), 19.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
