//! Robust filters and missing-value repair.
//!
//! The workload traces the paper targets are noisy, contain outliers and
//! monitoring gaps. The periodicity detector runs every series through these
//! filters before it computes autocorrelations; nothing else calls them.

use crate::error::TimeSeriesError;
use robustscaler_stats::{mad, median};

/// Hampel filter: replace points further than `threshold · 1.4826 · MAD`
/// from the rolling median by the rolling median itself. Returns the
/// filtered series and the indices that were replaced.
pub fn hampel_filter(xs: &[f64], half: usize, threshold: f64) -> (Vec<f64>, Vec<usize>) {
    let n = xs.len();
    let mut out = xs.to_vec();
    let mut replaced = Vec::new();
    if n == 0 {
        return (out, replaced);
    }
    for i in 0..n {
        let lo = i.saturating_sub(half);
        let hi = (i + half + 1).min(n);
        let window = &xs[lo..hi];
        let med = median(window).expect("window is non-empty");
        let scale = 1.4826 * mad(window).expect("window is non-empty");
        // Degenerate windows (constant) only flag exact deviations.
        let tol = if scale > 0.0 { threshold * scale } else { 0.0 };
        if (xs[i] - med).abs() > tol {
            out[i] = med;
            replaced.push(i);
        }
    }
    (out, replaced)
}

/// Linearly interpolate missing values; leading/trailing gaps are filled
/// with the nearest observed value. Errors when every value is missing.
pub fn interpolate_missing(xs: &[Option<f64>]) -> Result<Vec<f64>, TimeSeriesError> {
    let n = xs.len();
    if xs.iter().all(|v| v.is_none()) {
        return Err(TimeSeriesError::AllMissing);
    }
    let mut out = vec![0.0; n];
    // Collect observed indices.
    let observed: Vec<usize> = (0..n).filter(|&i| xs[i].is_some()).collect();
    let first = observed[0];
    let last = *observed.last().expect("non-empty");
    for i in 0..n {
        out[i] = match xs[i] {
            Some(v) => v,
            None => {
                if i < first {
                    xs[first].expect("observed")
                } else if i > last {
                    xs[last].expect("observed")
                } else {
                    // Find the bracketing observed points.
                    let prev = observed.partition_point(|&j| j < i) - 1;
                    let (j0, j1) = (observed[prev], observed[prev + 1]);
                    let (v0, v1) = (xs[j0].expect("observed"), xs[j1].expect("observed"));
                    let w = (i - j0) as f64 / (j1 - j0) as f64;
                    v0 * (1.0 - w) + v1 * w
                }
            }
        };
    }
    Ok(out)
}

/// Remove a linear trend (ordinary least squares on the index) and return
/// the detrended series. Used before autocorrelation-based period detection.
pub fn detrend_linear(xs: &[f64]) -> Vec<f64> {
    let n = xs.len();
    if n < 2 {
        return xs.to_vec();
    }
    let nf = n as f64;
    let mean_x = (nf - 1.0) / 2.0;
    let mean_y = xs.iter().sum::<f64>() / nf;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    for (i, &y) in xs.iter().enumerate() {
        let dx = i as f64 - mean_x;
        sxx += dx * dx;
        sxy += dx * (y - mean_y);
    }
    let slope = if sxx > 0.0 { sxy / sxx } else { 0.0 };
    xs.iter()
        .enumerate()
        .map(|(i, &y)| y - (mean_y + slope * (i as f64 - mean_x)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hampel_replaces_outliers_only() {
        let mut xs: Vec<f64> = (0..50).map(|i| (i as f64 * 0.3).sin()).collect();
        xs[25] = 50.0;
        xs[40] = -30.0;
        let (filtered, replaced) = hampel_filter(&xs, 5, 3.0);
        assert!(replaced.contains(&25));
        assert!(replaced.contains(&40));
        assert!(filtered[25].abs() < 2.0);
        assert!(filtered[40].abs() < 2.0);
        // Clean points are untouched.
        assert_eq!(filtered[10], xs[10]);
        // Degenerate empty input.
        let (empty, none) = hampel_filter(&[], 3, 3.0);
        assert!(empty.is_empty() && none.is_empty());
    }

    #[test]
    fn interpolation_fills_interior_and_edges() {
        let xs = vec![None, Some(2.0), None, None, Some(8.0), None];
        let filled = interpolate_missing(&xs).unwrap();
        assert_eq!(filled, vec![2.0, 2.0, 4.0, 6.0, 8.0, 8.0]);
        assert!(interpolate_missing(&[None, None]).is_err());
        // Fully observed input is returned unchanged.
        let ys = vec![Some(1.0), Some(5.0)];
        assert_eq!(interpolate_missing(&ys).unwrap(), vec![1.0, 5.0]);
    }

    #[test]
    fn detrend_removes_linear_component() {
        let xs: Vec<f64> = (0..100).map(|i| 3.0 + 0.5 * i as f64).collect();
        let d = detrend_linear(&xs);
        assert!(d.iter().all(|v| v.abs() < 1e-9));
        // Short series pass through.
        assert_eq!(detrend_linear(&[7.0]), vec![7.0]);
        // Detrending a sine leaves it roughly unchanged.
        let s: Vec<f64> = (0..200)
            .map(|i| (2.0 * std::f64::consts::PI * i as f64 / 20.0).sin())
            .collect();
        let ds = detrend_linear(&s);
        let max_diff = s
            .iter()
            .zip(ds.iter())
            .fold(0.0_f64, |acc, (a, b)| acc.max((a - b).abs()));
        assert!(max_diff < 0.1);
    }
}
