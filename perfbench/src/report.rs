//! What a workload hands back to `main`: metrics, failure accounting and
//! the verdict of its correctness checks.

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics, from the untraced run.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics, from the traced run.
    pub per_layer: Vec<Metric>,
    /// Operations attempted and failed (ticks, tenant-rounds, arrivals,
    /// page and checkpoint I/O).
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks, one line each. Empty means correct.
    pub check_failures: Vec<String>,
    /// Human-readable context printed above the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric { name, value, unit });
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric { name, value, unit });
    }

    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.check_failures.push(what.into());
        }
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// Median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile `q` in `[0, 1]` of `values` (NaN when empty).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of quantile `q` among `n` samples (the epsilon
/// keeps `0.95 · 300` from rounding up to 286).
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it, as `(quantile, label)`; `None` below 20 samples.
pub fn supported_tail(samples: usize) -> Option<(f64, &'static str)> {
    [(0.99, "p99"), (0.95, "p95"), (0.9, "p90"), (0.5, "p50")]
        .into_iter()
        .find(|&(q, _)| samples >= 20 && samples - rank(samples, q) >= 10)
}

pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(1_000).unwrap().1, "p99");
        assert_eq!(supported_tail(200).unwrap().1, "p95");
        assert_eq!(supported_tail(100).unwrap().1, "p90");
        assert!(supported_tail(19).is_none());
    }
}
