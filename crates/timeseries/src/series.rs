//! Regularly spaced time series with explicit missing values.

use crate::error::TimeSeriesError;
use serde::{Deserialize, Serialize};

/// A regularly spaced time series.
///
/// `values[t]` covers the half-open interval
/// `[start + t·bucket_width, start + (t+1)·bucket_width)`; `None` marks a
/// missing observation (e.g. a monitoring gap).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    start: f64,
    bucket_width: f64,
    values: Vec<Option<f64>>,
}

impl TimeSeries {
    /// Create a series from fully observed values.
    pub fn from_values(
        start: f64,
        bucket_width: f64,
        values: Vec<f64>,
    ) -> Result<Self, TimeSeriesError> {
        if !(bucket_width > 0.0) {
            return Err(TimeSeriesError::InvalidBucketWidth(bucket_width));
        }
        Ok(Self {
            start,
            bucket_width,
            values: values.into_iter().map(Some).collect(),
        })
    }

    /// Create a series that may contain missing observations.
    pub fn from_optional_values(
        start: f64,
        bucket_width: f64,
        values: Vec<Option<f64>>,
    ) -> Result<Self, TimeSeriesError> {
        if !(bucket_width > 0.0) {
            return Err(TimeSeriesError::InvalidBucketWidth(bucket_width));
        }
        Ok(Self {
            start,
            bucket_width,
            values,
        })
    }

    /// Aggregate raw event timestamps into a count-per-bucket series
    /// covering `[start, end)`. Events outside the range are ignored.
    pub fn from_event_times(
        events: &[f64],
        start: f64,
        end: f64,
        bucket_width: f64,
    ) -> Result<Self, TimeSeriesError> {
        if !(bucket_width > 0.0) {
            return Err(TimeSeriesError::InvalidBucketWidth(bucket_width));
        }
        if !(end > start) {
            return Err(TimeSeriesError::InvalidParameter("end must exceed start"));
        }
        let buckets = ((end - start) / bucket_width).ceil() as usize;
        let mut counts = vec![0.0_f64; buckets];
        for &t in events {
            if t < start || t >= end {
                continue;
            }
            let idx = ((t - start) / bucket_width) as usize;
            if idx < buckets {
                counts[idx] += 1.0;
            }
        }
        Self::from_values(start, bucket_width, counts)
    }

    /// Number of buckets.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series has no buckets.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Start time of the series.
    pub fn start(&self) -> f64 {
        self.start
    }

    /// Width of each bucket in seconds.
    pub fn bucket_width(&self) -> f64 {
        self.bucket_width
    }

    /// End time (exclusive) of the series.
    pub fn end(&self) -> f64 {
        self.start + self.bucket_width * self.values.len() as f64
    }

    /// The time at the left edge of bucket `t`.
    fn time_at(&self, t: usize) -> f64 {
        self.start + self.bucket_width * t as f64
    }

    /// Value of bucket `t` (`None` if missing or out of range).
    pub fn get(&self, t: usize) -> Option<f64> {
        self.values.get(t).copied().flatten()
    }

    /// Borrow the raw optional values.
    pub fn optional_values(&self) -> &[Option<f64>] {
        &self.values
    }

    /// Number of missing buckets.
    pub fn missing_count(&self) -> usize {
        self.values.iter().filter(|v| v.is_none()).count()
    }

    /// Observed values with missing buckets skipped.
    fn observed_values(&self) -> Vec<f64> {
        self.values.iter().filter_map(|v| *v).collect()
    }

    /// Values with missing buckets replaced by `fill`.
    pub fn values_filled(&self, fill: f64) -> Vec<f64> {
        self.values.iter().map(|v| v.unwrap_or(fill)).collect()
    }

    /// Convert a count series to a rate (per-second) series by dividing by
    /// the bucket width — the "QPS" view used throughout the paper.
    pub fn to_rate(&self) -> TimeSeries {
        TimeSeries {
            start: self.start,
            bucket_width: self.bucket_width,
            values: self
                .values
                .iter()
                .map(|v| v.map(|x| x / self.bucket_width))
                .collect(),
        }
    }

    /// Mark a closed time range `[from, to)` as missing and return the
    /// number of buckets affected.
    pub fn mask_range(&mut self, from: f64, to: f64) -> usize {
        let mut masked = 0;
        for t in 0..self.values.len() {
            let left = self.time_at(t);
            if left >= from && left < to && self.values[t].is_some() {
                self.values[t] = None;
                masked += 1;
            }
        }
        masked
    }

    /// Set the value of bucket `t`.
    pub fn set(&mut self, t: usize, value: Option<f64>) {
        if t < self.values.len() {
            self.values[t] = value;
        }
    }

    /// Aggregate the series by averaging disjoint windows of `window`
    /// buckets (the time-aggregation step of the periodicity-detection
    /// module). Missing values are skipped; a window with no observed value
    /// becomes missing.
    pub fn aggregate_mean(&self, window: usize) -> Result<TimeSeries, TimeSeriesError> {
        if window == 0 {
            return Err(TimeSeriesError::InvalidParameter("window must be >= 1"));
        }
        let mut out = Vec::with_capacity(self.values.len().div_ceil(window));
        for chunk in self.values.chunks(window) {
            let observed: Vec<f64> = chunk.iter().filter_map(|v| *v).collect();
            if observed.is_empty() {
                out.push(None);
            } else {
                out.push(Some(observed.iter().sum::<f64>() / observed.len() as f64));
            }
        }
        Ok(TimeSeries {
            start: self.start,
            bucket_width: self.bucket_width * window as f64,
            values: out,
        })
    }

    /// Mean of the observed values.
    pub fn mean(&self) -> Result<f64, TimeSeriesError> {
        let observed = self.observed_values();
        if observed.is_empty() {
            return Err(TimeSeriesError::AllMissing);
        }
        Ok(robustscaler_stats::mean(&observed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_bucket_width() {
        assert!(TimeSeries::from_values(0.0, 0.0, vec![1.0]).is_err());
        assert!(TimeSeries::from_values(0.0, -5.0, vec![1.0]).is_err());
        assert!(TimeSeries::from_optional_values(0.0, 0.0, vec![Some(1.0)]).is_err());
        let s = TimeSeries::from_values(10.0, 60.0, vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.start(), 10.0);
        assert_eq!(s.bucket_width(), 60.0);
        assert_eq!(s.end(), 190.0);
        assert_eq!(s.time_at(2), 130.0);
    }

    #[test]
    fn aggregation_from_event_times_counts_correctly() {
        let events = [0.5, 1.5, 1.7, 59.0, 60.0, 61.0, 179.9, 200.0, -1.0];
        let s = TimeSeries::from_event_times(&events, 0.0, 180.0, 60.0).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(0), Some(4.0));
        assert_eq!(s.get(1), Some(2.0));
        assert_eq!(s.get(2), Some(1.0));
        assert!(TimeSeries::from_event_times(&events, 10.0, 10.0, 60.0).is_err());
        assert!(TimeSeries::from_event_times(&events, 0.0, 100.0, 0.0).is_err());
    }

    #[test]
    fn rate_conversion_divides_by_bucket_width() {
        let s = TimeSeries::from_values(0.0, 60.0, vec![120.0, 60.0, 0.0]).unwrap();
        let qps = s.to_rate();
        assert_eq!(qps.get(0), Some(2.0));
        assert_eq!(qps.get(1), Some(1.0));
        assert_eq!(qps.get(2), Some(0.0));
    }

    #[test]
    fn missing_values_are_tracked() {
        let mut s = TimeSeries::from_values(0.0, 1.0, (0..10).map(|i| i as f64).collect()).unwrap();
        assert_eq!(s.missing_count(), 0);
        let masked = s.mask_range(3.0, 6.0);
        assert_eq!(masked, 3);
        assert_eq!(s.missing_count(), 3);
        assert_eq!(s.get(3), None);
        assert_eq!(s.get(6), Some(6.0));
        assert_eq!(s.observed_values().len(), 7);
        assert_eq!(s.values_filled(-1.0)[4], -1.0);
        s.set(3, Some(99.0));
        assert_eq!(s.get(3), Some(99.0));
        s.set(100, Some(1.0)); // out of range is a no-op
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn aggregate_mean_averages_windows_and_handles_missing() {
        let mut s = TimeSeries::from_values(0.0, 1.0, vec![1.0, 3.0, 5.0, 7.0, 9.0, 11.0]).unwrap();
        let agg = s.aggregate_mean(2).unwrap();
        assert_eq!(agg.len(), 3);
        assert_eq!(agg.get(0), Some(2.0));
        assert_eq!(agg.get(1), Some(6.0));
        assert_eq!(agg.get(2), Some(10.0));
        assert_eq!(agg.bucket_width(), 2.0);

        s.mask_range(0.0, 2.0);
        let agg2 = s.aggregate_mean(2).unwrap();
        assert_eq!(agg2.get(0), None);
        assert!(s.aggregate_mean(0).is_err());

        // Uneven tail window still aggregates.
        let s3 = TimeSeries::from_values(0.0, 1.0, vec![2.0, 4.0, 6.0]).unwrap();
        let agg3 = s3.aggregate_mean(2).unwrap();
        assert_eq!(agg3.len(), 2);
        assert_eq!(agg3.get(1), Some(6.0));
    }

    #[test]
    fn mean_requires_observed_values() {
        let s = TimeSeries::from_optional_values(0.0, 1.0, vec![None, None]).unwrap();
        assert!(matches!(s.mean(), Err(TimeSeriesError::AllMissing)));
        let s2 = TimeSeries::from_values(0.0, 1.0, vec![2.0, 4.0]).unwrap();
        assert_eq!(s2.mean().unwrap(), 3.0);
    }

    #[test]
    fn serde_round_trip() {
        let s =
            TimeSeries::from_optional_values(5.0, 2.0, vec![Some(1.0), None, Some(3.0)]).unwrap();
        let json = serde_json::to_string(&s).unwrap();
        let back: TimeSeries = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
