//! Ring-buffered incremental count aggregation for online serving.
//!
//! The offline pipeline aggregates a whole trace at once with
//! [`TimeSeries::from_event_times`]. A serving process instead sees arrivals
//! one at a time and must keep only a bounded training window in memory.
//! [`CountRing`] is that bounded window: a fixed-capacity ring of per-bucket
//! arrival counts keyed to absolute time. Observations increment the bucket
//! containing their timestamp; when the window grows past the capacity the
//! oldest buckets are evicted. A [`CountRing::series`] snapshot reproduces
//! *exactly* what batch aggregation over the retained range would have
//! produced, which is the property the online-equals-batch proptests pin.

use crate::error::TimeSeriesError;
use crate::series::TimeSeries;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Format version written by [`CountRing::snapshot`]; bump on any change to
/// the snapshot layout and keep [`RingSnapshot::restore`] able to read every
/// version still in the fleet.
pub const RING_SNAPSHOT_VERSION: u32 = 1;

/// A serializable, version-tagged copy of a [`CountRing`]'s full state:
/// bucket grid (origin, Δt, capacity), write cursor (`first_bucket`), the
/// retained per-bucket counts, and the drop/evict accounting.
///
/// [`RingSnapshot::restore`] rebuilds a ring that is indistinguishable from
/// the one that was snapshotted — subsequent `observe`/`advance_to`/
/// `series` calls behave bit-identically — which is the property the
/// persistence proptests pin.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RingSnapshot {
    /// Snapshot format version ([`RING_SNAPSHOT_VERSION`]).
    pub version: u32,
    /// Bucket grid anchor.
    pub origin: f64,
    /// Aggregation Δt in seconds.
    pub bucket_width: f64,
    /// Maximum retained buckets.
    pub capacity: usize,
    /// Absolute index (relative to `origin`) of the oldest retained bucket.
    pub first_bucket: u64,
    /// Retained per-bucket counts, oldest first.
    pub counts: Vec<f64>,
    /// Observations accepted so far.
    pub observed: u64,
    /// Observations dropped so far.
    pub dropped: u64,
    /// Buckets evicted from the front so far.
    pub evicted: u64,
}

impl RingSnapshot {
    /// Rebuild the ring this snapshot was taken from.
    ///
    /// Validates the version tag and every invariant `CountRing::new`
    /// enforces, plus snapshot-specific ones (count vector within capacity,
    /// finite non-negative counts), so a corrupted or hand-edited snapshot
    /// fails loudly instead of producing a silently inconsistent ring.
    pub fn restore(self) -> Result<CountRing, TimeSeriesError> {
        if self.version != RING_SNAPSHOT_VERSION {
            return Err(TimeSeriesError::UnsupportedSnapshotVersion {
                found: self.version,
                supported: RING_SNAPSHOT_VERSION,
            });
        }
        let mut ring = CountRing::new(self.origin, self.bucket_width, self.capacity)?;
        if self.counts.len() > self.capacity {
            return Err(TimeSeriesError::InvalidParameter(
                "snapshot holds more buckets than its capacity",
            ));
        }
        if self.counts.iter().any(|c| !c.is_finite() || *c < 0.0) {
            return Err(TimeSeriesError::InvalidParameter(
                "snapshot bucket counts must be finite and non-negative",
            ));
        }
        ring.first_bucket = self.first_bucket;
        ring.counts = VecDeque::from(self.counts);
        ring.observed = self.observed;
        ring.dropped = self.dropped;
        ring.evicted = self.evicted;
        Ok(ring)
    }
}

/// A fixed-capacity ring of per-bucket arrival counts.
///
/// Buckets are aligned to `origin`: bucket `k` covers
/// `[origin + k·Δt, origin + (k+1)·Δt)`. The ring retains at most
/// `capacity` consecutive buckets ending at the most recent observation (or
/// [`CountRing::advance_to`] watermark), evicting from the front.
#[derive(Debug, Clone, PartialEq)]
pub struct CountRing {
    origin: f64,
    bucket_width: f64,
    capacity: usize,
    /// Absolute index (relative to `origin`) of `counts[0]`.
    first_bucket: u64,
    counts: VecDeque<f64>,
    /// Observations accepted into a retained bucket.
    observed: u64,
    /// Observations rejected because they fell before the retained window
    /// (or before `origin`).
    dropped: u64,
    /// Buckets evicted from the front so far.
    evicted: u64,
}

impl CountRing {
    /// Create an empty ring.
    ///
    /// `origin` anchors the bucket grid (observations before it are
    /// dropped), `bucket_width` is the aggregation Δt in seconds, and
    /// `capacity` the maximum number of retained buckets.
    pub fn new(origin: f64, bucket_width: f64, capacity: usize) -> Result<Self, TimeSeriesError> {
        if !(bucket_width > 0.0) || !bucket_width.is_finite() {
            return Err(TimeSeriesError::InvalidBucketWidth(bucket_width));
        }
        if !origin.is_finite() {
            return Err(TimeSeriesError::InvalidParameter("origin must be finite"));
        }
        if capacity == 0 {
            return Err(TimeSeriesError::InvalidParameter(
                "ring capacity must be >= 1 bucket",
            ));
        }
        Ok(Self {
            origin,
            bucket_width,
            capacity,
            first_bucket: 0,
            counts: VecDeque::with_capacity(capacity.min(1 << 20)),
            observed: 0,
            dropped: 0,
            evicted: 0,
        })
    }

    /// The bucket grid anchor.
    pub fn origin(&self) -> f64 {
        self.origin
    }

    /// Aggregation bucket width Δt in seconds.
    pub fn bucket_width(&self) -> f64 {
        self.bucket_width
    }

    /// Maximum number of retained buckets.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently retained buckets.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether no bucket has been materialized yet.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Left edge of the oldest retained bucket.
    pub fn start(&self) -> f64 {
        self.origin + self.first_bucket as f64 * self.bucket_width
    }

    /// Right edge (exclusive) of the newest retained bucket.
    pub fn end(&self) -> f64 {
        self.start() + self.counts.len() as f64 * self.bucket_width
    }

    /// Observations accepted into a retained bucket so far.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Observations dropped because they predate the retained window.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Buckets evicted from the front of the ring so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Absolute bucket index containing time `t`, or `None` for `t` before
    /// the origin or too absurd to index (non-finite, or beyond 2⁵³ buckets
    /// — a corrupt timestamp, not traffic; indexing it would overflow the
    /// bucket arithmetic).
    fn bucket_index(&self, t: f64) -> Option<u64> {
        if t < self.origin || !t.is_finite() {
            return None;
        }
        let offset = (t - self.origin) / self.bucket_width;
        if offset >= 9_007_199_254_740_992.0 {
            return None;
        }
        // Matches the cast in `TimeSeries::from_event_times`: a plain
        // truncating cast of the non-negative offset.
        Some(offset as u64)
    }

    /// Materialize (zero-count) buckets so the ring covers `bucket`,
    /// evicting from the front when the capacity is exceeded.
    ///
    /// A forward jump larger than the capacity (an idle tenant waking up
    /// much later, or a far-future timestamp) replaces the window outright
    /// in O(capacity) instead of stepping bucket by bucket through the gap.
    fn grow_to(&mut self, bucket: u64) {
        if self.counts.is_empty() {
            // First bucket ever: start the window at `bucket` directly
            // rather than materializing everything since the origin.
            self.first_bucket = bucket;
            self.counts.push_back(0.0);
        }
        let end = self.first_bucket + self.counts.len() as u64;
        if bucket < end {
            return;
        }
        let new_first = bucket - (self.capacity as u64 - 1).min(bucket);
        if new_first >= end {
            // The whole retained window (and the gap's virtual buckets) are
            // evicted; restart the ring at the new window.
            self.evicted += self.counts.len() as u64 + (new_first - end);
            self.counts.clear();
            self.counts.resize((bucket - new_first) as usize + 1, 0.0);
            self.first_bucket = new_first;
            return;
        }
        while self.first_bucket + (self.counts.len() as u64) <= bucket {
            self.counts.push_back(0.0);
            if self.counts.len() > self.capacity {
                self.counts.pop_front();
                self.first_bucket += 1;
                self.evicted += 1;
            }
        }
    }

    /// Record one arrival at time `t`.
    ///
    /// Returns `true` when the arrival landed in a retained bucket, `false`
    /// when it was dropped (before the origin or before the window — e.g. a
    /// late, out-of-order event older than the retained history).
    pub fn observe(&mut self, t: f64) -> bool {
        let Some(bucket) = self.bucket_index(t) else {
            self.dropped += 1;
            return false;
        };
        if !self.counts.is_empty() && bucket < self.first_bucket {
            self.dropped += 1;
            return false;
        }
        self.grow_to(bucket);
        // `grow_to` may still have evicted past `bucket` when the jump
        // exceeded the capacity; re-check before indexing.
        if bucket < self.first_bucket {
            self.dropped += 1;
            return false;
        }
        let offset = (bucket - self.first_bucket) as usize;
        self.counts[offset] += 1.0;
        self.observed += 1;
        true
    }

    /// Record a batch of arrivals; returns how many were accepted.
    ///
    /// This is the bulk append behind the online layer's batched ingestion
    /// fast path: consecutive observations landing in the same bucket are
    /// grouped into one run, so the window bookkeeping (`grow_to`, the
    /// before-window check, the ring indexing) runs once per *run* instead
    /// of once per arrival. On a sorted batch — the shape arrival queues
    /// drain in — runs are maximal and the per-arrival cost collapses to
    /// one bucket-index computation.
    ///
    /// The result is **bit-identical to calling [`CountRing::observe`] on
    /// each element in order** for *any* input (sorted or not): run
    /// membership is decided with the same bucket arithmetic as the scalar
    /// path, and a run's count is accumulated with the same sequence of
    /// `+ 1.0` adds (pinned by the batch-equals-scalar tests).
    pub fn observe_batch(&mut self, times: &[f64]) -> usize {
        let mut accepted = 0usize;
        let mut i = 0usize;
        while i < times.len() {
            let Some(bucket) = self.bucket_index(times[i]) else {
                self.dropped += 1;
                i += 1;
                continue;
            };
            if !self.counts.is_empty() && bucket < self.first_bucket {
                self.dropped += 1;
                i += 1;
                continue;
            }
            self.grow_to(bucket);
            // `grow_to` may still have evicted past `bucket` when the jump
            // exceeded the capacity; re-check before indexing (mirrors
            // `observe`).
            if bucket < self.first_bucket {
                self.dropped += 1;
                i += 1;
                continue;
            }
            let mut run = 1usize;
            while i + run < times.len() && self.bucket_index(times[i + run]) == Some(bucket) {
                run += 1;
            }
            let offset = (bucket - self.first_bucket) as usize;
            // Repeated `+ 1.0` (not `+ run as f64`): the same op sequence
            // as the scalar path, so even exotic fractional counts restored
            // from snapshots stay bit-identical.
            let mut count = self.counts[offset];
            for _ in 0..run {
                count += 1.0;
            }
            self.counts[offset] = count;
            self.observed += run as u64;
            accepted += run;
            i += run;
        }
        accepted
    }

    /// Advance the window so it covers time `t` with (possibly zero-count)
    /// buckets — bookkeeping for quiet tenants whose ring would otherwise
    /// stall at their last arrival.
    pub fn advance_to(&mut self, t: f64) {
        if let Some(bucket) = self.bucket_index(t) {
            if self.counts.is_empty() || bucket >= self.first_bucket {
                self.grow_to(bucket);
            }
        }
    }

    /// Number of retained buckets that are *complete* at time `now` (their
    /// right edge is at or before `now`) — the prefix safe to train on
    /// without biasing the newest bucket low.
    pub fn complete_len(&self, now: f64) -> usize {
        if self.counts.is_empty() {
            return 0;
        }
        let whole = ((now - self.start()) / self.bucket_width).floor();
        if whole <= 0.0 {
            0
        } else {
            (whole as usize).min(self.counts.len())
        }
    }

    /// Total count across the retained buckets wholly contained in
    /// `[from, to)` — the drift detector's observed-arrivals query.
    ///
    /// Only the buckets near `[from, to)` are visited: the candidate indices
    /// come from the bucket arithmetic with one bucket of slack on each side
    /// for rounding, and the exact edge test decides each candidate.
    pub fn count_between(&self, from: f64, to: f64) -> f64 {
        let start = self.start();
        let width = self.bucket_width;
        // `max(0.0)` also maps NaN to 0; the casts saturate at the top.
        let end = ((((to - start) / width).ceil() + 1.0).max(0.0) as usize).min(self.counts.len());
        let begin = ((((from - start) / width).floor() - 1.0).max(0.0) as usize).min(end);
        self.counts
            .range(begin..end)
            .zip(begin..)
            .filter(|(_, i)| {
                let left = start + *i as f64 * width;
                left >= from && left + width <= to
            })
            .map(|(&c, _)| c)
            .sum()
    }

    /// Snapshot of all retained buckets as a [`TimeSeries`].
    ///
    /// Identical to batch aggregation of the accepted events on the ring's
    /// origin-anchored bucket grid. (Re-anchoring batch aggregation at
    /// `self.start()` can bin events that straddle a bucket boundary
    /// differently due to floating-point rounding; the grid is part of the
    /// equality contract.)
    pub fn series(&self) -> Result<TimeSeries, TimeSeriesError> {
        self.series_prefix(self.counts.len())
    }

    /// Snapshot of the complete buckets at `now` (see
    /// [`CountRing::complete_len`]) as a [`TimeSeries`].
    pub fn series_complete(&self, now: f64) -> Result<TimeSeries, TimeSeriesError> {
        self.series_prefix(self.complete_len(now))
    }

    /// Capture the ring's full state as a serializable, version-tagged
    /// [`RingSnapshot`] (see [`RingSnapshot::restore`]).
    pub fn snapshot(&self) -> RingSnapshot {
        RingSnapshot {
            version: RING_SNAPSHOT_VERSION,
            origin: self.origin,
            bucket_width: self.bucket_width,
            capacity: self.capacity,
            first_bucket: self.first_bucket,
            counts: self.counts.iter().copied().collect(),
            observed: self.observed,
            dropped: self.dropped,
            evicted: self.evicted,
        }
    }

    fn series_prefix(&self, buckets: usize) -> Result<TimeSeries, TimeSeriesError> {
        if buckets == 0 {
            return Err(TimeSeriesError::InvalidParameter(
                "ring holds no complete bucket to snapshot",
            ));
        }
        let values: Vec<f64> = self.counts.iter().take(buckets).copied().collect();
        TimeSeries::from_values(self.start(), self.bucket_width, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructor_validates() {
        assert!(CountRing::new(0.0, 0.0, 10).is_err());
        assert!(CountRing::new(0.0, -1.0, 10).is_err());
        assert!(CountRing::new(f64::NAN, 1.0, 10).is_err());
        assert!(CountRing::new(0.0, 1.0, 0).is_err());
        assert!(CountRing::new(5.0, 1.0, 3).is_ok());
    }

    #[test]
    fn matches_batch_aggregation_exactly() {
        let events: Vec<f64> = (0..500).map(|i| (i as f64 * 1.37) % 300.0).collect();
        let mut ring = CountRing::new(0.0, 10.0, 64).unwrap();
        for &t in &events {
            ring.observe(t);
        }
        let series = ring.series().unwrap();
        let batch =
            TimeSeries::from_event_times(&events, series.start(), series.end(), 10.0).unwrap();
        assert_eq!(series, batch);
        assert_eq!(ring.observed(), 500);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn eviction_keeps_the_most_recent_window() {
        let mut ring = CountRing::new(0.0, 1.0, 4).unwrap();
        for t in 0..10 {
            ring.observe(t as f64 + 0.5);
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.start(), 6.0);
        assert_eq!(ring.end(), 10.0);
        assert_eq!(ring.evicted(), 6);
        let series = ring.series().unwrap();
        assert_eq!(series.optional_values().len(), 4);
        assert!(series.optional_values().iter().all(|v| *v == Some(1.0)));
        // A late event older than the window is dropped, not misfiled.
        assert!(!ring.observe(2.0));
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn pre_origin_events_are_dropped() {
        let mut ring = CountRing::new(100.0, 1.0, 8).unwrap();
        assert!(!ring.observe(99.9));
        assert!(ring.observe(100.0));
        assert_eq!(ring.dropped(), 1);
        assert_eq!(ring.observed(), 1);
    }

    #[test]
    fn advance_to_materializes_zero_buckets() {
        let mut ring = CountRing::new(0.0, 5.0, 100).unwrap();
        ring.observe(2.0);
        ring.advance_to(23.0);
        assert_eq!(ring.len(), 5); // buckets [0,5) .. [20,25)
        let series = ring.series().unwrap();
        assert_eq!(series.get(0), Some(1.0));
        for i in 1..5 {
            assert_eq!(series.get(i), Some(0.0));
        }
    }

    #[test]
    fn complete_len_excludes_the_partial_bucket() {
        let mut ring = CountRing::new(0.0, 10.0, 100).unwrap();
        ring.observe(3.0);
        ring.observe(17.0);
        ring.observe(25.0);
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.complete_len(25.0), 2);
        assert_eq!(ring.complete_len(30.0), 3);
        assert_eq!(ring.complete_len(1.0), 0);
        let complete = ring.series_complete(25.0).unwrap();
        assert_eq!(complete.len(), 2);
        assert!(ring.series_complete(1.0).is_err());
    }

    #[test]
    fn count_between_sums_whole_buckets_in_range() {
        let mut ring = CountRing::new(0.0, 10.0, 100).unwrap();
        for &t in &[1.0, 2.0, 15.0, 25.0, 26.0, 27.0] {
            ring.observe(t);
        }
        assert_eq!(ring.count_between(0.0, 30.0), 6.0);
        assert_eq!(ring.count_between(10.0, 30.0), 4.0);
        // Partially covered buckets are excluded on both sides.
        assert_eq!(ring.count_between(5.0, 30.0), 4.0);
        assert_eq!(ring.count_between(10.0, 25.0), 1.0);
        assert_eq!(ring.count_between(40.0, 50.0), 0.0);
        // Unbounded and NaN bounds.
        assert_eq!(ring.count_between(f64::NEG_INFINITY, f64::INFINITY), 6.0);
        assert_eq!(ring.count_between(f64::NAN, 30.0), 0.0);
        assert_eq!(ring.count_between(0.0, f64::NAN), 0.0);
    }

    /// The pre-windowing implementation: the edge test on every retained
    /// bucket.
    fn count_between_full_scan(ring: &CountRing, from: f64, to: f64) -> f64 {
        let start = ring.start();
        ring.counts
            .iter()
            .enumerate()
            .filter(|(i, _)| {
                let left = start + *i as f64 * ring.bucket_width;
                left >= from && left + ring.bucket_width <= to
            })
            .map(|(_, &c)| c)
            .sum()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The windowed scan sums the same buckets in the same order as the
        /// full scan, bit for bit, for bounds on, between and beyond the
        /// ring's bucket edges.
        #[test]
        fn count_between_matches_the_full_scan(
            ring_shape in (-1000.0_f64..1000.0, 0.5_f64..90.0, 1usize..80),
            arrivals in prop::collection::vec(0.0_f64..1.0, 0..200),
            bounds in (-20i64..120, 0i64..60, 0.0_f64..1.0, 0.0_f64..1.0, prop::bool::ANY),
        ) {
            let (origin, width, capacity) = ring_shape;
            let (from_bucket, span, from_frac, to_frac, on_edges) = bounds;
            let mut ring = CountRing::new(origin, width, capacity).unwrap();
            // Spread the arrivals over up to 100 buckets, so some rings wrap.
            for &u in &arrivals {
                ring.observe(origin + u * 100.0 * width);
            }
            let (from_frac, to_frac) = if on_edges { (0.0, 0.0) } else { (from_frac, to_frac) };
            let from = ring.start() + (from_bucket as f64 + from_frac) * width;
            let to = from + (span as f64 + to_frac) * width;
            for (lo, hi) in [(from, to), (to, from), (from, f64::INFINITY), (f64::NEG_INFINITY, to)] {
                let windowed = ring.count_between(lo, hi);
                let full = count_between_full_scan(&ring, lo, hi);
                prop_assert_eq!(windowed.to_bits(), full.to_bits(), "[{}, {})", lo, hi);
            }
        }
    }

    #[test]
    fn huge_forward_jump_past_capacity_keeps_a_consistent_window() {
        let mut ring = CountRing::new(0.0, 1.0, 3).unwrap();
        ring.observe(0.5);
        ring.observe(1_000.5);
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.start(), 998.0);
        let series = ring.series().unwrap();
        assert_eq!(series.get(2), Some(1.0));
        assert_eq!(ring.observed(), 2);
    }

    #[test]
    fn absurd_timestamps_are_dropped_not_indexed() {
        // A corrupt far-future timestamp must neither hang (stepping through
        // the gap bucket by bucket) nor overflow the bucket arithmetic.
        let mut ring = CountRing::new(0.0, 1.0, 4).unwrap();
        ring.observe(1.5);
        assert!(!ring.observe(1e30));
        assert!(!ring.observe(f64::INFINITY));
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.len(), 1);
        // A large-but-sane jump relocates the window in O(capacity).
        assert!(ring.observe(5_000_000.5));
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.start(), 4_999_997.0);
        // Eviction accounting matches what bucket-by-bucket stepping would
        // have counted: buckets 1..=5_000_000 created, 4 retained.
        assert_eq!(ring.evicted(), 5_000_000 - 4);
    }

    #[test]
    fn empty_ring_snapshot_errors() {
        let ring = CountRing::new(0.0, 1.0, 3).unwrap();
        assert!(ring.series().is_err());
        assert_eq!(ring.complete_len(50.0), 0);
    }

    #[test]
    fn snapshot_restore_is_exact() {
        let mut ring = CountRing::new(5.0, 2.5, 8).unwrap();
        for &t in &[5.1, 6.0, 14.9, 30.0, 31.0, 2.0] {
            ring.observe(t);
        }
        ring.advance_to(40.0);
        let snap = ring.snapshot();
        assert_eq!(snap.version, RING_SNAPSHOT_VERSION);
        let restored = snap.clone().restore().unwrap();
        assert_eq!(ring, restored);
        // Serde round trip through JSON is exact too.
        let json = serde_json::to_string(&snap).unwrap();
        let back: RingSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
        assert_eq!(back.restore().unwrap(), ring);
    }

    #[test]
    fn restored_ring_continues_identically() {
        let mut ring = CountRing::new(0.0, 1.0, 4).unwrap();
        for t in 0..7 {
            ring.observe(t as f64 + 0.25);
        }
        let mut restored = ring.snapshot().restore().unwrap();
        for &t in &[7.5, 2.0, 9.75, 100.5] {
            assert_eq!(ring.observe(t), restored.observe(t));
        }
        assert_eq!(ring, restored);
        assert_eq!(ring.series().unwrap(), restored.series().unwrap());
    }

    /// Reference implementation of batch ingestion: the per-element
    /// `observe` loop `observe_batch` is an optimization of. The bulk path
    /// must stay bit-identical to this for arbitrary inputs.
    fn observe_reference(ring: &mut CountRing, times: &[f64]) -> usize {
        times.iter().filter(|&&t| ring.observe(t)).count()
    }

    #[test]
    fn observe_batch_is_bit_identical_to_the_scalar_loop() {
        // Mixed sorted runs, duplicates, out-of-order stragglers, pre-origin
        // and absurd timestamps — every branch of the scalar path.
        let times: Vec<f64> = vec![
            0.5,
            0.6,
            0.7,
            3.1,
            3.1,
            3.2,
            9.9,
            2.0,
            50.0,
            50.5,
            49.0,
            -1.0,
            1e30,
            f64::NAN,
            120.0,
            120.0,
            119.5,
            4_000.0,
            4_000.5,
            3_999.0,
            0.25,
        ];
        let mut bulk = CountRing::new(0.0, 1.0, 32).unwrap();
        let mut scalar = CountRing::new(0.0, 1.0, 32).unwrap();
        let accepted_bulk = bulk.observe_batch(&times);
        let accepted_scalar = observe_reference(&mut scalar, &times);
        assert_eq!(accepted_bulk, accepted_scalar);
        assert_eq!(bulk, scalar);
        assert_eq!(bulk.snapshot(), scalar.snapshot());
    }

    #[test]
    fn observe_batch_matches_scalar_on_chunked_sorted_streams() {
        let times: Vec<f64> = (0..5_000).map(|i| i as f64 * 0.037).collect();
        let mut bulk = CountRing::new(0.0, 2.5, 48).unwrap();
        let mut scalar = CountRing::new(0.0, 2.5, 48).unwrap();
        for chunk in times.chunks(97) {
            assert_eq!(
                bulk.observe_batch(chunk),
                observe_reference(&mut scalar, chunk)
            );
        }
        assert_eq!(bulk, scalar);
    }

    #[test]
    fn snapshot_restore_validates() {
        let mut ring = CountRing::new(0.0, 1.0, 4).unwrap();
        ring.observe(1.5);
        let snap = ring.snapshot();
        let mut bad = snap.clone();
        bad.version = RING_SNAPSHOT_VERSION + 1;
        assert!(matches!(
            bad.restore(),
            Err(TimeSeriesError::UnsupportedSnapshotVersion { .. })
        ));
        let mut bad = snap.clone();
        bad.counts = vec![0.0; 5];
        assert!(bad.restore().is_err());
        let mut bad = snap.clone();
        bad.counts = vec![f64::NAN];
        assert!(bad.restore().is_err());
        let mut bad = snap.clone();
        bad.counts = vec![-1.0];
        assert!(bad.restore().is_err());
        let mut bad = snap;
        bad.bucket_width = -2.0;
        assert!(bad.restore().is_err());
    }
}
