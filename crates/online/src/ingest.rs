//! The event-driven ingestion runtime: bounded per-tenant arrival queues
//! drained at round boundaries.
//!
//! Ingesting each arrival on the planning thread would serialize
//! ingestion and planning: while a round ran, arrivals would have nowhere
//! to go, and between rounds the planning thread would burn its time on
//! per-arrival ring bookkeeping. [`ArrivalBus`] decouples the two:
//!
//! * **Producers** (request routers, the simulation harness, load
//!   generators) call [`ArrivalBus::push`]/[`ArrivalBus::push_batch`] from
//!   any thread, at any time — including *while the fleet is planning*.
//! * **Consumers** (the fleet's round workers) call
//!   [`ArrivalBus::drain_into`] once per tenant per round boundary, moving
//!   the queued timestamps out in one batch, in timestamp order, straight
//!   into the ring's bulk append.
//!
//! ## Queue shape and sharding
//!
//! Each tenant owns one bounded FIFO queue ([`BusConfig::capacity_per_tenant`]).
//! The intended discipline is SPSC per tenant — one producer stream (a
//! tenant's arrivals are naturally ordered) and one drainer (the round
//! worker that owns the tenant's shard) — but nothing unsafe rides on
//! that: queues are grouped into [`BusConfig::tenants_per_group`]-sized
//! groups, each behind its own mutex, so contention is confined to a
//! group and a fleet-wide burst never serializes on a single lock. A
//! drain swaps the queue's contents out under the group lock and sorts
//! outside it, so the lock is held O(queue length) for a memcpy, not for
//! the ingestion work.
//!
//! ## Back-pressure
//!
//! Queues are bounded: a push to a full queue is rejected (`push` returns
//! `false`) and counted in [`QueueStats::dropped_full`] — a slow tenant
//! sheds its own load instead of growing without bound or stalling the
//! producers of every other tenant. [`QueueStats::queued_peak`] records
//! the high-water mark so capacity can be provisioned from observed data.
//!
//! ## Determinism contract
//!
//! Plans remain a pure function of the queue state at each round
//! boundary: a drain hands the worker *everything enqueued before it, in
//! timestamp order*, and the ring's bulk append is bit-identical to
//! per-arrival ingestion (pinned in `tests/online_props.rs`). Producers
//! that quiesce at round boundaries — e.g. enqueue window `N+1` while the
//! fleet plans window `N` and join before round `N+1` starts — therefore
//! get bit-identical fleet output for any worker count and any
//! producer-thread interleaving *within* a round.

use crate::error::OnlineError;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default bound on each tenant's arrival queue.
pub const DEFAULT_QUEUE_CAPACITY: usize = 65_536;

/// Default number of tenant queues sharing one group lock.
pub const DEFAULT_TENANTS_PER_GROUP: usize = 64;

/// Shape of an [`ArrivalBus`]: per-tenant queue bound and lock sharding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BusConfig {
    /// Arrivals queued per tenant before pushes are rejected.
    pub capacity_per_tenant: usize,
    /// Tenant queues sharing one group mutex (lock sharding granularity).
    pub tenants_per_group: usize,
}

impl Default for BusConfig {
    fn default() -> Self {
        Self {
            capacity_per_tenant: DEFAULT_QUEUE_CAPACITY,
            tenants_per_group: DEFAULT_TENANTS_PER_GROUP,
        }
    }
}

impl BusConfig {
    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), OnlineError> {
        if self.capacity_per_tenant == 0 {
            return Err(OnlineError::InvalidConfig(
                "bus capacity_per_tenant must be >= 1",
            ));
        }
        if self.tenants_per_group == 0 {
            return Err(OnlineError::InvalidConfig(
                "bus tenants_per_group must be >= 1",
            ));
        }
        Ok(())
    }
}

/// Back-pressure and drain accounting for one tenant's queue (or, via
/// [`QueueStats::merge`], an aggregate across tenants).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueStats {
    /// Arrivals accepted into the queue.
    pub enqueued: u64,
    /// Arrivals rejected because the queue was full (back-pressure).
    pub dropped_full: u64,
    /// High-water mark of the queue length (per tenant; aggregates take
    /// the max across tenants, not the sum — it answers "how big must a
    /// queue be", which a sum would not).
    pub queued_peak: u64,
    /// Arrivals moved out by drains.
    pub drained: u64,
    /// Drain calls (round boundaries observed by this queue); with
    /// [`QueueStats::drained`] this yields drained-per-round.
    pub drains: u64,
}

impl QueueStats {
    /// Fold another tenant's stats into an aggregate: counters sum,
    /// `queued_peak` takes the max.
    pub fn merge(&mut self, other: &QueueStats) {
        self.enqueued += other.enqueued;
        self.dropped_full += other.dropped_full;
        self.queued_peak = self.queued_peak.max(other.queued_peak);
        self.drained += other.drained;
        self.drains += other.drains;
    }

    /// Average arrivals moved per drain call, `0.0` before the first
    /// drain.
    pub fn drained_per_drain(&self) -> f64 {
        if self.drains == 0 {
            0.0
        } else {
            self.drained as f64 / self.drains as f64
        }
    }
}

/// One tenant's queue plus its accounting; lives inside a group mutex.
#[derive(Debug, Default)]
struct TenantQueue {
    items: VecDeque<f64>,
    stats: QueueStats,
}

/// Everything the checkpointer needs about one tenant's queue, captured
/// atomically under the group lock.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueCheckpoint {
    /// Undrained arrivals, in queue (enqueue) order.
    pub queued: Vec<f64>,
    /// The queue's accounting at capture time.
    pub stats: QueueStats,
}

/// Bounded per-tenant arrival queues, sharded by tenant group — the
/// fleet's ingestion runtime (see the module docs for the design).
#[derive(Debug)]
pub struct ArrivalBus {
    config: BusConfig,
    tenant_count: usize,
    groups: Vec<Mutex<Vec<TenantQueue>>>,
    /// Per-group count of currently queued arrivals, maintained under the
    /// group lock but readable without it. This is the fleet's wake scan:
    /// with 100k registered tenants and a handful active, the per-round
    /// "who has arrivals?" question must not take 100k/64 mutexes — it
    /// reads one atomic per group and only locks groups that report work.
    pending: Vec<AtomicU64>,
}

impl ArrivalBus {
    /// Create a bus with one bounded queue per tenant.
    pub fn new(tenant_count: usize, config: BusConfig) -> Result<Self, OnlineError> {
        config.validate()?;
        if tenant_count == 0 {
            return Err(OnlineError::InvalidConfig(
                "an arrival bus needs at least one tenant",
            ));
        }
        let group_count = tenant_count.div_ceil(config.tenants_per_group);
        let groups = (0..group_count)
            .map(|g| {
                let start = g * config.tenants_per_group;
                let len = config.tenants_per_group.min(tenant_count - start);
                Mutex::new((0..len).map(|_| TenantQueue::default()).collect())
            })
            .collect();
        let pending = (0..group_count).map(|_| AtomicU64::new(0)).collect();
        Ok(Self {
            config,
            tenant_count,
            groups,
            pending,
        })
    }

    /// The bus configuration.
    pub fn config(&self) -> BusConfig {
        self.config
    }

    /// Number of tenant queues.
    pub fn tenant_count(&self) -> usize {
        self.tenant_count
    }

    fn locate(&self, tenant: usize) -> Result<(usize, usize), OnlineError> {
        if tenant >= self.tenant_count {
            return Err(OnlineError::InvalidConfig("bus tenant index out of range"));
        }
        Ok((
            tenant / self.config.tenants_per_group,
            tenant % self.config.tenants_per_group,
        ))
    }

    /// Enqueue one arrival for `tenant`. Returns `Ok(true)` when queued,
    /// `Ok(false)` when rejected because the queue is full (the rejection
    /// is counted in [`QueueStats::dropped_full`]).
    pub fn push(&self, tenant: usize, arrival: f64) -> Result<bool, OnlineError> {
        self.push_batch(tenant, std::slice::from_ref(&arrival))
            .map(|accepted| accepted == 1)
    }

    /// Enqueue a batch of arrivals for `tenant` under one lock
    /// acquisition; returns how many were accepted before the queue
    /// filled (the rest are counted dropped).
    pub fn push_batch(&self, tenant: usize, arrivals: &[f64]) -> Result<usize, OnlineError> {
        let (group, slot) = self.locate(tenant)?;
        if arrivals.is_empty() {
            return Ok(0);
        }
        let mut queues = self.groups[group].lock().expect("bus group lock poisoned");
        let queue = &mut queues[slot];
        let room = self.config.capacity_per_tenant - queue.items.len();
        let accepted = arrivals.len().min(room);
        queue.items.extend(&arrivals[..accepted]);
        let dropped = (arrivals.len() - accepted) as u64;
        queue.stats.enqueued += accepted as u64;
        queue.stats.dropped_full += dropped;
        queue.stats.queued_peak = queue.stats.queued_peak.max(queue.items.len() as u64);
        if accepted > 0 {
            self.pending[group].fetch_add(accepted as u64, Ordering::Release);
        }
        Ok(accepted)
    }

    /// Whether `tenant`'s *group* might have queued arrivals — a cheap,
    /// lock-free over-approximation for the fleet's wake scan. `false` is
    /// authoritative (nothing queued anywhere in the group at some recent
    /// instant); `true` means "take the lock and check" via
    /// [`ArrivalBus::queued`].
    pub fn pending_hint(&self, tenant: usize) -> Result<bool, OnlineError> {
        let (group, _) = self.locate(tenant)?;
        Ok(self.pending[group].load(Ordering::Acquire) > 0)
    }

    /// Whether no arrival is queued for any tenant (read from the
    /// per-group counters, without locking).
    pub fn is_empty(&self) -> bool {
        self.pending
            .iter()
            .all(|queued| queued.load(Ordering::Acquire) == 0)
    }

    /// Currently queued arrivals for `tenant`.
    pub fn queued(&self, tenant: usize) -> Result<usize, OnlineError> {
        let (group, slot) = self.locate(tenant)?;
        let queues = self.groups[group].lock().expect("bus group lock poisoned");
        Ok(queues[slot].items.len())
    }

    /// Move what is queued for `tenant` into `buf` (cleared first), in
    /// timestamp order, and record the drain in the tenant's stats.
    /// Returns how many arrivals were moved.
    ///
    /// The group lock is held only for the queue swap; sorting happens on
    /// the caller's thread. The sort is stable, so arrivals sharing a
    /// timestamp keep their enqueue order and an already-ordered producer
    /// stream (the SPSC case) is returned exactly as enqueued.
    pub fn drain_into(&self, tenant: usize, buf: &mut Vec<f64>) -> Result<usize, OnlineError> {
        let (group, slot) = self.locate(tenant)?;
        buf.clear();
        {
            let mut queues = self.groups[group].lock().expect("bus group lock poisoned");
            let queue = &mut queues[slot];
            buf.extend(queue.items.drain(..));
            queue.stats.drained += buf.len() as u64;
            queue.stats.drains += 1;
            if !buf.is_empty() {
                self.pending[group].fetch_sub(buf.len() as u64, Ordering::Release);
            }
        }
        // `total_cmp` keeps the comparator total even if a producer pushed
        // a NaN (the ring drops it downstream either way).
        buf.sort_by(f64::total_cmp);
        Ok(buf.len())
    }

    /// One tenant's queue accounting.
    pub fn tenant_stats(&self, tenant: usize) -> Result<QueueStats, OnlineError> {
        let (group, slot) = self.locate(tenant)?;
        let queues = self.groups[group].lock().expect("bus group lock poisoned");
        Ok(queues[slot].stats)
    }

    /// Aggregate queue health across all tenants (counters summed,
    /// `queued_peak` maxed — see [`QueueStats::merge`]).
    pub fn stats(&self) -> QueueStats {
        let mut total = QueueStats::default();
        for group in &self.groups {
            let queues = group.lock().expect("bus group lock poisoned");
            for queue in queues.iter() {
                total.merge(&queue.stats);
            }
        }
        total
    }

    /// Capture every tenant's queue for a checkpoint: contents and stats,
    /// each group captured atomically under its lock. The returned vector
    /// is indexed by tenant.
    pub fn checkpoint_queues(&self) -> Vec<QueueCheckpoint> {
        let mut out = Vec::with_capacity(self.tenant_count);
        for group in &self.groups {
            let queues = group.lock().expect("bus group lock poisoned");
            for queue in queues.iter() {
                out.push(QueueCheckpoint {
                    queued: queue.items.iter().copied().collect(),
                    stats: queue.stats,
                });
            }
        }
        out
    }

    /// Refill one tenant's queue from persisted state (fleet restore):
    /// contents and stats are installed verbatim. A backlog above
    /// [`BusConfig::capacity_per_tenant`] is rejected.
    pub fn restore_tenant(
        &self,
        tenant: usize,
        queued: Vec<f64>,
        stats: QueueStats,
    ) -> Result<(), OnlineError> {
        if queued.len() > self.config.capacity_per_tenant {
            return Err(OnlineError::InvalidConfig(
                "restored queue exceeds the bus capacity",
            ));
        }
        let (group, slot) = self.locate(tenant)?;
        let mut queues = self.groups[group].lock().expect("bus group lock poisoned");
        let queue = &mut queues[slot];
        let before = queue.items.len() as u64;
        queue.items = VecDeque::from(queued);
        queue.stats = stats;
        let after = queue.items.len() as u64;
        if after > before {
            self.pending[group].fetch_add(after - before, Ordering::Release);
        } else if before > after {
            self.pending[group].fetch_sub(before - after, Ordering::Release);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_bus(tenants: usize) -> ArrivalBus {
        ArrivalBus::new(
            tenants,
            BusConfig {
                capacity_per_tenant: 4,
                tenants_per_group: 2,
            },
        )
        .unwrap()
    }

    #[test]
    fn config_and_index_validation() {
        assert!(ArrivalBus::new(0, BusConfig::default()).is_err());
        let bad = BusConfig {
            capacity_per_tenant: 0,
            tenants_per_group: 2,
        };
        assert!(ArrivalBus::new(3, bad).is_err());
        let bad = BusConfig {
            capacity_per_tenant: 2,
            tenants_per_group: 0,
        };
        assert!(ArrivalBus::new(3, bad).is_err());
        let bus = small_bus(3);
        assert_eq!(bus.tenant_count(), 3);
        assert!(bus.push(3, 1.0).is_err());
        assert!(bus.queued(9).is_err());
        let mut buf = Vec::new();
        assert!(bus.drain_into(7, &mut buf).is_err());
    }

    #[test]
    fn push_drain_round_trips_in_timestamp_order() {
        let bus = small_bus(2);
        assert!(bus.push(0, 3.0).unwrap());
        assert!(bus.push(0, 1.0).unwrap());
        assert!(bus.push(0, 2.0).unwrap());
        assert!(bus.push(1, 9.0).unwrap());
        let mut buf = vec![99.0];
        assert_eq!(bus.drain_into(0, &mut buf).unwrap(), 3);
        assert_eq!(buf, vec![1.0, 2.0, 3.0]);
        assert_eq!(bus.queued(0).unwrap(), 0);
        assert_eq!(bus.queued(1).unwrap(), 1);
        // Draining an empty queue is a counted no-op.
        assert_eq!(bus.drain_into(0, &mut buf).unwrap(), 0);
        let stats = bus.tenant_stats(0).unwrap();
        assert_eq!(stats.enqueued, 3);
        assert_eq!(stats.drained, 3);
        assert_eq!(stats.drains, 2);
        assert_eq!(stats.queued_peak, 3);
    }

    #[test]
    fn full_queue_sheds_load_and_counts_it() {
        let bus = small_bus(1);
        for k in 0..4 {
            assert!(bus.push(0, k as f64).unwrap());
        }
        assert!(!bus.push(0, 4.0).unwrap());
        assert_eq!(bus.push_batch(0, &[5.0, 6.0]).unwrap(), 0);
        let stats = bus.tenant_stats(0).unwrap();
        assert_eq!(stats.enqueued, 4);
        assert_eq!(stats.dropped_full, 3);
        assert_eq!(stats.queued_peak, 4);
        // Draining frees the queue for new pushes.
        let mut buf = Vec::new();
        bus.drain_into(0, &mut buf).unwrap();
        assert!(bus.push(0, 7.0).unwrap());
    }

    #[test]
    fn push_batch_accepts_a_prefix_up_to_capacity() {
        let bus = small_bus(1);
        assert_eq!(
            bus.push_batch(0, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap(),
            4
        );
        let mut buf = Vec::new();
        bus.drain_into(0, &mut buf).unwrap();
        assert_eq!(buf, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(bus.tenant_stats(0).unwrap().dropped_full, 2);
    }

    #[test]
    fn aggregate_stats_sum_counters_and_max_the_peak() {
        let bus = small_bus(3);
        bus.push_batch(0, &[1.0, 2.0, 3.0]).unwrap();
        bus.push(2, 5.0).unwrap();
        let total = bus.stats();
        assert_eq!(total.enqueued, 4);
        assert_eq!(total.queued_peak, 3);
        assert_eq!(total.drains, 0);
        assert!(total.drained_per_drain() == 0.0);
    }

    #[test]
    fn checkpoint_capture_and_restore_round_trip() {
        let bus = small_bus(3);
        bus.push_batch(0, &[2.0, 1.0]).unwrap();
        bus.push(2, 7.0).unwrap();
        let captured = bus.checkpoint_queues();
        assert_eq!(captured.len(), 3);
        assert_eq!(captured[0].queued, vec![2.0, 1.0]); // enqueue order
        assert_eq!(captured[1].queued, Vec::<f64>::new());
        assert_eq!(captured[2].stats.enqueued, 1);

        let fresh = small_bus(3);
        for (tenant, cp) in captured.iter().enumerate() {
            fresh
                .restore_tenant(tenant, cp.queued.clone(), cp.stats)
                .unwrap();
        }
        let mut a = Vec::new();
        let mut b = Vec::new();
        bus.drain_into(0, &mut a).unwrap();
        fresh.drain_into(0, &mut b).unwrap();
        assert_eq!(a, b);
        assert_eq!(bus.tenant_stats(2).unwrap(), fresh.tenant_stats(2).unwrap());
        // A restored backlog must fit the bus bound (capacity 4).
        for (len, fits) in [(4, true), (5, false), (99, false)] {
            let restored = fresh.restore_tenant(1, vec![0.0; len], QueueStats::default());
            assert_eq!(restored.is_ok(), fits, "backlog of {len}");
        }
    }

    #[test]
    fn pending_hint_tracks_group_occupancy_locklessly() {
        let bus = small_bus(4); // groups of 2: {0,1}, {2,3}
        assert!(!bus.pending_hint(0).unwrap());
        assert!(!bus.pending_hint(2).unwrap());
        assert!(bus.pending_hint(9).is_err());
        assert!(bus.is_empty());
        bus.push(1, 5.0).unwrap();
        // The hint is group-granular: tenant 0 shares tenant 1's group.
        assert!(bus.pending_hint(0).unwrap());
        assert!(bus.pending_hint(1).unwrap());
        assert!(!bus.pending_hint(3).unwrap());
        assert!(!bus.is_empty());
        let mut buf = Vec::new();
        bus.drain_into(1, &mut buf).unwrap();
        assert!(!bus.pending_hint(0).unwrap());
        assert!(bus.is_empty());
        // Rejected pushes never count as pending.
        for k in 0..9 {
            bus.push(2, k as f64).unwrap();
        }
        bus.drain_into(2, &mut buf).unwrap();
        assert!(!bus.pending_hint(2).unwrap());
        // Restore adjusts the counter in both directions.
        bus.restore_tenant(3, vec![1.0, 2.0], QueueStats::default())
            .unwrap();
        assert!(bus.pending_hint(2).unwrap());
        bus.restore_tenant(3, Vec::new(), QueueStats::default())
            .unwrap();
        assert!(!bus.pending_hint(2).unwrap());
    }

    #[test]
    fn concurrent_producers_land_every_arrival_exactly_once() {
        let bus = std::sync::Arc::new(
            ArrivalBus::new(
                8,
                BusConfig {
                    capacity_per_tenant: 10_000,
                    tenants_per_group: 3,
                },
            )
            .unwrap(),
        );
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let bus = std::sync::Arc::clone(&bus);
                std::thread::spawn(move || {
                    for k in 0..500 {
                        let tenant = (p * 500 + k) % 8;
                        bus.push(tenant, (p * 500 + k) as f64).unwrap();
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let mut buf = Vec::new();
        let mut total = 0usize;
        for tenant in 0..8 {
            total += bus.drain_into(tenant, &mut buf).unwrap();
            assert!(buf.windows(2).all(|w| w[0] <= w[1]), "drain is sorted");
        }
        assert_eq!(total, 2_000);
        let stats = bus.stats();
        assert_eq!(stats.enqueued, 2_000);
        assert_eq!(stats.dropped_full, 0);
        assert_eq!(stats.drained, 2_000);
    }
}
