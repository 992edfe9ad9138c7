//! Deterministic fault injection for chaos testing.
//!
//! A [`FaultPlan`] is a seeded *schedule* of faults: every decision —
//! "does tenant 3's planning round error out in round 7?", "does the
//! second write of `gen-000002/shard-001.json` fail?" — is a pure
//! function of the plan's seed and the injection site's coordinates
//! (round, tenant, path tag, call count). No wall clock, no global
//! RNG, no thread identity enters the hash, so the same plan replays
//! the same faults bit-for-bit: across runs, across worker counts,
//! and across checkpoint directories (paths are reduced to their
//! generation-relative tail before hashing).
//!
//! The injector plugs into the existing seams rather than adding new
//! ones:
//!
//! * **planning** — [`FaultInjector::plan_fault`] makes a tenant's
//!   round return an [`Injected`](crate::OnlineError::Injected) error
//!   or panic inside the round worker (exercising the fleet's
//!   `catch_unwind` boundary);
//! * **ingestion** — [`FaultInjector::corrupt_arrivals`] flips a
//!   drained arrival to NaN and/or applies a clock skew to the batch,
//!   exercising the ring's rejection of non-finite and pre-origin
//!   timestamps;
//! * **checkpoint I/O** — [`FaultyStorage`] wraps the real filesystem
//!   behind [`CheckpointStorage`] and fails individual operations with
//!   injected [`std::io::ErrorKind`]s, exercising the retry loop and
//!   the scan-back-to-restorable-generation restore path;
//! * **workers** — [`FaultInjector::worker_panics`] kills a pool
//!   worker at the start of a round block, outside any tenant,
//!   exercising the fleet-level round abort. Blocks have a fixed size,
//!   so the fault keys on the block's first tenant index and is
//!   worker-count-independent like every other class; it is excluded
//!   from recorded traces, which cannot replay an aborted round.
//!
//! One fault decision never consumes randomness another decision
//! depends on — each site mixes its own constant — so enabling one
//! fault class does not reshuffle the schedule of the others.

use crate::checkpoint::{fnv1a64, CheckpointStorage, OsStorage};
use crate::fleet::splitmix64;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::Mutex;

/// Probability-per-site fault schedule. All probabilities are in
/// `[0, 1]`; the default plan injects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed every fault decision is derived from.
    pub seed: u64,
    /// Per tenant-round probability that planning returns an
    /// [`Injected`](crate::OnlineError::Injected) error.
    pub plan_error: f64,
    /// Per tenant-round probability that planning panics inside the
    /// round worker.
    pub plan_panic: f64,
    /// Per tenant-round probability that one drained arrival is
    /// replaced with NaN before ingestion.
    pub arrival_nan: f64,
    /// Per tenant-round probability that the whole drained batch is
    /// shifted by [`clock_skew_secs`](Self::clock_skew_secs).
    pub clock_skew: f64,
    /// Signed clock-skew magnitude in seconds (applied when the
    /// `clock_skew` roll fires).
    pub clock_skew_secs: f64,
    /// Per-operation probability that a checkpoint *write-side* I/O
    /// call (write, rename) fails.
    pub checkpoint_io: f64,
    /// Per-operation probability that a checkpoint *read* fails.
    /// Kept separate from [`checkpoint_io`](Self::checkpoint_io) so
    /// restorability tests can fault writes without faulting the
    /// restore they are trying to prove.
    pub restore_io: f64,
    /// Per round-block probability that a worker thread panics at the
    /// start of the block (outside any tenant).
    pub worker_panic: f64,
    /// When set, tenant-scoped faults (plan errors/panics, arrival
    /// corruption) fire only for this tenant — the knob isolation
    /// tests use to fault exactly one neighbor.
    pub target_tenant: Option<u64>,
}

impl FaultPlan {
    /// True when any fault class has a non-zero probability.
    pub fn enabled(&self) -> bool {
        self.plan_error > 0.0
            || self.plan_panic > 0.0
            || self.arrival_nan > 0.0
            || self.clock_skew > 0.0
            || self.checkpoint_io > 0.0
            || self.restore_io > 0.0
            || self.worker_panic > 0.0
    }
}

/// What a fired planning fault does to the tenant's round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanFault {
    /// Planning is skipped and the slot reports
    /// [`Injected`](crate::OnlineError::Injected).
    Error,
    /// The round worker panics at the tenant boundary.
    Panic,
}

/// Checkpoint I/O operations [`FaultyStorage`] can fail. The
/// discriminants are hashed into every I/O fault site, so they are
/// fixed explicitly: renumbering one re-rolls every recorded schedule
/// (2 and 3 were shard-reuse links and copies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoOp {
    /// File create + write + fsync.
    Write = 0,
    /// Atomic rename.
    Rename = 1,
    /// File read (restore path).
    Read = 4,
}

const SITE_PLAN: u64 = 0x706c_616e_2e66_6c74; // "plan.flt"
const SITE_ARRIVAL: u64 = 0x6172_7256_6e61_6e00; // "arrVnan"
const SITE_ARRIVAL_IDX: u64 = 0x6172_7256_6964_7800; // "arrVidx"
const SITE_SKEW: u64 = 0x636c_6f63_6b73_6b77; // "clockskw"
const SITE_WORKER: u64 = 0x776f_726b_6572_2e70; // "worker.p"
const SITE_IO: u64 = 0x696f_2e66_6175_6c74; // "io.fault"

/// The generation-relative tail of a checkpoint path: the file name,
/// prefixed by its parent directory only when that parent is a
/// generation directory (`gen-NNNNNN`). Hashing this tag instead of
/// the absolute path keeps I/O fault schedules independent of the
/// (typically randomized) checkpoint directory location.
fn path_tag(path: &Path) -> String {
    let name = path
        .file_name()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default();
    match path.parent().and_then(Path::file_name) {
        Some(parent) => {
            let parent = parent.to_string_lossy();
            if parent.starts_with("gen-") {
                format!("{parent}/{name}")
            } else {
                name
            }
        }
        None => name,
    }
}

/// Stateless decision engine over a [`FaultPlan`]. Cheap to copy;
/// every method is a pure function of the plan and its arguments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultInjector {
    plan: FaultPlan,
}

impl FaultInjector {
    /// Build an injector over `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        Self { plan }
    }

    /// The schedule this injector decides from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// True when the plan injects anything at all.
    pub fn enabled(&self) -> bool {
        self.plan.enabled()
    }

    fn targets(&self, tenant: u64) -> bool {
        match self.plan.target_tenant {
            Some(t) => t == tenant,
            None => true,
        }
    }

    /// Deterministic uniform draw in `[0, 1)` for one decision site.
    fn roll(&self, site: u64, a: u64, b: u64) -> f64 {
        let h = splitmix64(splitmix64(splitmix64(self.plan.seed ^ site) ^ a) ^ b);
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Does `tenant`'s planning fault in `round`, and how? A single
    /// draw decides both, so panic and error schedules never overlap.
    pub fn plan_fault(&self, round: u64, tenant: u64) -> Option<PlanFault> {
        if !self.targets(tenant) {
            return None;
        }
        let total = self.plan.plan_panic + self.plan.plan_error;
        if total <= 0.0 {
            return None;
        }
        let r = self.roll(SITE_PLAN, round, tenant);
        if r < self.plan.plan_panic {
            Some(PlanFault::Panic)
        } else if r < total {
            Some(PlanFault::Error)
        } else {
            None
        }
    }

    /// Corrupt a drained arrival batch in place: maybe one NaN, maybe
    /// a whole-batch clock skew. Returns true when anything changed.
    pub fn corrupt_arrivals(&self, round: u64, tenant: u64, arrivals: &mut [f64]) -> bool {
        if !self.targets(tenant) || arrivals.is_empty() {
            return false;
        }
        let mut changed = false;
        if self.plan.arrival_nan > 0.0
            && self.roll(SITE_ARRIVAL, round, tenant) < self.plan.arrival_nan
        {
            let pick = splitmix64(splitmix64(self.plan.seed ^ SITE_ARRIVAL_IDX ^ round) ^ tenant);
            let idx = (pick % arrivals.len() as u64) as usize;
            arrivals[idx] = f64::NAN;
            changed = true;
        }
        if self.plan.clock_skew > 0.0 && self.roll(SITE_SKEW, round, tenant) < self.plan.clock_skew
        {
            for t in arrivals.iter_mut() {
                *t += self.plan.clock_skew_secs;
            }
            changed = true;
        }
        changed
    }

    /// Does the round block starting at tenant `block_start` panic in
    /// `round`? Blocks are fixed-size, so the answer does not depend on
    /// the worker count; never recorded in traces.
    pub fn worker_panics(&self, round: u64, block_start: usize) -> bool {
        self.plan.worker_panic > 0.0
            && self.roll(SITE_WORKER, round, block_start as u64) < self.plan.worker_panic
    }

    /// Does the `nth` call of `op` on the file tagged `tag` fail, and
    /// with what [`io::ErrorKind`]? The kind itself is drawn from the
    /// same hash so retries of the same call see the same failure.
    fn io_error(&self, op: IoOp, tag: &str, nth: u64) -> Option<io::ErrorKind> {
        let p = match op {
            IoOp::Read => self.plan.restore_io,
            _ => self.plan.checkpoint_io,
        };
        if p <= 0.0 {
            return None;
        }
        let site = SITE_IO ^ splitmix64(op as u64 + 1);
        let tag = fnv1a64(tag.as_bytes());
        if self.roll(site, tag, nth) >= p {
            return None;
        }
        let kind = match splitmix64(site ^ tag ^ nth) % 3 {
            0 => io::ErrorKind::Other,
            1 => io::ErrorKind::Interrupted,
            _ => io::ErrorKind::PermissionDenied,
        };
        Some(kind)
    }
}

/// [`CheckpointStorage`] over the real filesystem with injected
/// per-operation failures. Each `(op, path tag)` pair keeps its own
/// call counter, so "the second write of `gen-000002/manifest.json`
/// fails" is a stable, thread-interleaving-independent statement.
/// Directory operations (create/remove/sync/list) always pass
/// through: they are shared infrastructure whose failure would mask
/// the per-file seams this storage exists to exercise.
#[derive(Debug)]
pub struct FaultyStorage {
    inner: OsStorage,
    injector: FaultInjector,
    calls: Mutex<HashMap<(IoOp, String), u64>>,
}

impl FaultyStorage {
    /// Wrap the real filesystem with `plan`'s I/O fault schedule.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            inner: OsStorage,
            injector: FaultInjector::new(plan),
            calls: Mutex::new(HashMap::new()),
        }
    }

    fn check(&self, op: IoOp, path: &Path) -> io::Result<()> {
        let tag = path_tag(path);
        let nth = {
            let mut calls = self.calls.lock().expect("fault counter lock poisoned");
            let counter = calls.entry((op, tag.clone())).or_insert(0);
            let nth = *counter;
            *counter += 1;
            nth
        };
        match self.injector.io_error(op, &tag, nth) {
            Some(kind) => Err(io::Error::new(
                kind,
                format!("injected {op:?} fault on `{tag}` (call {nth})"),
            )),
            None => Ok(()),
        }
    }
}

impl CheckpointStorage for FaultyStorage {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.check(IoOp::Write, path)?;
        self.inner.write(path, bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.check(IoOp::Rename, to)?;
        self.inner.rename(from, to)
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_dir_all(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.inner.sync_dir(path)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.check(IoOp::Read, path)?;
        self.inner.read(path)
    }

    fn read_dir_names(&self, path: &Path) -> io::Result<Vec<String>> {
        self.inner.read_dir_names(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn default_plan_is_silent() {
        let inj = FaultInjector::new(FaultPlan::default());
        assert!(!inj.enabled());
        for round in 0..64 {
            for tenant in 0..8 {
                assert_eq!(inj.plan_fault(round, tenant), None);
                let mut batch = vec![1.0, 2.0, 3.0];
                assert!(!inj.corrupt_arrivals(round, tenant, &mut batch));
                assert_eq!(batch, vec![1.0, 2.0, 3.0]);
                assert!(!inj.worker_panics(round, tenant as usize));
            }
            assert_eq!(inj.io_error(IoOp::Write, "manifest.json", round), None);
            assert_eq!(inj.io_error(IoOp::Read, "manifest.json", round), None);
        }
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let plan = FaultPlan {
            seed: 11,
            plan_error: 0.3,
            plan_panic: 0.1,
            arrival_nan: 0.4,
            clock_skew: 0.2,
            clock_skew_secs: 5.0,
            checkpoint_io: 0.25,
            restore_io: 0.25,
            worker_panic: 0.2,
            target_tenant: None,
        };
        let a = FaultInjector::new(plan);
        let b = FaultInjector::new(plan);
        let c = FaultInjector::new(FaultPlan { seed: 12, ..plan });
        let mut differs = false;
        for round in 0..64 {
            for tenant in 0..6 {
                assert_eq!(a.plan_fault(round, tenant), b.plan_fault(round, tenant));
                let mut batch_a = vec![10.0, 20.0, 30.0, 40.0];
                let mut batch_b = batch_a.clone();
                a.corrupt_arrivals(round, tenant, &mut batch_a);
                b.corrupt_arrivals(round, tenant, &mut batch_b);
                assert_eq!(
                    batch_a.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
                    batch_b.iter().map(|t| t.to_bits()).collect::<Vec<_>>(),
                );
                differs |= a.plan_fault(round, tenant) != c.plan_fault(round, tenant);
            }
            assert_eq!(
                a.io_error(IoOp::Write, "gen-000001/shard-000.json", round),
                b.io_error(IoOp::Write, "gen-000001/shard-000.json", round),
            );
        }
        assert!(differs, "seed 11 and 12 produced identical schedules");
    }

    #[test]
    fn full_probability_fires_every_time() {
        let always_err = FaultInjector::new(FaultPlan {
            seed: 3,
            plan_error: 1.0,
            ..FaultPlan::default()
        });
        let always_panic = FaultInjector::new(FaultPlan {
            seed: 3,
            plan_panic: 1.0,
            ..FaultPlan::default()
        });
        for round in 0..32 {
            assert_eq!(always_err.plan_fault(round, 0), Some(PlanFault::Error));
            assert_eq!(always_panic.plan_fault(round, 0), Some(PlanFault::Panic));
        }
    }

    #[test]
    fn target_tenant_scopes_tenant_faults() {
        let inj = FaultInjector::new(FaultPlan {
            seed: 7,
            plan_error: 1.0,
            arrival_nan: 1.0,
            target_tenant: Some(2),
            ..FaultPlan::default()
        });
        for round in 0..16 {
            for tenant in 0..5 {
                let fault = inj.plan_fault(round, tenant);
                let mut batch = vec![5.0, 6.0];
                let corrupted = inj.corrupt_arrivals(round, tenant, &mut batch);
                if tenant == 2 {
                    assert_eq!(fault, Some(PlanFault::Error));
                    assert!(corrupted && batch.iter().any(|t| t.is_nan()));
                } else {
                    assert_eq!(fault, None);
                    assert!(!corrupted);
                    assert_eq!(batch, vec![5.0, 6.0]);
                }
            }
        }
    }

    #[test]
    fn arrival_corruption_flips_one_slot_and_skews_batches() {
        let inj = FaultInjector::new(FaultPlan {
            seed: 9,
            arrival_nan: 1.0,
            ..FaultPlan::default()
        });
        let mut batch = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert!(inj.corrupt_arrivals(4, 1, &mut batch));
        assert_eq!(batch.iter().filter(|t| t.is_nan()).count(), 1);
        assert_eq!(batch.iter().filter(|t| t.is_finite()).count(), 4);

        let skew = FaultInjector::new(FaultPlan {
            seed: 9,
            clock_skew: 1.0,
            clock_skew_secs: -30.0,
            ..FaultPlan::default()
        });
        let mut batch = vec![100.0, 200.0];
        assert!(skew.corrupt_arrivals(0, 0, &mut batch));
        assert_eq!(batch, vec![70.0, 170.0]);

        let mut empty: Vec<f64> = Vec::new();
        assert!(!inj.corrupt_arrivals(0, 0, &mut empty));
    }

    #[test]
    fn path_tags_are_directory_independent() {
        let a = PathBuf::from("/tmp/ckpt-run-a/gen-000002/shard-001.json");
        let b = PathBuf::from("/var/other/place/gen-000002/shard-001.json");
        assert_eq!(path_tag(&a), path_tag(&b));
        assert_eq!(path_tag(&a), "gen-000002/shard-001.json");
        assert_eq!(
            path_tag(Path::new("/tmp/ckpt-a/manifest.json")),
            "manifest.json"
        );
        assert_eq!(
            path_tag(Path::new("/tmp/ckpt-a/manifest.json.tmp")),
            "manifest.json.tmp"
        );
    }

    #[test]
    fn faulty_storage_counts_calls_per_site() {
        // With p = 1 every checked op fails, and the error names the
        // per-site call number, which advances per (op, tag) pair.
        let storage = FaultyStorage::new(FaultPlan {
            seed: 5,
            checkpoint_io: 1.0,
            restore_io: 1.0,
            ..FaultPlan::default()
        });
        let path = PathBuf::from("/tmp/anywhere/gen-000001/shard-000.json");
        let e0 = storage.write(&path, b"x").unwrap_err();
        let e1 = storage.write(&path, b"x").unwrap_err();
        assert!(e0.to_string().contains("call 0"), "{e0}");
        assert!(e1.to_string().contains("call 1"), "{e1}");
        // A different op on the same path has its own counter.
        let r0 = storage.read(&path).unwrap_err();
        assert!(r0.to_string().contains("call 0"), "{r0}");
        // Directory ops are never faulted.
        assert!(storage.read_dir_names(Path::new("/")).is_ok());
    }

    /// `io_error` hashes `op as u64` into the fault site, so the
    /// variants' discriminants are part of every I/O fault schedule.
    #[test]
    fn io_fault_schedule_is_pinned() {
        let inj = FaultInjector::new(FaultPlan {
            seed: 17,
            checkpoint_io: 0.5,
            restore_io: 0.5,
            ..FaultPlan::default()
        });
        let fired = |op: IoOp| -> Vec<u64> {
            (0..32)
                .filter(|&nth| {
                    inj.io_error(op, "gen-000001/shard-0000.json", nth)
                        .is_some()
                })
                .collect()
        };
        // Recorded before `IoOp` lost its shard-reuse variants: the
        // explicit discriminants keep every recorded chaos schedule.
        assert_eq!(
            fired(IoOp::Write),
            [5, 9, 10, 12, 14, 15, 16, 17, 18, 19, 21, 23, 27, 31]
        );
        assert_eq!(
            fired(IoOp::Rename),
            [0, 1, 5, 6, 7, 8, 10, 14, 16, 18, 22, 24, 25, 28, 29, 30]
        );
        assert_eq!(
            fired(IoOp::Read),
            [0, 1, 4, 11, 12, 13, 14, 17, 19, 20, 21, 22, 23, 26, 27, 28, 31]
        );
    }

    #[test]
    fn fault_plan_round_trips_through_serde() {
        let plan = FaultPlan {
            seed: 42,
            plan_error: 0.125,
            plan_panic: 0.0625,
            arrival_nan: 0.5,
            clock_skew: 0.25,
            clock_skew_secs: -12.5,
            checkpoint_io: 0.1,
            restore_io: 0.2,
            worker_panic: 0.3,
            target_tenant: Some(7),
        };
        let json = serde_json::to_string(&plan).expect("serialize");
        let back: FaultPlan = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, plan);
    }
}
