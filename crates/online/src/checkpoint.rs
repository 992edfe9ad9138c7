//! Durable, sharded fleet checkpoints: crash-safe snapshot/restore for the
//! online serving layer.
//!
//! A fleet process restart used to lose every tenant's training window and
//! force cold refits. This module persists the fleet's full serving state —
//! each tenant's [`ScalerSnapshot`] — to a
//! directory of per-tenant-group shard files plus a manifest, with three
//! guarantees:
//!
//! * **Crash safety.** Every checkpoint is written into a fresh generation
//!   subdirectory and only becomes current when `manifest.json` is swapped
//!   in via an atomic temp-file + rename. A crash at any point mid-write
//!   leaves the previous checkpoint fully intact and loadable.
//! * **Corruption detection.** The manifest records an FNV-1a content
//!   checksum per shard. A truncated or bit-flipped shard fails its load
//!   with a checksum error *naming the shard*; other shards stay loadable —
//!   a corrupt file can never silently zero a tenant.
//! * **Bit-identical resume.** Restoring a checkpoint reproduces every
//!   tenant's ring, model, counters and refit deadlines exactly, so a
//!   restored fleet's plans are bit-identical to a fleet that never
//!   stopped (pinned by `tests/persistence.rs`).
//!
//! On-disk layout under the checkpoint directory:
//!
//! ```text
//! manifest.json               # swap point: {version, generation, shards, fleet wiring}
//! gen-000003/shard-0000.json  # Vec<TenantSnapshot> for tenant group 0
//! gen-000003/shard-0001.json  # ...
//! ```
//!
//! Every generation serializes every shard, so each generation directory
//! is self-contained and restores on its own.
//!
//! Durability is self-healing. Every filesystem touch goes through the
//! small [`CheckpointStorage`] trait (default: [`OsStorage`]), so chaos
//! tests can inject deterministic `io::ErrorKind`s straight into the
//! atomic-swap path. Shard and manifest writes retry with bounded backoff
//! before failing the checkpoint (counted in [`CheckpointStore::io_stats`]).
//! The previous generation is retained alongside the current one, each
//! generation directory carries its own `manifest.json` copy, and
//! [`CheckpointStore::load_shards`] scans back to the newest restorable
//! generation when the current one is corrupt.
//!
//! The layout is described at [`CHECKPOINT_FORMAT_VERSION`].

use crate::error::OnlineError;
use crate::faults::FaultPlan;
use crate::fleet::{ResidencyConfig, SupervisorConfig};
use crate::ingest::{BusConfig, QueueStats};
use crate::scaler::ScalerSnapshot;
use robustscaler_parallel::{parallel_map, WorkerPool};
use robustscaler_scaling::PlanningRound;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Checkpoint format version recorded in the manifest. A build reads only
/// the version it writes: any other version fails the restore, and the
/// write into that directory, with [`OnlineError::UnsupportedSnapshotVersion`].
/// Bump it on any change to the manifest or shard layout.
///
/// A [`Manifest`] records the fleet's round counter and its wiring
/// ([`FleetWiring`]: arrival bus, residency, supervisor and fault plan)
/// beside the shard list. Each shard holds a
/// `Vec<TenantSnapshot>`: the scaler snapshot, the tenant's undrained
/// queue and, where the fleet runs them, its supervision state and its
/// residency state. Unknown keys are ignored on load.
pub const CHECKPOINT_FORMAT_VERSION: u32 = 9;

/// How many times a shard/manifest write is attempted before the
/// checkpoint fails (first try + retries).
const WRITE_ATTEMPTS: u32 = 3;

/// Base backoff between write retries; attempt `n` sleeps `n` times this.
const RETRY_BACKOFF: Duration = Duration::from_millis(2);

/// Default number of tenants per shard file.
pub const DEFAULT_TENANTS_PER_SHARD: usize = 64;

/// One tenant's persisted state: its stable id, the scaler snapshot, and
/// the fleet state that travels with the tenant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantSnapshot {
    /// Stable tenant identifier.
    pub id: u64,
    /// The tenant's full serving state.
    pub scaler: ScalerSnapshot,
    /// Arrivals enqueued but not yet drained at checkpoint time, in
    /// enqueue order.
    pub queued: Vec<f64>,
    /// The tenant queue's back-pressure accounting at checkpoint time.
    pub queue: QueueStats,
    /// The fleet's supervision state for this tenant (`None` for
    /// single-tenant harness snapshots).
    pub supervision: Option<SupervisionSnapshot>,
    /// The fleet's residency state for this tenant (`None` for fleets
    /// without residency tiering — the tenant restores hot).
    pub residency: Option<ResidencySnapshot>,
}

impl TenantSnapshot {
    /// A snapshot with an empty queue and no fleet state (single-tenant
    /// harness checkpoints; the fleet fills the rest in).
    pub fn new(id: u64, scaler: ScalerSnapshot) -> Self {
        Self {
            id,
            scaler,
            queued: Vec::new(),
            queue: QueueStats::default(),
            supervision: None,
            residency: None,
        }
    }
}

/// Per-tenant residency state persisted with the tenant, so a
/// restored fleet resumes its hot/cold tiering exactly: a cold tenant comes
/// back cold (resident in memory, re-paged lazily), a hot tenant's idle
/// streak continues where it left off.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResidencySnapshot {
    /// Whether the tenant was cold (hibernated) at checkpoint time.
    pub cold: bool,
    /// Consecutive idle rounds observed while hot (cold-entry countdown).
    pub idle_streak: u64,
    /// The scheduled wake time of a cold tenant; `None` encodes "never
    /// without external input" (`f64::INFINITY` does not round-trip JSON).
    pub wake_at: Option<f64>,
    /// The fleet round the tenant went cold in (0 while hot).
    pub since_round: u64,
}

/// A tenant's quarantine: entered after K consecutive failures, probed on
/// an exponential-backoff schedule until a probe round succeeds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuarantineState {
    /// The fleet round the tenant was quarantined in.
    pub since_round: u64,
    /// Current backoff, in rounds, between probes (doubles on every failed
    /// probe, capped by the supervisor's `max_backoff`).
    pub backoff: u64,
    /// The fleet round at which the next recovery probe runs.
    pub next_probe: u64,
}

/// Per-tenant supervision state persisted with the tenant, so
/// a restored fleet resumes failure counting, quarantine backoff and
/// degraded-mode planning exactly where the checkpointed fleet stopped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SupervisionSnapshot {
    /// Consecutive supervised failures (cold-start `NotTrained` excluded).
    pub consecutive_failures: u32,
    /// The active quarantine, if any.
    pub quarantine: Option<QuarantineState>,
    /// Total supervised failures over the tenant's lifetime.
    pub failures: u64,
    /// How many of those failures were caught panics.
    pub panics: u64,
    /// Recovery probes attempted while quarantined.
    pub probes: u64,
    /// Successful recoveries (a probe round that planned cleanly).
    pub recoveries: u64,
    /// Rounds served by the degraded plan-stickiness fallback.
    pub degraded_rounds: u64,
    /// The tenant's last successful plan — the degraded-mode fallback.
    pub last_good_plan: Option<PlanningRound>,
}

/// Manifest entry for one shard file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardEntry {
    /// Shard file path relative to the checkpoint directory.
    pub file: String,
    /// Number of tenants stored in the shard.
    pub tenants: usize,
    /// FNV-1a 64-bit checksum of the shard file's bytes, lowercase hex.
    pub checksum: String,
    /// Size of the shard file's bytes.
    pub bytes: u64,
    /// Always `None`: every checkpoint writes every shard. Kept only until
    /// a benchmark change updates `perfbench/`, which still reads it.
    pub reused_from: Option<u64>,
}

/// The checkpoint manifest: the single swap point that makes a generation
/// current.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Checkpoint format version ([`CHECKPOINT_FORMAT_VERSION`]).
    pub version: u32,
    /// Monotonic checkpoint generation; generation `N` lives in `gen-{N}/`.
    pub generation: u64,
    /// Total tenants across all shards.
    pub tenant_count: usize,
    /// The shard files of this generation, in tenant order.
    pub shards: Vec<ShardEntry>,
    /// The arrival-bus configuration of the checkpointed fleet, needed to
    /// rebuild the queues on restore.
    pub bus: BusConfig,
    /// The fleet's round counter at checkpoint time (0 for a bare tenant
    /// set).
    pub round: u64,
    /// The fleet's residency configuration; `None` for fleets without
    /// residency tiering. Restore re-enables tiering from it.
    pub residency: Option<ResidencyConfig>,
    /// The fleet's supervision policy.
    pub supervisor: SupervisorConfig,
    /// The fleet's fault plan; `None` when injection was off.
    pub faults: Option<FaultPlan>,
}

/// Everything a manifest records about the fleet beside its shards: the
/// round counter and the wiring a restore re-arms, each written to the
/// manifest field of the same name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FleetWiring {
    /// The arrival-bus configuration.
    pub bus: BusConfig,
    /// The fleet round counter.
    pub round: u64,
    /// The residency policy (fleets with residency tiering).
    pub residency: Option<ResidencyConfig>,
    /// The supervision policy.
    pub supervisor: SupervisorConfig,
    /// The fault plan (fleets with fault injection on).
    pub faults: Option<FaultPlan>,
}

/// Knobs for [`CheckpointStore::write_with`] beyond the snapshot set.
#[derive(Debug, Clone, Copy, Default)]
pub struct WriteOptions<'a> {
    /// Consecutive tenants per shard file (≥ 1; 0 is clamped to 1).
    pub tenants_per_shard: usize,
    /// Worker budget for parallel shard serialization.
    pub workers: usize,
    /// Persistent worker pool to serialize on (falls back to scoped
    /// threads when `None`).
    pub pool: Option<&'a WorkerPool>,
    /// What the manifest records about the fleet (round 0 and the
    /// defaults for a bare tenant set).
    pub fleet: FleetWiring,
}

/// FNV-1a 64-bit hash — small, dependency-free, and plenty for detecting
/// truncation and bit rot in shard files (not a cryptographic integrity
/// guarantee). Also the hash behind trace model fingerprints
/// (`crate::replay::model_fingerprint`) and fault-injection file tags.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Parse a `gen-NNNNNN` directory name into its generation number.
fn parse_generation_dir(name: &str) -> Option<u64> {
    name.strip_prefix("gen-")?.parse().ok()
}

fn io_err(context: &str, e: &std::io::Error) -> OnlineError {
    OnlineError::Checkpoint {
        shard: None,
        message: format!("{context}: {e}"),
    }
}

/// The filesystem surface the checkpoint store runs on. The default
/// [`OsStorage`] forwards to `std::fs`; chaos tests substitute a faulty
/// implementation ([`crate::faults::FaultyStorage`]) so injected
/// `io::ErrorKind`s exercise the retry and atomic-swap paths
/// deterministically.
pub trait CheckpointStorage: std::fmt::Debug + Send + Sync {
    /// `fs::create_dir_all`.
    fn create_dir_all(&self, path: &Path) -> std::io::Result<()>;
    /// Create (truncate) `path`, write all of `bytes`, fsync the file.
    fn write(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()>;
    /// `fs::rename` — the atomic-swap primitive.
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()>;
    /// `fs::remove_dir_all`.
    fn remove_dir_all(&self, path: &Path) -> std::io::Result<()>;
    /// Fsync a directory (durability of renames/creates inside it).
    fn sync_dir(&self, path: &Path) -> std::io::Result<()>;
    /// `fs::read`.
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>>;
    /// Entry names (not full paths) of a directory.
    fn read_dir_names(&self, path: &Path) -> std::io::Result<Vec<String>>;
    /// Never called: shard reuse was removed (every checkpoint writes
    /// every shard). Kept only until a benchmark change updates
    /// `perfbench/`, which still implements it.
    fn hard_link(&self, src: &Path, dst: &Path) -> std::io::Result<()> {
        let _ = (src, dst);
        Err(unsupported("hard_link"))
    }
    /// Never called: shard reuse was removed (every checkpoint writes
    /// every shard). Kept only until a benchmark change updates
    /// `perfbench/`, which still implements it.
    fn copy(&self, src: &Path, dst: &Path) -> std::io::Result<()> {
        let _ = (src, dst);
        Err(unsupported("copy"))
    }
    /// Never called: the retention guard's size check went with shard
    /// reuse. Kept only until a benchmark change updates `perfbench/`,
    /// which still implements it.
    fn file_size(&self, path: &Path) -> std::io::Result<u64> {
        let _ = path;
        Err(unsupported("file_size"))
    }
}

fn unsupported(op: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        format!("{op} unsupported by this storage backend"),
    )
}

/// [`CheckpointStorage`] over the real filesystem.
#[derive(Debug, Default, Clone, Copy)]
pub struct OsStorage;

impl CheckpointStorage for OsStorage {
    fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
        fs::create_dir_all(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let mut file = fs::File::create(path)?;
        file.write_all(bytes)?;
        file.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        fs::rename(from, to)
    }

    fn remove_dir_all(&self, path: &Path) -> std::io::Result<()> {
        fs::remove_dir_all(path)
    }

    fn sync_dir(&self, path: &Path) -> std::io::Result<()> {
        fs::File::open(path)?.sync_all()
    }

    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn read_dir_names(&self, path: &Path) -> std::io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(path)? {
            if let Some(name) = entry?.file_name().to_str() {
                names.push(name.to_string());
            }
        }
        Ok(names)
    }
}

/// Counters behind [`CheckpointStore::io_stats`], shared across clones of
/// the store.
#[derive(Debug, Default)]
struct IoCounters {
    retries: AtomicU64,
    generation_fallbacks: AtomicU64,
    notes: Mutex<Vec<String>>,
}

/// Self-healing accounting for one checkpoint store: how often writes had
/// to retry and restores fell back to an older generation. Demo binaries
/// surface non-zero counters as warnings.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CheckpointIoStats {
    /// Shard, manifest and page write attempts beyond the first (bounded
    /// backoff).
    pub retries: u64,
    /// Restores served from an older generation because the current one
    /// was corrupt.
    pub generation_fallbacks: u64,
}

/// Newest generations the sweep keeps on disk: the current one plus the
/// previous one, so scan-back recovery always has a fallback.
const KEEP_GENERATIONS: u64 = 2;

/// Write `bytes` to `path` atomically — temp file in the same directory,
/// fsync, rename, so a crash mid-write leaves either the old file or no
/// file, never a torn one — retrying with bounded backoff on transient
/// failures. Every attempt beyond the first is counted in `retries`.
fn write_atomic(
    storage: &dyn CheckpointStorage,
    path: &Path,
    bytes: &[u8],
    retries: &AtomicU64,
) -> Result<(), OnlineError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut last = None;
    for attempt in 0..WRITE_ATTEMPTS {
        if attempt > 0 {
            retries.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(RETRY_BACKOFF * attempt);
        }
        if let Err(e) = storage.write(&tmp, bytes) {
            last = Some(io_err(&format!("write {}", tmp.display()), &e));
            continue;
        }
        match storage.rename(&tmp, path) {
            Ok(()) => return Ok(()),
            Err(e) => {
                last = Some(io_err(
                    &format!("rename {} -> {}", tmp.display(), path.display()),
                    &e,
                ));
            }
        }
    }
    Err(last.expect("at least one attempt ran"))
}

/// A checkpoint directory: one manifest plus generation subdirectories of
/// shard files.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    storage: Arc<dyn CheckpointStorage>,
    io: Arc<IoCounters>,
}

impl CheckpointStore {
    /// Open (or designate) a checkpoint directory. The directory is created
    /// on first write, not here.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self::with_storage(dir, Arc::new(OsStorage))
    }

    /// [`CheckpointStore::new`] on an explicit [`CheckpointStorage`]
    /// implementation (fault injection in chaos tests).
    pub fn with_storage(dir: impl Into<PathBuf>, storage: Arc<dyn CheckpointStorage>) -> Self {
        Self {
            dir: dir.into(),
            storage,
            io: Arc::new(IoCounters::default()),
        }
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Self-healing accounting since this store (or a clone of it) was
    /// created: write retries, generation fallbacks.
    pub fn io_stats(&self) -> CheckpointIoStats {
        CheckpointIoStats {
            retries: self.io.retries.load(Ordering::Relaxed),
            generation_fallbacks: self.io.generation_fallbacks.load(Ordering::Relaxed),
        }
    }

    /// Drain the human-readable notes recorded by self-healing actions
    /// (e.g. which corrupt generation a restore skipped).
    pub fn take_notes(&self) -> Vec<String> {
        std::mem::take(&mut *self.io.notes.lock().expect("checkpoint note lock poisoned"))
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join("manifest.json")
    }

    /// Whether a current checkpoint (a manifest) exists.
    pub fn exists(&self) -> bool {
        self.dir_names()
            .is_ok_and(|names| names.iter().any(|name| name == "manifest.json"))
    }

    /// Entry names of the checkpoint directory, listed through the storage
    /// backend (so a non-OS storage sees its own files); a missing
    /// directory has none.
    fn dir_names(&self) -> Result<Vec<String>, OnlineError> {
        match self.storage.read_dir_names(&self.dir) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
            listed => listed.map_err(|e| io_err(&format!("list {}", self.dir.display()), &e)),
        }
    }

    /// [`write_atomic`] on this store's storage, its retries counted in
    /// [`CheckpointStore::io_stats`].
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<(), OnlineError> {
        write_atomic(&*self.storage, path, bytes, &self.io.retries)
    }

    fn sync_dir(&self, dir: &Path) -> Result<(), OnlineError> {
        self.storage
            .sync_dir(dir)
            .map_err(|e| io_err(&format!("sync dir {}", dir.display()), &e))
    }

    /// Parse and validate manifest text (shared by the root manifest and
    /// the per-generation copies).
    fn parse_manifest(text: &str) -> Result<Manifest, OnlineError> {
        let manifest: Manifest =
            serde_json::from_str(text).map_err(|e| OnlineError::Checkpoint {
                shard: None,
                message: format!("manifest parse failure: {e}"),
            })?;
        if manifest.version != CHECKPOINT_FORMAT_VERSION {
            return Err(OnlineError::UnsupportedSnapshotVersion {
                found: manifest.version,
                supported: CHECKPOINT_FORMAT_VERSION,
            });
        }
        let shard_total: usize = manifest.shards.iter().map(|s| s.tenants).sum();
        if shard_total != manifest.tenant_count {
            return Err(OnlineError::Checkpoint {
                shard: None,
                message: format!(
                    "manifest tenant count {} disagrees with shard totals {}",
                    manifest.tenant_count, shard_total
                ),
            });
        }
        Ok(manifest)
    }

    /// Read and validate the current manifest.
    pub fn read_manifest(&self) -> Result<Manifest, OnlineError> {
        let path = self.manifest_path();
        let bytes = self
            .storage
            .read(&path)
            .map_err(|e| io_err(&format!("read {}", path.display()), &e))?;
        let text = std::str::from_utf8(&bytes).map_err(|e| OnlineError::Checkpoint {
            shard: None,
            message: format!("manifest is not UTF-8: {e}"),
        })?;
        Self::parse_manifest(text)
    }

    /// Write a new checkpoint generation holding `snapshots`, sharded into
    /// groups of `tenants_per_shard`, serializing shards across up to
    /// `workers` threads. Returns the manifest that became current.
    ///
    /// The previous generation stays intact (and current) until the final
    /// manifest rename; its files are deleted only after the swap succeeds.
    pub fn write(
        &self,
        snapshots: &[TenantSnapshot],
        tenants_per_shard: usize,
        workers: usize,
    ) -> Result<Manifest, OnlineError> {
        self.write_with(
            snapshots,
            &WriteOptions {
                tenants_per_shard,
                workers,
                ..WriteOptions::default()
            },
        )
    }

    /// [`CheckpointStore::write`] with the full option set: a persistent
    /// worker pool to serialize on and the fleet wiring to record. Every
    /// shard is freshly serialized, fsynced and checksummed.
    pub fn write_with(
        &self,
        snapshots: &[TenantSnapshot],
        options: &WriteOptions<'_>,
    ) -> Result<Manifest, OnlineError> {
        if snapshots.is_empty() {
            return Err(OnlineError::InvalidConfig(
                "cannot checkpoint an empty tenant set",
            ));
        }
        let tenants_per_shard = options.tenants_per_shard.max(1);
        self.storage
            .create_dir_all(&self.dir)
            .map_err(|e| io_err(&format!("create {}", self.dir.display()), &e))?;
        // No manifest at all → first generation. An *unreadable* or
        // unsupported manifest must fail the write instead: silently
        // restarting at generation 1 would break the documented
        // monotonicity, and this build would clobber a checkpoint of
        // another format version rather than failing loudly. A listing failure other
        // than a missing directory fails the write for the same reason.
        let names = self.dir_names()?;
        let generation = if names.iter().any(|name| name == "manifest.json") {
            self.read_manifest()?.generation + 1
        } else {
            1
        };
        let gen_name = format!("gen-{generation:06}");
        let gen_dir = self.dir.join(&gen_name);
        // Clear remnants of a crashed write that reached this generation
        // number but never swapped its manifest in.
        if names.contains(&gen_name) {
            self.storage
                .remove_dir_all(&gen_dir)
                .map_err(|e| io_err(&format!("clear stale {}", gen_dir.display()), &e))?;
        }
        self.storage
            .create_dir_all(&gen_dir)
            .map_err(|e| io_err(&format!("create {}", gen_dir.display()), &e))?;

        let groups: Vec<(usize, &[TenantSnapshot])> =
            snapshots.chunks(tenants_per_shard).enumerate().collect();
        let write_shard = |&(group, chunk): &(usize, &[TenantSnapshot])| {
            let file = format!("{gen_name}/shard-{group:04}.json");
            let json = serde_json::to_string(chunk).map_err(|e| OnlineError::Checkpoint {
                shard: Some(file.clone()),
                message: format!("serialize failure: {e}"),
            })?;
            let bytes = json.as_bytes();
            let checksum = format!("{:016x}", fnv1a64(bytes));
            self.write_atomic(&self.dir.join(&file), bytes)?;
            Ok(ShardEntry {
                file,
                tenants: chunk.len(),
                checksum,
                bytes: bytes.len() as u64,
                reused_from: None,
            })
        };
        let shard_results: Vec<Result<ShardEntry, OnlineError>> = match options.pool {
            Some(pool) => pool.parallel_map(&groups, options.workers, write_shard),
            None => parallel_map(&groups, options.workers, write_shard),
        };
        let shards = shard_results
            .into_iter()
            .collect::<Result<Vec<_>, OnlineError>>()?;

        let manifest = Manifest {
            version: CHECKPOINT_FORMAT_VERSION,
            generation,
            tenant_count: snapshots.len(),
            shards,
            bus: options.fleet.bus,
            round: options.fleet.round,
            residency: options.fleet.residency,
            supervisor: options.fleet.supervisor,
            faults: options.fleet.faults,
        };
        let manifest_json =
            serde_json::to_string(&manifest).map_err(|e| OnlineError::Checkpoint {
                shard: None,
                message: format!("manifest serialize failure: {e}"),
            })?;
        // Each generation directory carries its own manifest copy, written
        // before the root swap: if the root manifest is later corrupted,
        // restore can scan the retained generations and rebuild from the
        // newest one that still loads (`load_shards`' fallback path).
        self.write_atomic(&gen_dir.join("manifest.json"), manifest_json.as_bytes())?;
        // Durability ordering for power-loss safety: persist the shard
        // directory entries, then the manifest swap, and only then delete
        // the old generation. Without the directory fsyncs, the old
        // generation's unlinks could become durable before the new
        // manifest's rename, leaving the on-disk manifest pointing at
        // deleted shards after a crash.
        self.sync_dir(&gen_dir)?;
        self.write_atomic(&self.manifest_path(), manifest_json.as_bytes())?;
        self.sync_dir(&self.dir)?;
        self.sweep_old_generations(manifest.generation);
        Ok(manifest)
    }

    /// Best-effort removal of old generation directories: the newest
    /// [`KEEP_GENERATIONS`] generations up to `current` are retained
    /// (current plus previous, the scan-back fallback), everything older
    /// is deleted. Only runs once `current` is swapped in, and `current`
    /// needs nothing older: every shard in it was just serialized, fsynced
    /// and checksummed. A failure to delete only wastes disk, never
    /// correctness.
    fn sweep_old_generations(&self, current: u64) {
        let cutoff = (current + 1).saturating_sub(KEEP_GENERATIONS);
        let Ok(names) = self.storage.read_dir_names(&self.dir) else {
            return;
        };
        for name in names {
            if parse_generation_dir(&name).is_some_and(|g| g < cutoff) {
                let _ = self.storage.remove_dir_all(&self.dir.join(&name));
            }
        }
    }

    /// Load one shard, verifying its checksum before parsing. Every failure
    /// is scoped to the shard's file name.
    pub fn load_shard(&self, entry: &ShardEntry) -> Result<Vec<TenantSnapshot>, OnlineError> {
        let shard_err = |message: String| OnlineError::Checkpoint {
            shard: Some(entry.file.clone()),
            message,
        };
        let path = self.dir.join(&entry.file);
        let bytes = self
            .storage
            .read(&path)
            .map_err(|e| shard_err(format!("read failure: {e}")))?;
        let computed = format!("{:016x}", fnv1a64(&bytes));
        if computed != entry.checksum {
            return Err(shard_err(format!(
                "checksum mismatch: manifest says {}, file hashes to {computed} \
                 (truncated or corrupt shard)",
                entry.checksum
            )));
        }
        let text =
            std::str::from_utf8(&bytes).map_err(|e| shard_err(format!("invalid UTF-8: {e}")))?;
        let snapshots: Vec<TenantSnapshot> =
            serde_json::from_str(text).map_err(|e| shard_err(format!("parse failure: {e}")))?;
        if snapshots.len() != entry.tenants {
            return Err(shard_err(format!(
                "shard holds {} tenants, manifest says {}",
                snapshots.len(),
                entry.tenants
            )));
        }
        Ok(snapshots)
    }

    /// Load every shard of the current manifest across up to `workers`
    /// threads, returning one `Result` per shard (in manifest order) so a
    /// corrupt shard leaves the others loadable and attributable.
    ///
    /// **Self-healing fallback:** when the current generation cannot be
    /// fully loaded (unreadable root manifest, or any corrupt shard), the
    /// retained older generations are scanned newest-first via their
    /// per-generation manifest copies; the newest one that loads completely
    /// is returned instead, with an error-level note naming the generation
    /// that was skipped (also counted in [`CheckpointStore::io_stats`] and
    /// queued for [`CheckpointStore::take_notes`]). Only when no generation
    /// is restorable does the original failure surface.
    ///
    /// A root manifest of another format version is not a broken
    /// generation but a directory this build cannot read: it fails at once
    /// with [`OnlineError::UnsupportedSnapshotVersion`], as
    /// [`CheckpointStore::write`] does, instead of restoring an older
    /// generation.
    #[allow(clippy::type_complexity)]
    pub fn load_shards(
        &self,
        workers: usize,
    ) -> Result<(Manifest, Vec<Result<Vec<TenantSnapshot>, OnlineError>>), OnlineError> {
        let primary = match self.read_manifest() {
            Err(e @ OnlineError::UnsupportedSnapshotVersion { .. }) => return Err(e),
            Ok(manifest) => {
                let results =
                    parallel_map(&manifest.shards, workers, |entry| self.load_shard(entry));
                if results.iter().all(Result::is_ok) {
                    return Ok((manifest, results));
                }
                Ok((manifest, results))
            }
            Err(e) => Err(e),
        };
        let (current, broken) = match &primary {
            Ok((manifest, results)) => {
                let first = results
                    .iter()
                    .find_map(|r| r.as_ref().err())
                    .expect("a shard failure put us on the fallback path");
                (Some(manifest.generation), first.to_string())
            }
            Err(e) => (None, e.to_string()),
        };
        for (generation, manifest) in self.fallback_generations(current) {
            let results = parallel_map(&manifest.shards, workers, |entry| self.load_shard(entry));
            if results.iter().all(Result::is_ok) {
                let skipped = current.map_or_else(
                    || "current generation".to_string(),
                    |g| format!("generation {g}"),
                );
                let note = format!(
                    "checkpoint fallback: {skipped} is not restorable ({broken}); \
                     restored generation {generation} instead"
                );
                self.io.generation_fallbacks.fetch_add(1, Ordering::Relaxed);
                self.io
                    .notes
                    .lock()
                    .expect("checkpoint note lock poisoned")
                    .push(note);
                return Ok((manifest, results));
            }
        }
        primary
    }

    /// Older generations that might still be restorable, newest first:
    /// every retained `gen-*` directory with a readable manifest copy,
    /// strictly older than `current` (a generation newer than the root
    /// manifest was never swapped in and must not be restored).
    fn fallback_generations(&self, current: Option<u64>) -> Vec<(u64, Manifest)> {
        let Ok(names) = self.storage.read_dir_names(&self.dir) else {
            return Vec::new();
        };
        let mut generations: Vec<u64> = names
            .iter()
            .filter_map(|name| parse_generation_dir(name))
            .filter(|&g| current.is_none_or(|cur| g < cur))
            .collect();
        generations.sort_unstable_by(|a, b| b.cmp(a));
        generations
            .into_iter()
            .filter_map(|generation| {
                let path = self
                    .dir
                    .join(format!("gen-{generation:06}"))
                    .join("manifest.json");
                let bytes = self.storage.read(&path).ok()?;
                let text = std::str::from_utf8(&bytes).ok()?;
                let manifest = Self::parse_manifest(text).ok()?;
                (manifest.generation == generation).then_some((generation, manifest))
            })
            .collect()
    }

    /// Load the complete checkpoint: every tenant of every shard, in tenant
    /// order. The first shard failure aborts the load with an error naming
    /// that shard.
    pub fn load(&self, workers: usize) -> Result<Vec<TenantSnapshot>, OnlineError> {
        let (manifest, per_shard) = self.load_shards(workers)?;
        let mut all = Vec::with_capacity(manifest.tenant_count);
        for result in per_shard {
            all.extend(result?);
        }
        Ok(all)
    }
}

/// Format version of hibernation page files.
pub const HIBERNATION_FORMAT_VERSION: u32 = 3;

/// On-disk envelope of one hibernated tenant's page file.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct HibernatedTenant {
    version: u32,
    tenant: u64,
    scaler: ScalerSnapshot,
}

/// Proof of a successful page-out: the content checksum the fleet must
/// present to page the tenant back in (a paged-out tenant's only in-memory
/// trace of its state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageReceipt {
    /// FNV-1a 64-bit checksum of the page file's bytes.
    pub checksum: u64,
}

/// Per-tenant page files for the fleet's hibernating (cold) tier.
///
/// Unlike generation checkpoints — whole-fleet, round-boundary,
/// crash-recovery artifacts — pages are *per-tenant* and written exactly
/// when a tenant goes cold: `tenant-{id:08}.json`, one atomic temp+rename
/// write each, overwritten in place on the next hibernation and never
/// deleted (a stale page is unreachable without its receipt). Page-in
/// verifies the receipt checksum before parsing, so a torn or tampered
/// page surfaces as a checkpoint error and the tenant stays paged (the
/// wake trigger persists, so the read retries next round).
#[derive(Debug, Clone)]
pub struct HibernationStore {
    dir: PathBuf,
    storage: Arc<dyn CheckpointStorage>,
    /// Page write retries not yet taken, shared across clones of the store.
    retries: Arc<AtomicU64>,
}

impl HibernationStore {
    /// Open (or designate) a page directory on the real filesystem. The
    /// directory is created on first page-out, not here.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self::with_storage(dir, Arc::new(OsStorage))
    }

    /// [`HibernationStore::new`] on an explicit storage implementation
    /// (fault injection in chaos tests).
    pub fn with_storage(dir: impl Into<PathBuf>, storage: Arc<dyn CheckpointStorage>) -> Self {
        Self {
            dir: dir.into(),
            storage,
            retries: Arc::default(),
        }
    }

    /// Take the page write retries counted since the last take (the
    /// fleet folds them into its [`CheckpointIoStats::retries`]).
    pub fn take_retries(&self) -> u64 {
        self.retries.swap(0, Ordering::Relaxed)
    }

    /// The page directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn page_path(&self, tenant: u64) -> PathBuf {
        self.dir.join(format!("tenant-{tenant:08}.json"))
    }

    /// Write `tenant`'s scaler snapshot to its page file (atomic
    /// temp+rename, retried with bounded backoff like shard writes) and
    /// return the receipt that pages it back in.
    pub fn page_out(
        &self,
        tenant: u64,
        scaler: ScalerSnapshot,
    ) -> Result<PageReceipt, OnlineError> {
        self.storage
            .create_dir_all(&self.dir)
            .map_err(|e| io_err(&format!("create {}", self.dir.display()), &e))?;
        let envelope = HibernatedTenant {
            version: HIBERNATION_FORMAT_VERSION,
            tenant,
            scaler,
        };
        let json = serde_json::to_string(&envelope).map_err(|e| OnlineError::Checkpoint {
            shard: None,
            message: format!("page serialize failure (tenant {tenant}): {e}"),
        })?;
        let path = self.page_path(tenant);
        write_atomic(&*self.storage, &path, json.as_bytes(), &self.retries)?;
        Ok(PageReceipt {
            checksum: fnv1a64(json.as_bytes()),
        })
    }

    /// Read `tenant`'s page file back, verifying the receipt checksum
    /// before parsing. Every failure names the page file.
    pub fn page_in(
        &self,
        tenant: u64,
        receipt: PageReceipt,
    ) -> Result<ScalerSnapshot, OnlineError> {
        let path = self.page_path(tenant);
        let page_err = |message: String| OnlineError::Checkpoint {
            shard: Some(path.display().to_string()),
            message,
        };
        let bytes = self
            .storage
            .read(&path)
            .map_err(|e| page_err(format!("read failure: {e}")))?;
        let computed = fnv1a64(&bytes);
        if computed != receipt.checksum {
            return Err(page_err(format!(
                "checksum mismatch: receipt says {:016x}, file hashes to {computed:016x} \
                 (torn or stale page)",
                receipt.checksum
            )));
        }
        let text =
            std::str::from_utf8(&bytes).map_err(|e| page_err(format!("invalid UTF-8: {e}")))?;
        let envelope: HibernatedTenant =
            serde_json::from_str(text).map_err(|e| page_err(format!("parse failure: {e}")))?;
        if envelope.version != HIBERNATION_FORMAT_VERSION {
            return Err(OnlineError::UnsupportedSnapshotVersion {
                found: envelope.version,
                supported: HIBERNATION_FORMAT_VERSION,
            });
        }
        if envelope.tenant != tenant {
            return Err(page_err(format!(
                "page holds tenant {}, expected {tenant}",
                envelope.tenant
            )));
        }
        Ok(envelope.scaler)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scaler::tests::fast_config;
    use crate::scaler::OnlineScaler;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("robustscaler-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn some_snapshots(n: u64) -> Vec<TenantSnapshot> {
        (0..n)
            .map(|id| {
                let mut scaler = OnlineScaler::new(fast_config(), 0.0).unwrap();
                // A distinct traffic level per tenant keeps snapshots apart.
                let gap = 3.0 + 0.25 * id as f64;
                let arrivals: Vec<f64> = (0..200).map(|i| i as f64 * gap).collect();
                scaler.ingest_batch(&arrivals);
                scaler.plan_round(600.0, 0).unwrap();
                TenantSnapshot::new(id, scaler.snapshot())
            })
            .collect()
    }

    #[test]
    fn write_read_round_trip_with_sharding() {
        let dir = temp_dir("roundtrip");
        let store = CheckpointStore::new(&dir);
        assert!(!store.exists());
        let snapshots = some_snapshots(5);
        let manifest = store.write(&snapshots, 2, 2).unwrap();
        assert!(store.exists());
        assert_eq!(manifest.generation, 1);
        assert_eq!(manifest.tenant_count, 5);
        assert_eq!(manifest.shards.len(), 3); // 2 + 2 + 1
        let loaded = store.load(3).unwrap();
        assert_eq!(loaded, snapshots);
        // A second write bumps the generation; the previous generation is
        // retained as the restore fallback.
        let manifest2 = store.write(&snapshots, 2, 1).unwrap();
        assert_eq!(manifest2.generation, 2);
        assert!(dir.join("gen-000001").exists());
        assert_eq!(store.load(1).unwrap(), snapshots);
        // A third write sweeps generation 1 (only current + previous stay).
        let manifest3 = store.write(&snapshots, 2, 1).unwrap();
        assert_eq!(manifest3.generation, 3);
        assert!(!dir.join("gen-000001").exists());
        assert!(dir.join("gen-000002").exists());
        assert_eq!(store.load(1).unwrap(), snapshots);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_shard_is_detected_and_named_others_loadable() {
        let dir = temp_dir("corrupt");
        let store = CheckpointStore::new(&dir);
        let snapshots = some_snapshots(4);
        let manifest = store.write(&snapshots, 2, 1).unwrap();
        // Truncate the first shard.
        let victim = dir.join(&manifest.shards[0].file);
        let bytes = fs::read(&victim).unwrap();
        fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();
        let (_, per_shard) = store.load_shards(2).unwrap();
        match &per_shard[0] {
            Err(OnlineError::Checkpoint {
                shard: Some(shard),
                message,
            }) => {
                assert_eq!(shard, &manifest.shards[0].file);
                assert!(message.contains("checksum mismatch"), "{message}");
            }
            other => panic!("expected a checksum error, got {other:?}"),
        }
        // The untouched shard still loads.
        assert_eq!(per_shard[1].as_ref().unwrap().len(), 2);
        // And the all-or-nothing load names the bad shard.
        let err = store.load(2).unwrap_err();
        assert!(err.to_string().contains(&manifest.shards[0].file));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_current_generation_falls_back_to_previous() {
        let dir = temp_dir("genfall");
        let store = CheckpointStore::new(&dir);
        let mut snapshots = some_snapshots(4);
        let first = store.write(&snapshots, 2, 1).unwrap();
        let first_loaded = store.load(2).unwrap();
        snapshots[0].scaler.stats.planning_rounds += 1;
        let second = store.write(&snapshots, 2, 1).unwrap();
        assert_eq!(second.generation, 2);
        // Corrupt a shard of the current generation: the load falls back to
        // the retained generation 1, names what it skipped, and counts it.
        let victim = dir.join(&second.shards[1].file);
        let bytes = fs::read(&victim).unwrap();
        fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();
        let (manifest, per_shard) = store.load_shards(2).unwrap();
        assert_eq!(manifest.generation, first.generation);
        assert!(per_shard.iter().all(Result::is_ok));
        assert_eq!(store.io_stats().generation_fallbacks, 1);
        let notes = store.take_notes();
        assert_eq!(notes.len(), 1);
        assert!(notes[0].contains("generation 2"), "{}", notes[0]);
        assert!(notes[0].contains("restored generation 1"), "{}", notes[0]);
        assert!(store.take_notes().is_empty());
        assert_eq!(store.load(2).unwrap(), first_loaded);
        // A corrupt ROOT manifest scans all retained generations newest
        // first; generation 2 is still corrupt, so generation 1 wins again.
        fs::write(dir.join("manifest.json"), b"{ not json").unwrap();
        let (manifest, per_shard) = store.load_shards(2).unwrap();
        assert_eq!(manifest.generation, 1);
        assert!(per_shard.iter().all(Result::is_ok));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_version_and_consistency_are_checked() {
        let dir = temp_dir("manifest");
        let store = CheckpointStore::new(&dir);
        let snapshots = some_snapshots(2);
        store.write(&snapshots, 8, 1).unwrap();
        let mut manifest = store.read_manifest().unwrap();
        manifest.version += 1;
        fs::write(
            dir.join("manifest.json"),
            serde_json::to_string(&manifest).unwrap().as_bytes(),
        )
        .unwrap();
        assert!(matches!(
            store.read_manifest(),
            Err(OnlineError::UnsupportedSnapshotVersion { .. })
        ));
        manifest.version -= 1;
        manifest.tenant_count += 1;
        fs::write(
            dir.join("manifest.json"),
            serde_json::to_string(&manifest).unwrap().as_bytes(),
        )
        .unwrap();
        assert!(store.read_manifest().is_err());
        // A checkpoint of the previous format version, root manifest and
        // generation copy alike, is neither restorable nor writable.
        manifest.tenant_count -= 1;
        manifest.version = CHECKPOINT_FORMAT_VERSION - 1;
        let old = serde_json::to_string(&manifest).unwrap();
        fs::write(dir.join("manifest.json"), &old).unwrap();
        fs::write(dir.join("gen-000001/manifest.json"), &old).unwrap();
        assert!(matches!(
            crate::fleet::TenantFleet::restore(&dir, &fast_config()),
            Err(OnlineError::UnsupportedSnapshotVersion { found, .. })
                if found == CHECKPOINT_FORMAT_VERSION - 1
        ));
        assert!(matches!(
            store.write(&snapshots, 8, 1),
            Err(OnlineError::UnsupportedSnapshotVersion { .. })
        ));
        assert_eq!(fs::read_to_string(dir.join("manifest.json")).unwrap(), old);
        assert!(dir.join(&manifest.shards[0].file).exists());
        let _ = fs::remove_dir_all(&dir);

        // Two generations, the root and generation-2 manifests at a newer
        // format version: the restore fails naming that version instead of
        // falling back to the still-readable generation 1.
        let dir = temp_dir("manifest-newer");
        let store = CheckpointStore::new(&dir);
        store.write(&snapshots, 8, 1).unwrap();
        let mut manifest = store.write(&snapshots, 8, 1).unwrap();
        assert_eq!(manifest.generation, 2);
        manifest.version = CHECKPOINT_FORMAT_VERSION + 1;
        let newer = serde_json::to_string(&manifest).unwrap();
        fs::write(dir.join("manifest.json"), &newer).unwrap();
        fs::write(dir.join("gen-000002/manifest.json"), &newer).unwrap();
        assert!(matches!(
            crate::fleet::TenantFleet::restore(&dir, &fast_config()),
            Err(OnlineError::UnsupportedSnapshotVersion { found, .. })
                if found == CHECKPOINT_FORMAT_VERSION + 1
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_refuses_to_clobber_an_unreadable_manifest() {
        let dir = temp_dir("clobber");
        let store = CheckpointStore::new(&dir);
        let snapshots = some_snapshots(2);
        let first = store.write(&snapshots, 8, 1).unwrap();
        assert_eq!(first.generation, 1);
        // A corrupt (but present) manifest must fail the next write loudly —
        // never silently restart at generation 1 and sweep the directory.
        fs::write(dir.join("manifest.json"), b"{ not json").unwrap();
        assert!(store.write(&snapshots, 8, 1).is_err());
        assert!(dir.join(&first.shards[0].file).exists());
        // Same for a manifest from a newer format version.
        let mut manifest = first.clone();
        manifest.version = CHECKPOINT_FORMAT_VERSION + 1;
        fs::write(
            dir.join("manifest.json"),
            serde_json::to_string(&manifest).unwrap(),
        )
        .unwrap();
        assert!(matches!(
            store.write(&snapshots, 8, 1),
            Err(OnlineError::UnsupportedSnapshotVersion { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_checkpoint_reports_cleanly() {
        let store = CheckpointStore::new(temp_dir("missing"));
        assert!(!store.exists());
        assert!(matches!(
            store.read_manifest(),
            Err(OnlineError::Checkpoint { shard: None, .. })
        ));
    }
}
