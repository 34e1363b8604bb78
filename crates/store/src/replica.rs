//! One replica directory of a [`DurableKb`]: its files, its health, and
//! the disk operations that recovery and repair are built from.
//!
//! ## Layout
//!
//! A replica directory holds one *generation* of state (plus,
//! transiently, the previous one during compaction) and an init marker:
//!
//! ```text
//! snapshot-000042.tgks   one sealed TGCK frame (kind 0x30): sigma
//!                        fingerprint, sequence number, labeled nulls,
//!                        base instance, chased instance
//! wal-000042.tgkw        zero or more sealed TGCK frames (kind 0x31),
//!                        one per acknowledged batch, in sequence order
//! store.tgkm             init marker: this directory once held a store
//! ```
//!
//! A store with one replica uses its root directory as that replica (the
//! flat layout); with N ≥ 2 the replicas are `root/replica-00/` …
//! `root/replica-(N-1)/`, kept byte-identical.
//!
//! ## Generations
//!
//! [`install`] writes a generation: the WAL first, then the snapshot by
//! atomic rename. The rename is the commit point — a failure anywhere
//! before it leaves the replica's previous generation newest and
//! complete, so the handle can keep appending to the old WAL without
//! recovery ever preferring a snapshot that predates those appends.
//!
//! ## Health and repair
//!
//! A replica is `Healthy` (holds exactly the acknowledged timeline and
//! takes appends), `Lagging` (missed a frame or a failed step), or
//! `Wedged` (its handle died: a torn write that retries could not clear,
//! an injected [`FaultSite::ReplicaKill`](tgdkit_chase::FaultSite), or
//! [`DurableKb::kill_replica`]). Only healthy replicas take appends — an
//! append after a gap would break the sequence chain. `lag_bytes` counts
//! the acknowledged bytes (frames and snapshots) a replica missed; one
//! rule repairs every non-healthy replica:
//!
//! 1. lag 0 — it missed nothing acknowledged, so truncating its WAL to
//!    the acknowledged length repairs it in place;
//! 2. otherwise re-ship the current generation byte-for-byte from a
//!    healthy peer;
//! 3. otherwise (no healthy peer) reseed it from memory at the next
//!    generation — memory equals the last acknowledged state.

use crate::kb::State;
use crate::segment::{
    io_err, scan_frames, write_atomic, SegmentWriter, StoreError, KIND_SNAPSHOT, KIND_WAL_BATCH,
};
use crate::wal::WalBatch;
#[cfg(doc)]
use crate::DurableKb;
use std::collections::BTreeSet;
use std::io::Write;
use std::path::{Path, PathBuf};
use tgdkit_chase::checkpoint::{
    read_instance, seal, write_instance, CheckpointError, CheckpointReader, CheckpointWriter,
};
use tgdkit_chase::CancelToken;
use tgdkit_instance::Elem;
use tgdkit_logic::Schema;

/// Applies a killed replica sits out before opportunistic repair may
/// re-admit it (an explicit [`DurableKb::repair`] ignores this).
const KILL_REPAIR_SKIP: u64 = 2;

/// Marker file written with a replica's first generation; its presence
/// distinguishes "this directory once held a store whose files were lost"
/// (a typed recovery error — silently re-initializing would change
/// verdicts) from "this directory is genuinely fresh".
const MARKER_NAME: &str = "store.tgkm";
const MARKER: &[u8] = b"tgdkit-store-v1\n";

pub(crate) fn snapshot_name(generation: u64) -> String {
    format!("snapshot-{generation:06}.tgks")
}

pub(crate) fn wal_name(generation: u64) -> String {
    format!("wal-{generation:06}.tgkw")
}

/// One replica's availability state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaHealth {
    /// Holds exactly the acknowledged timeline; takes appends.
    Healthy,
    /// Missed a frame, a snapshot, or a repair; excluded from appends
    /// until repair.
    Lagging,
    /// The replica's handle is gone (killed, or a torn write that bounded
    /// retries could not clear); excluded from appends until repair.
    Wedged,
}

#[derive(Debug)]
pub(crate) struct Replica {
    pub(crate) dir: PathBuf,
    pub(crate) health: ReplicaHealth,
    /// Open WAL writer; `None` unless `Healthy`.
    pub(crate) wal: Option<SegmentWriter>,
    /// Acknowledged bytes this replica is missing.
    pub(crate) lag_bytes: u64,
    /// Consecutive failed repair attempts (drives the skip backoff).
    pub(crate) repair_attempts: u32,
    /// Applies to skip before the next opportunistic repair attempt.
    pub(crate) repair_skip: u64,
}

impl Replica {
    /// A replica not yet readied, missing `lag_bytes` acknowledged bytes.
    pub(crate) fn new(dir: PathBuf, lag_bytes: u64) -> Self {
        Replica {
            dir,
            health: ReplicaHealth::Lagging,
            wal: None,
            lag_bytes,
            repair_attempts: 0,
            repair_skip: 0,
        }
    }

    /// Marks the replica healthy, appending through `wal`.
    pub(crate) fn admit(&mut self, wal: SegmentWriter) {
        self.wal = Some(wal);
        self.health = ReplicaHealth::Healthy;
        self.lag_bytes = 0;
        self.repair_attempts = 0;
        self.repair_skip = 0;
    }

    /// Takes the replica out of the append path.
    pub(crate) fn demote(&mut self, health: ReplicaHealth) {
        self.health = health;
        self.wal = None;
    }

    /// Drops the replica cold, as if its node died; a killed node is not
    /// back on the next write.
    pub(crate) fn kill(&mut self) {
        self.demote(ReplicaHealth::Wedged);
        self.repair_skip = self.repair_skip.max(KILL_REPAIR_SKIP);
    }
}

pub(crate) fn encode_snapshot(sigma_fp: u64, seq: u64, state: &State) -> Vec<u8> {
    let mut w = CheckpointWriter::new();
    w.u64(sigma_fp);
    w.u64(seq);
    w.count(state.nulls.len());
    for e in &state.nulls {
        w.u32(e.0);
    }
    write_instance(&mut w, &state.base);
    write_instance(&mut w, &state.chased);
    seal(KIND_SNAPSHOT, &w.into_payload())
}

/// Decodes a snapshot payload into `(sigma fingerprint, seq, state)`.
fn decode_snapshot(payload: &[u8], schema: &Schema) -> Result<(u64, u64, State), CheckpointError> {
    let mut r = CheckpointReader::new(payload);
    let sigma_fp = r.u64()?;
    let seq = r.u64()?;
    let null_count = r.count(4)?;
    let mut nulls = BTreeSet::new();
    for _ in 0..null_count {
        nulls.insert(Elem(r.u32()?));
    }
    let base = read_instance(&mut r, schema)?;
    let chased = read_instance(&mut r, schema)?;
    if !r.is_exhausted() {
        return Err(CheckpointError::Malformed("trailing snapshot bytes"));
    }
    Ok((
        sigma_fp,
        seq,
        State {
            base,
            chased,
            nulls,
        },
    ))
}

/// What a replica directory held when probed.
pub(crate) enum Probe {
    /// No store files at all: safe to initialize.
    Fresh,
    /// Store files exist but no snapshot verifies (or they were deleted
    /// out from under the marker): repairable, never electable, never
    /// silently re-initialized.
    Damaged(StoreError),
    /// The newest verifying snapshot and its verified WAL prefix.
    Verified(Box<Prefix>),
}

/// A replica's verified acknowledged prefix: the newest snapshot that
/// verifies plus the WAL batches that checksum and sequence-chain after
/// it. Equal `(generation, acked())` implies byte-identical prefixes,
/// because WAL frames are a deterministic encoding of the batch sequence.
pub(crate) struct Prefix {
    pub(crate) generation: u64,
    /// The snapshot's sequence number.
    pub(crate) seq: u64,
    pub(crate) state: State,
    pub(crate) snapshot_bytes: u64,
    pub(crate) batches: Vec<WalBatch>,
    /// Length of the verified WAL prefix.
    pub(crate) wal_len: u64,
    /// `true` when the WAL held damage past `wal_len`.
    pub(crate) truncated: bool,
    /// Newer snapshot generations skipped because they failed to verify.
    pub(crate) fallbacks: u64,
}

impl Prefix {
    /// Batches acknowledged up to the end of the verified prefix.
    pub(crate) fn acked(&self) -> u64 {
        self.seq + self.batches.len() as u64
    }
}

/// Probes `dir` without folding or chasing anything. Corrupt snapshot
/// generations are skipped (newest verifying wins — generations are
/// monotone and snapshots self-validating, so no manifest is needed);
/// the WAL is cut at the first torn, corrupt, malformed or
/// out-of-sequence frame. A snapshot bound to another tgd set is a hard
/// error.
pub(crate) fn probe(
    dir: &Path,
    schema: &Schema,
    sigma_fp: u64,
    token: &CancelToken,
) -> Result<Probe, StoreError> {
    if !dir.is_dir() {
        return Ok(Probe::Fresh);
    }
    let mut generations = Vec::new();
    let mut acked_wal = false;
    for entry in std::fs::read_dir(dir).map_err(|e| io_err("read-dir", dir, e))? {
        let entry = entry.map_err(|e| io_err("read-dir", dir, e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(gen) = name
            .strip_prefix("snapshot-")
            .and_then(|rest| rest.strip_suffix(".tgks"))
            .and_then(|gen| gen.parse::<u64>().ok())
        {
            generations.push(gen);
        } else if name.starts_with("wal-") && name.ends_with(".tgkw") {
            // An empty WAL holds nothing acknowledged (a first install
            // interrupted before its snapshot commit leaves one).
            acked_wal |= entry.metadata().is_ok_and(|m| m.len() > 0);
        }
    }
    if generations.is_empty() {
        // A marker or an acknowledged WAL without any snapshot means
        // store files were deleted out from under us.
        return Ok(if dir.join(MARKER_NAME).exists() || acked_wal {
            Probe::Damaged(StoreError::Frame(CheckpointError::Malformed(
                "store directory lost every snapshot (marker or WAL present)",
            )))
        } else {
            Probe::Fresh
        });
    }
    generations.sort_unstable_by(|a, b| b.cmp(a));
    let mut last_error = CheckpointError::Truncated;
    let mut fallbacks = 0;
    for generation in generations {
        let path = dir.join(snapshot_name(generation));
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) => return Ok(Probe::Damaged(io_err("read", &path, e))),
        };
        let scan = scan_frames(&bytes, KIND_SNAPSHOT, token);
        let decoded = match (scan.frames.as_slice(), scan.damage) {
            ([(_, payload)], None) => decode_snapshot(payload, schema),
            (_, Some(damage)) => Err(damage),
            _ => Err(CheckpointError::Malformed("snapshot frame count")),
        };
        let (snap_fp, seq, state) = match decoded {
            Ok(decoded) => decoded,
            Err(e) => {
                fallbacks += 1;
                last_error = e;
                continue;
            }
        };
        if snap_fp != sigma_fp {
            return Err(StoreError::ContextMismatch("tgd set"));
        }
        let wal = read_or_empty(&dir.join(wal_name(generation)))?;
        let scan = scan_frames(&wal, KIND_WAL_BATCH, token);
        let mut wal_len = scan.valid_len;
        let mut truncated = scan.damage.is_some();
        let mut batches = Vec::with_capacity(scan.frames.len());
        for (offset, payload) in scan.frames {
            match WalBatch::decode_payload(payload, schema) {
                Ok(batch) if batch.seq == seq + batches.len() as u64 => batches.push(batch),
                // Structurally broken or out-of-sequence: everything from
                // here on is untrustworthy — truncate as damage.
                _ => {
                    wal_len = offset;
                    truncated = true;
                    break;
                }
            }
        }
        return Ok(Probe::Verified(Box::new(Prefix {
            generation,
            seq,
            state,
            snapshot_bytes: bytes.len() as u64,
            batches,
            wal_len,
            truncated,
            fallbacks,
        })));
    }
    Ok(Probe::Damaged(StoreError::Frame(last_error)))
}

fn read_or_empty(path: &Path) -> Result<Vec<u8>, StoreError> {
    match std::fs::read(path) {
        Ok(bytes) => Ok(bytes),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(io_err("read", path, e)),
    }
}

/// Installs `generation` in `dir` — WAL, then the snapshot rename that
/// commits it, then the marker — and drops every other generation's
/// files. Returns the writer for the new WAL.
pub(crate) fn install(
    dir: &Path,
    generation: u64,
    snapshot: &[u8],
    wal: &[u8],
    token: &CancelToken,
) -> Result<SegmentWriter, StoreError> {
    std::fs::create_dir_all(dir).map_err(|e| io_err("create-dir", dir, e))?;
    // No temp-and-rename needed: the WAL belongs to no committed
    // generation until the snapshot rename below, whose directory fsync
    // also makes this file's entry durable.
    let path = dir.join(wal_name(generation));
    let mut file = std::fs::File::create(&path).map_err(|e| io_err("create", &path, e))?;
    file.write_all(wal)
        .and_then(|()| file.sync_all())
        .map_err(|e| io_err("write", &path, e))?;
    let writer = SegmentWriter::open_append(&path, wal.len() as u64)?;
    write_atomic(dir, &snapshot_name(generation), snapshot, token)?;
    adopt_marker(dir, token);
    let keep = [snapshot_name(generation), wal_name(generation)];
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let ours = name.starts_with("snapshot-") || name.starts_with("wal-");
            if ours && !keep.iter().any(|k| k == name) {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
    Ok(writer)
}

/// Copies `dir`'s `generation`: the snapshot and the first `wal_len`
/// WAL bytes, as `(snapshot, wal)`.
pub(crate) fn read_generation(
    dir: &Path,
    generation: u64,
    wal_len: u64,
) -> Result<(Vec<u8>, Vec<u8>), StoreError> {
    let path = dir.join(snapshot_name(generation));
    let snapshot = std::fs::read(&path).map_err(|e| io_err("read", &path, e))?;
    let mut wal = read_or_empty(&dir.join(wal_name(generation)))?;
    if (wal.len() as u64) < wal_len {
        return Err(StoreError::Frame(CheckpointError::Truncated));
    }
    wal.truncate(wal_len as usize);
    Ok((snapshot, wal))
}

/// Repairs `dir` in place: cuts its `generation` WAL back to the
/// acknowledged `wal_len` (dropping a torn or unacknowledged tail) and
/// reopens it for appending. A short WAL or a missing snapshot is lost
/// data, not a tail: the caller re-ships instead.
pub(crate) fn trim(
    dir: &Path,
    generation: u64,
    wal_len: u64,
    token: &CancelToken,
) -> Result<SegmentWriter, StoreError> {
    if !dir.join(snapshot_name(generation)).is_file() {
        return Err(StoreError::Frame(CheckpointError::Truncated));
    }
    let path = dir.join(wal_name(generation));
    let file = std::fs::OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(false)
        .open(&path)
        .map_err(|e| io_err("open", &path, e))?;
    let len = file.metadata().map_err(|e| io_err("stat", &path, e))?.len();
    if len < wal_len {
        return Err(StoreError::Frame(CheckpointError::Truncated));
    }
    if len > wal_len {
        file.set_len(wal_len)
            .map_err(|e| io_err("truncate", &path, e))?;
        file.sync_all().map_err(|e| io_err("fsync", &path, e))?;
    }
    adopt_marker(dir, token);
    SegmentWriter::open_append(&path, wal_len)
}

/// Writes the marker if missing, best-effort: it only sharpens later
/// damage reports, so failing to write it never fails the caller.
fn adopt_marker(dir: &Path, token: &CancelToken) {
    if !dir.join(MARKER_NAME).exists() {
        let _ = write_atomic(dir, MARKER_NAME, MARKER, token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DurableKb, KbConfig};
    use tgdkit_chase::{FaultPlan, FaultSite};
    use tgdkit_instance::Fact;
    use tgdkit_logic::{parse_tgds, TgdSet};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tgdkit-store-repl-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn test_set() -> TgdSet {
        let mut schema = Schema::default();
        let tgds = parse_tgds(
            &mut schema,
            "E(x,y), E(y,z) -> E(x,z). P(x) -> exists w : E(x,w).",
        )
        .unwrap();
        TgdSet::new(schema, tgds).unwrap()
    }

    fn e_fact(set: &TgdSet, x: u32, y: u32) -> Fact {
        Fact::new(set.schema().pred_id("E").unwrap(), vec![Elem(x), Elem(y)])
    }

    fn repl_config(replicas: usize, quorum: usize) -> KbConfig {
        KbConfig {
            replicas,
            quorum,
            retry_backoff_ms: 0,
            compact_wal_bytes: u64::MAX,
            ..KbConfig::default()
        }
    }

    fn dir_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (
                    e.file_name().to_string_lossy().into_owned(),
                    std::fs::read(e.path()).unwrap(),
                )
            })
            .collect();
        files.sort();
        files
    }

    fn names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn replicas_are_byte_identical_after_applies() {
        let root = tmpdir("identical");
        let set = test_set();
        let (mut kb, report) = DurableKb::open(&root, &set, repl_config(3, 2)).unwrap();
        assert_eq!(report.elected, 0);
        assert!(!report.failover);
        kb.apply(&[e_fact(&set, 0, 1), e_fact(&set, 1, 2)], &[])
            .unwrap();
        kb.apply(&[e_fact(&set, 2, 3)], &[]).unwrap();
        assert_eq!(kb.stats().wal_appends, 2);
        assert_eq!(kb.healthy_count(), 3);
        let dirs = kb.replica_dirs();
        let first = dir_files(&dirs[0]);
        for dir in &dirs[1..] {
            assert_eq!(dir_files(dir), first, "replicas diverged");
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn one_replica_is_the_flat_layout_and_three_are_identical_subdirs() {
        let set = test_set();
        let flat = tmpdir("layout-flat");
        let (kb, _) = DurableKb::open(&flat, &set, repl_config(1, 1)).unwrap();
        assert_eq!(kb.replica_dirs(), vec![flat.clone()]);
        assert_eq!(
            names(&flat),
            ["snapshot-000000.tgks", "store.tgkm", "wal-000000.tgkw"]
        );
        let root = tmpdir("layout-repl");
        let (mut kb, _) = DurableKb::open(&root, &set, repl_config(3, 2)).unwrap();
        kb.apply(&[e_fact(&set, 0, 1)], &[]).unwrap();
        assert_eq!(names(&root), ["replica-00", "replica-01", "replica-02"]);
        let first = dir_files(&root.join("replica-00"));
        assert_eq!(
            first
                .iter()
                .map(|(name, _)| name.as_str())
                .collect::<Vec<_>>(),
            ["snapshot-000000.tgks", "store.tgkm", "wal-000000.tgkw"]
        );
        for dir in ["replica-01", "replica-02"] {
            assert_eq!(dir_files(&root.join(dir)), first, "replicas diverged");
        }
        let _ = std::fs::remove_dir_all(&flat);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn replicated_store_counts_folds_rechases_and_compactions() {
        let root = tmpdir("repl-stats");
        let set = test_set();
        let (mut kb, _) = DurableKb::open(&root, &set, repl_config(3, 2)).unwrap();
        kb.apply(&[e_fact(&set, 0, 1), e_fact(&set, 1, 2)], &[])
            .unwrap();
        assert!(kb.apply(&[], &[e_fact(&set, 1, 2)]).unwrap().rechased);
        kb.compact().unwrap();
        let stats = kb.stats();
        assert_eq!(stats.folds, 1);
        assert_eq!(stats.full_rechases, 1);
        assert_eq!(stats.compactions, 1);
        assert_eq!(kb.generation(), 1);
        let dirs = kb.replica_dirs();
        for dir in &dirs[1..] {
            assert_eq!(dir_files(dir), dir_files(&dirs[0]), "replicas diverged");
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn killing_below_quorum_keeps_writes_flowing() {
        let root = tmpdir("kill-one");
        let set = test_set();
        let (mut kb, _) = DurableKb::open(&root, &set, repl_config(3, 2)).unwrap();
        kb.apply(&[e_fact(&set, 0, 1)], &[]).unwrap();
        kb.kill_replica(2);
        assert_eq!(kb.replica_health(2), Some(ReplicaHealth::Wedged));
        // Quorum (2 of 3) still holds: the next applies are acknowledged.
        kb.apply(&[e_fact(&set, 1, 2)], &[]).unwrap();
        assert!(kb.stats().quorum_waits >= 1);
        assert!(kb.stats().lag_bytes > 0);
        // Repair re-admits the replica to byte-identity.
        assert!(kb.repair() >= 1);
        assert_eq!(kb.replica_health(2), Some(ReplicaHealth::Healthy));
        assert_eq!(kb.stats().lag_bytes, 0);
        let dirs = kb.replica_dirs();
        assert_eq!(dir_files(&dirs[2]), dir_files(&dirs[0]));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_replica_that_missed_nothing_is_repaired_in_place() {
        let root = tmpdir("in-place");
        let set = test_set();
        let (mut kb, _) = DurableKb::open(&root, &set, repl_config(3, 2)).unwrap();
        kb.apply(&[e_fact(&set, 0, 1)], &[]).unwrap();
        kb.kill_replica(1);
        assert_eq!(kb.repair(), 1);
        assert_eq!(kb.stats().unwedge_recoveries, 1, "trimmed in place");
        assert_eq!(kb.stats().repairs, 0, "nothing re-shipped");
        kb.apply(&[e_fact(&set, 1, 2)], &[]).unwrap();
        assert_eq!(kb.stats().quorum_waits, 0);
        let dirs = kb.replica_dirs();
        assert_eq!(dir_files(&dirs[1]), dir_files(&dirs[0]));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn below_quorum_degrades_to_typed_read_only() {
        let root = tmpdir("quorum-lost");
        let set = test_set();
        let (mut kb, _) = DurableKb::open(&root, &set, repl_config(3, 2)).unwrap();
        kb.apply(&[e_fact(&set, 0, 1)], &[]).unwrap();
        let acked = kb.chased().clone();
        // Kill every replica and pin each disk dead — replace the replica
        // directory with a plain file so even reseed repair cannot
        // recreate it.
        let dirs = kb.replica_dirs();
        for (i, dir) in dirs.iter().enumerate() {
            kb.kill_replica(i);
            std::fs::remove_dir_all(dir).unwrap();
            std::fs::write(dir, b"dead disk").unwrap();
        }
        for k in 0..4u32 {
            let err = kb.apply(&[e_fact(&set, k + 1, k + 2)], &[]).unwrap_err();
            assert!(matches!(err, StoreError::QuorumLost { .. }), "{err}");
        }
        assert!(kb.read_only());
        assert!(kb.stats().quorum_losses >= 4);
        // Reads keep serving the acknowledged closure.
        assert_eq!(kb.chased(), &acked);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn failover_elects_longest_prefix_after_primary_loss() {
        let root = tmpdir("failover");
        let set = test_set();
        let (mut kb, _) = DurableKb::open(&root, &set, repl_config(3, 2)).unwrap();
        kb.apply(&[e_fact(&set, 0, 1), e_fact(&set, 1, 2)], &[])
            .unwrap();
        let state = kb.chased().clone();
        let seq = kb.seq();
        let dirs = kb.replica_dirs();
        drop(kb);
        // The primary's disk dies entirely.
        std::fs::remove_dir_all(&dirs[0]).unwrap();
        let (kb, report) = DurableKb::open(&root, &set, repl_config(3, 2)).unwrap();
        assert!(report.failover);
        assert_ne!(report.elected, 0);
        assert!(report.repaired >= 1, "replica-00 re-shipped");
        assert_eq!(kb.seq(), seq);
        assert_eq!(kb.chased(), &state, "failover serves the same closure");
        assert_eq!(kb.stats().failovers, 1);
        // The reborn replica-00 is byte-identical to the elected one.
        assert_eq!(dir_files(&dirs[0]), dir_files(&dirs[report.elected]));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn injected_replica_faults_never_lose_acknowledged_facts() {
        let root = tmpdir("faults");
        let set = test_set();
        let plan = FaultPlan::only(7, FaultSite::ReplicaAppendFail, 3);
        let token = CancelToken::with_faults(plan);
        let (mut kb, _) = DurableKb::open(&root, &set, repl_config(3, 2)).unwrap();
        let mut acked = 0u64;
        for k in 0..12u32 {
            if kb
                .apply_governed(&[e_fact(&set, k, k + 1)], &[], &token)
                .is_ok()
            {
                acked += 1;
            }
        }
        assert_eq!(kb.seq(), acked);
        assert!(kb.stats().retries > 0, "schedule exercised the retry path");
        let state = kb.chased().clone();
        drop(kb);
        let (kb, _) = DurableKb::open(&root, &set, repl_config(3, 2)).unwrap();
        assert_eq!(kb.seq(), acked, "every acknowledged batch recovered");
        assert_eq!(kb.chased(), &state);
        let _ = std::fs::remove_dir_all(&root);
    }
}
