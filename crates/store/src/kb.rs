//! The durable knowledge base: a chased fixpoint kept consistent with an
//! on-disk snapshot + WAL pair, updated by folding batches through the
//! semi-naive incremental chase and recovered crash-consistently on open.

use crate::segment::{
    backoff_sleep, io_err, scan_frames, write_atomic, SegmentWriter, StoreError, KIND_SNAPSHOT,
    KIND_WAL_BATCH,
};
use crate::wal::WalBatch;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use tgdkit_chase::checkpoint::{
    read_instance, seal, tgds_fingerprint, write_instance, CheckpointError, CheckpointReader,
    CheckpointWriter,
};
use tgdkit_chase::{
    chase_extend, chase_from, CancelToken, ChaseBudget, ChaseOutcome, ChaseResult, ChaseStart,
    ChaseVariant, Run,
};
use tgdkit_instance::{Elem, Fact, Instance};
use tgdkit_logic::{PredId, Schema, Tgd, TgdSet};

/// Tuning knobs for a [`DurableKb`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KbConfig {
    /// Budget for every fold and re-chase; a batch whose consequences
    /// exceed it is rejected ([`StoreError::ChaseDidNotTerminate`]) and
    /// not committed.
    pub budget: ChaseBudget,
    /// Chase variant; the restricted chase is the default and the one the
    /// incremental fold is cheapest for.
    pub variant: ChaseVariant,
    /// Shard count for *full* re-chases (the fresh-open chase and the
    /// retraction path), run by [`tgdkit_chase::chase_from`].
    /// The result is byte-identical at any count, so this is purely a
    /// throughput knob. Incremental folds stay on the one-shard semi-naive
    /// extend path regardless (their deltas are batch-sized, not
    /// instance-sized).
    pub shards: usize,
    /// Once the WAL grows past this many bytes, the next acknowledged
    /// batch folds the log into a fresh snapshot generation.
    pub compact_wal_bytes: u64,
    /// Replica directories for the store ([`crate::ReplicatedKb`]); `1`
    /// (or `0`) keeps the single-directory [`DurableKb`] layout.
    pub replicas: usize,
    /// Write quorum: an apply is acknowledged only once this many replicas
    /// have the batch durable. Clamped into `1..=replicas`.
    pub quorum: usize,
    /// Bounded retry attempts per replica for transient append faults
    /// (injected [`tgdkit_chase::FaultSite::ReplicaAppendFail`], real
    /// transient I/O, fsync failures) before the replica is demoted.
    pub replica_retries: u32,
    /// Base backoff in milliseconds between replica retries and un-wedge
    /// attempts; the actual sleep is jittered deterministically from the
    /// attempt ordinal. `0` disables sleeping (tests).
    pub retry_backoff_ms: u64,
    /// Bounded reopen-and-recover attempts a wedged [`DurableKb`] handle
    /// makes on the next apply before giving up with
    /// [`StoreError::Wedged`].
    pub unwedge_retries: u32,
}

impl Default for KbConfig {
    fn default() -> Self {
        KbConfig {
            budget: ChaseBudget::default(),
            variant: ChaseVariant::Restricted,
            shards: 1,
            compact_wal_bytes: 1 << 20,
            replicas: 1,
            quorum: 1,
            replica_retries: 2,
            retry_backoff_ms: 2,
            unwedge_retries: 2,
        }
    }
}

/// A full chase from `base` under `config`, at the config's shard count.
pub(crate) fn full_chase(
    base: &Instance,
    tgds: &[Tgd],
    config: &KbConfig,
    token: &CancelToken,
) -> ChaseResult {
    let run = Run {
        token: token.clone(),
        shards: config.shards,
        ..Run::default()
    };
    chase_from(
        &run,
        ChaseStart::Fresh(base),
        tgds,
        config.variant,
        config.budget,
    )
    .expect("a fresh start has no checkpoint to mismatch")
    .0
}

/// Cumulative counters for one [`DurableKb`] handle (recovery counters
/// cover the `open` that produced it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KbStats {
    /// Batches acknowledged (WAL frames fsynced).
    pub wal_appends: u64,
    /// Insert-only batches folded incrementally (no re-chase).
    pub folds: u64,
    /// Batches with effective retractions, re-chased from the base.
    pub full_rechases: u64,
    /// Log-into-snapshot compactions completed.
    pub compactions: u64,
    /// Compactions that failed (state stays durable on the old
    /// generation; the WAL keeps growing until one succeeds).
    pub compaction_failures: u64,
    /// Successful opens of pre-existing on-disk state.
    pub recoveries: u64,
    /// WAL batches replayed during recovery.
    pub replayed_batches: u64,
    /// Damage events (torn tails, checksum mismatches, malformed or
    /// out-of-sequence frames) truncated away during recovery.
    pub truncated_frames: u64,
    /// Snapshot generations skipped during recovery because they failed
    /// verification.
    pub snapshot_fallbacks: u64,
    /// Wedged handles brought back in place by the bounded
    /// reopen-and-recover retry on a subsequent apply (no process restart).
    pub unwedge_recoveries: u64,
}

/// What [`DurableKb::open`] found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The snapshot generation recovered into (0 for a fresh store).
    pub generation: u64,
    /// Sequence number after replay: total batches acknowledged over the
    /// store's lifetime.
    pub seq: u64,
    /// WAL batches replayed on top of the snapshot.
    pub replayed_batches: u64,
    /// Damage events truncated away (0 on a clean open).
    pub truncated_frames: u64,
    /// Corrupt snapshot generations skipped.
    pub snapshot_fallbacks: u64,
    /// `true` when the directory held no store and one was initialized.
    pub fresh: bool,
}

/// What one acknowledged [`DurableKb::apply`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApplyReport {
    /// The sequence number assigned to the batch.
    pub seq: u64,
    /// `true` when retractions forced a re-chase from the base instead of
    /// an incremental fold.
    pub rechased: bool,
    /// `true` when the batch tipped the WAL over the compaction threshold
    /// and a new snapshot generation was written.
    pub compacted: bool,
    /// Facts in the chased fixpoint after the batch.
    pub fact_count: usize,
}

pub(crate) fn snapshot_name(generation: u64) -> String {
    format!("snapshot-{generation:06}.tgks")
}

pub(crate) fn wal_name(generation: u64) -> String {
    format!("wal-{generation:06}.tgkw")
}

/// Marker file written when a store directory is initialized; its presence
/// distinguishes "this directory once held a store whose files were lost"
/// (a typed recovery error — silently re-initializing would change
/// verdicts) from "this directory is genuinely fresh".
pub(crate) const MARKER_NAME: &str = "store.tgkm";

/// The decoded payload of a snapshot frame.
pub(crate) struct Snapshot {
    pub(crate) sigma_fp: u64,
    pub(crate) seq: u64,
    pub(crate) nulls: BTreeSet<Elem>,
    pub(crate) base: Instance,
    pub(crate) chased: Instance,
}

pub(crate) fn encode_snapshot(
    sigma_fp: u64,
    seq: u64,
    base: &Instance,
    chased: &Instance,
    nulls: &BTreeSet<Elem>,
) -> Vec<u8> {
    let mut w = CheckpointWriter::new();
    w.u64(sigma_fp);
    w.u64(seq);
    w.count(nulls.len());
    for e in nulls {
        w.u32(e.0);
    }
    write_instance(&mut w, base);
    write_instance(&mut w, chased);
    seal(KIND_SNAPSHOT, &w.into_payload())
}

pub(crate) fn decode_snapshot(
    payload: &[u8],
    schema: &Schema,
) -> Result<Snapshot, CheckpointError> {
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
    Ok(Snapshot {
        sigma_fp,
        seq,
        nulls,
        base,
        chased,
    })
}

/// The next knowledge-base state after a batch, before it is made durable.
pub(crate) struct FoldedState {
    pub(crate) base: Instance,
    pub(crate) chased: Instance,
    pub(crate) nulls: BTreeSet<Elem>,
    pub(crate) rechased: bool,
}

/// Applies a batch to `(base, chased, nulls)` *logically*, without
/// touching disk. Retractions are applied to the base first, then
/// insertions (so an insert wins over a retract of the same fact in one
/// batch). An insert-only batch folds through the semi-naive incremental
/// chase at delta cost; an effective retraction conservatively re-chases
/// from the updated base (no provenance is tracked, so which derived
/// facts a retraction invalidates is unknown). Both paths are
/// deterministic, which is what lets recovery replay reproduce the
/// uninterrupted state byte-for-byte.
#[allow(clippy::too_many_arguments)] // internal helper threading the full store state
pub(crate) fn fold_batch(
    base: &Instance,
    chased: &Instance,
    nulls: &BTreeSet<Elem>,
    inserts: &[Fact],
    retracts: &[Fact],
    tgds: &[Tgd],
    config: &KbConfig,
    token: &CancelToken,
) -> Result<FoldedState, StoreError> {
    let mut new_base = base.clone();
    let mut retracted_any = false;
    for f in retracts {
        if new_base.remove_fact(f.pred, &f.args) {
            retracted_any = true;
        }
    }
    for f in inserts {
        new_base.add_fact(f.pred, f.args.clone());
    }
    if retracted_any {
        let result = full_chase(&new_base, tgds, config, token);
        if result.outcome != ChaseOutcome::Terminated {
            return Err(StoreError::ChaseDidNotTerminate(result.outcome));
        }
        Ok(FoldedState {
            base: new_base,
            chased: result.instance,
            nulls: result.nulls,
            rechased: true,
        })
    } else {
        let run = Run {
            token: token.clone(),
            ..Run::default()
        };
        let (result, _) = chase_extend(
            &run,
            chased,
            nulls,
            inserts,
            tgds,
            config.variant,
            config.budget,
        );
        if result.outcome != ChaseOutcome::Terminated {
            return Err(StoreError::ChaseDidNotTerminate(result.outcome));
        }
        Ok(FoldedState {
            base: new_base,
            chased: result.instance,
            nulls: result.nulls,
            rechased: false,
        })
    }
}

/// A knowledge base whose chased fixpoint survives the process.
///
/// Invariant: the in-memory `(base, chased, nulls, seq)` always equals
/// what [`DurableKb::open`] would reconstruct from the directory — a
/// batch commits to memory in the same step that acknowledges its WAL
/// frame, and a failed append leaves both sides unchanged (or, after a
/// torn write, wedges the handle so the divergent tail can never be
/// extended).
#[derive(Debug)]
pub struct DurableKb {
    dir: PathBuf,
    schema: Schema,
    tgds: Vec<Tgd>,
    sigma_fp: u64,
    config: KbConfig,
    generation: u64,
    seq: u64,
    base: Instance,
    chased: Instance,
    nulls: BTreeSet<Elem>,
    wal: SegmentWriter,
    stats: KbStats,
}

impl DurableKb {
    /// Opens (or initializes) the store in `dir` for the given tgd set.
    /// See [`DurableKb::open_governed`].
    pub fn open(
        dir: &Path,
        set: &TgdSet,
        config: KbConfig,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        Self::open_governed(dir, set, config, &CancelToken::new())
    }

    /// Opens the store in `dir`, recovering crash-consistently:
    ///
    /// 1. pick the newest snapshot generation that verifies (corrupt ones
    ///    are skipped, counted as fallbacks);
    /// 2. replay the generation's WAL prefix frame by frame, stopping at
    ///    the first torn, corrupt, malformed, or out-of-sequence frame;
    /// 3. physically truncate the WAL at the damage point, so the durable
    ///    state equals the acknowledged state.
    ///
    /// A directory with snapshots where *none* verifies is an error, not a
    /// silent re-initialization — losing the base would change verdicts.
    /// An empty directory initializes generation 0 (the chase of the empty
    /// instance, so rules with empty bodies still fire).
    pub fn open_governed(
        dir: &Path,
        set: &TgdSet,
        config: KbConfig,
        token: &CancelToken,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        std::fs::create_dir_all(dir).map_err(|e| io_err("create-dir", dir, e))?;
        let schema = set.schema().clone();
        let tgds = set.tgds().to_vec();
        let sigma_fp = tgds_fingerprint(&tgds);
        let mut stats = KbStats::default();

        // Newest verifying snapshot wins; no MANIFEST is needed because
        // generations are monotone and snapshots are self-validating.
        let mut generations = discover_generations(dir)?;
        generations.sort_unstable_by(|a, b| b.cmp(a));
        // A directory is fresh only if it holds no snapshot, no WAL file,
        // and no init marker. A WAL without any snapshot, or a marker with
        // neither, means store files were deleted out from under us —
        // re-initializing would silently drop acknowledged facts.
        let fresh =
            generations.is_empty() && !dir.join(MARKER_NAME).exists() && !has_wal_files(dir)?;
        if generations.is_empty() && !fresh {
            return Err(StoreError::Frame(CheckpointError::Malformed(
                "store directory lost every snapshot (marker or WAL present)",
            )));
        }
        let mut chosen: Option<(u64, Snapshot)> = None;
        let mut last_error = CheckpointError::Truncated;
        for generation in generations {
            let path = dir.join(snapshot_name(generation));
            let bytes = std::fs::read(&path).map_err(|e| io_err("read", &path, e))?;
            let scan = scan_frames(&bytes, KIND_SNAPSHOT, token);
            let decoded = match (scan.frames.as_slice(), scan.damage) {
                ([(_, payload)], None) => {
                    decode_snapshot(payload, &schema).map_err(StoreError::Frame)
                }
                (_, Some(damage)) => Err(StoreError::Frame(damage)),
                _ => Err(StoreError::Frame(CheckpointError::Malformed(
                    "snapshot frame count",
                ))),
            };
            match decoded {
                Ok(snap) => {
                    if snap.sigma_fp != sigma_fp {
                        return Err(StoreError::ContextMismatch("tgd set"));
                    }
                    chosen = Some((generation, snap));
                    break;
                }
                Err(StoreError::Frame(e)) => {
                    stats.snapshot_fallbacks += 1;
                    last_error = e;
                }
                Err(other) => return Err(other),
            }
        }

        let (generation, mut seq, mut base, mut chased, mut nulls) = match chosen {
            Some((generation, snap)) => {
                stats.recoveries += 1;
                (generation, snap.seq, snap.base, snap.chased, snap.nulls)
            }
            None if fresh => {
                let empty = Instance::new(schema.clone());
                let result = full_chase(&empty, &tgds, &config, token);
                if result.outcome != ChaseOutcome::Terminated {
                    return Err(StoreError::ChaseDidNotTerminate(result.outcome));
                }
                (0, 0, empty, result.instance, result.nulls)
            }
            None => return Err(StoreError::Frame(last_error)),
        };

        // Replay the WAL prefix that verifies, then truncate the rest.
        let wal_path = dir.join(wal_name(generation));
        let wal_bytes = match std::fs::read(&wal_path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io_err("read", &wal_path, e)),
        };
        let scan = scan_frames(&wal_bytes, KIND_WAL_BATCH, token);
        let mut valid_len = scan.valid_len;
        let mut damaged = scan.damage.is_some();
        for (offset, payload) in scan.frames {
            let batch = match WalBatch::decode_payload(payload, &schema) {
                Ok(batch) if batch.seq == seq => batch,
                // Structurally broken or out-of-sequence: everything from
                // here on is untrustworthy — truncate as damage.
                _ => {
                    valid_len = offset;
                    damaged = true;
                    break;
                }
            };
            let folded = fold_batch(
                &base,
                &chased,
                &nulls,
                &batch.inserts,
                &batch.retracts,
                &tgds,
                &config,
                token,
            )?;
            base = folded.base;
            chased = folded.chased;
            nulls = folded.nulls;
            seq += 1;
            stats.replayed_batches += 1;
        }
        if damaged {
            stats.truncated_frames += 1;
            truncate_file(&wal_path, valid_len)?;
        }
        if fresh {
            // Initialize generation 0 durably before acknowledging
            // anything: an empty WAL, the empty-chase snapshot, and the
            // init marker that makes later file loss detectable.
            let snap = encode_snapshot(sigma_fp, seq, &base, &chased, &nulls);
            write_atomic(dir, &snapshot_name(0), &snap, token)?;
            write_atomic(dir, MARKER_NAME, b"tgdkit-store-v1\n", token)?;
            truncate_file(&wal_path, 0)?;
            valid_len = 0;
        } else if !dir.join(MARKER_NAME).exists() {
            // Pre-marker store layout: adopt the marker best-effort so the
            // orphan-damage check covers this directory from now on.
            let _ = write_atomic(dir, MARKER_NAME, b"tgdkit-store-v1\n", token);
        }
        let wal = SegmentWriter::open_append(&wal_path, valid_len)?;

        let report = RecoveryReport {
            generation,
            seq,
            replayed_batches: stats.replayed_batches,
            truncated_frames: stats.truncated_frames,
            snapshot_fallbacks: stats.snapshot_fallbacks,
            fresh,
        };
        Ok((
            DurableKb {
                dir: dir.to_path_buf(),
                schema,
                tgds,
                sigma_fp,
                config,
                generation,
                seq,
                base,
                chased,
                nulls,
                wal,
                stats,
            },
            report,
        ))
    }

    /// Applies one batch: fold logically, append + fsync the WAL frame,
    /// and only then commit to memory — so an error of any kind leaves
    /// the handle exactly as before (torn writes additionally wedge it;
    /// see [`StoreError::TornWrite`]). Auto-compacts past the configured
    /// WAL size; a *compaction* failure is recorded, not propagated,
    /// because the batch itself is already durable.
    pub fn apply_governed(
        &mut self,
        inserts: &[Fact],
        retracts: &[Fact],
        token: &CancelToken,
    ) -> Result<ApplyReport, StoreError> {
        if self.wal.is_wedged() {
            self.unwedge(token)?;
        }
        let folded = fold_batch(
            &self.base,
            &self.chased,
            &self.nulls,
            inserts,
            retracts,
            &self.tgds,
            &self.config,
            token,
        )?;
        let batch = WalBatch {
            seq: self.seq,
            inserts: inserts.to_vec(),
            retracts: retracts.to_vec(),
        };
        self.wal.append_frame(&batch.encode(), token)?;
        self.base = folded.base;
        self.chased = folded.chased;
        self.nulls = folded.nulls;
        self.seq += 1;
        self.stats.wal_appends += 1;
        if folded.rechased {
            self.stats.full_rechases += 1;
        } else {
            self.stats.folds += 1;
        }
        let mut compacted = false;
        if self.wal.len() >= self.config.compact_wal_bytes {
            match self.compact_governed(token) {
                Ok(()) => compacted = true,
                Err(_) => self.stats.compaction_failures += 1,
            }
        }
        Ok(ApplyReport {
            seq: batch.seq,
            rechased: folded.rechased,
            compacted,
            fact_count: self.chased.fact_count(),
        })
    }

    /// [`DurableKb::apply_governed`] with a fresh token.
    pub fn apply(
        &mut self,
        inserts: &[Fact],
        retracts: &[Fact],
    ) -> Result<ApplyReport, StoreError> {
        self.apply_governed(inserts, retracts, &CancelToken::new())
    }

    /// Bounded reopen-and-recover for a wedged handle: the invariant that
    /// memory always equals the acknowledged durable prefix means recovery
    /// is truncating the torn tail and reopening the WAL in place — no
    /// re-chase, no process restart. Retries `unwedge_retries` times with
    /// jittered backoff for transient I/O; exhausting them reports
    /// [`StoreError::Wedged`] (the pre-existing contract).
    fn unwedge(&mut self, token: &CancelToken) -> Result<(), StoreError> {
        let acked = self.wal.len();
        let mut attempt = 0u32;
        loop {
            match self.wal.truncate_to(acked, token) {
                Ok(()) => {
                    self.stats.unwedge_recoveries += 1;
                    return Ok(());
                }
                Err(_) if attempt < self.config.unwedge_retries => {
                    attempt += 1;
                    backoff_sleep(self.config.retry_backoff_ms, attempt, self.seq);
                }
                Err(_) => return Err(StoreError::Wedged),
            }
        }
    }

    /// Folds the WAL into a fresh snapshot generation: write
    /// `snapshot-(g+1)` atomically, start an empty `wal-(g+1)`, then
    /// best-effort delete generation `g`. A crash anywhere in between
    /// recovers either generation consistently (recovery picks the newest
    /// snapshot that verifies, and a missing WAL is an empty one).
    pub fn compact_governed(&mut self, token: &CancelToken) -> Result<(), StoreError> {
        let next = self.generation + 1;
        let snap = encode_snapshot(
            self.sigma_fp,
            self.seq,
            &self.base,
            &self.chased,
            &self.nulls,
        );
        write_atomic(&self.dir, &snapshot_name(next), &snap, token)?;
        let wal_path = self.dir.join(wal_name(next));
        truncate_file(&wal_path, 0)?;
        let wal = SegmentWriter::open_append(&wal_path, 0)?;
        let old = self.generation;
        self.generation = next;
        self.wal = wal;
        self.stats.compactions += 1;
        let _ = std::fs::remove_file(self.dir.join(snapshot_name(old)));
        let _ = std::fs::remove_file(self.dir.join(wal_name(old)));
        Ok(())
    }

    /// [`DurableKb::compact_governed`] with a fresh token.
    pub fn compact(&mut self) -> Result<(), StoreError> {
        self.compact_governed(&CancelToken::new())
    }

    /// Re-fsyncs the WAL (appends already sync per frame, so this is a
    /// cheap belt-and-braces barrier for graceful shutdown).
    pub fn flush_governed(&mut self, token: &CancelToken) -> Result<(), StoreError> {
        self.wal.sync(token)
    }

    /// [`DurableKb::flush_governed`] with a fresh token.
    pub fn flush(&mut self) -> Result<(), StoreError> {
        self.flush_governed(&CancelToken::new())
    }

    /// Fingerprint of the tgd set the store is bound to (what
    /// [`DurableKb::open`] checks incoming sets against).
    pub fn sigma_fingerprint(&self) -> u64 {
        self.sigma_fp
    }

    /// The chased fixpoint (base ∪ everything derivable from it).
    pub fn chased(&self) -> &Instance {
        &self.chased
    }

    /// The base instance (exactly the acknowledged inserts minus
    /// retracts; no derived facts).
    pub fn base(&self) -> &Instance {
        &self.base
    }

    /// Labeled nulls of the chased fixpoint.
    pub fn nulls(&self) -> &BTreeSet<Elem> {
        &self.nulls
    }

    /// `true` iff the exact tuple is in the chased fixpoint.
    pub fn holds(&self, pred: PredId, args: &[Elem]) -> bool {
        self.chased.contains_fact(pred, args)
    }

    /// The schema the store is bound to.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Batches acknowledged over the store's lifetime.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Current snapshot generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Bytes currently acknowledged in the WAL.
    pub fn wal_bytes(&self) -> u64 {
        self.wal.len()
    }

    /// `true` after a torn write; reopen to recover.
    pub fn is_wedged(&self) -> bool {
        self.wal.is_wedged()
    }

    /// Counters for this handle.
    pub fn stats(&self) -> KbStats {
        self.stats
    }

    /// Consumes the handle, releasing the recovered state for a caller
    /// (the replicated store's failover path) that continues the timeline
    /// under its own writers: `(generation, seq, base, chased, nulls)`.
    pub(crate) fn into_state(self) -> (u64, u64, Instance, Instance, BTreeSet<Elem>) {
        (
            self.generation,
            self.seq,
            self.base,
            self.chased,
            self.nulls,
        )
    }
}

pub(crate) fn discover_generations(dir: &Path) -> Result<Vec<u64>, StoreError> {
    let mut generations = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| io_err("read-dir", dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("read-dir", dir, e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(gen) = name
            .strip_prefix("snapshot-")
            .and_then(|rest| rest.strip_suffix(".tgks"))
        {
            if let Ok(gen) = gen.parse::<u64>() {
                generations.push(gen);
            }
        }
    }
    Ok(generations)
}

/// `true` when the directory holds any `wal-*.tgkw` file.
pub(crate) fn has_wal_files(dir: &Path) -> Result<bool, StoreError> {
    let entries = std::fs::read_dir(dir).map_err(|e| io_err("read-dir", dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err("read-dir", dir, e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.starts_with("wal-") && name.ends_with(".tgkw") {
            return Ok(true);
        }
    }
    Ok(false)
}

pub(crate) fn truncate_file(path: &Path, len: u64) -> Result<(), StoreError> {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(false)
        .open(path)
        .map_err(|e| io_err("open", path, e))?;
    file.set_len(len).map_err(|e| io_err("truncate", path, e))?;
    file.sync_all().map_err(|e| io_err("fsync", path, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgdkit_chase::{FaultPlan, FaultSite};
    use tgdkit_logic::parse_tgds;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tgdkit-store-kb-{tag}-{}", std::process::id()));
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

    fn p_fact(set: &TgdSet, x: u32) -> Fact {
        Fact::new(set.schema().pred_id("P").unwrap(), vec![Elem(x)])
    }

    #[test]
    fn fresh_open_then_reopen_round_trips() {
        let dir = tmpdir("roundtrip");
        let set = test_set();
        let (mut kb, report) = DurableKb::open(&dir, &set, KbConfig::default()).unwrap();
        assert!(report.fresh);
        assert_eq!(report.seq, 0);
        kb.apply(&[e_fact(&set, 0, 1), e_fact(&set, 1, 2)], &[])
            .unwrap();
        // 2 has no outgoing edge, so the P-rule must invent a witness.
        kb.apply(&[p_fact(&set, 2)], &[]).unwrap();
        let e = set.schema().pred_id("E").unwrap();
        assert!(kb.holds(e, &[Elem(0), Elem(2)]), "transitivity fold fired");
        assert_eq!(kb.nulls().len(), 1, "P-rule invented a null");

        let (reopened, report) = DurableKb::open(&dir, &set, KbConfig::default()).unwrap();
        assert!(!report.fresh);
        assert_eq!(report.replayed_batches, 2);
        assert_eq!(report.truncated_frames, 0);
        assert_eq!(reopened.chased(), kb.chased(), "restart ≡ uninterrupted");
        assert_eq!(reopened.base(), kb.base());
        assert_eq!(reopened.nulls(), kb.nulls());
        assert_eq!(reopened.seq(), kb.seq());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retraction_rechases_and_survives_restart() {
        let dir = tmpdir("retract");
        let set = test_set();
        let (mut kb, _) = DurableKb::open(&dir, &set, KbConfig::default()).unwrap();
        kb.apply(
            &[e_fact(&set, 0, 1), e_fact(&set, 1, 2), e_fact(&set, 2, 3)],
            &[],
        )
        .unwrap();
        let e = set.schema().pred_id("E").unwrap();
        assert!(kb.holds(e, &[Elem(0), Elem(3)]));
        let report = kb.apply(&[], &[e_fact(&set, 1, 2)]).unwrap();
        assert!(report.rechased);
        assert!(
            !kb.holds(e, &[Elem(0), Elem(3)]),
            "derived fact gone after retract"
        );
        assert!(kb.holds(e, &[Elem(0), Elem(1)]));
        let (reopened, _) = DurableKb::open(&dir, &set, KbConfig::default()).unwrap();
        assert_eq!(reopened.chased(), kb.chased());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_resets_wal_and_preserves_state() {
        let dir = tmpdir("compact");
        let set = test_set();
        let config = KbConfig {
            compact_wal_bytes: 1, // compact after every batch
            ..KbConfig::default()
        };
        let (mut kb, _) = DurableKb::open(&dir, &set, config).unwrap();
        let r1 = kb.apply(&[e_fact(&set, 0, 1)], &[]).unwrap();
        assert!(r1.compacted);
        assert_eq!(kb.generation(), 1);
        assert_eq!(kb.wal_bytes(), 0);
        kb.apply(&[e_fact(&set, 1, 2)], &[]).unwrap();
        assert_eq!(kb.generation(), 2);
        assert_eq!(kb.stats().compactions, 2);
        // Old generations are cleaned up; recovery lands on the newest.
        assert!(!dir.join(snapshot_name(0)).exists());
        let (reopened, report) = DurableKb::open(&dir, &set, config).unwrap();
        assert_eq!(report.generation, 2);
        assert_eq!(
            report.replayed_batches, 0,
            "all state lives in the snapshot"
        );
        assert_eq!(reopened.chased(), kb.chased());
        assert_eq!(reopened.seq(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_wedges_then_recovery_truncates() {
        let dir = tmpdir("torn");
        let set = test_set();
        let (mut kb, _) = DurableKb::open(&dir, &set, KbConfig::default()).unwrap();
        kb.apply(&[e_fact(&set, 0, 1)], &[]).unwrap();
        let acked = kb.chased().clone();
        let tearing = CancelToken::with_faults(FaultPlan::always(FaultSite::WalTornWrite));
        let err = kb
            .apply_governed(&[e_fact(&set, 1, 2)], &[], &tearing)
            .unwrap_err();
        assert!(matches!(err, StoreError::TornWrite { .. }));
        assert!(kb.is_wedged());
        assert_eq!(kb.chased(), &acked, "unacknowledged batch not committed");
        drop(kb);
        let (recovered, report) = DurableKb::open(&dir, &set, KbConfig::default()).unwrap();
        assert_eq!(report.truncated_frames, 1);
        assert_eq!(report.replayed_batches, 1);
        assert_eq!(recovered.chased(), &acked, "recovery = acknowledged prefix");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wedged_handle_unwedges_on_next_apply() {
        let dir = tmpdir("unwedge");
        let set = test_set();
        let config = KbConfig {
            retry_backoff_ms: 0,
            ..KbConfig::default()
        };
        let (mut kb, _) = DurableKb::open(&dir, &set, config).unwrap();
        kb.apply(&[e_fact(&set, 0, 1)], &[]).unwrap();
        let tearing = CancelToken::with_faults(FaultPlan::always(FaultSite::WalTornWrite));
        kb.apply_governed(&[e_fact(&set, 1, 2)], &[], &tearing)
            .unwrap_err();
        assert!(kb.is_wedged());
        // The next apply reopens-and-recovers in place: the torn tail is
        // truncated, the handle un-wedges, and the batch goes through.
        let report = kb.apply(&[e_fact(&set, 1, 2)], &[]).unwrap();
        assert_eq!(report.seq, 1);
        assert!(!kb.is_wedged());
        assert_eq!(kb.stats().unwedge_recoveries, 1);
        let e = set.schema().pred_id("E").unwrap();
        assert!(kb.holds(e, &[Elem(0), Elem(2)]));
        // Disk agrees: a reopen replays both acknowledged batches cleanly.
        let (reopened, report) = DurableKb::open(&dir, &set, config).unwrap();
        assert_eq!(report.truncated_frames, 0);
        assert_eq!(report.replayed_batches, 2);
        assert_eq!(reopened.chased(), kb.chased());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deleting_every_snapshot_is_a_typed_error_not_a_reinit() {
        let dir = tmpdir("orphan");
        let set = test_set();
        let (mut kb, _) = DurableKb::open(&dir, &set, KbConfig::default()).unwrap();
        kb.apply(&[e_fact(&set, 0, 1)], &[]).unwrap();
        drop(kb);
        // Losing the whole generation (snapshot + WAL) must not silently
        // re-initialize: the marker records that a store lived here.
        std::fs::remove_file(dir.join(snapshot_name(0))).unwrap();
        std::fs::remove_file(dir.join(wal_name(0))).unwrap();
        let err = DurableKb::open(&dir, &set, KbConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            StoreError::Frame(CheckpointError::Malformed(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_failure_is_retryable_and_not_committed() {
        let dir = tmpdir("fsync");
        let set = test_set();
        let (mut kb, _) = DurableKb::open(&dir, &set, KbConfig::default()).unwrap();
        let before = kb.chased().clone();
        let failing = CancelToken::with_faults(FaultPlan::always(FaultSite::FsyncFail));
        let err = kb
            .apply_governed(&[e_fact(&set, 0, 1)], &[], &failing)
            .unwrap_err();
        assert!(matches!(err, StoreError::FsyncFailed { .. }));
        assert_eq!(kb.chased(), &before);
        assert_eq!(kb.seq(), 0);
        // The same batch goes through once fsync works again.
        kb.apply(&[e_fact(&set, 0, 1)], &[]).unwrap();
        assert_eq!(kb.seq(), 1);
        let (reopened, _) = DurableKb::open(&dir, &set, KbConfig::default()).unwrap();
        assert_eq!(reopened.chased(), kb.chased());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn opening_with_a_different_program_is_rejected() {
        let dir = tmpdir("sigma");
        let set = test_set();
        let (mut kb, _) = DurableKb::open(&dir, &set, KbConfig::default()).unwrap();
        kb.apply(&[e_fact(&set, 0, 1)], &[]).unwrap();
        drop(kb);
        let mut other_schema = Schema::default();
        let other_tgds = parse_tgds(&mut other_schema, "E(x,y) -> E(y,x). P(x) -> P(x).").unwrap();
        let other = TgdSet::new(other_schema, other_tgds).unwrap();
        assert_eq!(
            DurableKb::open(&dir, &other, KbConfig::default()).unwrap_err(),
            StoreError::ContextMismatch("tgd set")
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_rechase_matches_unsharded() {
        // Same batches through a shards=4 config and a shards=1 config:
        // the retraction path re-chases at different shard counts, but the
        // acknowledged fixpoints must be identical.
        let set = test_set();
        let mut kbs = Vec::new();
        for shards in [1usize, 4] {
            let dir = tmpdir(&format!("shards{shards}"));
            let config = KbConfig {
                shards,
                ..KbConfig::default()
            };
            let (mut kb, _) = DurableKb::open(&dir, &set, config).unwrap();
            kb.apply(
                &[e_fact(&set, 0, 1), e_fact(&set, 1, 2), e_fact(&set, 2, 3)],
                &[],
            )
            .unwrap();
            let report = kb.apply(&[p_fact(&set, 3)], &[e_fact(&set, 1, 2)]).unwrap();
            assert!(report.rechased);
            kbs.push((dir, kb));
        }
        let (plain, sharded) = (&kbs[0].1, &kbs[1].1);
        assert_eq!(plain.chased(), sharded.chased());
        assert_eq!(plain.base(), sharded.base());
        assert_eq!(plain.nulls(), sharded.nulls());
        for (dir, kb) in kbs {
            drop(kb);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_previous_generation() {
        let dir = tmpdir("fallback");
        let set = test_set();
        let config = KbConfig {
            compact_wal_bytes: 1,
            ..KbConfig::default()
        };
        let (mut kb, _) = DurableKb::open(&dir, &set, config).unwrap();
        kb.apply(&[e_fact(&set, 0, 1)], &[]).unwrap(); // → generation 1
        let gen1 = kb.chased().clone();
        drop(kb);
        // Forge a corrupt newer snapshot: recovery must skip it and land
        // on generation 1, not panic or lose the store.
        std::fs::write(dir.join(snapshot_name(2)), b"TGCKgarbage-not-a-frame").unwrap();
        let (recovered, report) = DurableKb::open(&dir, &set, config).unwrap();
        assert_eq!(report.snapshot_fallbacks, 1);
        assert_eq!(report.generation, 1);
        assert_eq!(recovered.chased(), &gen1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
