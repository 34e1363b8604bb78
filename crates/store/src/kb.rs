//! The durable knowledge base: a chased fixpoint kept consistent with N
//! replica directories of snapshot + WAL pairs, updated by folding
//! batches through the semi-naive incremental chase, acknowledged at a
//! write quorum, and recovered crash-consistently on open. N = 1 is the
//! flat single-directory store; see [`crate::replica`] for the layout and
//! the repair rule.

use crate::replica::{
    encode_snapshot, install, probe, read_generation, trim, Probe, Replica, ReplicaHealth,
};
use crate::segment::{backoff_sleep, io_err, SegmentWriter, StoreError};
use crate::wal::WalBatch;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use tgdkit_chase::checkpoint::tgds_fingerprint;
use tgdkit_chase::{
    chase_extend, chase_from, CancelToken, ChaseBudget, ChaseOutcome, ChaseResult, ChaseStart,
    ChaseVariant, FaultSite, Run,
};
use tgdkit_instance::{Elem, Fact, Instance};
use tgdkit_logic::{PredId, Schema, Tgd, TgdSet};

/// Bounded attempts after the first, per replica, for a transient append
/// fault (injected [`FaultSite::ReplicaAppendFail`], a torn write, a
/// failed fsync, real I/O) and for an in-place repair, before the replica
/// is demoted or the repair moves on to a re-ship.
const RETRIES: u32 = 2;

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
    /// Replica directories: `1` (or `0`) is the flat layout in the store
    /// root, N ≥ 2 keeps `replica-NN/` subdirectories.
    pub replicas: usize,
    /// Write quorum: an apply is acknowledged only once this many replicas
    /// have the batch durable. Clamped into `1..=replicas`.
    pub quorum: usize,
    /// Base backoff in milliseconds between append retries and in-place
    /// repair attempts; the actual sleep is jittered deterministically
    /// from the attempt ordinal. `0` disables sleeping (tests).
    pub retry_backoff_ms: u64,
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
            retry_backoff_ms: 2,
        }
    }
}

/// Cumulative counters for one [`DurableKb`] handle (recovery counters
/// cover the `open` that produced it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KbStats {
    /// Batches acknowledged (WAL frames durable on a quorum).
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
    /// Replicas repaired in place — WAL trimmed back to the acknowledged
    /// length, no re-ship, no process restart.
    pub unwedge_recoveries: u64,
    /// Acknowledged batches that reached quorum but not every replica.
    pub quorum_waits: u64,
    /// Per-replica append retries taken for transient faults.
    pub retries: u64,
    /// Replicas re-shipped from a peer or reseeded from memory.
    pub repairs: u64,
    /// Opens that elected a replica other than the first.
    pub failovers: u64,
    /// Applies refused because fewer than `quorum` replicas took them.
    pub quorum_losses: u64,
    /// Acknowledged bytes the non-healthy replicas are currently missing
    /// (drops to 0 as repairs land).
    pub lag_bytes: u64,
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
    /// `true` when no replica held a store and one was initialized.
    pub fresh: bool,
    /// Index of the replica with the longest verified acknowledged
    /// prefix, whose timeline the store continues.
    pub elected: usize,
    /// `true` when the elected replica was not the first.
    pub failover: bool,
    /// Replicas re-shipped to byte-identity with the elected one.
    pub repaired: usize,
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

/// The knowledge-base state a snapshot stores and a batch folds.
#[derive(Debug)]
pub(crate) struct State {
    pub(crate) base: Instance,
    pub(crate) chased: Instance,
    pub(crate) nulls: BTreeSet<Elem>,
}

/// A full chase from `base` under `config`, at the config's shard count.
fn full_chase(
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

/// Applies a batch to `state` *logically*, without touching disk,
/// returning the next state and whether it was re-chased. Retractions
/// are applied to the base first, then insertions (so an insert wins
/// over a retract of the same fact in one batch). An insert-only batch
/// folds through the semi-naive incremental chase at delta cost; an
/// effective retraction conservatively re-chases from the updated base
/// (no provenance is tracked, so which derived facts a retraction
/// invalidates is unknown). Both paths are deterministic, which is what
/// lets recovery replay reproduce the uninterrupted state byte-for-byte.
fn fold_batch(
    state: &State,
    inserts: &[Fact],
    retracts: &[Fact],
    tgds: &[Tgd],
    config: &KbConfig,
    token: &CancelToken,
) -> Result<(State, bool), StoreError> {
    let mut base = state.base.clone();
    let mut rechase = false;
    for f in retracts {
        rechase |= base.remove_fact(f.pred, &f.args);
    }
    for f in inserts {
        base.add_fact(f.pred, f.args.clone());
    }
    let result = if rechase {
        full_chase(&base, tgds, config, token)
    } else {
        let run = Run {
            token: token.clone(),
            ..Run::default()
        };
        let (result, _) = chase_extend(
            &run,
            &state.chased,
            &state.nulls,
            inserts,
            tgds,
            config.variant,
            config.budget,
        );
        result
    };
    if result.outcome != ChaseOutcome::Terminated {
        return Err(StoreError::ChaseDidNotTerminate(result.outcome));
    }
    let next = State {
        base,
        chased: result.instance,
        nulls: result.nulls,
    };
    Ok((next, rechase))
}

/// The typed error of an injected replica fault.
fn injected(op: &'static str, dir: &Path) -> StoreError {
    StoreError::Io {
        op,
        path: dir.display().to_string(),
        kind: std::io::ErrorKind::Interrupted,
    }
}

/// A knowledge base whose chased fixpoint survives the process — and,
/// with N ≥ 2 replicas, the loss of any `quorum - 1` replica directories.
///
/// Invariant: the in-memory `(base, chased, nulls, seq)` always equals
/// what [`DurableKb::open`] would reconstruct from the replicas — a batch
/// commits to memory in the same step that acknowledges its WAL frame on
/// a quorum, and a failed apply leaves memory unchanged and no replica
/// holding the frame.
#[derive(Debug)]
pub struct DurableKb {
    schema: Schema,
    tgds: Vec<Tgd>,
    sigma_fp: u64,
    config: KbConfig,
    generation: u64,
    seq: u64,
    state: State,
    /// Acknowledged bytes in the current generation's WAL.
    wal_len: u64,
    replicas: Vec<Replica>,
    stats: KbStats,
}

impl DurableKb {
    /// Opens (or initializes) the store under `root` for the given tgd
    /// set, recovering crash-consistently:
    ///
    /// 1. probe every replica for its verified acknowledged prefix: the
    ///    newest snapshot generation that verifies (corrupt ones are
    ///    skipped, counted as fallbacks) and the WAL prefix that
    ///    checksums and sequence-chains;
    /// 2. elect the longest prefix (ties to the lowest index), replay its
    ///    batches and truncate its WAL at the damage point, so the durable
    ///    state equals the acknowledged state;
    /// 3. repair every other replica to byte-identity with it.
    ///
    /// A root where store files exist but no snapshot verifies is an
    /// error, not a silent re-initialization — losing the base would
    /// change verdicts. A root with no store files initializes generation
    /// 0 (the chase of the empty instance, so rules with empty bodies
    /// still fire).
    pub fn open(
        root: &Path,
        set: &TgdSet,
        config: KbConfig,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        let token = CancelToken::new();
        std::fs::create_dir_all(root).map_err(|e| io_err("create-dir", root, e))?;
        let n = config.replicas.max(1);
        let dirs: Vec<PathBuf> = match n {
            1 => vec![root.to_path_buf()],
            _ => (0..n)
                .map(|i| root.join(format!("replica-{i:02}")))
                .collect(),
        };
        let schema = set.schema().clone();
        let tgds = set.tgds().to_vec();
        let sigma_fp = tgds_fingerprint(&tgds);
        let mut probes = Vec::with_capacity(n);
        for dir in &dirs {
            probes.push(probe(dir, &schema, sigma_fp, &token)?);
        }
        let elected = (0..n)
            .filter_map(|i| match &probes[i] {
                Probe::Verified(p) => Some((i, p.acked())),
                _ => None,
            })
            .max_by(|(ia, sa), (ib, sb)| sa.cmp(sb).then(ib.cmp(ia)))
            .map(|(i, _)| i);
        let prefix = match elected.map(|i| std::mem::replace(&mut probes[i], Probe::Fresh)) {
            Some(Probe::Verified(prefix)) => Some(prefix),
            // No replica verifies: initialize only if none holds damage.
            _ => {
                if let Some(Probe::Damaged(e)) =
                    probes.iter().find(|p| matches!(p, Probe::Damaged(_)))
                {
                    return Err(e.clone());
                }
                None
            }
        };
        let elected = elected.unwrap_or(0);
        let fresh = prefix.is_none();
        let (generation, seq) = prefix
            .as_ref()
            .map_or((0, 0), |p| (p.generation, p.acked()));
        // Replicas at the elected position are repaired in place; the
        // rest are re-shipped from it. The probed states are dropped
        // before the replay.
        let identical: Vec<bool> = probes
            .iter()
            .map(|p| matches!(p, Probe::Verified(v) if v.generation == generation && v.acked() == seq))
            .collect();
        drop(probes);

        let mut report = RecoveryReport {
            generation,
            seq,
            replayed_batches: 0,
            truncated_frames: 0,
            snapshot_fallbacks: 0,
            fresh,
            elected,
            failover: elected != 0,
            repaired: 0,
        };
        // The fresh store's generation-0 snapshot.
        let mut seed = None;
        let (state, wal_len, snapshot_bytes) = match prefix {
            Some(prefix) => {
                let mut state = prefix.state;
                for batch in &prefix.batches {
                    let folded = fold_batch(
                        &state,
                        &batch.inserts,
                        &batch.retracts,
                        &tgds,
                        &config,
                        &token,
                    )?;
                    state = folded.0;
                }
                report.replayed_batches = prefix.batches.len() as u64;
                report.truncated_frames = u64::from(prefix.truncated);
                report.snapshot_fallbacks = prefix.fallbacks;
                (state, prefix.wal_len, prefix.snapshot_bytes)
            }
            None => {
                let base = Instance::new(schema.clone());
                let result = full_chase(&base, &tgds, &config, &token);
                if result.outcome != ChaseOutcome::Terminated {
                    return Err(StoreError::ChaseDidNotTerminate(result.outcome));
                }
                let state = State {
                    base,
                    chased: result.instance,
                    nulls: result.nulls,
                };
                let snapshot = encode_snapshot(sigma_fp, 0, &state);
                let len = snapshot.len() as u64;
                seed = Some(snapshot);
                (state, 0, len)
            }
        };
        let replicas = dirs
            .into_iter()
            .zip(identical)
            .map(|(dir, same)| Replica::new(dir, if same { 0 } else { snapshot_bytes + wal_len }))
            .collect();
        let mut kb = DurableKb {
            schema,
            tgds,
            sigma_fp,
            config,
            generation,
            seq,
            state,
            wal_len,
            replicas,
            stats: KbStats::default(),
        };
        let wal = match &seed {
            Some(snapshot) => install(&kb.replicas[0].dir, 0, snapshot, &[], &token)?,
            None => trim(&kb.replicas[elected].dir, kb.generation, wal_len, &token)?,
        };
        kb.replicas[elected].admit(wal);
        kb.heal(&token, false);
        // Seeding a brand-new store's other replicas is not a repair, and
        // trimming a torn tail at open is recovery, not an un-wedge.
        if !fresh {
            report.repaired = kb.stats.repairs as usize;
        }
        kb.stats = KbStats {
            recoveries: u64::from(!fresh),
            replayed_batches: report.replayed_batches,
            truncated_frames: report.truncated_frames,
            snapshot_fallbacks: report.snapshot_fallbacks,
            repairs: report.repaired as u64,
            failovers: u64::from(report.failover),
            ..KbStats::default()
        };
        Ok((kb, report))
    }

    /// Applies one batch: repair what can be repaired, fold once in
    /// memory, fan the sealed WAL frame out to every healthy replica
    /// (bounded jittered retries for transient faults), and acknowledge —
    /// commit to memory — only once `quorum` replicas hold it durably.
    /// Short of quorum, every replica that did take the frame is rolled
    /// back and memory is unchanged; the error is the replica's own
    /// ([`StoreError::TornWrite`], [`StoreError::FsyncFailed`], …) for a
    /// one-replica store and [`StoreError::QuorumLost`] otherwise. Reads
    /// keep working. Auto-compacts past the configured WAL size; a
    /// *compaction* failure is recorded, not propagated, because the batch
    /// itself is already durable.
    pub fn apply_governed(
        &mut self,
        inserts: &[Fact],
        retracts: &[Fact],
        token: &CancelToken,
    ) -> Result<ApplyReport, StoreError> {
        // Piggybacked repair (under skip backoff), before the quorum
        // check, so a degraded store heals back when the disks do.
        self.heal(token, true);
        let healthy = self.healthy_count();
        if healthy < self.quorum() {
            return Err(self.refuse(healthy, StoreError::Wedged));
        }
        let (state, rechased) = fold_batch(
            &self.state,
            inserts,
            retracts,
            &self.tgds,
            &self.config,
            token,
        )?;
        let frame = WalBatch {
            seq: self.seq,
            inserts: inserts.to_vec(),
            retracts: retracts.to_vec(),
        }
        .encode();
        let mut appended = Vec::with_capacity(self.replicas.len());
        let mut cause = StoreError::Wedged;
        for i in 0..self.replicas.len() {
            if self.replicas[i].health == ReplicaHealth::Healthy {
                match self.append_to(i, &frame, token) {
                    Ok(()) => appended.push(i),
                    Err(e) => cause = e,
                }
            }
        }
        if appended.len() < self.quorum() {
            // Not acknowledged, so the replicas that did write the frame
            // must forget it — otherwise a failover could serve a batch
            // the caller was told failed.
            for &i in &appended {
                let r = &mut self.replicas[i];
                let rolled_back = r
                    .wal
                    .as_mut()
                    .is_some_and(|w| w.truncate_to(self.wal_len, token).is_ok());
                if !rolled_back {
                    r.demote(ReplicaHealth::Wedged);
                }
            }
            return Err(self.refuse(appended.len(), cause));
        }

        // Acknowledged: commit memory in the same step.
        for (i, r) in self.replicas.iter_mut().enumerate() {
            if !appended.contains(&i) {
                r.lag_bytes += frame.len() as u64;
            }
        }
        self.state = state;
        self.seq += 1;
        self.wal_len += frame.len() as u64;
        self.stats.wal_appends += 1;
        if rechased {
            self.stats.full_rechases += 1;
        } else {
            self.stats.folds += 1;
        }
        if appended.len() < self.replicas.len() {
            self.stats.quorum_waits += 1;
        }
        let mut compacted = false;
        if self.wal_len >= self.config.compact_wal_bytes {
            match self.compact_at(token) {
                Ok(()) => compacted = true,
                Err(_) => self.stats.compaction_failures += 1,
            }
        }
        Ok(ApplyReport {
            seq: self.seq - 1,
            rechased,
            compacted,
            fact_count: self.state.chased.fact_count(),
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

    /// Counts a refused apply and types it: a one-replica store reports
    /// its replica's own failure, a replicated one the lost quorum.
    fn refuse(&mut self, healthy: usize, cause: StoreError) -> StoreError {
        self.stats.quorum_losses += 1;
        if self.replicas.len() == 1 {
            return cause;
        }
        StoreError::QuorumLost {
            healthy,
            quorum: self.quorum(),
        }
    }

    /// Appends `frame` to replica `i` with bounded, jittered retries for
    /// transient faults, demoting the replica when they run out.
    fn append_to(&mut self, i: usize, frame: &[u8], token: &CancelToken) -> Result<(), StoreError> {
        let acked = self.wal_len;
        let salt = self.seq ^ ((i as u64) << 48);
        let r = &mut self.replicas[i];
        // An injected kill takes the whole replica down mid-append — the
        // SIGKILL analogue. Not retryable; repair must re-admit it.
        if token.fault(FaultSite::ReplicaKill) {
            r.kill();
            return Err(StoreError::Wedged);
        }
        // An injected lag silently misses the frame (slow disk, congested
        // peer): the replica just falls behind.
        if token.fault(FaultSite::ReplicaLag) {
            r.demote(ReplicaHealth::Lagging);
            return Err(injected("replica-lag", &r.dir));
        }
        let mut attempt = 0;
        loop {
            let result = if token.fault(FaultSite::ReplicaAppendFail) {
                Err(injected("replica-append", &r.dir))
            } else {
                match r.wal.as_mut() {
                    Some(wal) => wal.append_frame(frame, token).map(drop),
                    None => Err(StoreError::Wedged),
                }
            };
            let Err(err) = result else { return Ok(()) };
            // A torn write leaves garbage past the acknowledged prefix;
            // cutting it off makes the fault retryable like any other.
            let torn = matches!(err, StoreError::TornWrite { .. });
            let stuck = |w: &mut SegmentWriter| w.truncate_to(acked, token).is_err();
            if attempt == RETRIES || (torn && r.wal.as_mut().is_none_or(stuck)) {
                let wedged = torn || err == StoreError::Wedged;
                r.demote(if wedged {
                    ReplicaHealth::Wedged
                } else {
                    ReplicaHealth::Lagging
                });
                return Err(err);
            }
            attempt += 1;
            self.stats.retries += 1;
            backoff_sleep(self.config.retry_backoff_ms, attempt, salt);
        }
    }

    /// Tries to repair every non-healthy replica, fewest missed bytes
    /// first (so in-place repairs can serve as peers for re-ships),
    /// returning how many came back. `patient` honors each replica's skip
    /// backoff, which grows exponentially with failed attempts.
    fn heal(&mut self, token: &CancelToken, patient: bool) -> usize {
        let mut order: Vec<usize> = (0..self.replicas.len())
            .filter(|&i| self.replicas[i].health != ReplicaHealth::Healthy)
            .collect();
        order.sort_by_key(|&i| self.replicas[i].lag_bytes);
        let mut healed = 0;
        for i in order {
            let r = &mut self.replicas[i];
            if patient && r.repair_skip > 0 {
                r.repair_skip -= 1;
                continue;
            }
            if self.repair_replica(i, token).is_ok() {
                healed += 1;
            } else {
                let r = &mut self.replicas[i];
                r.repair_attempts = r.repair_attempts.saturating_add(1);
                r.repair_skip = 1u64 << r.repair_attempts.min(10);
            }
        }
        healed
    }

    /// Repairs replica `i` by the one rule (module docs of
    /// [`crate::replica`]): in place when it missed nothing acknowledged,
    /// else re-shipped from a healthy peer, else reseeded from memory at
    /// the next generation.
    fn repair_replica(&mut self, i: usize, token: &CancelToken) -> Result<(), StoreError> {
        let dir = self.replicas[i].dir.clone();
        if self.replicas[i].lag_bytes == 0 {
            for attempt in 0..=RETRIES {
                if attempt > 0 {
                    backoff_sleep(self.config.retry_backoff_ms, attempt, self.seq);
                }
                if let Ok(wal) = trim(&dir, self.generation, self.wal_len, token) {
                    self.replicas[i].admit(wal);
                    self.stats.unwedge_recoveries += 1;
                    return Ok(());
                }
            }
        }
        let peer = self
            .replicas
            .iter()
            .position(|r| r.health == ReplicaHealth::Healthy);
        let wal = match peer {
            Some(j) => {
                let src = &self.replicas[j].dir;
                let (snapshot, wal) = read_generation(src, self.generation, self.wal_len)?;
                install(&dir, self.generation, &snapshot, &wal, token)?
            }
            None => {
                let next = self.generation + 1;
                let snapshot = encode_snapshot(self.sigma_fp, self.seq, &self.state);
                let wal = install(&dir, next, &snapshot, &[], token)?;
                // Every other replica now misses the new generation.
                for r in &mut self.replicas {
                    r.lag_bytes += snapshot.len() as u64;
                }
                self.generation = next;
                self.wal_len = 0;
                wal
            }
        };
        self.replicas[i].admit(wal);
        self.stats.repairs += 1;
        Ok(())
    }

    /// Repairs every non-healthy replica now (no skip backoff), returning
    /// how many came back — the operational "re-admit the node" hook.
    pub fn repair(&mut self) -> usize {
        self.heal(&CancelToken::new(), false)
    }

    /// Folds the WAL into a fresh snapshot generation on every healthy
    /// replica: see [`crate::replica`] for why the new WAL is created
    /// before the snapshot rename commits the generation. The generation
    /// advances when at least one replica committed it; a replica that
    /// did not is demoted to `Lagging` (its previous generation is still a
    /// complete acknowledged state) and re-shipped later. When none
    /// committed, nothing changes and the WAL keeps growing.
    pub fn compact(&mut self) -> Result<(), StoreError> {
        self.compact_at(&CancelToken::new())
    }

    fn compact_at(&mut self, token: &CancelToken) -> Result<(), StoreError> {
        let next = self.generation + 1;
        let snapshot = encode_snapshot(self.sigma_fp, self.seq, &self.state);
        let mut installed = Vec::new();
        let mut first_err = None;
        for (i, r) in self.replicas.iter().enumerate() {
            if r.health == ReplicaHealth::Healthy {
                match install(&r.dir, next, &snapshot, &[], token) {
                    Ok(wal) => installed.push((i, wal)),
                    Err(e) => {
                        first_err.get_or_insert(e);
                    }
                }
            }
        }
        if installed.is_empty() {
            return Err(first_err.unwrap_or(StoreError::QuorumLost {
                healthy: 0,
                quorum: self.quorum(),
            }));
        }
        for r in &mut self.replicas {
            r.lag_bytes += snapshot.len() as u64;
            if r.health == ReplicaHealth::Healthy {
                r.demote(ReplicaHealth::Lagging);
            }
        }
        for (i, wal) in installed {
            self.replicas[i].admit(wal);
        }
        self.generation = next;
        self.wal_len = 0;
        self.stats.compactions += 1;
        Ok(())
    }

    /// Marks replica `i` dead (handle dropped, health `Wedged`) — the
    /// in-process stand-in for SIGKILLing a replica node. Acknowledged
    /// data is untouched on its disk. Opportunistic repair leaves it out
    /// for the next two applies; [`DurableKb::repair`] re-admits it
    /// immediately.
    pub fn kill_replica(&mut self, i: usize) {
        if let Some(r) = self.replicas.get_mut(i) {
            r.kill();
        }
    }

    /// Re-fsyncs every healthy replica's WAL (appends already sync per
    /// frame, so this is a cheap belt-and-braces barrier for graceful
    /// shutdown).
    pub fn flush(&mut self) -> Result<(), StoreError> {
        let token = CancelToken::new();
        for wal in self.replicas.iter_mut().filter_map(|r| r.wal.as_mut()) {
            wal.sync(&token)?;
        }
        Ok(())
    }

    fn quorum(&self) -> usize {
        self.config.quorum.clamp(1, self.replicas.len())
    }

    /// Replicas currently healthy.
    pub fn healthy_count(&self) -> usize {
        self.replicas
            .iter()
            .filter(|r| r.health == ReplicaHealth::Healthy)
            .count()
    }

    /// `true` when the store is below its write quorum (applies fail;
    /// reads still work).
    pub fn read_only(&self) -> bool {
        self.healthy_count() < self.quorum()
    }

    /// `true` while some replica's handle is dead (a torn write retries
    /// could not clear, or a kill); the next apply tries to repair it.
    pub fn is_wedged(&self) -> bool {
        self.replicas
            .iter()
            .any(|r| r.health == ReplicaHealth::Wedged)
    }

    /// Health of replica `i`.
    pub fn replica_health(&self, i: usize) -> Option<ReplicaHealth> {
        self.replicas.get(i).map(|r| r.health)
    }

    /// The replica directories, in index order (the root alone for a
    /// one-replica store).
    pub fn replica_dirs(&self) -> Vec<PathBuf> {
        self.replicas.iter().map(|r| r.dir.clone()).collect()
    }

    /// Fingerprint of the tgd set the store is bound to (what
    /// [`DurableKb::open`] checks incoming sets against).
    pub fn sigma_fingerprint(&self) -> u64 {
        self.sigma_fp
    }

    /// The chased fixpoint (base ∪ everything derivable from it).
    pub fn chased(&self) -> &Instance {
        &self.state.chased
    }

    /// The base instance (exactly the acknowledged inserts minus
    /// retracts; no derived facts).
    pub fn base(&self) -> &Instance {
        &self.state.base
    }

    /// Labeled nulls of the chased fixpoint.
    pub fn nulls(&self) -> &BTreeSet<Elem> {
        &self.state.nulls
    }

    /// `true` iff the exact tuple is in the chased fixpoint.
    pub fn holds(&self, pred: PredId, args: &[Elem]) -> bool {
        self.state.chased.contains_fact(pred, args)
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
        self.wal_len
    }

    /// Counters for this handle; `lag_bytes` is the live backlog.
    pub fn stats(&self) -> KbStats {
        KbStats {
            lag_bytes: self.replicas.iter().map(|r| r.lag_bytes).sum(),
            ..self.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::{snapshot_name, wal_name};
    use tgdkit_chase::checkpoint::CheckpointError;
    use tgdkit_chase::FaultPlan;
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
