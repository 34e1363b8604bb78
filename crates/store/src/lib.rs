//! # tgdkit-store
//!
//! The durability layer: a knowledge base (a chased fixpoint plus its
//! un-chased *base* facts) persisted as append-only, checksummed segment
//! files, updated through a write-ahead log, and recovered
//! crash-consistently on open. [`DurableKb`] is the one store handle.
//!
//! ## Layout on disk
//!
//! The store keeps N replica directories (`KbConfig::replicas`, default
//! 1). With one replica the store root *is* the replica; with N ≥ 2 the
//! replicas are byte-identical subdirectories:
//!
//! ```text
//! kb-dir/                          kb-root/
//!   snapshot-000042.tgks             replica-00/  snapshot · wal · marker
//!   wal-000042.tgkw                  replica-01/  (same files, same bytes)
//!   store.tgkm                       replica-02/  …
//! ```
//!
//! A snapshot is one sealed TGCK frame (kind 0x30: sigma fingerprint,
//! sequence number, labeled nulls, base instance, chased instance); a WAL
//! holds one sealed frame (kind 0x31) per acknowledged batch of
//! insertions and retractions, in sequence order; the marker records that
//! a store was initialized here. Both frame kinds reuse the checkpoint
//! frame discipline of `tgdkit-chase` (magic · version · kind · length ·
//! payload · FNV-1a-64 checksum, with the checksum verified before any
//! header field is trusted); the store claims the kind range
//! `0x30..=0x3F`, disjoint from the checkpoint kinds (1–3) and the wire
//! kinds (`0x10..=0x2F`). See [`replica`] for generations and repair.
//!
//! ## Crash consistency
//!
//! An update batch is folded once in memory, its WAL frame fanned out to
//! every healthy replica, and *acknowledged* only once the frame is
//! written and fsynced on at least `quorum` of them; the in-memory fold
//! commits at the same moment. Short of quorum the replicas that took the
//! frame are rolled back, so no replica ever holds an unacknowledged
//! batch, and losing any `quorum - 1` replica directories cannot lose an
//! acknowledged fact. Recovery ([`DurableKb::open`]) probes every replica
//! for its newest valid snapshot plus the WAL prefix that verifies and
//! sequence-chains, elects the longest, replays it, truncates its WAL at
//! the first torn or corrupt frame, and repairs the other replicas — so
//! the durable state is exactly the acknowledged state, and `restart ≡
//! uninterrupted` (byte-identical instances, identical verdicts). Below
//! quorum a replicated store degrades to read-only with typed
//! [`StoreError::QuorumLost`] errors; a one-replica store reports its
//! replica's own failure (`TornWrite`, `FsyncFailed`, …).
//!
//! The I/O fault sites `WalTornWrite`, `SegmentCorrupt` and `FsyncFail`
//! and the replica-scoped sites `ReplicaAppendFail`, `ReplicaLag` and
//! `ReplicaKill` inject exactly these failures under seeded schedules
//! (see `tgdkit_chase::FaultSite`).

pub mod kb;
pub mod replica;
pub mod segment;
pub mod wal;

pub use kb::{DurableKb, KbConfig, KbStats, RecoveryReport};
pub use replica::ReplicaHealth;
pub use segment::{
    scan_frames, FrameScan, SegmentWriter, StoreError, KIND_SNAPSHOT, KIND_WAL_BATCH,
};
pub use wal::WalBatch;
