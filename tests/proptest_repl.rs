//! Replicated-store property tests: for ANY seeded schedule of torn
//! writes, fsync failures, transient replica append faults, replica
//! lags, and replica kills, a quorum-2-of-3 `DurableKb`
//!
//! 1. never loses an acknowledged batch: every apply the caller saw
//!    succeed is present after a full close-and-recover cycle, and the
//!    recovered closure is identical to a one-replica *shadow* store
//!    that absorbed exactly the acknowledged batches with no faults at
//!    all;
//! 2. degrades below quorum to typed `QuorumLost` errors — read-only,
//!    never a panic, never a silently dropped batch;
//! 3. survives the total loss of any `quorum - 1` replica directories
//!    with a verified failover that serves the same closure.
//!
//! CI runs this file under the `TGDKIT_FAULTS_SEED` matrix, so the
//! schedules vary across matrix legs.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use tgdkit::chase_crate::faults::{env_seed, silence_injected_panics, FaultPlan};
use tgdkit::chase_crate::CancelToken;
use tgdkit::instance::{Elem, Fact};
use tgdkit::logic::{parse_tgds, Schema, TgdSet};
use tgdkit::store::{DurableKb, KbConfig, StoreError};

fn test_set() -> TgdSet {
    let mut schema = Schema::default();
    let tgds = parse_tgds(
        &mut schema,
        "E(x,y), E(y,z) -> E(x,z). P(x) -> exists w : E(x,w).",
    )
    .unwrap();
    TgdSet::new(schema, tgds).unwrap()
}

/// A unique scratch directory per case (tests run concurrently).
fn tmpdir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "tgdkit-proptest-repl-{tag}-{}-{n}",
        std::process::id()
    ))
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Deterministic insert/retract batches over a six-constant domain (the
/// same generator shape as `proptest_durable`).
fn gen_batches(set: &TgdSet, seed: u64, n: usize) -> Vec<(Vec<Fact>, Vec<Fact>)> {
    let e = set.schema().pred_id("E").unwrap();
    let p = set.schema().pred_id("P").unwrap();
    let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
    let fact = |state: &mut u64| {
        if lcg(state).is_multiple_of(3) {
            Fact::new(p, vec![Elem((lcg(state) % 6) as u32)])
        } else {
            Fact::new(
                e,
                vec![Elem((lcg(state) % 6) as u32), Elem((lcg(state) % 6) as u32)],
            )
        }
    };
    (0..n)
        .map(|_| {
            let inserts = (0..1 + (lcg(&mut state) % 3) as usize)
                .map(|_| fact(&mut state))
                .collect();
            let retracts = (0..(lcg(&mut state) % 2) as usize)
                .map(|_| fact(&mut state))
                .collect();
            (inserts, retracts)
        })
        .collect()
}

/// 3 replicas at quorum 2, no auto-compaction (the properties compare
/// WAL timelines), no real backoff sleeps.
fn repl_config() -> KbConfig {
    KbConfig {
        replicas: 3,
        quorum: 2,
        retry_backoff_ms: 0,
        compact_wal_bytes: u64::MAX,
        ..KbConfig::default()
    }
}

/// The shadow: the flat one-replica store.
fn shadow_config() -> KbConfig {
    KbConfig {
        replicas: 1,
        compact_wal_bytes: u64::MAX,
        ..KbConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property 1 (the acknowledged prefix is sacred): under an arbitrary
    /// seeded schedule mixing every fault site — torn writes, fsync
    /// failures, replica append faults / lags / kills, plus the chase's
    /// own injected panics and budget trips — the replicated store's
    /// in-memory state always equals a fault-free shadow store that
    /// applied exactly the acknowledged batches, and so does the state a
    /// full close-and-recover reconstructs from the replica directories.
    #[test]
    fn seeded_fault_schedules_never_lose_acknowledged_batches(
        seed in 0u64..64,
        n_batches in 4usize..12,
    ) {
        silence_injected_panics();
        let set = test_set();
        let root = tmpdir("shadowed");
        let shadow_dir = tmpdir("shadow");
        let batches = gen_batches(&set, seed, n_batches);
        let plan_seed = env_seed().wrapping_mul(1000) + seed;
        let token = CancelToken::with_faults(FaultPlan::seeded(plan_seed));

        let (mut kb, _) = DurableKb::open(&root, &set, repl_config()).unwrap();
        let (mut shadow, _) = DurableKb::open(&shadow_dir, &set, shadow_config()).unwrap();
        let mut acked = 0u64;
        for (inserts, retracts) in &batches {
            // A failed apply is NOT acknowledged; whatever the fault was,
            // it must not have moved the in-memory state.
            if let Ok(report) = kb.apply_governed(inserts, retracts, &token) {
                prop_assert_eq!(report.seq, acked, "acks must be gapless");
                acked += 1;
                // The shadow absorbs the same batch fault-free.
                shadow.apply(inserts, retracts).unwrap();
            }
            prop_assert_eq!(kb.seq(), acked);
            prop_assert_eq!(kb.chased(), shadow.chased(),
                "live closure diverged from the shadow after {} acks", acked);
        }
        prop_assert_eq!(kb.base(), shadow.base());
        drop(kb);

        // Crash-and-recover: a clean reopen of the replica root must
        // reconstruct exactly the acknowledged prefix.
        let (kb, _) = DurableKb::open(&root, &set, repl_config()).unwrap();
        prop_assert_eq!(kb.seq(), acked, "recovery lost or invented acks");
        prop_assert_eq!(kb.chased(), shadow.chased(),
            "recovered closure diverged from the shadow");
        prop_assert_eq!(kb.base(), shadow.base());
        let _ = std::fs::remove_dir_all(&root);
        let _ = std::fs::remove_dir_all(&shadow_dir);
    }

    /// Property 2 (typed degradation): with every replica dead and every
    /// disk pinned unusable, applies fail with `QuorumLost` — typed,
    /// read-only, no panic — and the in-memory closure keeps serving the
    /// acknowledged state unchanged.
    #[test]
    fn below_quorum_is_typed_read_only_never_silent_loss(
        seed in 0u64..64,
        n_batches in 1usize..6,
    ) {
        let set = test_set();
        let root = tmpdir("quorum");
        let batches = gen_batches(&set, seed, n_batches);
        let (mut kb, _) = DurableKb::open(&root, &set, repl_config()).unwrap();
        for (inserts, retracts) in &batches {
            kb.apply(inserts, retracts).unwrap();
        }
        let acked_seq = kb.seq();
        let acked_chased = kb.chased().clone();
        // Kill all three replicas and replace each directory with a plain
        // file, so neither catch-up repair nor reseed can resurrect them.
        let dirs = kb.replica_dirs();
        for (i, dir) in dirs.iter().enumerate() {
            kb.kill_replica(i);
            std::fs::remove_dir_all(dir).unwrap();
            std::fs::write(dir, b"dead disk").unwrap();
        }
        for (inserts, retracts) in gen_batches(&set, seed ^ 0xDEAD, 5).iter() {
            let err = kb.apply(inserts, retracts).unwrap_err();
            prop_assert!(
                matches!(err, StoreError::QuorumLost { .. }),
                "expected QuorumLost, got {}", err
            );
            prop_assert_eq!(kb.seq(), acked_seq, "a refused batch moved seq");
        }
        prop_assert!(kb.read_only());
        prop_assert_eq!(kb.chased(), &acked_chased, "reads must keep serving");
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Property 3 (verified failover): after losing any ONE replica
    /// directory outright (= quorum - 1 of them), reopening elects a
    /// survivor with the full acknowledged prefix, serves the identical
    /// closure, and re-ships the lost replica to byte-identity.
    #[test]
    fn losing_any_quorum_minus_one_replicas_fails_over_losslessly(
        seed in 0u64..64,
        n_batches in 1usize..8,
        lost in 0usize..3,
    ) {
        let set = test_set();
        let root = tmpdir("failover");
        let batches = gen_batches(&set, seed, n_batches);
        let (mut kb, _) = DurableKb::open(&root, &set, repl_config()).unwrap();
        for (inserts, retracts) in &batches {
            kb.apply(inserts, retracts).unwrap();
        }
        let acked_seq = kb.seq();
        let acked_chased = kb.chased().clone();
        let dirs = kb.replica_dirs();
        drop(kb);
        std::fs::remove_dir_all(&dirs[lost]).unwrap();

        let (kb, report) = DurableKb::open(&root, &set, repl_config()).unwrap();
        prop_assert_eq!(report.failover, lost == 0,
            "a failover is exactly an election away from replica-00");
        prop_assert_ne!(report.elected, lost);
        prop_assert_eq!(report.repaired, 1, "the lost replica is re-shipped");
        prop_assert_eq!(kb.seq(), acked_seq, "failover lost acknowledged batches");
        prop_assert_eq!(kb.chased(), &acked_chased, "failover closure diverged");
        prop_assert_eq!(kb.healthy_count(), 3);

        // Byte-identity of the re-shipped replica with the elected one.
        let read_dir = |d: &PathBuf| {
            let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(d)
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
        };
        prop_assert_eq!(read_dir(&dirs[lost]), read_dir(&dirs[report.elected]));
        let _ = std::fs::remove_dir_all(&root);
    }
}
