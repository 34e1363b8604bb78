//! Recovery behavior for *partial generation pairs*: a store directory
//! where a `wal-NNNNNN.tgkw` exists without its snapshot (or vice versa),
//! or where a whole generation's pair was deleted out from under the
//! init marker. The contract under test: a verifying older pair is
//! always preferred over silent re-initialization, a stray WAL from a
//! never-completed generation is ignored, a missing WAL degrades to the
//! snapshot state, and losing *every* snapshot while the marker (or any
//! WAL) remains is a typed error — never a fresh store.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use tgdkit::instance::{Elem, Fact};
use tgdkit::logic::{parse_tgds, Schema, TgdSet};
use tgdkit::store::{DurableKb, KbConfig, StoreError};

fn test_set() -> TgdSet {
    let mut schema = Schema::default();
    let tgds = parse_tgds(&mut schema, "E(x,y), E(y,z) -> E(x,z).").unwrap();
    TgdSet::new(schema, tgds).unwrap()
}

fn e_fact(set: &TgdSet, x: u32, y: u32) -> Fact {
    Fact::new(set.schema().pred_id("E").unwrap(), vec![Elem(x), Elem(y)])
}

fn tmpdir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "tgdkit-durable-generations-{tag}-{}-{n}",
        std::process::id()
    ))
}

fn no_compact_config() -> KbConfig {
    KbConfig {
        compact_wal_bytes: u64::MAX,
        ..KbConfig::default()
    }
}

fn snapshot_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("snapshot-{generation:06}.tgks"))
}

fn wal_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("wal-{generation:06}.tgkw"))
}

/// Builds a generation-0 store with `n` acknowledged chain-edge batches.
fn build(dir: &Path, set: &TgdSet, n: u32) {
    let (mut kb, report) = DurableKb::open(dir, set, no_compact_config()).unwrap();
    assert!(report.fresh);
    for i in 0..n {
        kb.apply(&[e_fact(set, i, i + 1)], &[]).unwrap();
    }
}

#[test]
fn stray_wal_without_its_snapshot_is_ignored() {
    // A crash between "write the next generation's WAL" and "seal its
    // snapshot" leaves wal-000001 with no snapshot-000001. Recovery must
    // key off snapshots only: generation 0 still verifies and the stray
    // file changes nothing.
    let set = test_set();
    let dir = tmpdir("stray-wal");
    build(&dir, &set, 3);
    std::fs::copy(wal_path(&dir, 0), wal_path(&dir, 1)).unwrap();
    let (kb, report) = DurableKb::open(&dir, &set, no_compact_config()).unwrap();
    assert_eq!(report.generation, 0);
    assert_eq!(kb.seq(), 3);
    assert!(kb.holds(set.schema().pred_id("E").unwrap(), &[Elem(0), Elem(3)]));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_without_its_wal_recovers_the_snapshot_state() {
    // Deleting a generation's WAL behind the store's back loses the
    // batches after the snapshot — a single directory cannot tell a
    // deleted WAL from one that was never written — but recovery must
    // still land on the snapshot's exact state, typed and quiet, not
    // panic or invent frames. (Surviving this very scenario with zero
    // loss is what the replicated store is for.)
    let set = test_set();
    let dir = tmpdir("no-wal");
    build(&dir, &set, 3);
    std::fs::remove_file(wal_path(&dir, 0)).unwrap();
    let (kb, report) = DurableKb::open(&dir, &set, no_compact_config()).unwrap();
    assert_eq!(report.generation, 0);
    assert_eq!(report.replayed_batches, 0);
    assert_eq!(kb.seq(), 0, "generation 0's snapshot precedes every batch");
    assert_eq!(kb.chased().fact_count(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compacted_snapshot_without_its_wal_keeps_every_folded_batch() {
    // After compaction the snapshot *contains* the folded batches, so a
    // missing post-compaction WAL loses nothing that was compacted.
    let set = test_set();
    let dir = tmpdir("compacted-no-wal");
    let config = KbConfig {
        compact_wal_bytes: 1, // every apply compacts
        ..KbConfig::default()
    };
    let (mut kb, _) = DurableKb::open(&dir, &set, config).unwrap();
    for i in 0..3u32 {
        let report = kb.apply(&[e_fact(&set, i, i + 1)], &[]).unwrap();
        assert!(report.compacted);
    }
    let generation = kb.generation();
    assert!(generation >= 3);
    drop(kb);
    let _ = std::fs::remove_file(wal_path(&dir, generation));
    let (kb, report) = DurableKb::open(&dir, &set, config).unwrap();
    assert_eq!(report.generation, generation);
    assert_eq!(kb.seq(), 3, "compacted batches live in the snapshot");
    assert!(kb.holds(set.schema().pred_id("E").unwrap(), &[Elem(0), Elem(3)]));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_newest_generation_falls_back_to_an_older_pair() {
    // A damaged newest snapshot must fall back to the previous verifying
    // generation (kept here by hand — compaction normally removes it)
    // and replay that generation's WAL, reporting the fallback.
    let set = test_set();
    let dir = tmpdir("fallback");
    build(&dir, &set, 2);
    // Forge generation 1 as a *corrupt* copy of generation 0's snapshot.
    let mut snap = std::fs::read(snapshot_path(&dir, 0)).unwrap();
    let mid = snap.len() / 2;
    snap[mid] ^= 0xFF;
    std::fs::write(snapshot_path(&dir, 1), &snap).unwrap();
    let (kb, report) = DurableKb::open(&dir, &set, no_compact_config()).unwrap();
    assert_eq!(report.generation, 0, "fell back past the corrupt pair");
    assert!(report.snapshot_fallbacks >= 1);
    assert_eq!(kb.seq(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deleting_a_whole_generation_is_a_typed_error_not_a_reinit() {
    // Both files of the only generation vanish but the init marker
    // remains: recovery must refuse with a typed error. Re-initializing
    // would serve an empty closure where facts were acknowledged —
    // silently inverting entailment verdicts.
    let set = test_set();
    let dir = tmpdir("gone");
    build(&dir, &set, 2);
    std::fs::remove_file(snapshot_path(&dir, 0)).unwrap();
    std::fs::remove_file(wal_path(&dir, 0)).unwrap();
    let err = DurableKb::open(&dir, &set, no_compact_config()).unwrap_err();
    assert!(
        matches!(err, StoreError::Frame(_)),
        "expected a typed frame error, got {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn orphan_wal_alone_is_a_typed_error_not_a_reinit() {
    // Every snapshot *and* the marker are gone but an acknowledged WAL
    // survives: the directory provably held a store, so open must error
    // rather than bury the orphan under a fresh generation 0.
    let set = test_set();
    let dir = tmpdir("orphan-wal");
    build(&dir, &set, 2);
    std::fs::remove_file(snapshot_path(&dir, 0)).unwrap();
    std::fs::remove_file(dir.join("store.tgkm")).unwrap();
    let err = DurableKb::open(&dir, &set, no_compact_config()).unwrap_err();
    assert!(
        matches!(err, StoreError::Frame(_)),
        "expected a typed frame error, got {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_compaction_never_hides_later_batches() {
    // A compaction that fails must leave the old generation newest on
    // disk, or batches acknowledged on the old WAL afterwards vanish at
    // recovery behind a stale snapshot. Directories squatting on the next
    // generation's file names make two compactions in a row fail: the
    // first while creating its WAL, the second before it can install a
    // snapshot at all.
    let set = test_set();
    let dir = tmpdir("failed-compaction");
    let config = KbConfig {
        compact_wal_bytes: 1, // every apply compacts
        ..KbConfig::default()
    };
    let (mut kb, _) = DurableKb::open(&dir, &set, config).unwrap();
    let wal_squatter = wal_path(&dir, 1);
    std::fs::create_dir(&wal_squatter).unwrap();
    kb.apply(&[e_fact(&set, 0, 1)], &[]).unwrap();
    let snapshot_squatter = dir.join("snapshot-000001.tgks.tmp");
    std::fs::create_dir(&snapshot_squatter).unwrap();
    kb.apply(&[e_fact(&set, 1, 2)], &[]).unwrap();
    assert_eq!(kb.seq(), 2);
    assert_eq!(kb.stats().compaction_failures, 2);
    drop(kb);
    std::fs::remove_dir(&wal_squatter).unwrap();
    std::fs::remove_dir(&snapshot_squatter).unwrap();
    let (kb, report) = DurableKb::open(&dir, &set, config).unwrap();
    assert_eq!(kb.seq(), 2, "recovery dropped an acknowledged batch");
    assert_eq!(report.generation, 0, "no compaction committed");
    assert!(kb.holds(set.schema().pred_id("E").unwrap(), &[Elem(0), Elem(2)]));
    let _ = std::fs::remove_dir_all(&dir);
}
