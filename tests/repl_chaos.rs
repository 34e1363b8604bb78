//! The kill-a-replica chaos smoke (run by CI in the `TGDKIT_FAULTS_SEED`
//! matrix): one replica of a quorum-2-of-3 store is killed mid-drive —
//! its handle dropped cold, the in-process analogue of SIGKILLing the
//! replica node — and the harness asserts that
//!
//! 1. quorum writes keep flowing while the replica is down (every batch
//!    in the drive is acknowledged, none is refused or lost),
//! 2. the rejoined replica is repaired back to **byte-identity** with
//!    the survivors (file-for-file equality, not just logical state),
//! 3. a restart afterwards recovers the full acknowledged prefix.
//!
//! A second schedule drives kills through the injected
//! `FaultSite::ReplicaKill` so the kill lands *inside* an append rather
//! than between batches.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use tgdkit::chase_crate::faults::{env_seed, FaultPlan, FaultSite};
use tgdkit::chase_crate::CancelToken;
use tgdkit::instance::{Elem, Fact};
use tgdkit::logic::{parse_tgds, Schema, TgdSet};
use tgdkit::store::{DurableKb, KbConfig};

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
        "tgdkit-repl-chaos-{tag}-{}-{n}",
        std::process::id()
    ))
}

fn repl_config() -> KbConfig {
    KbConfig {
        replicas: 3,
        quorum: 2,
        retry_backoff_ms: 0,
        compact_wal_bytes: u64::MAX,
        ..KbConfig::default()
    }
}

/// Sorted `(name, bytes)` listing of a replica directory.
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

#[test]
fn kill_one_replica_mid_drive_quorum_continues_and_rejoin_repairs() {
    let set = test_set();
    let root = tmpdir("kill-mid-drive");
    let edge = set.schema().pred_id("E").unwrap();
    let batches = 16u32;
    // The seed matrix varies WHICH replica dies and WHEN.
    let victim = (env_seed() % 3) as usize;
    let kill_at = 3 + (env_seed() / 3) % 8;

    let (mut kb, _) = DurableKb::open(&root, &set, repl_config()).unwrap();
    for i in 0..batches {
        if u64::from(i) == kill_at {
            kb.kill_replica(victim);
        }
        // Every batch must be acknowledged: 2 of 3 replicas are up.
        kb.apply(&[e_fact(&set, i, i + 1)], &[])
            .unwrap_or_else(|e| panic!("quorum write refused at batch {i}: {e}"));
    }
    assert_eq!(
        kb.seq(),
        u64::from(batches),
        "an acknowledged batch was lost"
    );
    assert!(
        kb.stats().quorum_waits >= 1,
        "the drive never ran degraded — the kill did not land"
    );

    // Re-admit the victim (repair may already have caught it up
    // opportunistically; `repair()` makes it unconditional) and check
    // byte-identity across all three replicas.
    kb.repair();
    assert_eq!(kb.healthy_count(), 3, "the killed replica failed to rejoin");
    assert!(kb.stats().repairs >= 1);
    assert_eq!(kb.stats().lag_bytes, 0, "repair left a backlog");
    let dirs = kb.replica_dirs();
    let reference = dir_files(&dirs[0]);
    for dir in &dirs[1..] {
        assert_eq!(
            dir_files(dir),
            reference,
            "replicas are not byte-identical after repair"
        );
    }
    drop(kb);

    // Restart: the acknowledged prefix survives whole.
    let (kb, report) = DurableKb::open(&root, &set, repl_config()).unwrap();
    assert_eq!(kb.seq(), u64::from(batches));
    assert!(!report.failover, "no replica should have outrun replica-00");
    assert!(
        kb.holds(edge, &[Elem(0), Elem(batches)]),
        "recovered closure lost the chain endpoint"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn injected_kills_inside_appends_never_lose_acknowledged_batches() {
    let set = test_set();
    let root = tmpdir("injected-kill");
    let edge = set.schema().pred_id("E").unwrap();
    let batches = 24u32;
    let plan = FaultPlan::only(env_seed().wrapping_add(11), FaultSite::ReplicaKill, 9);
    let token = CancelToken::with_faults(plan);

    let (mut kb, _) = DurableKb::open(&root, &set, repl_config()).unwrap();
    let mut acked = 0u32;
    for _ in 0..batches {
        // A kill can strike any replica mid-append; with enough strikes
        // in one batch, even quorum can be refused — refusals are typed
        // and the batch simply is not acknowledged. Chain edges extend
        // from the acknowledged endpoint, so a refused batch leaves the
        // chain (and the next attempt) unchanged.
        if kb
            .apply_governed(&[e_fact(&set, acked, acked + 1)], &[], &token)
            .is_ok()
        {
            acked += 1;
        }
    }
    assert!(
        acked > 0,
        "the period-9 schedule should let most batches through"
    );
    assert_eq!(kb.seq(), u64::from(acked));
    let live = kb.chased().clone();
    drop(kb);

    // Clean recovery serves exactly the acknowledged closure.
    let (kb, _) = DurableKb::open(&root, &set, repl_config()).unwrap();
    assert_eq!(
        kb.seq(),
        u64::from(acked),
        "recovery lost acknowledged batches"
    );
    assert_eq!(kb.chased(), &live, "recovered closure diverged");
    if acked > 0 {
        assert!(kb.holds(edge, &[Elem(0), Elem(acked)]));
    }
    let _ = std::fs::remove_dir_all(&root);
}
