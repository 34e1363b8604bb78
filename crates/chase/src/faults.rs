//! Deterministic fault injection for the chase/rewrite pipeline
//! (test/bench-only).
//!
//! A [`FaultPlan`] rides inside a [`CancelToken`](crate::CancelToken)
//! ([`CancelToken::with_faults`](crate::CancelToken::with_faults)) and is
//! consulted by the governed code paths at fixed injection sites
//! ([`FaultSite`]): worker panics in the trigger search and the candidate
//! evaluator, spurious budget trips at round starts, and deadline expiries
//! at every cancellation check. Decisions are a pure function of
//! `(seed, site, per-site invocation ordinal)` — no global state, no RNG
//! object to thread — so a schedule replays exactly on serial runs and
//! site-for-site on parallel ones (where the ordinal↔call-site mapping
//! follows thread interleaving).
//!
//! The plan *constructors* are compiled only under `cfg(test)` or the
//! `tgdkit-faults` cargo feature, so production builds cannot construct a
//! faulting token; the plumbing (the `Option<FaultPlan>` check in
//! [`CancelToken::fault`](crate::CancelToken::fault)) is always compiled
//! and costs one `Option` discriminant test when no plan is attached.
//!
//! ## The soundness invariant under test
//!
//! Every injected fault truncates work (a panicked worker's partial output
//! is discarded; a tripped budget or expired deadline stops a chase at a
//! round boundary) and never fabricates facts. Consequently an injected
//! fault may only degrade `Proved`/`Disproved` verdicts to `Unknown`,
//! never invert one — the property the fault proptests assert.

use std::sync::atomic::{AtomicU64, Ordering};

/// Where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Panic inside a per-tgd trigger search. Contained by
    /// `catch_unwind`; the chase discards the round's partial trigger set
    /// and reports `Cancelled`.
    TriggerWorkerPanic = 0,
    /// Panic inside a per-group candidate evaluation (serial or
    /// work-stealing worker). Contained; the group's members stay
    /// `Unknown`.
    GroupEvalPanic = 1,
    /// Spurious `BudgetExceeded` at a chase round start.
    BudgetTrip = 2,
    /// Spurious deadline expiry at a cancellation check
    /// ([`CancelToken::is_cancelled`](crate::CancelToken::is_cancelled)).
    DeadlineExpire = 3,
    /// Spurious memory-budget trip at a *suspension* site: a top-level
    /// chase round start or an evaluator group boundary — where the
    /// [`MemoryAccountant`](crate::MemoryAccountant) is consulted and a
    /// checkpoint can be taken. The run reports
    /// `MemoryExceeded`/`Suspended` and must be resumable, so the
    /// evaluators mask this site for the chases *inside* a group
    /// ([`CancelToken::masking_fault`](crate::CancelToken::masking_fault));
    /// an unrecoverable in-chase trip is [`FaultSite::BudgetTrip`]'s job.
    MemBudgetTrip = 4,
    /// Simulated checkpoint corruption at decode time: the governed
    /// decoders report a checksum mismatch as if the payload had rotted.
    /// Exercises the typed-error path without hand-flipping bytes.
    CheckpointCorrupt = 5,
    /// Torn write at a durable-store WAL append (`tgdkit-store`): only a
    /// prefix of the sealed frame reaches the file — exactly what a crash
    /// mid-`write` leaves behind — and the append reports a typed error.
    /// Recovery must truncate at the torn frame and keep the prefix.
    WalTornWrite = 6,
    /// Simulated segment-file corruption at frame *read* time: the
    /// governed segment scanner reports a checksum mismatch for a frame
    /// whose bytes are actually intact (the on-disk analogue of
    /// [`FaultSite::CheckpointCorrupt`]).
    SegmentCorrupt = 7,
    /// `fsync` failure at a durable-store flush point. The store must
    /// refuse to acknowledge the un-synced write (rolling its file back)
    /// rather than pretend the bytes are durable.
    FsyncFail = 8,
    /// Transient append failure on one *replica* of a replicated store
    /// (`tgdkit-store`'s `ReplicatedKb`): the frame does not reach that
    /// replica's WAL on this attempt. Retryable — the replicated append
    /// path retries with jittered backoff before demoting the replica to
    /// `Lagging`.
    ReplicaAppendFail = 9,
    /// A replica silently misses an append deadline (the slow-disk /
    /// congested-peer failure): the frame is skipped without an error and
    /// the replica is demoted to `Lagging` with its lag accounted, to be
    /// healed by catch-up repair.
    ReplicaLag = 10,
    /// A replica dies mid-drive (the SIGKILL analogue): its handle is
    /// wedged and every subsequent append to it fails until repair
    /// re-ships the segment files and re-admits it.
    ReplicaKill = 11,
}

/// All injection sites, in discriminant order.
pub const FAULT_SITES: [FaultSite; 12] = [
    FaultSite::TriggerWorkerPanic,
    FaultSite::GroupEvalPanic,
    FaultSite::BudgetTrip,
    FaultSite::DeadlineExpire,
    FaultSite::MemBudgetTrip,
    FaultSite::CheckpointCorrupt,
    FaultSite::WalTornWrite,
    FaultSite::SegmentCorrupt,
    FaultSite::FsyncFail,
    FaultSite::ReplicaAppendFail,
    FaultSite::ReplicaLag,
    FaultSite::ReplicaKill,
];

/// The panic-payload prefix used by injected panics; the containment sites
/// and [`silence_injected_panics`] recognize it.
pub const INJECTED_PANIC: &str = "injected fault";

/// A seeded, deterministic fault schedule.
///
/// Per site, the `k`-th consultation faults iff
/// `splitmix64(seed ^ site ^ k) % period == 0`; `period` 0 disables the
/// site and 1 faults every time. See the module docs for determinism
/// caveats under parallel execution.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    periods: [u64; 12],
    counters: [AtomicU64; 12],
}

impl FaultPlan {
    #[cfg(any(test, feature = "tgdkit-faults"))]
    fn with_periods(seed: u64, periods: [u64; 12]) -> Self {
        FaultPlan {
            seed,
            periods,
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// A mixed schedule over all sites with distinct prime periods, so
    /// different seeds exercise different interleavings of panics, budget
    /// trips, and expiries.
    #[cfg(any(test, feature = "tgdkit-faults"))]
    pub fn seeded(seed: u64) -> Self {
        Self::with_periods(seed, [5, 7, 11, 31, 13, 17, 19, 23, 29, 37, 41, 43])
    }

    /// A schedule faulting only at `site`, every `period`-th consultation
    /// on average (seeded); `period` 1 faults every time.
    #[cfg(any(test, feature = "tgdkit-faults"))]
    pub fn only(seed: u64, site: FaultSite, period: u64) -> Self {
        let mut periods = [0u64; 12];
        periods[site as usize] = period;
        Self::with_periods(seed, periods)
    }

    /// A schedule that faults at `site` on every consultation.
    #[cfg(any(test, feature = "tgdkit-faults"))]
    pub fn always(site: FaultSite) -> Self {
        Self::only(0, site, 1)
    }

    pub(crate) fn should_fault(&self, site: FaultSite) -> bool {
        let i = site as usize;
        let period = self.periods[i];
        if period == 0 {
            return false;
        }
        if period == 1 {
            return true;
        }
        let k = self.counters[i].fetch_add(1, Ordering::Relaxed);
        splitmix64(self.seed ^ ((i as u64) << 56) ^ k).is_multiple_of(period)
    }
}

/// SplitMix64 finalizer: a cheap, well-distributed hash for the fault
/// decision function.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The fault-schedule seed for this process: `TGDKIT_FAULTS_SEED` if set
/// and numeric, else 0. CI runs the fault proptests under a small seed
/// matrix through this knob.
#[cfg(any(test, feature = "tgdkit-faults"))]
pub fn env_seed() -> u64 {
    std::env::var("TGDKIT_FAULTS_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0)
}

/// Installs (once per process) a panic hook that swallows the backtrace
/// spam of *injected* panics — recognized by the [`INJECTED_PANIC`] payload
/// prefix — and forwards every other panic to the previous hook. Call from
/// tests that inject [`FaultSite::TriggerWorkerPanic`] /
/// [`FaultSite::GroupEvalPanic`] so contained faults don't flood stderr.
#[cfg(any(test, feature = "tgdkit-faults"))]
pub fn silence_injected_panics() {
    use std::sync::Once;
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| s.contains(INJECTED_PANIC))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<&str>()
                        .map(|s| s.contains(INJECTED_PANIC))
                })
                .unwrap_or(false);
            if !injected {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_site_never_faults() {
        let plan = FaultPlan::only(42, FaultSite::BudgetTrip, 3);
        for _ in 0..100 {
            assert!(!plan.should_fault(FaultSite::TriggerWorkerPanic));
            assert!(!plan.should_fault(FaultSite::DeadlineExpire));
        }
    }

    #[test]
    fn always_faults_every_time() {
        let plan = FaultPlan::always(FaultSite::GroupEvalPanic);
        for _ in 0..10 {
            assert!(plan.should_fault(FaultSite::GroupEvalPanic));
        }
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let a = FaultPlan::seeded(123);
        let b = FaultPlan::seeded(123);
        let sched_a: Vec<bool> = (0..200)
            .map(|_| a.should_fault(FaultSite::BudgetTrip))
            .collect();
        let sched_b: Vec<bool> = (0..200)
            .map(|_| b.should_fault(FaultSite::BudgetTrip))
            .collect();
        assert_eq!(sched_a, sched_b);
        // A period-11 site fires sometimes but not always over 200 draws.
        assert!(sched_a.iter().any(|&f| f));
        assert!(sched_a.iter().any(|&f| !f));
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = FaultPlan::seeded(1);
        let b = FaultPlan::seeded(2);
        let sched_a: Vec<bool> = (0..200)
            .map(|_| a.should_fault(FaultSite::BudgetTrip))
            .collect();
        let sched_b: Vec<bool> = (0..200)
            .map(|_| b.should_fault(FaultSite::BudgetTrip))
            .collect();
        assert_ne!(sched_a, sched_b);
    }

    #[test]
    fn env_seed_defaults_to_zero() {
        // The variable is unset in the test environment unless CI sets it;
        // either way the call must not panic and must parse cleanly.
        let _ = env_seed();
    }
}
