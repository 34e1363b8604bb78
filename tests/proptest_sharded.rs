//! Sharded-chase property tests: for any tgd set, any start instance, and
//! any shard count 1–8, the chase equals the naive reference chase
//! (`tests/reference_chase.rs`) — byte-identical instances, identical
//! outcomes/rounds/nulls/fired triggers — and has the normalized
//! statistics of the one-shard run; the shard-aware checkpoint frames
//! round-trip trip → encode → decode → resume back onto the uninterrupted
//! run.
//!
//! CI runs this file under the same `TGDKIT_FAULTS_SEED` matrix as
//! `proptest_faults`, so the injected-trip test covers a different fault
//! schedule per matrix leg.

use proptest::prelude::*;
use tgdkit::chase_crate::faults::{env_seed, FaultPlan, FaultSite};
use tgdkit::core::workload::{generate_set, Family, WorkloadParams};
use tgdkit::prelude::*;

mod reference_chase;
use reference_chase::reference_chase;

fn random_set(seed: u64, rules: usize, existentials: usize) -> TgdSet {
    let params = WorkloadParams {
        predicates: 3,
        max_arity: 2,
        rules,
        body_atoms: 2,
        head_atoms: 1,
        universals: 2,
        existentials,
    };
    generate_set(&params, Family::Guarded, seed)
}

/// Unlimited byte budget: the resident-heap figure sums per-shard dedup
/// maps and so differs between shard counts (and the reference chase does
/// not model it); byte budgets are therefore pinned open and
/// `mem_peak_bytes` is zeroed out of the stats comparison below.
const BUDGET: ChaseBudget = ChaseBudget {
    max_facts: 4_000,
    max_rounds: 16,
    max_bytes: usize::MAX,
};

/// Normalized stats with the engine-dependent heap-peak figure removed.
fn comparable(stats: &ChaseStats) -> ChaseStats {
    let mut n = stats.normalized();
    n.mem_peak_bytes = 0;
    n
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The tentpole equivalence: at every shard count 1–8, the sharded
    /// chase reproduces the reference chase bit-for-bit — same instance,
    /// outcome, rounds, nulls, and fired triggers — and the one-shard
    /// chase's normalized stats.
    #[test]
    fn sharded_chase_equals_unsharded(
        set_seed in 0u64..300,
        data_seed in 0u64..300,
        rules in 1usize..4,
        existentials in 0usize..2,
        shards in 1usize..9,
    ) {
        let set = random_set(set_seed, rules, existentials);
        let start = InstanceGen::new(set.schema().clone(), data_seed).generate(4, 0.35);
        let reference = reference_chase(&start, set.tgds(), ChaseVariant::Restricted, BUDGET);
        let one = chase(&start, set.tgds(), ChaseVariant::Restricted, BUDGET);
        let run = Run { shards, ..Run::default() };
        let (sharded, _) = chase_from(
            &run, ChaseStart::Fresh(&start), set.tgds(), ChaseVariant::Restricted, BUDGET,
        ).unwrap();
        prop_assert_eq!(sharded.outcome, reference.outcome);
        prop_assert_eq!(sharded.rounds, reference.rounds);
        prop_assert_eq!(&sharded.nulls, &reference.nulls);
        prop_assert_eq!(
            &sharded.instance, &reference.instance,
            "sharded chase at {} shards diverged", shards
        );
        prop_assert_eq!(sharded.stats.triggers_fired, reference.triggers_fired);
        prop_assert_eq!(comparable(&sharded.stats), comparable(&one.stats));
    }

    /// The oblivious variant holds to the same equivalence (its
    /// fired-trigger memory keys on the universal binding, which the
    /// deduped trigger runs must reproduce in the same order).
    #[test]
    fn sharded_oblivious_chase_equals_unsharded(
        set_seed in 0u64..200,
        data_seed in 0u64..200,
        shards in 1usize..9,
    ) {
        let set = random_set(set_seed, 2, 0);
        let start = InstanceGen::new(set.schema().clone(), data_seed).generate(3, 0.35);
        let reference = reference_chase(&start, set.tgds(), ChaseVariant::Oblivious, BUDGET);
        let one = chase(&start, set.tgds(), ChaseVariant::Oblivious, BUDGET);
        let run = Run { shards, ..Run::default() };
        let (sharded, _) = chase_from(
            &run, ChaseStart::Fresh(&start), set.tgds(), ChaseVariant::Oblivious, BUDGET,
        ).unwrap();
        prop_assert_eq!(sharded.outcome, reference.outcome);
        prop_assert_eq!(sharded.rounds, reference.rounds);
        prop_assert_eq!(&sharded.nulls, &reference.nulls);
        prop_assert_eq!(&sharded.instance, &reference.instance);
        prop_assert_eq!(sharded.stats.triggers_fired, reference.triggers_fired);
        prop_assert_eq!(comparable(&sharded.stats), comparable(&one.stats));
    }

    /// Shard-aware checkpointing: trip the round budget at ANY round,
    /// round-trip the frame through encode/decode (the frame carries the
    /// shard count), resume — and land exactly on the uninterrupted
    /// sharded run, which itself equals the reference chase.
    #[test]
    fn sharded_trip_resume_is_invisible(
        set_seed in 0u64..300,
        rules in 1usize..4,
        shards in 2usize..9,
        trip in 0usize..16,
    ) {
        let set = random_set(set_seed, rules, 1);
        let start = InstanceGen::new(set.schema().clone(), set_seed + 7).generate(4, 0.35);
        let run = Run { shards, checkpoint: true, ..Run::default() };
        let chase = |start, budget| chase_from(&run, start, set.tgds(), ChaseVariant::Restricted, budget);
        let (full, _) = chase(ChaseStart::Fresh(&start), BUDGET).unwrap();
        // A reference run that itself tripped the budget would make the
        // resume legitimately suspend again; pin the property to runs
        // that complete.
        prop_assume!(full.outcome == ChaseOutcome::Terminated);
        prop_assume!(full.stats.rounds > 0);
        let reference = reference_chase(&start, set.tgds(), ChaseVariant::Restricted, BUDGET);
        prop_assert_eq!(&full.instance, &reference.instance);
        prop_assert_eq!(&full.nulls, &reference.nulls);
        let j = trip % full.stats.rounds;
        let (tripped, cp) = chase(ChaseStart::Fresh(&start), ChaseBudget { max_rounds: j, ..BUDGET }).unwrap();
        prop_assert_eq!(tripped.outcome, ChaseOutcome::BudgetExceeded);
        let cp = cp.expect("budget trip must be resumable");
        // The frame round-trips with its shard dimension intact: the
        // decoded checkpoint equals the captured one, and resuming it
        // (which re-partitions at the frame's shard count) completes
        // exactly as the uninterrupted sharded run did.
        let decoded = ChaseCheckpoint::decode(&Run::default(), &cp.encode(), set.schema()).unwrap();
        prop_assert_eq!(&decoded, cp.as_ref());
        let (resumed, after) = chase(ChaseStart::Resume(&decoded), BUDGET).unwrap();
        prop_assert!(after.is_none(), "resume under the full budget completes");
        prop_assert_eq!(resumed.outcome, full.outcome);
        prop_assert_eq!(&resumed.instance, &full.instance, "trip at round {} is visible", j);
        prop_assert_eq!(comparable(&resumed.stats), comparable(&full.stats));
        prop_assert_eq!(resumed.stats.resumes, 1);
    }

    /// Injected memory trips (the `TGDKIT_FAULTS_SEED` arm): a spurious
    /// `MemBudgetTrip` mid-run suspends the sharded chase resumably, and a
    /// clean-token resume reproduces the clean sharded run byte-for-byte.
    #[test]
    fn sharded_injected_trip_resume_is_invisible(
        set_seed in 0u64..200,
        shards in 2usize..7,
        schedule in 0u64..6,
    ) {
        let set = random_set(set_seed, 2, 1);
        let start = InstanceGen::new(set.schema().clone(), set_seed + 11).generate(4, 0.35);
        let clean = Run { shards, checkpoint: true, ..Run::default() };
        let chase = |run, start| chase_from(run, start, set.tgds(), ChaseVariant::Restricted, BUDGET);
        let (full, _) = chase(&clean, ChaseStart::Fresh(&start)).unwrap();
        prop_assume!(full.outcome == ChaseOutcome::Terminated);
        let seed = env_seed().wrapping_mul(1000) + schedule;
        let token = CancelToken::with_faults(FaultPlan::only(seed, FaultSite::MemBudgetTrip, 3));
        let faulty = Run { token, ..clean.clone() };
        let (tripped, cp) = chase(&faulty, ChaseStart::Fresh(&start)).unwrap();
        if tripped.outcome != ChaseOutcome::MemoryExceeded {
            // The schedule never fired inside this run; nothing to resume.
            return Ok(());
        }
        let cp = cp.expect("memory trip must be resumable");
        let (resumed, _) = chase(&clean, ChaseStart::Resume(&cp)).unwrap();
        prop_assert_eq!(resumed.outcome, full.outcome);
        prop_assert_eq!(&resumed.instance, &full.instance);
        prop_assert_eq!(comparable(&resumed.stats), comparable(&full.stats));
    }

    /// Partitioning is a partition: every fact of the source instance
    /// lands on exactly the shard `shard_of` names, counts are preserved,
    /// and merging reassembles the source exactly.
    #[test]
    fn partition_routes_totally_and_merges_back(
        data_seed in 0u64..500,
        shards in 1usize..9,
    ) {
        let set = random_set(17, 3, 1);
        let inst = InstanceGen::new(set.schema().clone(), data_seed).generate(6, 0.5);
        let sharded = ShardedInstance::partition(&inst, shards);
        prop_assert_eq!(sharded.shard_count(), shards);
        prop_assert_eq!(sharded.fact_count(), inst.fact_count());
        for s in 0..shards {
            for fact in sharded.shard(s).facts() {
                prop_assert_eq!(shard_of(fact.pred, &fact.args, shards), s);
                prop_assert!(sharded.contains_fact(fact.pred, &fact.args));
            }
        }
        prop_assert_eq!(sharded.merge(), inst);
    }
}
