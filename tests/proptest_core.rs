//! Property-based tests for the core-layer machinery: candidate
//! enumeration, the diagram/separating-edd extraction, the synthesis
//! pipeline, and the minimized sets the rewriting procedures and synthesis
//! return.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use tgdkit::core::characterize::recover_tgds;
use tgdkit::core::diagram::{separating_edd, DiagramOptions};
use tgdkit::core::enumerate::{
    guarded_candidates, linear_candidates, paper_bound_guarded, paper_bound_linear, EnumOptions,
};
use tgdkit::core::workload::{generate_set, schema_for, Family, WorkloadParams};
use tgdkit::prelude::*;
use tgdkit_chase::{entails_edd_under_tgds, satisfies_edd};

/// E12's workload shape: two guarded rules over two binary predicates.
fn e12_params() -> WorkloadParams {
    WorkloadParams {
        predicates: 2,
        max_arity: 2,
        rules: 2,
        body_atoms: 2,
        head_atoms: 1,
        universals: 2,
        existentials: 0,
    }
}

/// The first member of `tgds` that the other members prove, if any. An
/// uncached check of every member, independent of the minimization passes
/// it audits.
fn redundant_member(schema: &Schema, tgds: &[Tgd]) -> Option<Tgd> {
    (0..tgds.len()).find_map(|i| {
        let mut rest = tgds.to_vec();
        let member = rest.remove(i);
        (entails_auto(schema, &rest, &member, ChaseBudget::default()) == Entailment::Proved)
            .then_some(member)
    })
}

/// Checks a minimized set `tgds` returned for `input`: every member lies in
/// the target class, the set is chase-proved equivalent to `input`, and no
/// member is proved by the others.
fn check_minimized(
    input: &TgdSet,
    tgds: &[Tgd],
    in_class: impl Fn(&Tgd) -> bool,
) -> Result<(), TestCaseError> {
    let schema = input.schema();
    prop_assert!(tgds.iter().all(in_class), "member outside the target class");
    prop_assert_eq!(
        equivalent(schema, input.tgds(), tgds, ChaseBudget::default()),
        Entailment::Proved,
        "not equivalent to {:?}",
        input.tgds()
    );
    prop_assert_eq!(redundant_member(schema, tgds), None, "redundant member");
    Ok(())
}

/// Minimization keeps `R(x,y) -> T(x)` and drops the entailed, redundant
/// `R(x,x) -> T(x)`.
#[test]
fn minimization_removes_redundant_members() {
    let mut s = Schema::default();
    let tgds = parse_tgds(&mut s, "R(x,y) -> T(x).").unwrap();
    let sigma = TgdSet::new(s.clone(), tgds).unwrap();
    let outcome = guarded_to_linear(&sigma, &RewriteOptions::default());
    let rewriting = outcome.rewriting().expect("a linear set is rewritable");
    assert_eq!(redundant_member(&s, rewriting), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Enumerated candidates are canonical, in-class, in-profile, and below
    /// the paper bounds.
    #[test]
    fn enumeration_invariants(preds in 1usize..4, arity in 1usize..3, n in 1usize..3, m in 0usize..2) {
        let schema = schema_for(&WorkloadParams {
            predicates: preds,
            max_arity: arity,
            ..Default::default()
        });
        let opts = EnumOptions::default();
        let lin = linear_candidates(&schema, n, m, &opts);
        for tgd in &lin.tgds {
            prop_assert!(tgd.is_linear());
            prop_assert!(tgd.universal_count() <= n);
            prop_assert!(tgd.existential_count() <= m);
            prop_assert!(tgd.validate(&schema).is_ok());
        }
        prop_assert!((lin.tgds.len() as f64) <= paper_bound_linear(&schema, n, m));
        let gua = guarded_candidates(&schema, n, m, &opts);
        for tgd in &gua.tgds {
            prop_assert!(tgd.is_guarded());
        }
        prop_assert!((gua.tgds.len() as f64) <= paper_bound_guarded(&schema, n, m));
        // Every linear candidate is guarded, so the guarded space dominates
        // (after canonical dedup both are duplicate-free).
        prop_assert!(gua.tgds.len() >= lin.tgds.len());
    }

    /// A separating edd, when found, is violated by the non-member and
    /// satisfied by chased members (Claims 4.5/4.6 sampled end to end).
    #[test]
    fn separating_edds_separate(rule_seed in 0u64..100, data_seed in 0u64..100) {
        let sigma = generate_set(
            &WorkloadParams { rules: 2, ..Default::default() },
            Family::Full,
            rule_seed,
        );
        let (n, m) = sigma.profile();
        let i = InstanceGen::new(sigma.schema().clone(), data_seed).generate(3, 0.4);
        prop_assume!(!satisfies_tgds(&i, sigma.tgds()));
        if let Some(edd) = separating_edd(&sigma, &i, n, m, &DiagramOptions::default()) {
            prop_assert!(!satisfies_edd(&i, &edd), "I must violate δ");
            // Exact member check through edd entailment (chase universality).
            prop_assert_eq!(
                entails_edd_under_tgds(sigma.schema(), sigma.tgds(), &edd, ChaseBudget::default()),
                Entailment::Proved,
                "δ must hold in every member"
            );
        }
    }

    /// Synthesis recovers an equivalent set for random full hidden sets.
    #[test]
    fn synthesis_roundtrip_on_full_sets(seed in 0u64..60) {
        let hidden = generate_set(
            &WorkloadParams {
                predicates: 2,
                max_arity: 2,
                rules: 2,
                body_atoms: 2,
                head_atoms: 1,
                universals: 2,
                existentials: 0,
            },
            Family::Full,
            seed,
        );
        prop_assume!(!hidden.is_empty());
        let recovery = recover_tgds(
            &hidden,
            &EnumOptions {
                max_body_atoms: 2,
                max_head_atoms: 1,
                max_candidates: 200_000,
            },
            ChaseBudget::default(),
        );
        prop_assert_eq!(
            recovery.equivalent,
            Entailment::Proved,
            "synthesis failed for {:?}",
            hidden.tgds()
        );
    }

    /// Algorithms 1 and 2 on E12-shaped guarded sets: every rewriting is
    /// in the target class, equivalent to its input and irredundant, and
    /// every answer is the same serially, in parallel and on a second run.
    #[test]
    fn rewritings_are_minimal_equivalent_and_stable(seed in 0u64..1_000_000) {
        let set = generate_set(&e12_params(), Family::Guarded, seed);
        prop_assume!(!set.is_empty() && set.is_guarded());
        let serial = RewriteOptions::default();
        let parallel = RewriteOptions { parallel: true, ..Default::default() };
        let linear = guarded_to_linear(&set, &serial);
        prop_assert_eq!(guarded_to_linear(&set, &parallel), linear);
        prop_assert_eq!(guarded_to_linear(&set, &serial), linear);
        if let RewriteOutcome::Rewritten(tgds) = &linear {
            check_minimized(&set, tgds, Tgd::is_linear)?;
        }
        let guarded = frontier_guarded_to_guarded(&set, &serial);
        prop_assert_eq!(frontier_guarded_to_guarded(&set, &parallel), guarded);
        prop_assert_eq!(frontier_guarded_to_guarded(&set, &serial), guarded);
        // A guarded input is its own guarded rewriting.
        let tgds = guarded.rewriting().expect("guarded sets are guarded-rewritable");
        check_minimized(&set, tgds, Tgd::is_guarded)?;
    }

    /// Synthesis from E12-shaped guarded sets returns an irredundant
    /// `TGD_{n,m}` set equivalent to the hidden one, the same on every run.
    #[test]
    fn recovered_sets_are_minimal_equivalent_and_stable(seed in 0u64..1_000_000) {
        let hidden = generate_set(&e12_params(), Family::Guarded, seed);
        prop_assume!(!hidden.is_empty());
        let (n, m) = hidden.profile();
        let opts = EnumOptions {
            max_body_atoms: 2,
            max_head_atoms: 1,
            max_candidates: 200_000,
        };
        let tgds = recover_tgds(&hidden, &opts, ChaseBudget::default()).tgds;
        prop_assert_eq!(recover_tgds(&hidden, &opts, ChaseBudget::default()).tgds, tgds);
        check_minimized(&hidden, &tgds, |t| {
            t.universal_count() <= n && t.existential_count() <= m
        })?;
    }
}
