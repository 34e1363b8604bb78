//! Property-based tests of the locality machinery (paper §3.3, §6–§8) and
//! the rewriting procedures (§9.2).

use proptest::prelude::*;
use tgdkit::core::workload::{generate_set, Family, WorkloadParams};
use tgdkit::prelude::*;

fn set_for(seed: u64) -> TgdSet {
    generate_set(
        &WorkloadParams {
            predicates: 3,
            max_arity: 2,
            rules: 3,
            body_atoms: 2,
            head_atoms: 1,
            universals: 2,
            existentials: 0,
        },
        Family::Full,
        seed,
    )
}

/// (n,m)-local embeddability of `set` in `i` under a default run.
fn embeddable(set: &TgdSet, i: &Instance, n: usize, m: usize, flavor: LocalityFlavor) -> Verdict {
    locally_embeddable(
        &Run::default(),
        set,
        i,
        n,
        m,
        flavor,
        &LocalityOptions::default(),
    )
    .0
}

/// Algorithm 1 or 2 under a default run.
fn decide(set: &TgdSet, target: RewriteTarget) -> RewriteOutcome {
    rewrite(
        &Run::default(),
        set,
        target,
        &RewriteOptions::default(),
        None,
    )
    .unwrap()
    .0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Local embeddability is antitone in n and m: a Yes at (n,m) stays a
    /// Yes at any (n',m') with n' ≤ n, m' ≤ m (fewer obligations).
    #[test]
    fn embeddability_is_antitone(rule_seed in 0u64..200, data_seed in 0u64..200) {
        let set = set_for(rule_seed);
        let i = InstanceGen::new(set.schema().clone(), data_seed).generate(3, 0.4);
        let at = |n, m| embeddable(&set, &i, n, m, LocalityFlavor::Plain);
        let full = at(3, 1);
        if full == Verdict::Yes {
            for (n, m) in [(2, 1), (3, 0), (1, 0), (0, 0)] {
                prop_assert_eq!(at(n, m), Verdict::Yes, "antitone violated at ({},{})", n, m);
            }
        }
    }

    /// The refinements are weaker than plain locality-embeddability
    /// (Lemmas 6.2/7.2 operationally): plain Yes forces refined Yes.
    #[test]
    fn refinements_are_weaker(rule_seed in 0u64..200, data_seed in 0u64..200) {
        let set = set_for(rule_seed);
        let i = InstanceGen::new(set.schema().clone(), data_seed).generate(3, 0.4);
        let plain = embeddable(&set, &i, 2, 0, LocalityFlavor::Plain);
        if plain == Verdict::Yes {
            for flavor in [LocalityFlavor::Linear, LocalityFlavor::Guarded] {
                prop_assert_eq!(
                    embeddable(&set, &i, 2, 0, flavor),
                    Verdict::Yes
                );
            }
        }
    }

    /// Lemma 3.6 (sampled): (n,m)-local embeddability of a member-candidate
    /// implies membership for full sets at their profile.
    #[test]
    fn lemma_3_6_no_locality_counterexamples(rule_seed in 0u64..200, data_seed in 0u64..200) {
        let set = set_for(rule_seed);
        let (n, m) = set.profile();
        let i = InstanceGen::new(set.schema().clone(), data_seed).generate(3, 0.4);
        let v = embeddable(&set, &i, n, m, LocalityFlavor::Plain);
        if v == Verdict::Yes {
            prop_assert!(
                satisfies_tgds(&i, set.tgds()),
                "locality counterexample found: {}", i
            );
        }
    }

    /// Rewriting soundness: whenever Algorithm 1 returns a set, it is
    /// linear and chase-equivalent to the input.
    #[test]
    fn algorithm_1_soundness(rule_seed in 0u64..100) {
        let set = generate_set(
            &WorkloadParams {
                predicates: 2,
                max_arity: 2,
                rules: 2,
                body_atoms: 2,
                head_atoms: 1,
                universals: 2,
                existentials: 0,
            },
            Family::Guarded,
            rule_seed,
        );
        prop_assume!(set.is_guarded());
        match decide(&set, RewriteTarget::Linear) {
            RewriteOutcome::Rewritten(linear) => {
                prop_assert!(linear.iter().all(Tgd::is_linear));
                prop_assert_eq!(
                    equivalent(set.schema(), set.tgds(), &linear, ChaseBudget::default()),
                    Entailment::Proved,
                    "unsound rewriting for {:?}", set.tgds()
                );
            }
            // `Cancelled` cannot arise here (ungoverned call), but the
            // match must stay exhaustive.
            RewriteOutcome::NotRewritable
            | RewriteOutcome::Inconclusive
            | RewriteOutcome::Cancelled
            | RewriteOutcome::Suspended => {}
        }
    }

    /// Rewriting soundness for Algorithm 2.
    #[test]
    fn algorithm_2_soundness(rule_seed in 0u64..100) {
        let set = generate_set(
            &WorkloadParams {
                predicates: 2,
                max_arity: 2,
                rules: 2,
                body_atoms: 2,
                head_atoms: 1,
                universals: 2,
                existentials: 0,
            },
            Family::Unrestricted,
            rule_seed,
        );
        prop_assume!(set.is_frontier_guarded());
        match decide(&set, RewriteTarget::Guarded) {
            RewriteOutcome::Rewritten(guarded) => {
                prop_assert!(guarded.iter().all(Tgd::is_guarded));
                prop_assert_eq!(
                    equivalent(set.schema(), set.tgds(), &guarded, ChaseBudget::default()),
                    Entailment::Proved
                );
            }
            // `Cancelled` cannot arise here (ungoverned call), but the
            // match must stay exhaustive.
            RewriteOutcome::NotRewritable
            | RewriteOutcome::Inconclusive
            | RewriteOutcome::Cancelled
            | RewriteOutcome::Suspended => {}
        }
    }

    /// A linear input is always rewritten (it is its own witness), and the
    /// result stays within the input's profile (Lemma 6.3 (1) ⇒ (2)).
    #[test]
    fn linear_inputs_always_rewrite(rule_seed in 0u64..100) {
        let set = generate_set(
            &WorkloadParams {
                predicates: 2,
                max_arity: 2,
                rules: 2,
                body_atoms: 1,
                head_atoms: 1,
                universals: 2,
                existentials: 1,
            },
            Family::Linear,
            rule_seed,
        );
        prop_assume!(set.is_linear() && !set.is_empty());
        let (n, m) = set.profile();
        match decide(&set, RewriteTarget::Linear) {
            RewriteOutcome::Rewritten(linear) => {
                for tgd in &linear {
                    prop_assert!(tgd.universal_count() <= n);
                    prop_assert!(tgd.existential_count() <= m);
                }
            }
            RewriteOutcome::NotRewritable => {
                prop_assert!(false, "linear input declared not rewritable");
            }
            // divergent chase: acceptable (Cancelled unreachable ungoverned)
            RewriteOutcome::Inconclusive
            | RewriteOutcome::Cancelled
            | RewriteOutcome::Suspended => {}
        }
    }
}
