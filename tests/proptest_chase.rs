//! Property-based tests of the chase and entailment layers.

use proptest::prelude::*;
use tgdkit::core::workload::{generate_set, Family, WorkloadParams};
use tgdkit::prelude::*;

fn random_instance(schema: &Schema, seed: u64, size: usize) -> Instance {
    InstanceGen::new(schema.clone(), seed).generate(size, 0.35)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// A terminated chase satisfies its tgd set (the chase's defining
    /// postcondition) and extends its input.
    #[test]
    fn terminated_chase_is_a_model(rule_seed in 0u64..300, data_seed in 0u64..300) {
        let set = generate_set(
            &WorkloadParams { existentials: (rule_seed % 2) as usize, ..Default::default() },
            Family::Unrestricted,
            rule_seed,
        );
        let start = random_instance(set.schema(), data_seed, 4);
        let result = chase(&start, set.tgds(), ChaseVariant::Restricted, ChaseBudget::default());
        if result.terminated() {
            prop_assert!(satisfies_tgds(&result.instance, set.tgds()));
            prop_assert!(start.is_contained_in(&result.instance));
        }
    }

    /// Weak acyclicity certifies termination.
    #[test]
    fn weakly_acyclic_sets_terminate(rule_seed in 0u64..300, data_seed in 0u64..300) {
        let set = generate_set(
            &WorkloadParams { existentials: 1, ..Default::default() },
            Family::Unrestricted,
            rule_seed,
        );
        if is_weakly_acyclic(set.schema(), set.tgds()) {
            let start = random_instance(set.schema(), data_seed, 4);
            let result = chase(&start, set.tgds(), ChaseVariant::Restricted, ChaseBudget::large());
            prop_assert!(result.terminated(), "weakly acyclic set did not terminate");
        }
    }

    /// Full tgd sets always terminate (no nulls are ever invented).
    #[test]
    fn full_sets_terminate_without_nulls(rule_seed in 0u64..300, data_seed in 0u64..300) {
        let set = generate_set(&WorkloadParams::default(), Family::Full, rule_seed);
        let start = random_instance(set.schema(), data_seed, 4);
        let result = chase(&start, set.tgds(), ChaseVariant::Restricted, ChaseBudget::large());
        prop_assert!(result.terminated());
        prop_assert!(result.nulls.is_empty());
    }

    /// Lemma 3.4 as a property: the product of two models is a model.
    #[test]
    fn product_of_models_is_a_model(rule_seed in 0u64..200, a in 0u64..200, b in 0u64..200) {
        let set = generate_set(&WorkloadParams::default(), Family::Full, rule_seed);
        let build_model = |seed| {
            let start = random_instance(set.schema(), seed, 3);
            chase(&start, set.tgds(), ChaseVariant::Restricted, ChaseBudget::large())
        };
        let i = build_model(a);
        let j = build_model(b);
        prop_assume!(i.terminated() && j.terminated());
        let (prod, _) = direct_product(&i.instance, &j.instance);
        prop_assert!(satisfies_tgds(&prod, set.tgds()), "Lemma 3.4 violated");
    }

    /// Satisfaction is isomorphism-invariant.
    #[test]
    fn satisfaction_is_iso_invariant(rule_seed in 0u64..300, data_seed in 0u64..300, shift in 1u32..40) {
        let set = generate_set(&WorkloadParams::default(), Family::Unrestricted, rule_seed);
        let i = random_instance(set.schema(), data_seed, 4);
        let renamed = i.map_elements(|e| Elem(e.0 + shift));
        for tgd in set.tgds() {
            prop_assert_eq!(satisfies_tgd(&i, tgd), satisfies_tgd(&renamed, tgd));
        }
    }

    /// Σ entails each of its members, and entailment is preserved under
    /// strengthening the body.
    #[test]
    fn entailment_reflexivity(rule_seed in 0u64..300) {
        let set = generate_set(&WorkloadParams::default(), Family::Full, rule_seed);
        for tgd in set.tgds() {
            prop_assert_eq!(
                entails(set.schema(), set.tgds(), tgd, ChaseBudget::default()),
                Entailment::Proved
            );
        }
    }

    /// The oblivious chase result contains the restricted chase result
    /// homomorphically (both are universal; oblivious fires more).
    #[test]
    fn oblivious_contains_restricted(rule_seed in 0u64..150, data_seed in 0u64..150) {
        let set = generate_set(&WorkloadParams::default(), Family::Full, rule_seed);
        let start = random_instance(set.schema(), data_seed, 3);
        let restricted = chase(&start, set.tgds(), ChaseVariant::Restricted, ChaseBudget::large());
        let oblivious = chase(&start, set.tgds(), ChaseVariant::Oblivious, ChaseBudget::large());
        prop_assume!(restricted.terminated() && oblivious.terminated());
        // For full tgds the two coincide as fact sets.
        prop_assert!(restricted.instance.is_contained_in(&oblivious.instance));
        prop_assert!(oblivious.instance.is_contained_in(&restricted.instance));
    }

    /// The exact linear backward-rewriting procedure agrees with the chase
    /// whenever the chase is decisive, and is itself always decisive.
    #[test]
    fn linear_rewriting_agrees_with_chase(rule_seed in 0u64..400, cand_seed in 0u64..400) {
        let params = WorkloadParams {
            predicates: 3,
            max_arity: 2,
            rules: 3,
            body_atoms: 1,
            head_atoms: 2,
            universals: 2,
            existentials: 1,
        };
        let sigma = generate_set(&params, Family::Linear, rule_seed);
        prop_assume!(sigma.is_linear() && !sigma.is_empty());
        let candidates = generate_set(&params, Family::Linear, cand_seed);
        for candidate in candidates.tgds() {
            let by_chase = entails(sigma.schema(), sigma.tgds(), candidate, ChaseBudget::small());
            let (by_rewriting, _) = tgdkit::chase_crate::entails_linear(
                &Run::default(),
                sigma.schema(),
                sigma.tgds(),
                candidate,
                100_000,
            );
            prop_assert_ne!(by_rewriting, Entailment::Unknown, "rewriting must decide");
            if by_chase != Entailment::Unknown {
                prop_assert_eq!(
                    by_chase,
                    by_rewriting,
                    "disagreement on {:?} |= {:?}",
                    sigma.tgds(),
                    candidate
                );
            }
        }
    }

    /// Rewriting-based Boolean certain answering agrees with chase-based
    /// certain answering on random linear ontologies whenever the chase is
    /// decisive.
    #[test]
    fn rewriting_omqa_agrees_with_chase(rule_seed in 0u64..300, data_seed in 0u64..300) {
        use tgdkit::chase_crate::{certainly_holds, certainly_holds_by_rewriting};
        let params = WorkloadParams {
            predicates: 3,
            max_arity: 2,
            rules: 3,
            body_atoms: 1,
            head_atoms: 1,
            universals: 2,
            existentials: 1,
        };
        let sigma = generate_set(&params, Family::Linear, rule_seed);
        prop_assume!(sigma.is_linear() && !sigma.is_empty());
        let data = random_instance(sigma.schema(), data_seed, 3);
        // A handful of query shapes from the same generator.
        let queries = generate_set(&params, Family::Linear, data_seed + 5000);
        for probe in queries.tgds() {
            let q = Cq::boolean(probe.body().to_vec());
            let (by_rewriting, _) =
                certainly_holds_by_rewriting(&Run::default(), &data, sigma.tgds(), &q, 100_000);
            let by_chase = certainly_holds(&data, sigma.tgds(), &q, ChaseBudget::small());
            prop_assert!(by_rewriting.is_some(), "rewriting must decide");
            if let Some(chase_answer) = by_chase {
                prop_assert_eq!(
                    by_rewriting.unwrap(),
                    chase_answer,
                    "OMQA disagreement: sigma {:?}, query {:?}",
                    sigma.tgds(),
                    probe
                );
            }
        }
    }

    /// Hom-universality: the terminated chase maps into every chased
    /// extension of its input.
    #[test]
    fn chase_universality(rule_seed in 0u64..150, data_seed in 0u64..150, extra in 0u64..150) {
        let set = generate_set(
            &WorkloadParams { existentials: 1, ..Default::default() },
            Family::Unrestricted,
            rule_seed,
        );
        let start = random_instance(set.schema(), data_seed, 3);
        let result = chase(&start, set.tgds(), ChaseVariant::Restricted, ChaseBudget::default());
        prop_assume!(result.terminated());
        // A bigger model: chase of start ∪ extra facts.
        let more = union(&start, &random_instance(set.schema(), extra, 3));
        let bigger = chase(&more, set.tgds(), ChaseVariant::Restricted, ChaseBudget::default());
        prop_assume!(bigger.terminated());
        let frozen: Vec<Elem> = start.active_domain().iter().copied().collect();
        prop_assert!(
            tgdkit::chase_crate::universal_hom_into(&result.instance, &frozen, &bigger.instance)
                .is_some(),
            "universality violated"
        );
    }
}
