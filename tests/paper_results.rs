//! One integration test per checkable claim of the paper
//! *Model-theoretic Characterizations of Rule-based Ontologies*
//! (Console, Kolaitis, Pieris; PODS 2021).
//!
//! Each test names the paper artifact it validates. Together they are the
//! machine-checked counterpart of the experiment index in DESIGN.md.

use tgdkit::core::characterize::recover_tgds;
use tgdkit::core::enumerate::EnumOptions;
use tgdkit::core::locality::local_on_samples;
use tgdkit::core::mv::{
    example_5_2, full_tgd_property_report, oblivious_closure_fails_on_example_5_2,
};
use tgdkit::core::properties::{
    check_criticality, check_product_closure, member_pairs, sample_members,
};
use tgdkit::core::reductions::{
    fg_entailment_to_guarded_rewritability, guarded_entailment_to_linear_rewritability,
};
use tgdkit::core::separations::{
    cross_check_with_rewriting, guarded_vs_frontier_guarded, linear_vs_guarded, verify,
};
use tgdkit::core::workload::{generate_set, Family, WorkloadParams};
use tgdkit::logic::PredId;
use tgdkit::prelude::*;

fn tgd_set(s: &mut Schema, text: &str) -> TgdSet {
    let tgds = parse_tgds(s, text).unwrap();
    TgdSet::new(s.clone(), tgds).unwrap()
}

/// Lemma 3.2: every TGD-ontology is critical.
#[test]
fn lemma_3_2_every_tgd_ontology_is_critical() {
    for seed in 0..6 {
        let set = generate_set(
            &WorkloadParams {
                existentials: if seed % 2 == 0 { 1 } else { 0 },
                ..Default::default()
            },
            Family::Unrestricted,
            seed,
        );
        let ontology = TgdOntology::new(set);
        assert!(
            check_criticality(&ontology, 3).is_ok(),
            "criticality failed for seed {seed}"
        );
    }
}

/// Lemma 3.4: every TGD-ontology is closed under direct products.
#[test]
fn lemma_3_4_every_tgd_ontology_is_product_closed() {
    for seed in 0..4 {
        let set = generate_set(&WorkloadParams::default(), Family::Full, seed);
        let ontology = TgdOntology::new(set.clone());
        let members = sample_members(set.schema(), set.tgds(), 5, 4, 0.35, seed);
        let pairs = member_pairs(&members, 10);
        assert!(
            check_product_closure(&ontology, &pairs).is_ok(),
            "product closure failed for seed {seed}"
        );
    }
}

/// Lemma 3.6: every TGD_{n,m}-ontology is (n,m)-local — sampled: no
/// instance may be (n,m)-locally embeddable yet a non-member.
#[test]
fn lemma_3_6_tgd_ontologies_are_local() {
    let mut s = Schema::default();
    let set = tgd_set(&mut s, "E(x,y) -> E(y,x). P(x), E(x,y) -> P(y).");
    let (n, m) = set.profile();
    let samples: Vec<Instance> = (0..10)
        .map(|seed| InstanceGen::new(s.clone(), seed).generate(4, 0.3))
        .collect();
    let (verdict, witness) = local_on_samples(
        &set,
        &samples,
        n,
        m,
        LocalityFlavor::Plain,
        &LocalityOptions::default(),
    );
    assert_ne!(
        verdict,
        Verdict::No,
        "locality violated at sample {witness:?}"
    );
}

/// Lemma 3.8: every local ontology is domain independent — for
/// TGD-ontologies membership ignores isolated elements.
#[test]
fn lemma_3_8_domain_independence() {
    let mut s = Schema::default();
    let set = tgd_set(&mut s, "P(x) -> exists z : E(x,z).");
    let ontology = TgdOntology::new(set);
    let mut i = parse_instance(&mut s, "P(a), E(a,b)").unwrap();
    let member_before = ontology.contains(&i);
    i.add_dom_elem(Elem(99));
    assert_eq!(ontology.contains(&i), member_before);
}

/// Theorem 4.1 (constructive direction): a TGD_{n,m} axiomatization is
/// recoverable from the entailment oracle, and axiomatizes the same
/// ontology.
#[test]
fn theorem_4_1_synthesis_recovers_equivalent_sets() {
    let cases = [
        "P(x) -> Q(x).",
        "E(x,y) -> E(y,x).",
        "P(x) -> exists z : E(x,z).",
        "E(x,y) -> E(y,x). P(x), E(x,y) -> P(y).",
    ];
    for text in cases {
        let mut s = Schema::default();
        let hidden = tgd_set(&mut s, text);
        let recovery = recover_tgds(
            &hidden,
            &EnumOptions {
                max_body_atoms: 2,
                max_head_atoms: 2,
                max_candidates: 500_000,
            },
            ChaseBudget::default(),
        );
        assert_eq!(
            recovery.equivalent,
            Entailment::Proved,
            "recovery failed for {text}"
        );
    }
}

/// Corollary 5.1 / Theorem 4.1 specialization: full tgds are the (n,0)-local
/// case — the synthesized set for a full hidden set is full.
#[test]
fn corollary_5_1_full_sets_recover_full() {
    let mut s = Schema::default();
    let hidden = tgd_set(&mut s, "E(x,y), E(y,x) -> P(x).");
    let recovery = recover_tgds(
        &hidden,
        &EnumOptions {
            max_body_atoms: 2,
            max_head_atoms: 1,
            max_candidates: 500_000,
        },
        ChaseBudget::default(),
    );
    assert_eq!(recovery.equivalent, Entailment::Proved);
    assert!(recovery.tgds.iter().all(Tgd::is_full));
}

/// Example 5.2: the Makowsky–Vardi duplicating extension breaks a full tgd;
/// the non-oblivious repair (Def. 5.3) does not.
#[test]
fn example_5_2_counterexample() {
    let ex = example_5_2(); // asserts the claims internally
    assert!(satisfies_tgd(&ex.model, &ex.tgd));
    assert!(!satisfies_tgd(&ex.oblivious_extension, &ex.tgd));
    assert!(satisfies_tgd(&ex.non_oblivious_extension, &ex.tgd));
    let (oblivious, non_oblivious) = oblivious_closure_fails_on_example_5_2();
    assert_eq!(oblivious, Verdict::No);
    assert_eq!(non_oblivious, Verdict::Yes);
}

/// Theorem 5.6 direction (1) ⇒ (2): the property bundle holds for full
/// tgd sets.
#[test]
fn theorem_5_6_property_bundle() {
    for seed in 0..3 {
        let set = generate_set(
            &WorkloadParams {
                rules: 3,
                ..Default::default()
            },
            Family::Full,
            seed,
        );
        let report = full_tgd_property_report(&set, seed);
        assert_eq!(report.one_critical, Verdict::Yes, "seed {seed}");
        assert_eq!(report.domain_independent, Verdict::Yes, "seed {seed}");
        assert_eq!(report.modular, Verdict::Yes, "seed {seed}");
        assert_eq!(report.intersection_closed, Verdict::Yes, "seed {seed}");
        assert_eq!(report.non_oblivious_dup_closed, Verdict::Yes, "seed {seed}");
    }
}

/// Lemmas 6.2 / 7.2: refined local embeddability is implied by plain local
/// embeddability (the refinements quantify over fewer subinstances).
#[test]
fn lemmas_6_2_and_7_2_refinements_are_weaker() {
    let mut s = Schema::default();
    let set = tgd_set(&mut s, "R(x,y) -> T(x).");
    let samples: Vec<Instance> = (0..8)
        .map(|seed| InstanceGen::new(s.clone(), seed).generate(3, 0.4))
        .collect();
    for i in &samples {
        let plain = locally_embeddable(
            &Run::default(),
            &set,
            i,
            2,
            0,
            LocalityFlavor::Plain,
            &Default::default(),
        )
        .0;
        if plain == Verdict::Yes {
            for flavor in [LocalityFlavor::Linear, LocalityFlavor::Guarded] {
                assert_eq!(
                    locally_embeddable(&Run::default(), &set, i, 2, 0, flavor, &Default::default())
                        .0,
                    Verdict::Yes,
                    "refinement stronger than plain on {i}"
                );
            }
        }
    }
}

/// §9.1, separation 1: Σ_G is not linear (1,0)-local; cross-checked with
/// Algorithm 1 returning NotRewritable.
#[test]
fn section_9_1_linear_guarded_separation() {
    let sep = linear_vs_guarded();
    assert_eq!(verify(&sep), Verdict::Yes);
    assert_eq!(cross_check_with_rewriting(&sep), Verdict::Yes);
}

/// §9.1, separation 2: Σ_F is not guarded (2,0)-local; cross-checked with
/// Algorithm 2 returning NotRewritable.
#[test]
fn section_9_1_guarded_fg_separation() {
    let sep = guarded_vs_frontier_guarded();
    assert_eq!(verify(&sep), Verdict::Yes);
    assert_eq!(cross_check_with_rewriting(&sep), Verdict::Yes);
}

/// Theorem 9.1 (Algorithm 1): soundness on rewritable and non-rewritable
/// inputs, with chase-verified equivalence of produced rewritings.
#[test]
fn theorem_9_1_algorithm_1_end_to_end() {
    // Rewritable: redundant side atom.
    let mut s = Schema::default();
    let rewritable = tgd_set(&mut s, "R(x,y), R(x,x) -> T(x). R(x,y) -> T(x).");
    match rewrite(
        &Run::default(),
        &rewritable,
        RewriteTarget::Linear,
        &RewriteOptions::default(),
        None,
    )
    .unwrap()
    .0
    {
        RewriteOutcome::Rewritten(linear) => {
            assert!(linear.iter().all(Tgd::is_linear));
            assert_eq!(
                equivalent(&s, rewritable.tgds(), &linear, ChaseBudget::default()),
                Entailment::Proved
            );
        }
        other => panic!("expected a rewriting, got {other:?}"),
    }
    // Not rewritable: the §9.1 gadget (checked in the separation tests via
    // cross_check_with_rewriting).
}

/// Theorem 9.2 (Algorithm 2): soundness on a guardable frontier-guarded set.
#[test]
fn theorem_9_2_algorithm_2_end_to_end() {
    let mut s = Schema::default();
    let guardable = tgd_set(&mut s, "R(x,y) -> P(x). R(x,y), P(x) -> T(x).");
    match rewrite(
        &Run::default(),
        &guardable,
        RewriteTarget::Guarded,
        &RewriteOptions::default(),
        None,
    )
    .unwrap()
    .0
    {
        RewriteOutcome::Rewritten(guarded) => {
            assert!(guarded.iter().all(Tgd::is_guarded));
            assert_eq!(
                equivalent(&s, guardable.tgds(), &guarded, ChaseBudget::default()),
                Entailment::Proved
            );
        }
        other => panic!("expected a rewriting, got {other:?}"),
    }
}

/// The E9 rows of Appendix F: `Σ ⊨ ∃x Q(x)` holds for the positive
/// instance and fails for the negative one, each with the budgets E9 runs
/// under (two head atoms suffice for the positive rewriting; the negative
/// answer needs the exhaustive space).
fn appendix_f_instances() -> [(TgdSet, PredId, RewriteOptions, bool); 2] {
    [
        ("true -> exists u : P(u). P(x) -> Q(x).", true),
        ("P(x) -> Q(x).", false),
    ]
    .map(|(text, entailed)| {
        let mut s = Schema::default();
        let sigma = tgd_set(&mut s, text);
        let q = s.pred_id("Q").unwrap();
        let opts = RewriteOptions {
            enumeration: EnumOptions {
                max_head_atoms: if entailed { 2 } else { 8 },
                max_body_atoms: 8,
                max_candidates: 500_000,
            },
            parallel: true,
            ..Default::default()
        };
        (sigma, q, opts, entailed)
    })
}

/// Checks one Appendix F row: the reduction's `Σ′` is rewritable into the
/// weaker class iff `Σ ⊨ ∃x Q(x)`, and a rewriting is an equivalent set in
/// that class.
fn check_appendix_f_row(
    sigma_prime: &TgdSet,
    outcome: RewriteOutcome,
    entailed: bool,
    in_class: fn(&Tgd) -> bool,
) {
    match outcome {
        RewriteOutcome::Rewritten(tgds) if entailed => {
            assert!(tgds.iter().all(in_class), "rewriting leaves the class");
            assert_eq!(
                equivalent(
                    sigma_prime.schema(),
                    sigma_prime.tgds(),
                    &tgds,
                    ChaseBudget::default()
                ),
                Entailment::Proved
            );
        }
        RewriteOutcome::NotRewritable if !entailed => {}
        other => panic!("entailed = {entailed}, but the rewrite answered {other:?}"),
    }
}

/// Appendix F, Theorem 9.1 reduction: entailment instances map to
/// rewritability instances (positive and negative).
#[test]
fn appendix_f_reduction_to_linear_rewritability() {
    for (sigma, q, opts, entailed) in appendix_f_instances() {
        let reduction = guarded_entailment_to_linear_rewritability(&sigma, q).unwrap();
        let outcome = rewrite(
            &Run::default(),
            &reduction.sigma_prime,
            RewriteTarget::Linear,
            &opts,
            None,
        )
        .unwrap()
        .0;
        check_appendix_f_row(&reduction.sigma_prime, outcome, entailed, Tgd::is_linear);
    }
}

/// Appendix F, Theorem 9.2 reduction, same rows.
#[test]
fn appendix_f_reduction_to_guarded_rewritability() {
    for (sigma, q, opts, entailed) in appendix_f_instances() {
        let reduction = fg_entailment_to_guarded_rewritability(&sigma, q).unwrap();
        let outcome = rewrite(
            &Run::default(),
            &reduction.sigma_prime,
            RewriteTarget::Guarded,
            &opts,
            None,
        )
        .unwrap()
        .0;
        check_appendix_f_row(&reduction.sigma_prime, outcome, entailed, Tgd::is_guarded);
    }
}

/// The Linearization Lemma's profile claim (Lemma 6.3, (1) ⇒ (2)): when a
/// rewriting exists, one exists within the input's own (n,m) — which is
/// exactly the space Algorithm 1 searches, so any produced rewriting
/// respects the profile.
#[test]
fn lemma_6_3_profile_preservation() {
    let mut s = Schema::default();
    let set = tgd_set(
        &mut s,
        "R(x,y), R(x,x) -> exists z : S(x,z). R(x,y) -> exists z : S(x,z).",
    );
    let (n, m) = set.profile();
    if let RewriteOutcome::Rewritten(linear) = rewrite(
        &Run::default(),
        &set,
        RewriteTarget::Linear,
        &RewriteOptions::default(),
        None,
    )
    .unwrap()
    .0
    {
        for tgd in &linear {
            assert!(tgd.universal_count() <= n);
            assert!(tgd.existential_count() <= m);
        }
    } else {
        panic!("expected a rewriting");
    }
}

/// Fig. 1 / Def. 3.5 sanity: membership implies local embeddability (the
/// witnesses live inside I itself).
#[test]
fn members_are_locally_embeddable() {
    let mut s = Schema::default();
    let set = tgd_set(&mut s, "E(x,y) -> E(y,x).");
    for seed in 0..6 {
        let start = InstanceGen::new(s.clone(), seed).generate(4, 0.3);
        let model = chase(
            &start,
            set.tgds(),
            ChaseVariant::Restricted,
            ChaseBudget::default(),
        );
        assert!(model.terminated());
        let v = locally_embeddable(
            &Run::default(),
            &set,
            &model.instance,
            2,
            0,
            LocalityFlavor::Plain,
            &Default::default(),
        )
        .0;
        assert_eq!(v, Verdict::Yes, "member not embeddable (seed {seed})");
    }
}
