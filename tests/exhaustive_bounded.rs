//! Exhaustive bounded-universe verification: the paper's "for every
//! instance" claims checked over *every* instance with at most two domain
//! elements — no sampling gap, domain sizes where the combinatorics stay
//! enumerable.

use std::ops::ControlFlow;
use tgdkit::core::characterize::{dd_pipeline, edd_pipeline, EddEnumOptions};
use tgdkit::core::universe::{all_instances_up_to, for_each_instance};
use tgdkit::prelude::*;

fn tgd_set(s: &mut Schema, text: &str) -> TgdSet {
    let tgds = parse_tgds(s, text).unwrap();
    TgdSet::new(s.clone(), tgds).unwrap()
}

/// Lemma 3.6, exhaustively: over every instance with ≤ 2 elements, local
/// embeddability at the profile implies membership.
#[test]
fn lemma_3_6_exhaustive_over_two_elements() {
    let cases = [
        "P(x) -> Q(x).",
        "E(x,y) -> E(y,x).",
        "P(x) -> exists z : E(x,z).",
        "E(x,y), E(y,x) -> P(x).",
    ];
    for text in cases {
        let mut s = Schema::default();
        let set = tgd_set(&mut s, text);
        let (n, m) = set.profile();
        for k in 0..=2usize {
            let flow = for_each_instance(&s, k, &mut |i| {
                let v = locally_embeddable(
                    &Run::default(),
                    &set,
                    i,
                    n,
                    m,
                    LocalityFlavor::Plain,
                    &LocalityOptions::default(),
                )
                .0;
                if v == Verdict::Yes && !satisfies_tgds(i, set.tgds()) {
                    panic!("Lemma 3.6 violated by {i} under {text}");
                }
                ControlFlow::Continue(())
            });
            assert_eq!(flow, ControlFlow::Continue(()));
        }
    }
}

/// Lemma 3.8 exhaustively: membership never depends on isolated elements.
#[test]
fn domain_independence_exhaustive() {
    let mut s = Schema::default();
    let set = tgd_set(&mut s, "P(x) -> exists z : E(x,z).");
    let ontology = TgdOntology::new(set);
    for i in all_instances_up_to(&s, 2) {
        let mut padded = i.clone();
        padded.add_dom_elem(padded.fresh_elem());
        assert_eq!(ontology.contains(&i), ontology.contains(&padded));
    }
}

/// Theorem 5.6, both directions at bounded scale: take the full-tgd
/// ontology restricted to the ≤2-element universe as an explicit finite
/// family, run the Appendix B dd-pipeline, and check the synthesized full
/// tgds define the same bounded class.
#[test]
fn theorem_5_6_roundtrip_on_bounded_universe() {
    let mut s = Schema::default();
    let hidden = tgd_set(&mut s, "P(x) -> Q(x).");
    let universe = all_instances_up_to(&s, 2);
    let members: Vec<Instance> = universe
        .iter()
        .filter(|i| satisfies_tgds(i, hidden.tgds()))
        .cloned()
        .collect();
    let family = FiniteOntology::new(s.clone(), members);
    let pipeline = dd_pipeline(
        &family,
        1,
        &EddEnumOptions {
            max_body_atoms: 2,
            ..Default::default()
        },
    );
    assert!(!pipeline.sigma_full.is_empty());
    // The synthesized full tgds agree with the hidden set on the whole
    // bounded universe.
    for i in &universe {
        assert_eq!(
            satisfies_tgds(i, hidden.tgds()),
            satisfies_tgds(i, &pipeline.sigma_full),
            "disagreement on {i}"
        );
    }
}

/// Theorem 4.1 at bounded scale with the literal edd pipeline against an
/// extensionally-given ontology.
#[test]
fn theorem_4_1_pipeline_on_bounded_finite_ontology() {
    let mut s = Schema::default();
    let hidden = tgd_set(&mut s, "P(x) -> Q(x). Q(x) -> P(x).");
    let universe = all_instances_up_to(&s, 2);
    let members: Vec<Instance> = universe
        .iter()
        .filter(|i| satisfies_tgds(i, hidden.tgds()))
        .cloned()
        .collect();
    let family = FiniteOntology::new(s.clone(), members);
    let pipeline = edd_pipeline(&family, 1, 0, &EddEnumOptions::default());
    for i in &universe {
        assert_eq!(
            satisfies_tgds(i, hidden.tgds()),
            satisfies_tgds(i, &pipeline.sigma_exists),
            "Σ^∃ disagrees on {i}"
        );
    }
}

/// Closure lemmas exhaustively: products and (for full sets) intersections
/// of *all* bounded member pairs stay members.
#[test]
fn closure_lemmas_exhaustive_over_small_members() {
    use tgdkit::instance::{direct_product, intersection};
    let mut s = Schema::default();
    let set = tgd_set(&mut s, "E(x,y), E(y,x) -> P(x).");
    let universe = all_instances_up_to(&s, 2);
    let members: Vec<&Instance> = universe
        .iter()
        .filter(|i| satisfies_tgds(i, set.tgds()))
        .collect();
    assert!(members.len() > 4);
    for a in &members {
        for b in &members {
            let (prod, _) = direct_product(a, b);
            assert!(
                satisfies_tgds(&prod, set.tgds()),
                "Lemma 3.4 violated: {a} ⊗ {b}"
            );
            let meet = intersection(a, b);
            assert!(
                satisfies_tgds(&meet, set.tgds()),
                "∩-closure violated for a full set: {a} ∩ {b}"
            );
        }
    }
}

/// The §9.1 separations restated exhaustively: over the ≤2-element
/// universe, membership in the gadget ontology coincides with satisfaction,
/// and the locality counterexample is unique up to the expected pattern.
#[test]
fn separation_witnesses_exist_in_the_bounded_universe() {
    let mut s = Schema::default();
    let set = tgd_set(&mut s, "R(x), P(x) -> T(x).");
    let mut counterexamples = 0usize;
    for i in all_instances_up_to(&s, 1) {
        let v = locality_counterexample(
            &Run::default(),
            &set,
            &i,
            1,
            0,
            LocalityFlavor::Linear,
            &LocalityOptions::default(),
        )
        .0;
        if v == Verdict::Yes {
            counterexamples += 1;
            // Every counterexample over one element must contain R and P
            // without T (the paper's witness shape).
            let r = s.pred_id("R").unwrap();
            let p = s.pred_id("P").unwrap();
            let t = s.pred_id("T").unwrap();
            assert!(i.contains_fact(r, &[Elem(0)]));
            assert!(i.contains_fact(p, &[Elem(0)]));
            assert!(!i.contains_fact(t, &[Elem(0)]));
        }
    }
    assert_eq!(counterexamples, 1, "exactly the paper's witness");
}
