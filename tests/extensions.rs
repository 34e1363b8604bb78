//! Integration tests for the extension layers built on top of the paper's
//! core: single-head normalization, chase provenance, certain answers,
//! expressibility fast paths, finite countermodels, and the exact linear
//! entailment procedure — all interacting across crates.

use tgdkit::core::expressibility::{
    disjoint_union_closure_witness, is_guarded_expressible, is_linear_expressible,
    union_closure_witness,
};
use tgdkit::core::workload::{generate_set, Family, WorkloadParams};
use tgdkit::logic::single_head;
use tgdkit::prelude::*;

fn tgd_set(s: &mut Schema, text: &str) -> TgdSet {
    let tgds = parse_tgds(s, text).unwrap();
    TgdSet::new(s.clone(), tgds).unwrap()
}

/// Normalization is a conservative extension: entailment of original-schema
/// tgds is unchanged.
#[test]
fn normalization_preserves_entailment() {
    let mut s = Schema::default();
    let original = tgd_set(&mut s, "P(x) -> exists z : R(x,z), S(z,x). R(x,y) -> Q(y).");
    let normalized = single_head(&original).unwrap();
    assert!(normalized.set.tgds().iter().all(|t| t.head().len() == 1));

    let probes = [
        ("P(x) -> exists z : R(x,z)", Entailment::Proved),
        ("P(x) -> exists z : S(z,x)", Entailment::Proved),
        ("P(x) -> exists z, w : R(x,z), Q(z)", Entailment::Proved),
        ("P(x) -> Q(x)", Entailment::Disproved),
        ("Q(x) -> P(x)", Entailment::Disproved),
    ];
    let mut probe_schema = normalized.set.schema().clone();
    for (text, expected) in probes {
        let candidate = parse_tgd(&mut probe_schema, text).unwrap();
        assert_eq!(
            entails_auto(
                &Run::default(),
                &probe_schema,
                original.tgds(),
                &candidate,
                ChaseBudget::default()
            )
            .0,
            expected,
            "original set wrong on {text}"
        );
        assert_eq!(
            entails_auto(
                &Run::default(),
                &probe_schema,
                normalized.set.tgds(),
                &candidate,
                ChaseBudget::default()
            )
            .0,
            expected,
            "normalized set diverges on {text}"
        );
    }
}

/// Normalization preserves certain answers over the original schema.
#[test]
fn normalization_preserves_certain_answers() {
    let mut s = Schema::default();
    let original = tgd_set(&mut s, "Emp(x) -> exists d : In(x,d), Dept(d).");
    let normalized = single_head(&original).unwrap();
    let mut data_schema = normalized.set.schema().clone();
    let data = parse_instance(&mut data_schema, "Emp(ann), Emp(bob)").unwrap();
    let probe = parse_tgd(&mut data_schema, "In(x,d), Dept(d) -> Ans(x)").unwrap();
    let q = Cq::new(probe.body().to_vec(), vec![Var(0)]).unwrap();
    let original_answers = certain_answers(&data, original.tgds(), &q, ChaseBudget::default());
    let normalized_answers =
        certain_answers(&data, normalized.set.tgds(), &q, ChaseBudget::default());
    assert!(original_answers.complete && normalized_answers.complete);
    assert_eq!(original_answers.answers, normalized_answers.answers);
    assert_eq!(original_answers.answers.len(), 2);
}

/// The expressibility fast paths agree with the complete procedures on the
/// §9.1 gadgets and on rewritable inputs.
#[test]
fn expressibility_fast_paths_agree() {
    let mut s1 = Schema::default();
    let gadget_g = tgd_set(&mut s1, "R(x), P(x) -> T(x).");
    assert!(union_closure_witness(&gadget_g, 4, 0).is_some());
    assert_eq!(
        is_linear_expressible(&gadget_g, &RewriteOptions::default(), 0),
        Verdict::No
    );

    let mut s2 = Schema::default();
    let gadget_f = tgd_set(&mut s2, "R(x), P(y) -> T(x).");
    assert!(disjoint_union_closure_witness(&gadget_f, 4, 0).is_some());
    assert_eq!(
        is_guarded_expressible(&gadget_f, &RewriteOptions::default(), 0),
        Verdict::No
    );

    let mut s3 = Schema::default();
    let fine = tgd_set(&mut s3, "R(x,y), R(x,x) -> T(x). R(x,y) -> T(x).");
    assert!(union_closure_witness(&fine, 4, 0).is_none());
    assert_eq!(
        is_linear_expressible(&fine, &RewriteOptions::default(), 0),
        Verdict::Yes
    );
}

/// Random cross-check: the union/disjoint-union refutations never fire on
/// genuinely linear/guarded sets (they would contradict closure).
#[test]
fn union_refutations_respect_closure_theorems() {
    for seed in 0..8u64 {
        let linear = generate_set(
            &WorkloadParams {
                body_atoms: 1,
                existentials: 1,
                ..Default::default()
            },
            Family::Linear,
            seed,
        );
        assert!(
            union_closure_witness(&linear, 4, seed).is_none(),
            "false union refutation for a linear set (seed {seed})"
        );
        let guarded = generate_set(
            &WorkloadParams {
                universals: 2,
                ..Default::default()
            },
            Family::Guarded,
            seed,
        );
        assert!(
            disjoint_union_closure_witness(&guarded, 4, seed).is_none(),
            "false disjoint-union refutation for a guarded set (seed {seed})"
        );
    }
}

/// The finite countermodel search never contradicts the chase, across
/// random sets and candidates.
#[test]
fn countermodel_never_contradicts_chase() {
    use tgdkit::chase_crate::{refute_by_countermodel, SearchBudget};
    for seed in 0..20u64 {
        let sigma = generate_set(
            &WorkloadParams {
                rules: 3,
                existentials: 1,
                ..Default::default()
            },
            Family::Unrestricted,
            seed,
        );
        let candidates = generate_set(
            &WorkloadParams {
                rules: 3,
                existentials: 1,
                ..Default::default()
            },
            Family::Unrestricted,
            seed + 1000,
        );
        for candidate in candidates.tgds() {
            let by_chase = entails(
                sigma.schema(),
                sigma.tgds(),
                candidate,
                ChaseBudget::small(),
            );
            let by_search = refute_by_countermodel(
                &Run::default(),
                sigma.schema(),
                sigma.tgds(),
                candidate,
                &SearchBudget {
                    max_extra_elems: 2,
                    max_states: 5_000,
                },
            );
            if by_chase == Entailment::Proved {
                assert_ne!(
                    by_search,
                    Entailment::Disproved,
                    "countermodel contradicts a proof (seed {seed}): {:?}",
                    candidate
                );
            }
        }
    }
}

/// Provenance explains every non-input fact of a data-exchange chase.
#[test]
fn provenance_covers_data_exchange() {
    use tgdkit::chase_crate::chase_with_provenance;
    let mut s = Schema::default();
    let mapping = tgd_set(
        &mut s,
        "Leg(x,y) -> exists p : Route(x,y,p). Route(x,y,p), Route(y,z,q) -> Hub(y).",
    );
    let source = parse_instance(&mut s, "Leg(a,b), Leg(b,c)").unwrap();
    let (result, provenance) = chase_with_provenance(
        &source,
        mapping.tgds(),
        ChaseVariant::Restricted,
        ChaseBudget::default(),
    );
    assert!(result.terminated());
    let derived: Vec<_> = result
        .instance
        .facts()
        .filter(|f| !source.contains_fact(f.pred, &f.args))
        .collect();
    assert!(!derived.is_empty());
    for fact in &derived {
        let step = provenance.explain(fact).expect("derived fact explained");
        assert!(step.tgd_index < mapping.len());
    }
}

/// The exact linear procedure makes already-linear rewriting inputs fully
/// decisive through entails_auto.
#[test]
fn linear_sets_entailment_is_total() {
    let mut s = Schema::default();
    // A divergent-chase linear set.
    let sigma = tgd_set(&mut s, "E(x,y) -> exists z : E(y,z).");
    let candidates = [
        ("E(x,y) -> exists z : E(y,z)", Entailment::Proved),
        ("E(x,y) -> exists z, w : E(y,z), E(z,w)", Entailment::Proved),
        ("E(x,y) -> E(y,x)", Entailment::Disproved),
        ("E(x,y) -> exists z : E(z,x)", Entailment::Disproved),
    ];
    let mut probe_schema = s.clone();
    for (text, expected) in candidates {
        let candidate = parse_tgd(&mut probe_schema, text).unwrap();
        assert_eq!(
            entails_auto(
                &Run::default(),
                &probe_schema,
                sigma.tgds(),
                &candidate,
                ChaseBudget::default()
            )
            .0,
            expected,
            "wrong verdict on {text}"
        );
    }
}
