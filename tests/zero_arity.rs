//! Edge-case suite for 0-ary (propositional) predicates, which the paper's
//! Appendix F reductions rely on (`Aux`) even though its §2 stipulates
//! positive arities. Every layer must handle empty tuples.

use tgdkit::prelude::*;

#[test]
fn parsing_and_display_roundtrip() {
    let mut s = Schema::default();
    let tgds = parse_tgds(&mut s, "P(x), Aux() -> Q(x). Q(x) -> Aux().").unwrap();
    assert_eq!(s.arity(s.pred_id("Aux").unwrap()), 0);
    for tgd in &tgds {
        let rendered = tgd.display(&s).to_string();
        let reparsed = parse_tgd(&mut s.clone(), &rendered).unwrap();
        assert_eq!(tgd, &reparsed);
    }
    let inst = parse_instance(&mut s, "{ P(a), Aux() }").unwrap();
    assert_eq!(inst.fact_count(), 2);
    assert!(inst.to_string().contains("Aux()"));
}

#[test]
fn satisfaction_with_propositional_guard() {
    let mut s = Schema::default();
    let tgds = parse_tgds(&mut s, "P(x), Aux() -> Q(x).").unwrap();
    let without_aux = parse_instance(&mut s, "P(a)").unwrap();
    let with_aux = parse_instance(&mut s, "P(a), Aux()").unwrap();
    let closed = parse_instance(&mut s, "P(a), Aux(), Q(a)").unwrap();
    assert!(satisfies_tgds(&without_aux, &tgds)); // vacuous
    assert!(!satisfies_tgds(&with_aux, &tgds));
    assert!(satisfies_tgds(&closed, &tgds));
}

#[test]
fn chase_fires_propositional_heads_once() {
    let mut s = Schema::default();
    let tgds = parse_tgds(&mut s, "P(x) -> Aux(). Aux(), P(x) -> Q(x).").unwrap();
    let start = parse_instance(&mut s, "P(a), P(b)").unwrap();
    let result = chase(
        &start,
        &tgds,
        ChaseVariant::Restricted,
        ChaseBudget::default(),
    );
    assert!(result.terminated());
    // Aux once, Q(a), Q(b).
    assert_eq!(result.instance.fact_count(), 5);
    let aux = s.pred_id("Aux").unwrap();
    assert!(result.instance.contains_fact(aux, &[]));
}

#[test]
fn products_and_critical_instances() {
    use tgdkit::instance::{critical_instance, direct_product, is_critical};
    let schema = Schema::builder().pred("Aux", 0).pred("P", 1).build();
    // A k-critical instance has the single empty Aux tuple (k^0 = 1).
    let crit = critical_instance(&schema, 2, 0);
    assert!(is_critical(&crit));
    let aux = schema.pred_id("Aux").unwrap();
    assert!(crit.contains_fact(aux, &[]));
    assert_eq!(crit.fact_count(), 1 + 2);
    // Products: Aux holds in the product iff it holds in both components.
    let mut with_aux = Instance::new(schema.clone());
    with_aux.add_fact(aux, vec![]);
    with_aux.add_dom_elem(Elem(0));
    let mut without = Instance::new(schema.clone());
    without.add_dom_elem(Elem(0));
    let (both, _) = direct_product(&with_aux, &with_aux);
    assert!(both.contains_fact(aux, &[]));
    let (mixed, _) = direct_product(&with_aux, &without);
    assert!(!mixed.contains_fact(aux, &[]));
}

#[test]
fn entailment_through_propositional_state() {
    let mut s = Schema::default();
    let sigma = parse_tgds(&mut s, "P(x) -> Aux(). Aux(), Q(x) -> R(x).").unwrap();
    // Q alone does not entail R...
    let q_only = parse_tgd(&mut s, "Q(x) -> R(x)").unwrap();
    assert_eq!(
        entails_auto(&Run::default(), &s, &sigma, &q_only, ChaseBudget::default()).0,
        Entailment::Disproved
    );
    // ... but Q plus any P does.
    let with_p = parse_tgd(&mut s, "Q(x), P(y) -> R(x)").unwrap();
    assert_eq!(
        entails_auto(&Run::default(), &s, &sigma, &with_p, ChaseBudget::default()).0,
        Entailment::Proved
    );
}

#[test]
fn empty_body_to_propositional_head() {
    let mut s = Schema::default();
    // `true -> Aux()` has no variables, which §2's footnote disallows for
    // tgds; the builder must reject it rather than misbehave.
    assert!(parse_tgds(&mut s, "true -> Aux().").is_err());
}

#[test]
fn hom_and_iso_with_zero_arity() {
    use tgdkit::hom::are_isomorphic;
    let mut s = Schema::default();
    let a = parse_instance(&mut s, "{ Aux(), P(x) }").unwrap();
    let b = parse_instance(&mut s, "{ Aux(), P(y) }").unwrap();
    let c = parse_instance(&mut s, "{ P(y) }").unwrap();
    assert!(are_isomorphic(&a, &b));
    assert!(!are_isomorphic(&a, &c));
    assert!(embeds_fixing(&c, &a, &[]));
}
