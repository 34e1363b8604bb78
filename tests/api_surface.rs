//! Breadth tests for API surfaces and edge paths not exercised by the
//! paper-focused suites: error rendering, parser diagnostics, the greedy
//! canonicalization fallback, display adapters, and budget edge cases.

use tgdkit::logic::canon::EXACT_LIMIT;
use tgdkit::logic::{
    canonical_tgd, parse_dependencies, same_up_to_renaming, tgd_variant_key, Dependency, LogicError,
};
use tgdkit::prelude::*;

#[test]
fn logic_errors_render_helpfully() {
    let mut s = Schema::default();
    s.add_pred("R", 2).unwrap();
    let err = s.add_pred("R", 3).unwrap_err();
    let rendered = err.to_string();
    assert!(rendered.contains('R') && rendered.contains('2') && rendered.contains('3'));

    let arity = LogicError::ArityMismatch {
        pred: "R".into(),
        expected: 2,
        actual: 1,
    };
    assert!(arity.to_string().contains("arity 2"));
    assert!(LogicError::EmptyHead.to_string().contains("non-empty"));
}

#[test]
fn parse_errors_carry_positions() {
    let mut s = Schema::default();
    // Error on line 3.
    let err =
        tgdkit::logic::parse_tgds(&mut s, "R(x,y) -> R(y,x).\n// fine\nR(x -> T(x).").unwrap_err();
    assert_eq!(err.line, 3);
    assert!(err.to_string().contains("3:"));
    // Column information for a mid-line error.
    let err2 = tgdkit::logic::parse_tgds(&mut s, "R(x,y) => T(x).").unwrap_err();
    assert_eq!(err2.line, 1);
    assert!(err2.column > 1);
}

#[test]
fn dependency_display_covers_all_kinds() {
    let mut s = Schema::default();
    let deps = parse_dependencies(
        &mut s,
        "R(x,y) -> T(x). R(x,y) -> x = y. R(x,y) -> x = y | T(x).",
    )
    .unwrap();
    let rendered: Vec<String> = deps.iter().map(|d| d.display(&s).to_string()).collect();
    assert_eq!(rendered[0], "R(x0, x1) -> T(x0)");
    assert_eq!(rendered[1], "R(x0, x1) -> x0 = x1");
    assert_eq!(rendered[2], "R(x0, x1) -> x0 = x1 | T(x0)");
    assert!(matches!(deps[2], Dependency::Edd(_)));
    for d in &deps {
        assert!(d.validate(&s).is_ok());
    }
}

#[test]
fn canonicalization_greedy_fallback_beyond_exact_limit() {
    // Bodies larger than EXACT_LIMIT take the deterministic greedy path;
    // it must stay idempotent and identify simple rotations.
    let mut s = Schema::default();
    let n = EXACT_LIMIT + 2;
    let mut body_a = String::new();
    for i in 0..n {
        body_a.push_str(&format!("E(v{}, v{}), ", i, (i + 1) % n));
    }
    let text_a = format!("{}P(v0) -> T(v0)", body_a);
    let tgd_a = parse_tgd(&mut s, &text_a).unwrap();
    assert!(tgd_a.body().len() > EXACT_LIMIT);
    let canon = canonical_tgd(&tgd_a);
    assert_eq!(
        canon,
        canonical_tgd(&canon),
        "greedy canonical not idempotent"
    );
    assert_eq!(tgd_variant_key(&tgd_a), tgd_variant_key(&canon));
    assert!(same_up_to_renaming(&tgd_a, &canon));
}

#[test]
fn instance_name_bookkeeping_through_operations() {
    let mut s = Schema::default();
    let i = parse_instance(&mut s, "R(alice, bob), T(alice)").unwrap();
    let alice = i.elem_by_name("alice").unwrap();
    // Restriction keeps names of surviving elements.
    let r = i.restrict(&[alice].into_iter().collect());
    assert_eq!(r.name_of(alice), Some("alice"));
    assert_eq!(r.elem_by_name("bob"), None);
    // restrict_to_facts keeps exactly the fact-touched elements.
    let t_fact: Vec<_> = i.facts().filter(|f| s.name(f.pred) == "T").collect();
    let rt = i.restrict_to_facts(&t_fact);
    assert_eq!(rt.fact_count(), 1);
    assert!(rt.dom().contains(&alice));
}

#[test]
fn cq_validation_and_query_surface() {
    let mut s = Schema::default();
    let probe = parse_tgd(&mut s, "E(x,y) -> Ans(x)").unwrap();
    let q = Cq::new(probe.body().to_vec(), vec![Var(0)]).unwrap();
    assert!(q.validate(&s).is_ok());
    assert_eq!(q.answer_vars(), &[Var(0)]);
    assert_eq!(q.atoms().len(), 1);
    // Validation against a schema missing the predicate fails.
    let empty = Schema::default();
    assert!(q.validate(&empty).is_err());
}

#[test]
fn position_graph_surface() {
    use tgdkit::chase_crate::PositionGraph;
    let mut s = Schema::default();
    let tgds = parse_tgds(&mut s, "E(x,y) -> exists z : F(y,z).").unwrap();
    let graph = PositionGraph::new(&s, &tgds);
    assert_eq!(graph.node_count(), 4); // E/2 + F/2 positions
    assert!(graph.is_weakly_acyclic());
}

#[test]
fn egd_chase_budget_and_failure_paths() {
    use tgdkit::chase_crate::chase::{chase_with_egds, ChaseVariant};
    let mut s = Schema::default();
    let deps = parse_dependencies(&mut s, "E(x,y), E(x,z) -> y = z.").unwrap();
    let egd = deps[0].as_egd().unwrap().clone();
    // Merging chains: E(a,b), E(a,c), E(a,d) all merge into one successor.
    let start = parse_instance(&mut s, "E(a,b), E(a,c), E(a,d)").unwrap();
    let err = chase_with_egds(
        &start,
        &[],
        std::slice::from_ref(&egd),
        ChaseVariant::Restricted,
        ChaseBudget::default(),
    );
    // All elements are original: hard failure.
    assert!(err.is_err());
    let failure = err.unwrap_err();
    assert!(failure.to_string().contains("cannot equate"));
}

#[test]
fn verdict_and_entailment_utilities() {
    assert!(Entailment::Proved.is_proved());
    assert!(Entailment::Disproved.is_disproved());
    assert_eq!(
        Entailment::Proved.and(Entailment::Unknown),
        Entailment::Unknown
    );
    assert_eq!(Verdict::from(Entailment::Unknown), Verdict::Unknown);
}

#[test]
fn chase_budget_presets_are_ordered() {
    let small = ChaseBudget::small();
    let default = ChaseBudget::default();
    let large = ChaseBudget::large();
    assert!(small.max_facts < default.max_facts && default.max_facts < large.max_facts);
    assert!(small.max_rounds <= default.max_rounds && default.max_rounds <= large.max_rounds);
}

#[test]
fn tgd_class_most_specific_labels() {
    let mut s = Schema::default();
    let cases = [
        ("U(x) -> T(x)", "linear"),
        ("R(x,y), T(x) -> T(y)", "guarded"),
        ("R(x,y), T(y) -> exists z : R(x,z)", "guarded"),
        ("R(x,y), R(y,z) -> T(y)", "frontier-guarded"),
        ("R(x,y), R(y,z) -> R(x,z)", "tgd"),
    ];
    for (text, expected) in cases {
        let tgd = parse_tgd(&mut s, text).unwrap();
        assert_eq!(tgd.class().most_specific(), expected, "for {text}");
    }
}

#[test]
fn subset_enumeration_edges() {
    use std::ops::ControlFlow;
    use tgdkit::core::neighbourhood::{for_each_subset_exact, for_each_subset_up_to};
    // k = 0: only the empty subset.
    let mut count = 0;
    let _ = for_each_subset_up_to(&[Elem(0), Elem(1)], 0, &mut |s| {
        assert!(s.is_empty());
        count += 1;
        ControlFlow::Continue(())
    });
    assert_eq!(count, 1);
    let mut exact0 = 0;
    let _ = for_each_subset_exact(&[Elem(0), Elem(1)], 0, &mut |s| {
        assert!(s.is_empty());
        exact0 += 1;
        ControlFlow::Continue(())
    });
    assert_eq!(exact0, 1);
    // Early break propagates.
    let mut seen = 0;
    let flow = for_each_subset_up_to(&[Elem(0), Elem(1), Elem(2)], 2, &mut |_| {
        seen += 1;
        if seen == 3 {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    assert_eq!(flow, ControlFlow::Break(()));
    assert_eq!(seen, 3);
}

#[test]
fn schema_display_and_extension_round() {
    let s = Schema::builder().pred("Aux", 0).pred("R", 3).build();
    assert_eq!(s.to_string(), "{Aux/0, R/3}");
    let ext = s.extended_with(&[("T", 1)]).unwrap();
    assert_eq!(ext.len(), 3);
    assert_eq!(ext.max_arity(), 3);
}

/// One row per `Run`-taking operation: `true` when the operation reports
/// that the run was interrupted, in its own terms.
type RunCheck<'a> = (&'static str, Box<dyn Fn(&Run) -> bool + 'a>);

#[test]
fn run_context_reaches_every_operation() {
    use tgdkit::chase_crate::{
        certainly_holds_by_rewriting, entails_edd_under_tgds, refute_by_countermodel, FaultPlan,
        FaultSite, SearchBudget,
    };
    use tgdkit::core::enumerate::{candidates, EnumOptions};

    let mut s = Schema::default();
    // Transitive closure: full, not linear, terminating.
    let tc = parse_tgds(&mut s, "E(x,y), E(y,z) -> E(x,z).").unwrap();
    let path = parse_instance(&mut s, "E(a,b), E(b,c), E(c,d)").unwrap();
    let longer = parse_tgd(&mut s, "E(x,y), E(y,z), E(z,w) -> E(x,w)").unwrap();
    let symmetric = parse_tgd(&mut s, "E(x,y) -> E(y,x)").unwrap();
    let deps = parse_dependencies(&mut s, "E(x,y), E(y,z), E(z,w) -> E(x,w) | x = w.").unwrap();
    let Dependency::Edd(edd) = &deps[0] else {
        panic!("expected an edd");
    };
    let budget = ChaseBudget::default();
    let cp_run = Run {
        checkpoint: true,
        ..Run::default()
    };
    let no_rounds = ChaseBudget {
        max_rounds: 0,
        ..budget
    };
    let (_, chase_cp) = chase_from(
        &cp_run,
        ChaseStart::Fresh(&path),
        &tc,
        ChaseVariant::Restricted,
        no_rounds,
    )
    .unwrap();
    let chase_cp = chase_cp.expect("a tripped chase is resumable");
    let base = chase(&path, &tc, ChaseVariant::Restricted, budget);
    let e = s.pred_id("E").unwrap();
    let (c, d) = (
        base.instance.elem_by_name("c").unwrap(),
        base.instance.fresh_elem(),
    );
    let batch = [tgdkit::instance::Fact::new(e, vec![c, d])];
    // Linear, divergent chase, decided by rewriting.
    let successor = parse_tgds(&mut s, "E(x,y) -> exists z : E(y,z).").unwrap();
    let two_steps = parse_tgd(&mut s, "E(x,y) -> exists z, w : E(y,z), E(z,w)").unwrap();
    let q = Cq::boolean(longer.body().to_vec());
    // A search budget whose first state is a cancellation check.
    let search = SearchBudget {
        max_states: 1024,
        ..SearchBudget::default()
    };
    let tc_set = TgdSet::new(s.clone(), tc.clone()).unwrap();
    let mut rs = Schema::default();
    let guarded = parse_tgds(&mut rs, "R(x,y), R(x,x) -> T(x). R(x,y) -> T(x).").unwrap();
    let guarded = TgdSet::new(rs, guarded).unwrap();
    let opts = RewriteOptions::default();
    let suspending = Run {
        token: CancelToken::with_suspend_after_checks(1),
        checkpoint: true,
        ..Run::default()
    };
    let (_, _, rewrite_cp) =
        rewrite(&suspending, &guarded, RewriteTarget::Linear, &opts, None).unwrap();
    let rewrite_cp = rewrite_cp.expect("a suspended rewrite carries its checkpoint");
    let rewrite_cancelled = |run: &Run, target, resume| {
        let (outcome, stats, _) = rewrite(run, &guarded, target, &opts, resume).unwrap();
        outcome == RewriteOutcome::Cancelled && stats.cancelled
    };
    let chase_bytes = chase_cp.encode();

    let table: Vec<RunCheck> = vec![
        (
            "chase_from (fresh)",
            Box::new(|run| {
                let start = ChaseStart::Fresh(&path);
                let (result, _) =
                    chase_from(run, start, &tc, ChaseVariant::Restricted, budget).unwrap();
                result.outcome == ChaseOutcome::Cancelled
            }),
        ),
        (
            "chase_from (resume)",
            Box::new(|run| {
                let start = ChaseStart::Resume(&chase_cp);
                let (result, _) =
                    chase_from(run, start, &tc, ChaseVariant::Restricted, budget).unwrap();
                result.outcome == ChaseOutcome::Cancelled
            }),
        ),
        (
            "chase_extend",
            Box::new(|run| {
                let (result, _) = chase_extend(
                    run,
                    &base.instance,
                    &base.nulls,
                    &batch,
                    &tc,
                    ChaseVariant::Restricted,
                    budget,
                );
                result.outcome == ChaseOutcome::Cancelled
            }),
        ),
        (
            "entails_by_chase",
            Box::new(|run| {
                entails_by_chase(run, &s, &tc, &longer, budget).0 == Entailment::Unknown
            }),
        ),
        (
            "entails_auto",
            Box::new(|run| entails_auto(run, &s, &tc, &longer, budget).0 == Entailment::Unknown),
        ),
        (
            "entails_all",
            Box::new(|run| {
                let members = [longer.clone()];
                entails_all(run, &s, &tc, &members, budget).0 == Entailment::Unknown
            }),
        ),
        (
            "entails_edd_under_tgds",
            Box::new(|run| {
                entails_edd_under_tgds(run, &s, &tc, edd, budget).0 == Entailment::Unknown
            }),
        ),
        (
            "entails_linear",
            Box::new(|run| {
                entails_linear(run, &s, &successor, &two_steps, 10_000).0 == Entailment::Unknown
            }),
        ),
        (
            "certainly_holds_by_rewriting",
            Box::new(|run| {
                certainly_holds_by_rewriting(run, &path, &successor, &q, 10_000)
                    .0
                    .is_none()
            }),
        ),
        (
            "entails_batch",
            Box::new(|run| {
                let members = [longer.clone(), symmetric.clone()];
                let (verdicts, _, _) = entails_batch(run, &s, &tc, &members, budget, None).unwrap();
                verdicts == [Entailment::Unknown; 2]
            }),
        ),
        (
            "refute_by_countermodel",
            Box::new(|run| {
                refute_by_countermodel(run, &s, &tc, &symmetric, &search) == Entailment::Unknown
            }),
        ),
        (
            "candidates",
            Box::new(|run| {
                let opts = EnumOptions::default();
                !candidates(run, &s, RewriteTarget::Linear, 1, 0, &opts).exhaustive
            }),
        ),
        (
            "locally_embeddable",
            Box::new(|run| {
                let flavor = LocalityFlavor::Plain;
                let opts = LocalityOptions::default();
                locally_embeddable(run, &tc_set, &path, 2, 0, flavor, &opts).0 == Verdict::Unknown
            }),
        ),
        (
            "locality_counterexample",
            Box::new(|run| {
                let flavor = LocalityFlavor::Plain;
                let opts = LocalityOptions::default();
                let (verdict, _) =
                    locality_counterexample(run, &tc_set, &path, 2, 0, flavor, &opts);
                verdict == Verdict::Unknown
            }),
        ),
        (
            "rewrite (Algorithm 1)",
            Box::new(|run| rewrite_cancelled(run, RewriteTarget::Linear, None)),
        ),
        (
            "rewrite (Algorithm 2)",
            Box::new(|run| rewrite_cancelled(run, RewriteTarget::Guarded, None)),
        ),
        (
            "rewrite (resume)",
            Box::new(|run| rewrite_cancelled(run, RewriteTarget::Linear, Some(&rewrite_cp))),
        ),
        (
            "ChaseCheckpoint::decode",
            Box::new(|run| {
                matches!(
                    ChaseCheckpoint::decode(run, &chase_bytes, &s),
                    Err(CheckpointError::ChecksumMismatch { .. })
                )
            }),
        ),
    ];
    // Pre-cancelled, and carrying a fault plan that corrupts checkpoint
    // decodes (the one operation with no cancellation point).
    let interrupted = Run {
        token: CancelToken::with_faults(FaultPlan::always(FaultSite::CheckpointCorrupt)),
        ..Run::default()
    };
    interrupted.token.cancel();
    for (name, interrupted_by) in &table {
        assert!(
            !interrupted_by(&Run::default()),
            "{name}: a default run is not interrupted"
        );
        assert!(
            interrupted_by(&interrupted),
            "{name} ignored the run's token"
        );
    }

    // A shared cache in the run serves a repeated batch and rewrite.
    let cache = EntailCache::new();
    let shared = Run {
        cache: Some(&cache),
        ..Run::default()
    };
    let members = [longer.clone(), symmetric.clone()];
    let batch_hits = || {
        let (_, stats, _) = entails_batch(&shared, &s, &tc, &members, budget, None).unwrap();
        stats.cache_hits
    };
    assert_eq!(batch_hits(), 0);
    assert_eq!(batch_hits(), members.len());
    let rewrite_hits = || {
        let (_, stats, _) = rewrite(&shared, &guarded, RewriteTarget::Linear, &opts, None).unwrap();
        stats.cache_hits
    };
    let cold = rewrite_hits();
    assert!(
        rewrite_hits() > cold,
        "a warm rewrite hits the shared cache"
    );
}
