//! The lower-bound reductions of paper Appendix F.
//!
//! Theorem 9.1's 2EXPTIME-hardness of `Rewrite(GTGD, LTGD)` is shown by
//! reducing atomic query answering under guarded tgds to linear
//! rewritability: given guarded `Σ` over `S` and a predicate `Q ∈ S`, build
//! `Σ'` over `S ∪ {Aux/0, R₀/1, S₀/1, T₀/1}` such that
//!
//! > `Σ ⊨ ∃x̄ Q(x̄)`  iff  `Σ'` is equivalent to a finite set of linear
//! > tgds.
//!
//! Theorem 9.2's reduction (frontier-guarded to guarded) is identical
//! except `σ_RS` uses two different variables (`R₀(x), S₀(y) → T₀(x)`),
//! making it frontier-guarded but not guarded.
//!
//! The reduction's fresh predicates are `Aux` (0-ary) plus the unary
//! `Rf`, `Sf`, `Tf` (the paper's `R`, `S`, `T`; renamed when the input
//! schema already uses those names).
//!
//! ## Deviation from the paper's text
//!
//! Appendix F defines `Σ'_1` as the guard-only weakenings
//! `G(x̄,ȳ), Aux → head(σ)` *replacing* the original rules. As written this
//! breaks the proof's step "`I ⊨ Σ' implies I ⊨ Σ`": a model may falsify
//! `Aux` and the dropped side atoms' constraints with it (e.g. the empty
//! instance models `Σ'` but not the intended linear rewriting whenever `Σ`
//! has an empty-body rule). We therefore keep the original rules of `Σ`
//! inside `Σ'` alongside the `σ_Aux` rules; this restores the argument in
//! both directions (details in DESIGN.md) and preserves the guardedness /
//! frontier-guardedness and the arity bound of the construction.

use tgdkit_logic::{Atom, LogicError, PredId, Schema, Tgd, TgdSet, Var};

/// The output of an Appendix F reduction.
#[derive(Debug, Clone)]
pub struct Reduction {
    /// The constructed set `Σ' = Σ'_1 ∪ Σ'_2` over the extended schema.
    pub sigma_prime: TgdSet,
    /// The 0-ary auxiliary predicate.
    pub aux: PredId,
    /// The fresh unary predicates `(R, S, T)`.
    pub fresh: (PredId, PredId, PredId),
}

fn fresh_name(schema: &Schema, base: &str) -> String {
    if schema.pred_id(base).is_none() {
        return base.to_string();
    }
    let mut i = 0;
    loop {
        let candidate = format!("{base}{i}");
        if schema.pred_id(&candidate).is_none() {
            return candidate;
        }
        i += 1;
    }
}

fn build(sigma: &TgdSet, query: PredId, guarded_target: bool) -> Result<Reduction, LogicError> {
    let mut schema = sigma.schema().clone();
    let aux = schema.add_pred(&fresh_name(&schema, "Aux"), 0)?;
    let r = schema.add_pred(&fresh_name(&schema, "Rf"), 1)?;
    let s = schema.add_pred(&fresh_name(&schema, "Sf"), 1)?;
    let t = schema.add_pred(&fresh_name(&schema, "Tf"), 1)?;

    let mut tgds: Vec<Tgd> = Vec::new();
    // The original rules (see the module docs on why they are kept).
    tgds.extend(sigma.tgds().iter().cloned());
    // Σ'_1: for each σ with (frontier-)guard G, the tgd G, Aux -> head(σ).
    for tgd in sigma.tgds() {
        let guard_idx = if guarded_target {
            // Input is guarded; keep its guard.
            tgd.guard_index()
        } else {
            // Input is frontier-guarded; keep its frontier-guard.
            tgd.frontier_guard_index()
        };
        let Some(gi) = guard_idx else {
            // Empty-body tgds have no guard atom; Aux alone suffices.
            tgds.push(Tgd::new(vec![Atom::new(aux, vec![])], tgd.head().to_vec())?);
            continue;
        };
        let body = vec![tgd.body()[gi].clone(), Atom::new(aux, vec![])];
        tgds.push(Tgd::new(body, tgd.head().to_vec())?);
    }
    // Σ'_2.
    // σ_Q = Q(x̄) -> Aux.
    let q_arity = schema.arity(query);
    let q_vars: Vec<Var> = (0..q_arity as u32).map(Var).collect();
    tgds.push(Tgd::new(
        vec![Atom::new(query, q_vars)],
        vec![Atom::new(aux, vec![])],
    )?);
    // σ_RAux = R(x), Aux -> T(x).
    tgds.push(Tgd::new(
        vec![Atom::new(r, vec![Var(0)]), Atom::new(aux, vec![])],
        vec![Atom::new(t, vec![Var(0)])],
    )?);
    // σ_RS: R(x), S(x) -> T(x) for the guarded reduction;
    //       R(x), S(y) -> T(x) for the frontier-guarded one.
    let s_var = if guarded_target { Var(0) } else { Var(1) };
    tgds.push(Tgd::new(
        vec![Atom::new(r, vec![Var(0)]), Atom::new(s, vec![s_var])],
        vec![Atom::new(t, vec![Var(0)])],
    )?);

    Ok(Reduction {
        sigma_prime: TgdSet::new(schema, tgds)?,
        aux,
        fresh: (r, s, t),
    })
}

/// The Theorem 9.1 reduction: from atomic query answering under **guarded**
/// tgds to `Rewrite(GTGD, LTGD)`. The output set is guarded;
/// `Σ ⊨ ∃x̄ Q(x̄)` iff the output is linearly rewritable.
///
/// # Panics
/// Panics if `sigma` is not guarded.
pub fn guarded_entailment_to_linear_rewritability(
    sigma: &TgdSet,
    query: PredId,
) -> Result<Reduction, LogicError> {
    assert!(
        sigma.is_guarded(),
        "the Theorem 9.1 reduction expects guarded tgds"
    );
    let reduction = build(sigma, query, true)?;
    debug_assert!(reduction.sigma_prime.is_guarded());
    Ok(reduction)
}

/// The Theorem 9.2 reduction: from atomic query answering under
/// **frontier-guarded** tgds to `Rewrite(FGTGD, GTGD)`. The output set is
/// frontier-guarded; `Σ ⊨ ∃x̄ Q(x̄)` iff the output is guardedly
/// rewritable.
///
/// # Panics
/// Panics if `sigma` is not frontier-guarded.
pub fn fg_entailment_to_guarded_rewritability(
    sigma: &TgdSet,
    query: PredId,
) -> Result<Reduction, LogicError> {
    assert!(
        sigma.is_frontier_guarded(),
        "the Theorem 9.2 reduction expects frontier-guarded tgds"
    );
    let reduction = build(sigma, query, false)?;
    debug_assert!(reduction.sigma_prime.is_frontier_guarded());
    Ok(reduction)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::EnumOptions;
    use crate::rewrite::{rewrite, RewriteOptions, RewriteOutcome, RewriteTarget};
    use tgdkit_chase::{entails, ChaseBudget, Entailment, Run};
    use tgdkit_logic::{parse_tgd, parse_tgds};

    fn set(s: &mut Schema, text: &str) -> TgdSet {
        let tgds = parse_tgds(s, text).unwrap();
        TgdSet::new(s.clone(), tgds).unwrap()
    }

    /// Algorithm 1 (`Linear`) or 2 (`Guarded`) under a default run.
    fn decide(set: &TgdSet, target: RewriteTarget, opts: &RewriteOptions) -> RewriteOutcome {
        rewrite(&Run::default(), set, target, opts, None).unwrap().0
    }

    fn opts(max_head_atoms: usize) -> RewriteOptions {
        RewriteOptions {
            enumeration: EnumOptions {
                max_head_atoms,
                max_body_atoms: 8,
                max_candidates: 500_000,
            },
            parallel: true,
            ..Default::default()
        }
    }

    /// A guarded Σ with Σ ⊨ ∃x Q(x) (derivable from nothing via an
    /// empty-body rule) and one without.
    #[test]
    fn theorem_9_1_reduction_tracks_entailment() {
        // Positive instance: Σ ⊨ ∃x Q(x).
        let mut s1 = Schema::default();
        let positive = set(&mut s1, "true -> exists u : P(u). P(x) -> Q(x).");
        let q = s1.pred_id("Q").unwrap();
        // Sanity: the entailment holds.
        let mut probe_schema = s1.clone();
        let probe = parse_tgd(&mut probe_schema, "true -> exists u : Q(u)").unwrap();
        assert_eq!(
            entails(
                &probe_schema,
                positive.tgds(),
                &probe,
                ChaseBudget::default()
            ),
            Entailment::Proved
        );
        let reduction = guarded_entailment_to_linear_rewritability(&positive, q).unwrap();
        let outcome = decide(&reduction.sigma_prime, RewriteTarget::Linear, &opts(2));
        assert!(
            matches!(outcome, RewriteOutcome::Rewritten(_)),
            "positive instance must be linearizable, got {outcome:?}"
        );

        // Negative instance: Σ ⊭ ∃x Q(x).
        let mut s2 = Schema::default();
        let negative = set(&mut s2, "P(x) -> Q(x).");
        let q2 = s2.pred_id("Q").unwrap();
        let reduction2 = guarded_entailment_to_linear_rewritability(&negative, q2).unwrap();
        let outcome2 = decide(&reduction2.sigma_prime, RewriteTarget::Linear, &opts(8));
        assert_eq!(outcome2, RewriteOutcome::NotRewritable);
    }

    #[test]
    fn theorem_9_2_reduction_tracks_entailment() {
        let mut s1 = Schema::default();
        let positive = set(&mut s1, "true -> exists u : P(u). P(x) -> Q(x).");
        let q = s1.pred_id("Q").unwrap();
        let reduction = fg_entailment_to_guarded_rewritability(&positive, q).unwrap();
        let outcome = decide(&reduction.sigma_prime, RewriteTarget::Guarded, &opts(2));
        assert!(
            matches!(outcome, RewriteOutcome::Rewritten(_)),
            "positive instance must be guardable, got {outcome:?}"
        );

        let mut s2 = Schema::default();
        let negative = set(&mut s2, "P(x) -> Q(x).");
        let q2 = s2.pred_id("Q").unwrap();
        let reduction2 = fg_entailment_to_guarded_rewritability(&negative, q2).unwrap();
        let outcome2 = decide(&reduction2.sigma_prime, RewriteTarget::Guarded, &opts(8));
        assert_eq!(outcome2, RewriteOutcome::NotRewritable);
    }

    #[test]
    fn fresh_predicates_avoid_collisions() {
        let mut s = Schema::default();
        // The input already uses Aux/Rf names.
        let sigma = set(&mut s, "Aux(x) -> Rf(x). Rf(x) -> Q(x).");
        let q = s.pred_id("Q").unwrap();
        let reduction = guarded_entailment_to_linear_rewritability(&sigma, q).unwrap();
        let schema = reduction.sigma_prime.schema();
        assert_eq!(schema.arity(reduction.aux), 0);
        assert_eq!(schema.arity(reduction.fresh.0), 1);
        assert_ne!(schema.name(reduction.aux), "Aux"); // collision avoided
    }

    #[test]
    fn reduction_preserves_classes() {
        let mut s = Schema::default();
        let guarded = set(&mut s, "G(x,y), P(x) -> exists z : G(y,z).");
        let q = s.pred_id("P").unwrap();
        let red = guarded_entailment_to_linear_rewritability(&guarded, q).unwrap();
        assert!(red.sigma_prime.is_guarded());

        let mut s2 = Schema::default();
        let fg = set(&mut s2, "G(x,y), P(u) -> exists z : H(x,z).");
        let q2 = s2.pred_id("P").unwrap();
        let red2 = fg_entailment_to_guarded_rewritability(&fg, q2).unwrap();
        assert!(red2.sigma_prime.is_frontier_guarded());
        assert!(!red2.sigma_prime.is_guarded());
    }
}
