//! Finite countermodel search: refuting `Σ ⊨ σ` when the chase diverges.
//!
//! The freeze-and-chase procedure of [`crate::entail`] can only *disprove*
//! an entailment when the chase terminates. Many interesting sets (e.g.
//! `E(x,y) → ∃z E(y,z)`) diverge, yet admit small **finite** models: a
//! backtracking search that satisfies triggers by *reusing* existing
//! elements before inventing fresh ones finds them.
//!
//! Soundness is immediate: a finite model of `Σ` containing the frozen body
//! in which the candidate head fails (with the frontier pinned) is a
//! countermodel, so `Σ ⊭ σ` — definitively. Completeness holds whenever a
//! countermodel within the element budget exists; for **guarded** tgds the
//! finite model property guarantees some finite countermodel whenever
//! `Σ ⊭ σ` (the paper's §10 notes all its results relativize to finite
//! instances), so with a large enough budget the combination
//! chase-for-`Proved` + search-for-`Disproved` decides guarded entailment.

use crate::entail::{freeze_body, Entailment};
use crate::govern::{CancelToken, Run};
use crate::satisfy::violation;
use std::collections::BTreeSet;
use tgdkit_hom::{Binding, Cq};
use tgdkit_instance::{Elem, Fact, Instance};
use tgdkit_logic::{Schema, Tgd};

/// Budgets for the countermodel search.
#[derive(Debug, Clone, Copy)]
pub struct SearchBudget {
    /// Maximum number of fresh elements beyond the frozen body's.
    pub max_extra_elems: usize,
    /// Maximum number of search states expanded.
    pub max_states: usize,
}

impl Default for SearchBudget {
    fn default() -> Self {
        SearchBudget {
            max_extra_elems: 3,
            max_states: 50_000,
        }
    }
}

/// Searches for a finite model of `sigma` that contains `base` and in which
/// `forbidden` (a Boolean CQ with a pinned binding) does **not** hold.
///
/// Returns the model, or `None` when the budgeted search space is
/// exhausted.
fn search(
    sigma: &[Tgd],
    base: &Instance,
    forbidden: &Cq,
    forbidden_fixed: &Binding,
    budget: &SearchBudget,
    token: &CancelToken,
) -> Option<Instance> {
    let mut states_left = budget.max_states;
    let mut visited: BTreeSet<Vec<Fact>> = BTreeSet::new();
    let first_fresh = base.fresh_elem().0;
    let max_elem = first_fresh + budget.max_extra_elems as u32;
    dfs(
        sigma,
        base.clone(),
        forbidden,
        forbidden_fixed,
        max_elem,
        &mut states_left,
        &mut visited,
        token,
    )
}

#[allow(clippy::too_many_arguments)] // internal recursion state
fn dfs(
    sigma: &[Tgd],
    current: Instance,
    forbidden: &Cq,
    forbidden_fixed: &Binding,
    max_elem: u32,
    states_left: &mut usize,
    visited: &mut BTreeSet<Vec<Fact>>,
    token: &CancelToken,
) -> Option<Instance> {
    if *states_left == 0 {
        return None;
    }
    // Cooperative cancellation every 32 expanded states — each expansion
    // runs a violation search over the whole tgd set, so a coarser stride
    // lets a tight deadline overshoot; abandoning the search is sound (the
    // caller reports `Unknown`, never `Proved`).
    if (*states_left).is_multiple_of(32) && token.is_cancelled() {
        *states_left = 0;
        return None;
    }
    *states_left -= 1;
    // The forbidden query must stay false on every branch: adding facts is
    // monotone, so prune as soon as it holds.
    if forbidden.holds_with(&current, forbidden_fixed) {
        return None;
    }
    let key: Vec<Fact> = current.facts().collect();
    if !visited.insert(key) {
        return None;
    }
    // Find a violated tgd.
    let Some((ti, universal)) = sigma
        .iter()
        .enumerate()
        .find_map(|(ti, tgd)| violation(&current, tgd).map(|w| (ti, w)))
    else {
        return Some(current); // model found
    };
    let tgd = &sigma[ti];
    // Candidate witnesses for the existential variables: every existing
    // element, plus one canonical fresh element (using the smallest unused
    // id keeps the search space free of symmetric duplicates).
    let mut pool: Vec<Elem> = current.dom().iter().copied().collect();
    let fresh = current.fresh_elem();
    if fresh.0 < max_elem {
        pool.push(fresh);
    }
    let m = tgd.existential_count();
    // Enumerate assignments of the m existentials to the pool.
    let mut assignment = vec![0usize; m];
    loop {
        // Apply.
        let mut full: Vec<Elem> = universal.clone();
        for &idx in &assignment {
            full.push(pool[idx]);
        }
        let mut next = current.clone();
        for atom in tgd.head() {
            let args: Vec<Elem> = atom.args.iter().map(|v| full[v.index()]).collect();
            next.add_fact(atom.pred, args);
        }
        if let Some(model) = dfs(
            sigma,
            next,
            forbidden,
            forbidden_fixed,
            max_elem,
            states_left,
            visited,
            token,
        ) {
            return Some(model);
        }
        // Increment the assignment (base |pool| counter).
        let mut pos = 0;
        loop {
            if pos == m {
                return None;
            }
            assignment[pos] += 1;
            if assignment[pos] < pool.len() {
                break;
            }
            assignment[pos] = 0;
            pos += 1;
        }
        if m == 0 {
            return None; // full tgd: a single deterministic application
        }
    }
}

/// Attempts to **refute** `Σ ⊨ σ` by finite countermodel search: a finite
/// model of `Σ` containing the frozen body of `σ` in which the head fails
/// with the frontier pinned.
///
/// Returns `Disproved` with certainty when a countermodel is found,
/// `Unknown` otherwise (never `Proved` — combine with the chase).
///
/// ```
/// use tgdkit_logic::{parse_tgd, parse_tgds, Schema};
/// use tgdkit_chase::{refute_by_countermodel, Entailment, Run, SearchBudget};
/// let mut schema = Schema::default();
/// // Chase diverges; the 1-element loop model refutes the candidate.
/// let sigma = parse_tgds(&mut schema, "E(x,y) -> exists z : E(y,z).").unwrap();
/// let wrong = parse_tgd(&mut schema, "E(x,y) -> E(y,y)").unwrap();
/// assert_eq!(
///     refute_by_countermodel(&Run::default(), &schema, &sigma, &wrong, &SearchBudget::default()),
///     Entailment::Disproved
/// );
/// ```
///
/// The DFS checks `run.token` periodically and abandons the search
/// (`Unknown`) when cancelled.
pub fn refute_by_countermodel(
    run: &Run,
    schema: &Schema,
    sigma: &[Tgd],
    candidate: &Tgd,
    budget: &SearchBudget,
) -> Entailment {
    let token = &run.token;
    let frozen = freeze_body(schema, candidate);
    let head_cq = Cq::boolean(candidate.head().to_vec());
    let mut fixed: Binding = vec![None; candidate.var_count()];
    for (v, slot) in fixed
        .iter_mut()
        .enumerate()
        .take(candidate.universal_count())
    {
        *slot = Some(Elem(v as u32));
    }
    match search(sigma, &frozen, &head_cq, &fixed, budget, token) {
        Some(_) => Entailment::Disproved,
        None => Entailment::Unknown,
    }
}

/// Searches for any finite model of `sigma` containing `base` within the
/// budget (no forbidden query) — a small finite-model finder, useful on its
/// own for satisfiability-style probing.
pub fn finite_model(sigma: &[Tgd], base: &Instance, budget: &SearchBudget) -> Option<Instance> {
    let mut states_left = budget.max_states;
    let mut visited: BTreeSet<Vec<Fact>> = BTreeSet::new();
    let first_fresh = base.fresh_elem().0;
    let max_elem = first_fresh + budget.max_extra_elems as u32;
    dfs_unforbidden(
        sigma,
        base.clone(),
        max_elem,
        &mut states_left,
        &mut visited,
    )
}

fn dfs_unforbidden(
    sigma: &[Tgd],
    current: Instance,
    max_elem: u32,
    states_left: &mut usize,
    visited: &mut BTreeSet<Vec<Fact>>,
) -> Option<Instance> {
    if *states_left == 0 {
        return None;
    }
    *states_left -= 1;
    let key: Vec<Fact> = current.facts().collect();
    if !visited.insert(key) {
        return None;
    }
    let Some((ti, universal)) = sigma
        .iter()
        .enumerate()
        .find_map(|(ti, tgd)| violation(&current, tgd).map(|w| (ti, w)))
    else {
        return Some(current);
    };
    let tgd = &sigma[ti];
    let mut pool: Vec<Elem> = current.dom().iter().copied().collect();
    let fresh = current.fresh_elem();
    if fresh.0 < max_elem {
        pool.push(fresh);
    }
    if pool.is_empty() {
        return None;
    }
    let m = tgd.existential_count();
    let mut assignment = vec![0usize; m];
    loop {
        let mut full: Vec<Elem> = universal.clone();
        for &idx in &assignment {
            full.push(pool[idx]);
        }
        let mut next = current.clone();
        for atom in tgd.head() {
            let args: Vec<Elem> = atom.args.iter().map(|v| full[v.index()]).collect();
            next.add_fact(atom.pred, args);
        }
        if let Some(model) = dfs_unforbidden(sigma, next, max_elem, states_left, visited) {
            return Some(model);
        }
        let mut pos = 0;
        loop {
            if pos == m {
                return None;
            }
            assignment[pos] += 1;
            if assignment[pos] < pool.len() {
                break;
            }
            assignment[pos] = 0;
            pos += 1;
        }
        if m == 0 {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`refute_by_countermodel`] under a default run and search budget.
    fn refute(schema: &Schema, sigma: &[Tgd], candidate: &Tgd) -> Entailment {
        refute_by_countermodel(
            &Run::default(),
            schema,
            sigma,
            candidate,
            &SearchBudget::default(),
        )
    }
    use crate::entail::entails;
    use crate::satisfy::satisfies_tgds;
    use crate::ChaseBudget;
    use tgdkit_instance::parse_instance;
    use tgdkit_logic::{parse_tgd, parse_tgds};

    #[test]
    fn refutes_where_the_chase_diverges() {
        let mut s = Schema::default();
        let sigma = parse_tgds(&mut s, "E(x,y) -> exists z : E(y,z), D(y,z).").unwrap();
        let candidate = parse_tgd(&mut s, "E(x,y) -> P(x)").unwrap();
        // The chase is Unknown here (divergence)...
        assert_eq!(
            entails(
                &s,
                &sigma,
                &candidate,
                ChaseBudget {
                    max_facts: 200,
                    max_rounds: 20,
                    max_bytes: usize::MAX
                }
            ),
            Entailment::Unknown
        );
        // ... but a tiny loop model refutes.
        assert_eq!(refute(&s, &sigma, &candidate), Entailment::Disproved);
    }

    #[test]
    fn never_refutes_true_entailments() {
        let mut s = Schema::default();
        let sigma = parse_tgds(&mut s, "E(x,y) -> exists z : E(y,z).").unwrap();
        let entailed = parse_tgd(&mut s, "E(x,y) -> exists z, w : E(y,z), E(z,w)").unwrap();
        assert_eq!(refute(&s, &sigma, &entailed), Entailment::Unknown);
    }

    #[test]
    fn found_models_are_models() {
        let mut s = Schema::default();
        let sigma = parse_tgds(
            &mut s,
            "P(x) -> exists z : E(x,z). E(x,y) -> exists z : E(y,z).",
        )
        .unwrap();
        let base = parse_instance(&mut s, "P(a)").unwrap();
        let model = finite_model(&sigma, &base, &SearchBudget::default())
            .expect("a small model exists (loop)");
        assert!(satisfies_tgds(&model, &sigma));
        assert!(base.is_contained_in(&model));
        assert!(model.dom().len() <= base.dom().len() + 3);
    }

    #[test]
    fn respects_the_element_budget() {
        let mut s = Schema::default();
        // Force at least 2 distinct extra elements via inequality-free
        // trickery: P needs two different successors through disjoint
        // predicates.
        let sigma = parse_tgds(
            &mut s,
            "P(x) -> exists z : Q(z). Q(x) -> exists z : R(x,z).",
        )
        .unwrap();
        let base = parse_instance(&mut s, "P(a)").unwrap();
        let tight = SearchBudget {
            max_extra_elems: 0,
            max_states: 10_000,
        };
        // With no fresh elements allowed, witnesses must reuse `a`.
        let model = finite_model(&sigma, &base, &tight).expect("reuse-only model");
        assert_eq!(model.dom().len(), 1);
    }

    #[test]
    fn agreement_with_chase_on_decided_cases() {
        let mut s = Schema::default();
        let sigma = parse_tgds(&mut s, "P(x) -> Q(x). Q(x) -> R(x).").unwrap();
        // Chase disproves; the countermodel search must also find a
        // countermodel (they must never contradict).
        let candidate = parse_tgd(&mut s, "R(x) -> P(x)").unwrap();
        assert_eq!(
            entails(&s, &sigma, &candidate, ChaseBudget::default()),
            Entailment::Disproved
        );
        assert_eq!(refute(&s, &sigma, &candidate), Entailment::Disproved);
    }
}
