//! A naive reference chase: the oracle the engine's property tests compare
//! against.
//!
//! It keeps nothing the engine's speed depends on: no index, no semi-naive
//! delta, no sharding, no trigger arena. Every round finds *every* trigger
//! over the whole instance by plain backtracking, collects the triggers
//! into a `BTreeSet<(usize, Vec<Elem>)>`, and fires them in that order
//! under the engine's firing rules:
//!
//! - a full tgd fires by inserting its head facts, and counts as fired
//!   when one of them is new;
//! - otherwise the restricted variant skips a trigger whose head already
//!   holds with the trigger's frontier image (checked against the instance
//!   as it is at that moment), and the oblivious variant skips a trigger it
//!   fired before;
//! - a firing invents fresh nulls for the existential variables in
//!   variable order, numbered upward from the start instance's
//!   `fresh_elem`.
//!
//! Budgets are checked at round starts (rounds, then facts), with the
//! engine's mid-round stop at four times `max_facts`. Byte budgets are not
//! modelled: callers pass `max_bytes: usize::MAX`.
//!
//! A trigger found in an earlier round is already satisfied (restricted)
//! or already fired (oblivious) in every later round, so re-finding it
//! changes nothing. The engine's instance, nulls, null numbering, rounds,
//! outcome and fired-trigger count therefore equal this chase's exactly.
//! Its `triggers_found` legitimately differs: the engine counts only the
//! triggers that use a fact of the previous round.
//!
//! Shared by the chase property tests through `mod reference_chase;`.

#![allow(dead_code)]

use std::collections::BTreeSet;
use tgdkit::chase_crate::{ChaseBudget, ChaseOutcome, ChaseVariant};
use tgdkit::instance::{Elem, Instance};
use tgdkit::logic::{Atom, Tgd, Var};

/// What the reference chase produced.
#[derive(Debug, Clone)]
pub struct ReferenceRun {
    pub instance: Instance,
    pub nulls: BTreeSet<Elem>,
    pub rounds: usize,
    pub outcome: ChaseOutcome,
    pub triggers_fired: usize,
}

/// Calls `visit` on every extension of `binding` that maps `atoms` into
/// `instance`, until `visit` returns `true`. Returns whether it did.
fn search(
    atoms: &[Atom<Var>],
    instance: &Instance,
    binding: &mut Vec<Option<Elem>>,
    visit: &mut dyn FnMut(&[Option<Elem>]) -> bool,
) -> bool {
    let Some((atom, rest)) = atoms.split_first() else {
        return visit(binding);
    };
    for row in instance.relation(atom.pred).iter() {
        let saved = binding.clone();
        let mut consistent = true;
        for (pos, var) in atom.args.iter().enumerate() {
            let elem = row.get(pos);
            match binding[var.index()] {
                Some(bound) if bound != elem => {
                    consistent = false;
                    break;
                }
                _ => binding[var.index()] = Some(elem),
            }
        }
        if consistent && search(rest, instance, binding, visit) {
            return true;
        }
        *binding = saved;
    }
    false
}

/// Every trigger of `tgds` in `instance`, in `(tgd, universal image)` order.
fn all_triggers(tgds: &[Tgd], instance: &Instance) -> BTreeSet<(usize, Vec<Elem>)> {
    let mut triggers = BTreeSet::new();
    for (ti, tgd) in tgds.iter().enumerate() {
        let mut binding = vec![None; tgd.var_count()];
        search(tgd.body(), instance, &mut binding, &mut |b| {
            let universal = b[..tgd.universal_count()]
                .iter()
                .map(|e| e.expect("universal bound"))
                .collect();
            triggers.insert((ti, universal));
            false
        });
    }
    triggers
}

/// `true` when `tgd`'s head holds in `instance` with the universal
/// variables mapped to `universal`.
fn head_holds(tgd: &Tgd, universal: &[Elem], instance: &Instance) -> bool {
    let mut binding = vec![None; tgd.var_count()];
    for (slot, &e) in binding.iter_mut().zip(universal) {
        *slot = Some(e);
    }
    search(tgd.head(), instance, &mut binding, &mut |_| true)
}

/// Adds `tgd`'s head under `assignment` (indexed by variable); `true` when
/// a fact was new.
fn add_head(tgd: &Tgd, assignment: &[Elem], instance: &mut Instance) -> bool {
    let mut added = false;
    for atom in tgd.head() {
        let args = atom.args.iter().map(|v| assignment[v.index()]).collect();
        added |= instance.add_fact(atom.pred, args);
    }
    added
}

/// Chases `start` with `tgds` (see the module docs for the rules).
pub fn reference_chase(
    start: &Instance,
    tgds: &[Tgd],
    variant: ChaseVariant,
    budget: ChaseBudget,
) -> ReferenceRun {
    assert_eq!(
        budget.max_bytes,
        usize::MAX,
        "byte budgets are not modelled"
    );
    let mut instance = start.clone();
    let mut nulls = BTreeSet::new();
    let mut next_null = instance.fresh_elem().0;
    let mut fired: BTreeSet<(usize, Vec<Elem>)> = BTreeSet::new();
    let mut rounds = 0;
    let mut triggers_fired = 0;
    let hard_fact_cap = budget.max_facts.saturating_mul(4);
    let outcome = 'run: loop {
        if rounds >= budget.max_rounds || instance.fact_count() > budget.max_facts {
            break ChaseOutcome::BudgetExceeded;
        }
        rounds += 1;
        let mut fired_this_round = false;
        for (ti, universal) in all_triggers(tgds, &instance) {
            let tgd = &tgds[ti];
            if tgd.is_full() {
                if !add_head(tgd, &universal, &mut instance) {
                    continue;
                }
            } else {
                let skip = match variant {
                    ChaseVariant::Restricted => head_holds(tgd, &universal, &instance),
                    ChaseVariant::Oblivious => !fired.insert((ti, universal.clone())),
                };
                if skip {
                    continue;
                }
                let mut assignment = universal;
                for _ in tgd.existential_vars() {
                    let null = Elem(next_null);
                    next_null += 1;
                    nulls.insert(null);
                    assignment.push(null);
                }
                add_head(tgd, &assignment, &mut instance);
            }
            fired_this_round = true;
            triggers_fired += 1;
            if instance.fact_count() > hard_fact_cap {
                break 'run ChaseOutcome::BudgetExceeded;
            }
        }
        if !fired_this_round {
            break ChaseOutcome::Terminated;
        }
    };
    ReferenceRun {
        instance,
        nulls,
        rounds,
        outcome,
        triggers_fired,
    }
}
