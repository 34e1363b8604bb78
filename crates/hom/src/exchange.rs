//! Cross-shard exchange planning for the sharded chase.
//!
//! When the chase's instance is hash-partitioned, a shard's semi-naive
//! trigger search anchors a body atom at one of its own delta facts — but
//! the *remaining* atoms may match facts living on other shards. The
//! exchange plan decides, per `(body, anchor)` pair, how those non-anchor
//! atoms are evaluated:
//!
//! - [`ExchangeChoice::Local`]: no remaining atoms — the anchoring alone
//!   decides the match, and no cross-shard data moves at all.
//! - [`ExchangeChoice::ReKey`]: every remaining atom becomes **fully
//!   bound** once the anchor (plus any entry-bound variables) is bound.
//!   Each candidate then reduces to point membership probes that can be
//!   routed to the single shard owning the probed tuple (the routing hash
//!   is a pure function of the tuple) — the "re-key the smaller side"
//!   strategy, moving one key per probe instead of any relation.
//! - [`ExchangeChoice::Broadcast`]: some remaining atom keeps a free
//!   variable, so matching it needs a join against facts of unknown
//!   ownership. The delta (always the smaller side — it is one round's
//!   newly derived facts, versus the accumulated instance) is broadcast:
//!   anchored search runs against the union index covering every shard,
//!   and the per-step algorithm choice inside that search falls to the
//!   selectivity planner ([`crate::plan`]) exactly as in the one-shard
//!   chase.
//!
//! The choice is made once per `(body, anchor)` per run and is driven by
//! the same statistics the join planner uses: a fully-bound atom has
//! planner estimate ≤ 1 candidate ([`crate::plan`]'s
//! `|R| / Π distinct(R,p)` model with every position bound), so re-keying
//! is selected precisely when the planner's estimate certifies each
//! remaining atom as a point lookup; otherwise the cheaper broadcast-side
//! (the delta) is shipped.

use crate::index::InstanceIndex;
use crate::plan::estimate;
use tgdkit_logic::{Atom, Var};

/// How one `(body, anchor)` pair evaluates its non-anchor atoms across
/// shards (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeChoice {
    /// No remaining atoms; the anchor fact alone decides the match.
    Local,
    /// Every remaining atom is fully bound by the anchor + entry binding:
    /// evaluate by owner-routed membership probes.
    ReKey,
    /// Some remaining atom has a free variable: broadcast the delta and
    /// join against the union index.
    Broadcast,
}

/// Chooses the exchange strategy for anchoring `atoms[anchor]`, given which
/// variables are bound on entry (`entry_bound`, indexed by variable
/// number; variables beyond its length count as free).
///
/// `index` supplies the planner statistics used to certify the re-key
/// case; pass the union index the broadcast path would probe. The
/// classification is deterministic and depends only on the body shape,
/// the entry binding, and which relations are empty — never on shard
/// contents — so every shard computes the same plan independently.
pub fn classify_exchange(
    atoms: &[Atom<Var>],
    anchor: usize,
    entry_bound: &[bool],
    index: &InstanceIndex,
) -> ExchangeChoice {
    if atoms.len() <= 1 {
        return ExchangeChoice::Local;
    }
    // Variables bound once the anchor atom is matched.
    let num_vars = atoms
        .iter()
        .flat_map(|a| a.args.iter())
        .map(|v| v.index() + 1)
        .max()
        .unwrap_or(0)
        .max(entry_bound.len());
    let mut bound = vec![false; num_vars];
    bound[..entry_bound.len()].copy_from_slice(entry_bound);
    for v in &atoms[anchor].args {
        bound[v.index()] = true;
    }
    let all_point_lookups = atoms.iter().enumerate().all(|(i, atom)| {
        i == anchor
            || (atom.args.iter().all(|v| bound[v.index()])
                // The planner's estimate for a fully bound atom is ≤ 1
                // candidate (or 0 on an empty relation) — the certificate
                // that an owner-routed point probe replaces the join.
                && estimate(atom, index, &bound) <= 1.0)
    });
    if all_point_lookups {
        ExchangeChoice::ReKey
    } else {
        ExchangeChoice::Broadcast
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgdkit_instance::parse_instance;
    use tgdkit_logic::{parse_tgd, Schema};

    fn index_for(schema: &mut Schema, facts: &str) -> InstanceIndex {
        let inst = parse_instance(schema, facts).unwrap();
        InstanceIndex::new(&inst)
    }

    #[test]
    fn single_atom_bodies_are_local() {
        let mut s = Schema::default();
        let tgd = parse_tgd(&mut s, "E(x,y) -> T(x)").unwrap();
        let index = index_for(&mut s, "E(a,b)");
        assert_eq!(
            classify_exchange(tgd.body(), 0, &[], &index),
            ExchangeChoice::Local
        );
    }

    #[test]
    fn transitive_closure_broadcasts_at_both_anchors() {
        let mut s = Schema::default();
        let tgd = parse_tgd(&mut s, "E(x,y), E(y,z) -> E(x,z)").unwrap();
        let index = index_for(&mut s, "E(a,b), E(b,c)");
        // Anchoring either atom leaves the other with one free variable.
        for anchor in 0..2 {
            assert_eq!(
                classify_exchange(tgd.body(), anchor, &[], &index),
                ExchangeChoice::Broadcast,
                "anchor {anchor}"
            );
        }
    }

    #[test]
    fn duplicate_body_atoms_rekey() {
        let mut s = Schema::default();
        // Anchoring R(x,y) binds both variables; S(y,x) is then fully
        // bound — a pure owner-routed membership probe.
        let tgd = parse_tgd(&mut s, "R(x,y), S(y,x) -> T(x)").unwrap();
        let index = index_for(&mut s, "R(a,b), S(b,a)");
        assert_eq!(
            classify_exchange(tgd.body(), 0, &[], &index),
            ExchangeChoice::ReKey
        );
        assert_eq!(
            classify_exchange(tgd.body(), 1, &[], &index),
            ExchangeChoice::ReKey
        );
    }

    #[test]
    fn entry_binding_can_turn_broadcast_into_rekey() {
        let mut s = Schema::default();
        let tgd = parse_tgd(&mut s, "E(x,y), E(y,z) -> E(x,z)").unwrap();
        let index = index_for(&mut s, "E(a,b), E(b,c)");
        // With z pre-bound (e.g. a pinned head variable), anchoring the
        // first atom leaves E(y,z) fully bound.
        let entry = [false, false, true];
        assert_eq!(
            classify_exchange(tgd.body(), 0, &entry, &index),
            ExchangeChoice::ReKey
        );
    }
}
