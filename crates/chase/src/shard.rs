//! The chase's trigger search, over a store of one or more hash-partitioned
//! shards.
//!
//! At one shard (what [`crate::chase`] runs) a round is one indexed search
//! per tgd: the full body on the first round, semi-naive over the previous
//! round's delta afterwards. With several shards the search runs per shard
//! over each shard's slice of the delta, stitched back together by a
//! deterministic **exchange** phase ([`tgdkit_hom::exchange`]):
//!
//! - `Local` / `Broadcast` anchors run [`for_each_hom_anchored`] against
//!   the union index (the delta — always the smaller side — is what a
//!   distributed run would ship to every peer);
//! - `ReKey` anchors skip the join entirely: every non-anchor atom is fully
//!   bound once the anchor fact is, so each candidate reduces to
//!   owner-routed point probes against the [`ShardedInstance`].
//!
//! Found triggers accumulate into a [`TriggerRun`] — a flat arena of
//! `(tgd, universal-image)` entries — and one global
//! `sort_unstable` + dedup produces exactly the sequence a
//! `BTreeSet<(usize, Vec<Elem>)>` would iterate. That is the merge
//! discipline that makes the chase **bit-for-bit equal** at any shard
//! count: the firing phase consumes the same triggers in the same order,
//! so it adds the same facts and numbers nulls identically. It is also
//! where the search's speed comes from: a visit appends a few words to two
//! flat vectors instead of allocating a `Vec<Elem>` and rebalancing a
//! B-tree, and the dedup cost is paid once per round in one cache-friendly
//! sort.

use crate::faults::{FaultSite, INJECTED_PANIC};
use crate::govern::CancelToken;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use tgdkit_hom::{
    classify_exchange, for_each_hom_anchored, for_each_hom_indexed, for_each_hom_seminaive,
    Binding, ExchangeChoice, InstanceIndex,
};
use tgdkit_instance::{shard_of, Elem, Fact, ShardedInstance};
use tgdkit_logic::Tgd;

/// `TGDKIT_SHARDS` parsed fresh on each call (tests and the bench harness
/// flip it between runs): a positive shard count, default 1. A value of 1
/// keeps the whole instance in one shard, which is what [`crate::chase`]
/// runs.
pub fn shards_from_env() -> usize {
    std::env::var("TGDKIT_SHARDS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1)
}

// Process-wide shard telemetry, reported by the bench harness next to the
// planner/join counters. Plain relaxed atomics: the counters are additive
// across runs (except the run-shape pair, which records the latest run).
static EXCHANGED_TUPLES: AtomicU64 = AtomicU64::new(0);
static BROADCASTS: AtomicU64 = AtomicU64::new(0);
static REKEYED_PROBES: AtomicU64 = AtomicU64::new(0);
static LAST_SHARD_COUNT: AtomicU64 = AtomicU64::new(0);
static LAST_SKEW_BITS: AtomicU64 = AtomicU64::new(0);

/// Cross-shard exchange counters since process start (or the last
/// [`reset_shard_stats`]), plus the shape of the most recent chase run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardStats {
    /// Shard count of the most recent chase (0 = none ran).
    pub shard_count: u64,
    /// Tuples a distributed run would have shipped: for every round with at
    /// least one broadcast plan, the round's delta size times the number of
    /// receiving peers (`shards − 1`).
    pub exchanged_tuples: u64,
    /// Broadcast searches executed (one per `(tgd, anchor, shard)` with a
    /// nonempty delta slice whose exchange plan was `Broadcast`).
    pub broadcasts: u64,
    /// Owner-routed point probes issued by `ReKey` plans.
    pub rekeyed_probes: u64,
    /// Final fact-count skew of the most recent chase: largest shard over
    /// smallest (1.0 = perfectly balanced, 0.0 = none ran).
    pub skew_max_over_min: f64,
}

/// Snapshot of the global shard telemetry.
pub fn shard_stats() -> ShardStats {
    ShardStats {
        shard_count: LAST_SHARD_COUNT.load(Ordering::Relaxed),
        exchanged_tuples: EXCHANGED_TUPLES.load(Ordering::Relaxed),
        broadcasts: BROADCASTS.load(Ordering::Relaxed),
        rekeyed_probes: REKEYED_PROBES.load(Ordering::Relaxed),
        skew_max_over_min: f64::from_bits(LAST_SKEW_BITS.load(Ordering::Relaxed)),
    }
}

/// Resets the global shard telemetry (benchmark harness scoping).
pub fn reset_shard_stats() {
    EXCHANGED_TUPLES.store(0, Ordering::Relaxed);
    BROADCASTS.store(0, Ordering::Relaxed);
    REKEYED_PROBES.store(0, Ordering::Relaxed);
    LAST_SHARD_COUNT.store(0, Ordering::Relaxed);
    LAST_SKEW_BITS.store(0, Ordering::Relaxed);
}

/// Records the final shape of a chase run (called once per run).
pub(crate) fn record_run_shape(store: &ShardedInstance) {
    LAST_SHARD_COUNT.store(store.shard_count() as u64, Ordering::Relaxed);
    LAST_SKEW_BITS.store(store.skew_max_over_min().to_bits(), Ordering::Relaxed);
}

/// Per-round exchange counters, accumulated locally during the search and
/// published once so the hot loops touch no atomics.
#[derive(Default)]
struct ExchangeTally {
    broadcasts: u64,
    rekeyed_probes: u64,
}

impl ExchangeTally {
    fn publish(&self) {
        if self.broadcasts != 0 {
            BROADCASTS.fetch_add(self.broadcasts, Ordering::Relaxed);
        }
        if self.rekeyed_probes != 0 {
            REKEYED_PROBES.fetch_add(self.rekeyed_probes, Ordering::Relaxed);
        }
    }
}

/// One round's triggers as a flat arena: `entries` holds
/// `(tgd index, offset)` pairs into the shared `elems` buffer, with each
/// entry's length fixed by its tgd's universal-variable count. Appending a
/// trigger is two vector pushes — no per-trigger allocation, no tree
/// rebalancing — and [`TriggerRun::sort_dedup`] normalizes the whole run to
/// the exact iteration order of an ordered set of `(usize, Vec<Elem>)`.
pub(crate) struct TriggerRun {
    entries: Vec<(u32, u32)>,
    elems: Vec<Elem>,
    /// Universal-variable count per tgd (the per-entry slice length).
    lens: Vec<u32>,
}

impl TriggerRun {
    pub(crate) fn new(tgds: &[Tgd]) -> TriggerRun {
        TriggerRun {
            entries: Vec::new(),
            elems: Vec::new(),
            lens: tgds.iter().map(|t| t.universal_count() as u32).collect(),
        }
    }

    /// Appends tgd `ti`'s trigger with the universal image read off
    /// `binding[0..universal_count]` (the layout every search maintains).
    fn push_binding(&mut self, ti: usize, binding: &Binding) {
        let n = self.lens[ti] as usize;
        let off = u32::try_from(self.elems.len()).expect("trigger arena exceeds u32 offsets");
        self.elems
            .extend((0..n).map(|v| binding[v].expect("universal bound")));
        self.entries.push((ti as u32, off));
    }

    /// Appends the empty-universal trigger of a zero-body tgd.
    fn push_empty(&mut self, ti: usize) {
        debug_assert_eq!(self.lens[ti], 0);
        let off = u32::try_from(self.elems.len()).expect("trigger arena exceeds u32 offsets");
        self.entries.push((ti as u32, off));
    }

    /// Sorts by `(tgd, universal-image lex)` and drops duplicates —
    /// after this, iteration order equals a `BTreeSet<(usize, Vec<Elem>)>`
    /// holding the same triggers.
    pub(crate) fn sort_dedup(&mut self) {
        let elems = std::mem::take(&mut self.elems);
        let lens = std::mem::take(&mut self.lens);
        let slice = |ti: u32, off: u32| {
            let len = lens[ti as usize] as usize;
            &elems[off as usize..off as usize + len]
        };
        self.entries.sort_unstable_by(|&(ta, oa), &(tb, ob)| {
            ta.cmp(&tb).then_with(|| slice(ta, oa).cmp(slice(tb, ob)))
        });
        self.entries
            .dedup_by(|&mut (ta, oa), &mut (tb, ob)| ta == tb && slice(ta, oa) == slice(tb, ob));
        self.elems = elems;
        self.lens = lens;
    }

    /// Distinct triggers (call after [`TriggerRun::sort_dedup`]).
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn iter(&self) -> TriggerRunIter<'_> {
        TriggerRunIter { run: self, pos: 0 }
    }
}

/// Iterator over a [`TriggerRun`] yielding `(tgd index, universal image)`.
pub(crate) struct TriggerRunIter<'a> {
    run: &'a TriggerRun,
    pos: usize,
}

impl<'a> Iterator for TriggerRunIter<'a> {
    type Item = (usize, &'a [Elem]);

    fn next(&mut self) -> Option<Self::Item> {
        let &(ti, off) = self.run.entries.get(self.pos)?;
        self.pos += 1;
        let len = self.run.lens[ti as usize] as usize;
        Some((
            ti as usize,
            &self.run.elems[off as usize..off as usize + len],
        ))
    }
}

/// How many visited trigger bindings pass between cooperative cancellation
/// checks inside one tgd's enumeration. Small enough that a dense body
/// search notices an expired deadline within a fraction of a millisecond;
/// large enough that the atomic load is invisible in the profile.
const CANCEL_CHECK_STRIDE: u32 = 64;

/// Counts visited bindings and polls the token every
/// [`CANCEL_CHECK_STRIDE`] of them.
#[derive(Default)]
struct CancelPoll(u32);

impl CancelPoll {
    /// Counts one visit; `true` when this visit's poll saw cancellation.
    fn cancelled(&mut self, token: &CancelToken) -> bool {
        self.0 += 1;
        if self.0 < CANCEL_CHECK_STRIDE {
            return false;
        }
        self.0 = 0;
        token.is_cancelled()
    }
}

/// One round's trigger search result. On `aborted` (cancellation observed
/// mid-search, or a contained panic) the caller discards the round without
/// firing, keeping the instance at the last completed round.
pub(crate) struct RoundScan {
    pub(crate) triggers: TriggerRun,
    pub(crate) aborted: bool,
    pub(crate) panics_contained: usize,
}

/// What a multi-shard round needs beyond the union index: each shard's
/// slice of the frontier and one exchange plan per `(tgd, anchor)`.
struct ExchangeRound {
    per_shard: Vec<Vec<Fact>>,
    choices: Vec<Vec<ExchangeChoice>>,
}

impl ExchangeRound {
    fn plan(
        tgds: &[Tgd],
        index: &InstanceIndex,
        store: &ShardedInstance,
        delta: Option<&[Fact]>,
    ) -> ExchangeRound {
        let shards = store.shard_count();
        // On the first round the frontier is the whole instance (already
        // partitioned — each shard contributes its own facts); afterwards
        // the previous round's delta is routed by the same hash that
        // placed the facts.
        let per_shard: Vec<Vec<Fact>> = match delta {
            Some(facts) => {
                let mut parts: Vec<Vec<Fact>> = vec![Vec::new(); shards];
                for fact in facts {
                    parts[shard_of(fact.pred, &fact.args, shards)].push(fact.clone());
                }
                parts
            }
            None => (0..shards)
                .map(|s| store.shard(s).facts().collect())
                .collect(),
        };
        // Computed from the body shape and the union index's statistics —
        // identical on every shard, so no coordination would be needed to
        // agree on it.
        let choices: Vec<Vec<ExchangeChoice>> = tgds
            .iter()
            .map(|t| {
                (0..t.body().len())
                    .map(|a| classify_exchange(t.body(), a, &[], index))
                    .collect()
            })
            .collect();
        if choices
            .iter()
            .flatten()
            .any(|&c| c == ExchangeChoice::Broadcast)
        {
            // A distributed round with any broadcast plan ships each
            // shard's delta to every peer once; re-key probes are accounted
            // per probe.
            let delta_total: usize = per_shard.iter().map(Vec::len).sum();
            EXCHANGED_TUPLES.fetch_add((delta_total * (shards - 1)) as u64, Ordering::Relaxed);
        }
        ExchangeRound { per_shard, choices }
    }
}

/// One round's trigger set: every tgd's body matched against the instance,
/// merged and deduplicated into the canonical firing order.
///
/// `index` must cover exactly the current logical instance (the union of
/// the shards). At one shard that index is the whole search: no delta copy,
/// no exchange plan. With several shards each tgd is matched per shard per
/// anchor under its exchange plan, which finds exactly the same trigger
/// set.
///
/// Each tgd's search runs under `catch_unwind` with the
/// [`FaultSite::TriggerWorkerPanic`] injection point; a panic ends the
/// search and is reported in [`RoundScan::panics_contained`].
pub(crate) fn find_round_triggers(
    tgds: &[Tgd],
    index: &InstanceIndex,
    store: &ShardedInstance,
    delta: Option<&[Fact]>,
    token: &CancelToken,
) -> RoundScan {
    let exchange =
        (store.shard_count() > 1).then(|| ExchangeRound::plan(tgds, index, store, delta));
    let mut run = TriggerRun::new(tgds);
    let mut tally = ExchangeTally::default();
    let mut aborted = false;
    let mut panics_contained = 0usize;
    for (ti, tgd) in tgds.iter().enumerate() {
        if token.is_cancelled() {
            aborted = true;
            break;
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if token.fault(FaultSite::TriggerWorkerPanic) {
                panic!("{INJECTED_PANIC}: trigger worker for tgd {ti}");
            }
            match &exchange {
                None => local_triggers_into(ti, tgd, index, delta, &mut run, token),
                Some(round) => sharded_triggers_into(
                    ti,
                    tgd,
                    &round.choices[ti],
                    index,
                    store,
                    &round.per_shard,
                    delta.is_none(),
                    &mut run,
                    &mut tally,
                    token,
                ),
            }
        }));
        match outcome {
            Ok(true) => {}
            Ok(false) => {
                aborted = true;
                break;
            }
            Err(_) => {
                aborted = true;
                panics_contained += 1;
                break;
            }
        }
    }
    tally.publish();
    if !aborted {
        run.sort_dedup();
    }
    RoundScan {
        triggers: run,
        aborted,
        panics_contained,
    }
}

/// Collects one tgd's triggers against `index` into `run`: a full body
/// search on the first round (`delta` = `None`), semi-naive afterwards (a
/// new trigger must use at least one fact added in the previous round;
/// older triggers were found — and either fired or found satisfied, both
/// monotone — in an earlier round). Returns `false` when cancellation cut
/// the enumeration short (the run then holds a partial set; the caller
/// discards the round).
fn local_triggers_into(
    ti: usize,
    tgd: &Tgd,
    index: &InstanceIndex,
    delta: Option<&[Fact]>,
    run: &mut TriggerRun,
    token: &CancelToken,
) -> bool {
    let fixed: Binding = vec![None; tgd.var_count()];
    let mut poll = CancelPoll::default();
    let mut cancelled = false;
    let mut visit = |binding: &Binding| {
        if poll.cancelled(token) {
            cancelled = true;
            return ControlFlow::Break(());
        }
        run.push_binding(ti, binding);
        ControlFlow::Continue(())
    };
    match delta {
        None => for_each_hom_indexed(tgd.body(), tgd.var_count(), index, &fixed, &mut visit),
        Some(delta) => for_each_hom_seminaive(
            tgd.body(),
            tgd.var_count(),
            index,
            delta,
            &fixed,
            &mut visit,
        ),
    }
    !cancelled
}

/// Collects one tgd's triggers across all shards and anchors into `run`.
/// Returns `false` when cancellation cut the enumeration short (the run
/// then holds a partial set; the caller discards the round).
#[allow(clippy::too_many_arguments)]
fn sharded_triggers_into(
    ti: usize,
    tgd: &Tgd,
    choices: &[ExchangeChoice],
    index: &InstanceIndex,
    store: &ShardedInstance,
    per_shard: &[Vec<Fact>],
    first_round: bool,
    run: &mut TriggerRun,
    tally: &mut ExchangeTally,
    token: &CancelToken,
) -> bool {
    let body = tgd.body();
    if body.is_empty() {
        // A zero-body tgd has exactly one (empty) trigger, found by the
        // first round's full search; semi-naive rounds anchor on delta
        // facts and so never revisit it — matching the one-shard search.
        if first_round {
            run.push_empty(ti);
        }
        return true;
    }
    let fixed: Binding = vec![None; tgd.var_count()];
    let mut poll = CancelPoll::default();
    for (anchor, &choice) in choices.iter().enumerate() {
        let atom = &body[anchor];
        for shard_delta in per_shard {
            if shard_delta.is_empty() {
                continue;
            }
            if choice == ExchangeChoice::ReKey {
                // Every non-anchor atom is fully bound once the anchor
                // fact is: evaluate by owner-routed membership probes
                // against the sharded store (each probe touches exactly
                // the shard owning the probed tuple).
                let mut binding: Binding = vec![None; tgd.var_count()];
                let mut undo: Vec<u32> = Vec::new();
                let mut key: Vec<Elem> = Vec::new();
                for fact in shard_delta {
                    if fact.pred != atom.pred || fact.args.len() != atom.args.len() {
                        continue;
                    }
                    if poll.cancelled(token) {
                        return false;
                    }
                    undo.clear();
                    let mut ok = true;
                    for (&v, &e) in atom.args.iter().zip(&fact.args) {
                        match binding[v.index()] {
                            Some(prev) if prev != e => {
                                ok = false;
                                break;
                            }
                            Some(_) => {}
                            None => {
                                binding[v.index()] = Some(e);
                                undo.push(v.index() as u32);
                            }
                        }
                    }
                    if ok {
                        let mut all_present = true;
                        for (i, rest) in body.iter().enumerate() {
                            if i == anchor {
                                continue;
                            }
                            key.clear();
                            key.extend(
                                rest.args
                                    .iter()
                                    .map(|v| binding[v.index()].expect("rekey-bound var")),
                            );
                            tally.rekeyed_probes += 1;
                            if !store.contains_fact(rest.pred, &key) {
                                all_present = false;
                                break;
                            }
                        }
                        if all_present {
                            run.push_binding(ti, &binding);
                        }
                    }
                    for &vi in &undo {
                        binding[vi as usize] = None;
                    }
                }
            } else {
                if choice == ExchangeChoice::Broadcast {
                    tally.broadcasts += 1;
                }
                let mut cancelled = false;
                let mut visit = |binding: &Binding| {
                    if poll.cancelled(token) {
                        cancelled = true;
                        return ControlFlow::Break(());
                    }
                    run.push_binding(ti, binding);
                    ControlFlow::Continue(())
                };
                let _ = for_each_hom_anchored(
                    body,
                    tgd.var_count(),
                    index,
                    anchor,
                    shard_delta,
                    &fixed,
                    &mut visit,
                );
                if cancelled {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_env_parsing() {
        // Parsing logic only (env mutation is racy across tests): the
        // helper clamps to ≥ 1 and defaults to 1 — modeled directly.
        let parse = |v: Option<&str>| {
            v.and_then(|s| s.trim().parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or(1)
        };
        assert_eq!(parse(None), 1);
        assert_eq!(parse(Some("4")), 4);
        assert_eq!(parse(Some(" 2 ")), 2);
        assert_eq!(parse(Some("0")), 1);
        assert_eq!(parse(Some("nope")), 1);
    }

    #[test]
    fn trigger_run_sorts_and_dedups_like_an_ordered_set() {
        use std::collections::BTreeSet;
        use tgdkit_logic::{parse_tgds, Schema};
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "E(x,y), E(y,z) -> E(x,z). P(x) -> T(x).").unwrap();
        let mut run = TriggerRun::new(&tgds);
        let mut reference: BTreeSet<(usize, Vec<Elem>)> = BTreeSet::new();
        // Deterministic pseudo-random inserts with duplicates, out of order.
        let mut state = 0x1234_5678u64;
        for _ in 0..500 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let ti = (state >> 60) as usize % 2;
            let a = Elem((state >> 10) as u32 % 7);
            let b = Elem((state >> 20) as u32 % 7);
            let c = Elem((state >> 30) as u32 % 7);
            let universal: Vec<Elem> = if ti == 0 { vec![a, b, c] } else { vec![a] };
            let mut binding: Binding = universal.iter().map(|&e| Some(e)).collect();
            binding.resize(4, None);
            run.push_binding(ti, &binding);
            reference.insert((ti, universal));
        }
        run.sort_dedup();
        assert_eq!(run.len(), reference.len());
        let flat: Vec<(usize, Vec<Elem>)> = run.iter().map(|(ti, u)| (ti, u.to_vec())).collect();
        let expect: Vec<(usize, Vec<Elem>)> = reference.into_iter().collect();
        assert_eq!(flat, expect, "run order must equal ordered-set order");
    }
}
