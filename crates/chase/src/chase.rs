//! The chase procedure (restricted and oblivious variants) with labeled
//! nulls and explicit budgets.

use crate::checkpoint::{tgds_fingerprint, ChaseCheckpoint, CheckpointError};
use crate::faults::FaultSite;
use crate::govern::{CancelToken, Run};
use crate::memory::MemoryAccountant;
use crate::shard::{find_round_triggers, record_run_shape};
use crate::stats::ChaseStats;
use std::collections::BTreeSet;
use std::ops::ControlFlow;
use std::time::Instant;
use tgdkit_hom::{for_each_hom, Binding, Cq, InstanceIndex};
use tgdkit_instance::{Elem, Fact, Instance, ShardedInstance};
use tgdkit_logic::{Egd, Tgd};

/// Which chase variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChaseVariant {
    /// The restricted (standard) chase: a trigger fires only if the head is
    /// not already satisfied with the trigger's frontier image.
    #[default]
    Restricted,
    /// The oblivious chase: every trigger fires exactly once, regardless of
    /// head satisfaction. Produces larger, more regular results.
    Oblivious,
}

/// Resource budget for a chase run.
///
/// The chase of tgds with existential variables may not terminate; budgets
/// turn divergence into an explicit [`ChaseOutcome::BudgetExceeded`] (or
/// [`ChaseOutcome::MemoryExceeded`]) result that downstream reasoning
/// treats conservatively.
///
/// All three limits are enforced at **round boundaries**: a run stops
/// before a round when the previous rounds pushed it past a cap, so a
/// single round may overshoot `max_facts`/`max_bytes` by its own
/// production (a 4× mid-round guard bounds pathological rounds). This is
/// what makes a tripped run a clean *round prefix* — resumable from a
/// [`crate::ChaseCheckpoint`] byte-identically.
///
/// Zero values are honored, not silently bypassed: `max_rounds: 0` trips
/// before round one with an untouched instance, and `max_facts: 0` on a
/// nonempty start trips before any trigger search (it used to be able to
/// report `Terminated` without ever consulting the budget).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChaseBudget {
    /// Maximum number of facts in the chased instance.
    pub max_facts: usize,
    /// Maximum number of chase rounds (each round fires all triggers found
    /// at its start).
    pub max_rounds: usize,
    /// Maximum heap residency of the instance arena in bytes
    /// ([`tgdkit_instance::Instance::heap_bytes`]), charged through a
    /// [`crate::MemoryAccountant`]; `usize::MAX` (the default) means
    /// *unspecified*.
    ///
    /// **Precedence:** an explicit per-request value (anything other than
    /// `usize::MAX`) always wins. Only when the field is left unspecified
    /// does [`ChaseBudget::effective_max_bytes`] fall back to the
    /// process-wide `TGDKIT_BUDGET_MAX_BYTES` environment override, and an
    /// unset/unparsable/zero variable means unlimited. A multi-tenant
    /// server therefore keeps full control of each tenant's byte cap: the
    /// operator's env override is a default for requests that don't name a
    /// cap, never a clamp on ones that do.
    pub max_bytes: usize,
}

/// `TGDKIT_BUDGET_MAX_BYTES` parsed once per process: a positive integer
/// byte cap used as the *fallback* for budgets whose `max_bytes` is left
/// unspecified; unset, unparsable, or zero means unlimited.
fn env_max_bytes() -> usize {
    use std::sync::OnceLock;
    static CACHE: OnceLock<usize> = OnceLock::new();
    *CACHE.get_or_init(|| parse_max_bytes(std::env::var("TGDKIT_BUDGET_MAX_BYTES").ok().as_deref()))
}

fn parse_max_bytes(var: Option<&str>) -> usize {
    var.and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&b| b > 0)
        .unwrap_or(usize::MAX)
}

/// The byte cap a run should actually enforce, given an explicit
/// per-budget value and the process-wide env override. Explicit wins;
/// `usize::MAX` (unspecified) defers to the override. Pure so the
/// precedence is testable without mutating process environment (the env
/// read is cached in a `OnceLock`, so a test could only observe one
/// value per process anyway).
#[inline]
fn resolve_max_bytes(explicit: usize, env_override: usize) -> usize {
    if explicit != usize::MAX {
        explicit
    } else {
        env_override
    }
}

impl Default for ChaseBudget {
    fn default() -> Self {
        ChaseBudget {
            max_facts: 20_000,
            max_rounds: 128,
            max_bytes: usize::MAX,
        }
    }
}

impl ChaseBudget {
    /// The byte cap this budget actually enforces: the explicit
    /// [`ChaseBudget::max_bytes`] when one was set, otherwise the
    /// `TGDKIT_BUDGET_MAX_BYTES` environment override, otherwise
    /// unlimited. Every [`crate::MemoryAccountant`] construction funnels
    /// through here, so per-request budgets are never silently widened or
    /// narrowed by process-global state.
    pub fn effective_max_bytes(&self) -> usize {
        resolve_max_bytes(self.max_bytes, env_max_bytes())
    }

    /// A small budget for quick probes.
    pub fn small() -> Self {
        ChaseBudget {
            max_facts: 2_000,
            max_rounds: 32,
            max_bytes: usize::MAX,
        }
    }

    /// A generous budget for stubborn inputs.
    pub fn large() -> Self {
        ChaseBudget {
            max_facts: 200_000,
            max_rounds: 512,
            max_bytes: usize::MAX,
        }
    }
}

/// Whether the chase reached a fixpoint or was cut off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaseOutcome {
    /// A fixpoint: the result satisfies every tgd of the input set.
    Terminated,
    /// The round or fact budget ran out; the result is a *partial* chase
    /// (sound for positive entailment, useless for refutation).
    BudgetExceeded,
    /// The byte budget ([`ChaseBudget::max_bytes`]) tripped at a round
    /// boundary — same soundness as [`ChaseOutcome::BudgetExceeded`], but
    /// distinguishable so callers can shed memory (or resume from a
    /// [`crate::ChaseCheckpoint`] with a larger budget) instead of giving
    /// the run more rounds.
    MemoryExceeded,
    /// The run was cut off by a [`CancelToken`] — explicit cancellation,
    /// deadline expiry, or a contained worker panic. The result is the
    /// partial chase *as of the last completed round* (the aborted round's
    /// trigger set is discarded before any firing), so like
    /// [`ChaseOutcome::BudgetExceeded`] it is sound for positive entailment
    /// and useless for refutation.
    Cancelled,
}

/// One recorded chase step: a trigger that fired and the facts it added.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DerivationStep {
    /// Index of the tgd in the input set.
    pub tgd_index: usize,
    /// Images of the tgd's universal variables.
    pub universal: Vec<Elem>,
    /// Nulls invented for the existential variables (in variable order).
    pub witnesses: Vec<Elem>,
    /// Facts newly added by this step.
    pub added: Vec<Fact>,
}

/// A derivation log for a chase run; see [`chase_with_provenance`].
#[derive(Debug, Clone, Default)]
pub struct Provenance {
    /// The steps, in firing order.
    pub steps: Vec<DerivationStep>,
}

impl Provenance {
    /// The step that first derived `fact`, if any (facts of the input
    /// instance have no step).
    pub fn explain(&self, fact: &Fact) -> Option<&DerivationStep> {
        self.steps.iter().find(|s| s.added.contains(fact))
    }
}

/// The result of a chase run.
#[derive(Debug, Clone)]
pub struct ChaseResult {
    /// The chased instance (extends the input instance).
    pub instance: Instance,
    /// Fixpoint or budget cutoff.
    pub outcome: ChaseOutcome,
    /// The labeled nulls invented by the chase.
    pub nulls: BTreeSet<Elem>,
    /// Number of rounds executed.
    pub rounds: usize,
    /// Engine counters and phase timings for this run.
    pub stats: ChaseStats,
}

impl ChaseResult {
    /// `true` when the chase reached a fixpoint.
    pub fn terminated(&self) -> bool {
        self.outcome == ChaseOutcome::Terminated
    }

    /// `true` when the run was cut off by a [`CancelToken`].
    pub fn cancelled(&self) -> bool {
        self.outcome == ChaseOutcome::Cancelled
    }
}

/// Runs the chase of `start` with `tgds` (paper notation:
/// `chase(I, Σ)`).
///
/// The result extends `start`; when the outcome is
/// [`ChaseOutcome::Terminated`] it is a model of `Σ` that maps
/// homomorphically into every model of `Σ` containing `start` while fixing
/// `start`'s elements (hom-universality) — the property exploited by
/// Claims C.2/D.3/E.2 of the paper.
///
/// ```
/// use tgdkit_logic::{parse_tgds, Schema};
/// use tgdkit_instance::parse_instance;
/// use tgdkit_chase::{chase, ChaseBudget, ChaseVariant};
/// let mut schema = Schema::default();
/// let tgds = parse_tgds(&mut schema, "E(x,y), E(y,z) -> E(x,z).").unwrap();
/// let path = parse_instance(&mut schema, "E(a,b), E(b,c), E(c,d)").unwrap();
/// let result = chase(&path, &tgds, ChaseVariant::Restricted, ChaseBudget::default());
/// assert!(result.terminated());
/// assert_eq!(result.instance.fact_count(), 6); // transitive closure of a 3-path
/// ```
pub fn chase(
    start: &Instance,
    tgds: &[Tgd],
    variant: ChaseVariant,
    budget: ChaseBudget,
) -> ChaseResult {
    chase_from(
        &Run::default(),
        ChaseStart::Fresh(start),
        tgds,
        variant,
        budget,
    )
    .expect("a fresh start has no checkpoint to mismatch")
    .0
}

/// Where [`chase_from`] starts: a fresh chase of an instance, or the state
/// captured in a [`ChaseCheckpoint`] by an earlier run that stopped short.
#[derive(Debug, Clone, Copy)]
pub enum ChaseStart<'a> {
    /// Chase this instance from round 0.
    Fresh(&'a Instance),
    /// Continue a suspended run.
    Resume(&'a ChaseCheckpoint),
}

/// The chase under a [`Run`] context — the one entry point behind
/// [`chase`], started fresh or from a checkpoint.
///
/// - **Cancellation.** `run.token` is checked at every round start and
///   polled inside the trigger search and the apply loop, so a cancelled
///   run stops within one round and reports [`ChaseOutcome::Cancelled`]
///   with the instance *as of the last completed round* and coherent
///   [`ChaseStats`] for the work actually done. Trigger-search panics (real
///   or injected via [`crate::faults`]) are contained: the round's partial
///   trigger set is discarded, the panic is counted in
///   [`ChaseStats::panics_contained`], and the run reports `Cancelled`.
/// - **Sharding.** The store is hash-partitioned across `run.shards`
///   shards: the semi-naive trigger search runs shard-local with a
///   deterministic cross-shard exchange ([`crate::shard`]), so the result is
///   **bit-for-bit equal** at any shard count. Use
///   [`crate::shards_from_env`] to honor `TGDKIT_SHARDS`.
/// - **Checkpoints.** With `run.checkpoint`, a run that stops short of a
///   fixpoint on a resumable round boundary (budget, memory, or
///   cancellation trip) also returns a [`ChaseCheckpoint`]. Starting from
///   it with [`ChaseStart::Resume`] — with a larger budget, since budgets
///   are absolute across segments — continues the run byte-identically to
///   one that was never interrupted. The resume keeps the checkpoint's
///   shard count (partitioning is a pure function of the facts).
///
/// A resume must use the tgd set and variant the checkpoint was captured
/// under — the set is validated by an order-sensitive fingerprint, since
/// trigger ordering is positional — or it fails with
/// [`CheckpointError::ContextMismatch`]. A fresh start never fails.
pub fn chase_from(
    run: &Run,
    start: ChaseStart<'_>,
    tgds: &[Tgd],
    variant: ChaseVariant,
    budget: ChaseBudget,
) -> Result<(ChaseResult, Option<Box<ChaseCheckpoint>>), CheckpointError> {
    // Only a resume or a capture needs the fingerprint.
    let sigma_fp = || tgds_fingerprint(tgds);
    let (start, shards) = match start {
        ChaseStart::Fresh(instance) => (RunStart::Fresh(instance), run.shards.max(1)),
        ChaseStart::Resume(checkpoint) => {
            if checkpoint.sigma_fp != sigma_fp() {
                return Err(CheckpointError::ContextMismatch("tgd set"));
            }
            if checkpoint.variant != variant {
                return Err(CheckpointError::ContextMismatch("chase variant"));
            }
            if !checkpoint.fired.is_empty() && checkpoint.fired.len() != tgds.len() {
                return Err(CheckpointError::ContextMismatch("fired-set arity"));
            }
            let shards = checkpoint.shards.max(1) as usize;
            (RunStart::Resume(Box::new(checkpoint.clone())), shards)
        }
    };
    let (result, end) = chase_impl(start, tgds, variant, budget, shards, &run.token, None);
    let checkpoint = if run.checkpoint {
        capture_checkpoint(&result, end, variant, sigma_fp(), shards as u32)
    } else {
        None
    };
    Ok((result, checkpoint))
}

/// A fresh chase under `run`'s token and shard count that never captures
/// a checkpoint — the inner chases of the entailment procedures.
pub(crate) fn chase_fresh(
    run: &Run,
    start: &Instance,
    tgds: &[Tgd],
    variant: ChaseVariant,
    budget: ChaseBudget,
) -> ChaseResult {
    let shards = run.shards.max(1);
    chase_impl(
        RunStart::Fresh(start),
        tgds,
        variant,
        budget,
        shards,
        &run.token,
        None,
    )
    .0
}

/// [`chase`] with a derivation log: every fired trigger is recorded with
/// the facts it added, so results can be *explained*
/// ([`Provenance::explain`]).
pub fn chase_with_provenance(
    start: &Instance,
    tgds: &[Tgd],
    variant: ChaseVariant,
    budget: ChaseBudget,
) -> (ChaseResult, Provenance) {
    let mut provenance = Provenance::default();
    let result = chase_impl(
        RunStart::Fresh(start),
        tgds,
        variant,
        budget,
        1,
        &CancelToken::new(),
        Some(&mut provenance),
    )
    .0;
    (result, provenance)
}

/// How many triggers the apply loop fires between cooperative cancellation
/// checks. A round's trigger set can run to thousands of entries, each with
/// a satisfaction probe under the restricted variant, so an unpolled apply
/// loop was the last multi-millisecond blind spot between a deadline
/// expiring and the chase noticing (the deadline-overshoot probe in the
/// bench caught it at 10–15 ms). A mid-apply cancellation **rolls the
/// half-applied round back** to its boundary, preserving the round-prefix
/// property the fault proptests pin down.
const APPLY_CANCEL_STRIDE: u32 = 64;

/// Where a run starts: a fresh chase of an instance, or the captured state
/// of a suspended run (a checkpoint, or a fold's synthesized one).
enum RunStart<'a> {
    Fresh(&'a Instance),
    Resume(Box<ChaseCheckpoint>),
}

/// End-of-run internals handed back by [`chase_impl`] so the
/// checkpointing entry points can capture resumable state without
/// re-deriving it.
struct ChaseRunEnd {
    next_null: u32,
    fired: Vec<BTreeSet<Vec<Elem>>>,
    delta: Option<Vec<Fact>>,
    /// `false` when the run stopped mid-round (the 4× fact-overshoot
    /// guard): the state is not on a round boundary and must not be
    /// checkpointed.
    resumable: bool,
}

fn chase_impl(
    start: RunStart<'_>,
    tgds: &[Tgd],
    variant: ChaseVariant,
    budget: ChaseBudget,
    shards: usize,
    token: &CancelToken,
    mut log: Option<&mut Provenance>,
) -> (ChaseResult, ChaseRunEnd) {
    let run_started = Instant::now();
    // Fresh run state, or the captured state of a suspended run. Budgets
    // are absolute across trip + resume: `rounds` continues counting from
    // the checkpoint, so resuming with the same budget that tripped stops
    // again immediately — callers resume with a larger one.
    let (instance, mut nulls, mut next_null, mut fired, mut delta, mut stats);
    let mut rounds: usize;
    match start {
        RunStart::Fresh(start) => {
            instance = start.clone();
            nulls = BTreeSet::new();
            next_null = instance.fresh_elem().0;
            fired = vec![BTreeSet::new(); tgds.len()];
            delta = None;
            stats = ChaseStats::default();
            rounds = 0;
        }
        RunStart::Resume(cp) => {
            let cp = *cp;
            instance = cp.instance;
            nulls = cp.nulls;
            next_null = cp.next_null;
            fired = if cp.fired.is_empty() {
                vec![BTreeSet::new(); tgds.len()]
            } else {
                cp.fired
            };
            delta = cp.delta;
            stats = cp.stats;
            stats.resumes += 1;
            rounds = cp.rounds;
        }
    }
    let head_cqs: Vec<Cq> = tgds
        .iter()
        .map(|t| Cq::boolean(t.head().to_vec()))
        .collect();

    // ONE index lives across the whole run: built here, then grown with
    // O(|Δ|) `extend` calls as triggers fire, instead of the former O(|I|)
    // rebuild per round (quadratic over a run). At every head check and at
    // every round start the index covers exactly the current instance.
    // With several shards this is the *union* index, used for
    // head-satisfaction checks and broadcast joins next to the partitioned
    // store that owner-routed probes consult.
    let mut index = InstanceIndex::new(&instance);
    stats.index_rebuilds += 1;
    let mut store = ShardedInstance::from_instance(instance, shards.max(1));

    let accountant = MemoryAccountant::new(budget.effective_max_bytes());
    // Mid-round emergency stop: rounds are atomic for budget purposes, but
    // a single pathological round must not allocate unboundedly past the
    // cap. Tripping here loses the round boundary, so no checkpoint.
    let hard_fact_cap = budget.max_facts.saturating_mul(4);
    let mut resumable = true;

    let outcome = 'run: loop {
        // Every cutoff below lands on a round boundary (the mid-apply
        // cancellation poll rolls its half-applied round back to one), so a
        // cancelled (or fault-tripped) run's instance is exactly the state
        // after its last completed round — the prefix property the
        // proptests pin down, and the state a `ChaseCheckpoint` captures.
        if token.is_cancelled() {
            break 'run ChaseOutcome::Cancelled;
        }
        if token.fault(FaultSite::BudgetTrip) {
            break 'run ChaseOutcome::BudgetExceeded;
        }
        if rounds >= budget.max_rounds {
            break 'run ChaseOutcome::BudgetExceeded;
        }
        if store.fact_count() > budget.max_facts {
            break 'run ChaseOutcome::BudgetExceeded;
        }
        if accountant.charge_to(store.heap_bytes()) || token.fault(FaultSite::MemBudgetTrip) {
            stats.mem_trips += 1;
            break 'run ChaseOutcome::MemoryExceeded;
        }
        rounds += 1;

        // Snapshot this round's triggers against the instance as of the
        // start of the round (fair, breadth-first scheduling), deduplicated
        // and in canonical `(tgd, universal)` order at any shard count.
        let search_started = Instant::now();
        let scan = find_round_triggers(tgds, &index, &store, delta.as_deref(), token);
        stats.trigger_search_time += search_started.elapsed();
        if scan.aborted || scan.panics_contained > 0 {
            // Discard the partial trigger set without firing: the aborted
            // round never happened, and a contained panic means the set
            // may be incomplete, so a fixpoint cannot be certified.
            stats.panics_contained += scan.panics_contained;
            rounds -= 1;
            break 'run ChaseOutcome::Cancelled;
        }
        let triggers = scan.triggers;
        stats.triggers_found += triggers.len();

        let apply_started = Instant::now();
        let mut added_this_round: Vec<Fact> = Vec::new();
        // Prefix of `added_this_round` already folded into the index.
        let mut folded = 0usize;
        let mut fired_this_round = false;
        // Round-boundary watermarks: everything a mid-apply cancellation
        // must undo to land the run back on the boundary (the index is not
        // rolled back — it is local to this run and dead after the break).
        let null_watermark = next_null;
        let log_watermark = log.as_deref().map_or(0, |p| p.steps.len());
        let fired_watermark = stats.triggers_fired;
        let mut oblivious_undo: Vec<(usize, Vec<Elem>)> = Vec::new();
        let mut since_apply_check = 0u32;
        for (ti, universal) in triggers.iter() {
            since_apply_check += 1;
            if since_apply_check >= APPLY_CANCEL_STRIDE {
                since_apply_check = 0;
                if token.is_cancelled() {
                    // Roll the half-applied round back to its boundary:
                    // the cancelled instance must be exactly the state
                    // after the last *completed* round.
                    for fact in &added_this_round {
                        store.remove_fact(fact.pred, &fact.args);
                    }
                    for (oti, ouni) in oblivious_undo.drain(..) {
                        fired[oti].remove(&ouni);
                    }
                    if let Some(prov) = log.as_deref_mut() {
                        prov.steps.truncate(log_watermark);
                    }
                    for e in null_watermark..next_null {
                        nulls.remove(&Elem(e));
                    }
                    next_null = null_watermark;
                    stats.triggers_fired = fired_watermark;
                    rounds -= 1;
                    stats.apply_time += apply_started.elapsed();
                    break 'run ChaseOutcome::Cancelled;
                }
            }
            let tgd = &tgds[ti];
            if tgd.is_full() {
                // Full tgds invent no nulls: firing is an idempotent set
                // insertion, cheaper than any satisfaction check.
                let mut changed = false;
                let mut step_added: Vec<Fact> = Vec::new();
                for atom in tgd.head() {
                    let args: Vec<Elem> = atom.args.iter().map(|v| universal[v.index()]).collect();
                    if store.add_fact(atom.pred, args.clone()) {
                        let fact = Fact::new(atom.pred, args);
                        added_this_round.push(fact.clone());
                        step_added.push(fact);
                        changed = true;
                    }
                }
                if changed {
                    if let Some(prov) = log.as_deref_mut() {
                        prov.steps.push(DerivationStep {
                            tgd_index: ti,
                            universal: universal.to_vec(),
                            witnesses: Vec::new(),
                            added: step_added,
                        });
                    }
                    fired_this_round = true;
                    stats.triggers_fired += 1;
                    if store.fact_count() > hard_fact_cap {
                        stats.apply_time += apply_started.elapsed();
                        resumable = false;
                        break 'run ChaseOutcome::BudgetExceeded;
                    }
                }
                continue;
            }
            match variant {
                ChaseVariant::Restricted => {
                    // Re-check satisfaction against the *current* instance:
                    // fold any facts added since the last check into the
                    // live index (amortized O(|Δ|), replacing the former
                    // full rebuild whenever the instance had grown).
                    if folded < added_this_round.len() {
                        index.extend(&added_this_round[folded..]);
                        stats.index_extends += 1;
                        folded = added_this_round.len();
                    }
                    let mut head_fixed: Binding = vec![None; tgd.var_count()];
                    for (v, &e) in universal.iter().enumerate() {
                        head_fixed[v] = Some(e);
                    }
                    if head_cqs[ti].holds_with_indexed(&index, &head_fixed) {
                        continue;
                    }
                }
                ChaseVariant::Oblivious => {
                    if !fired[ti].insert(universal.to_vec()) {
                        continue;
                    }
                    oblivious_undo.push((ti, universal.to_vec()));
                }
            }
            // Fire: fresh nulls for the existential variables.
            let mut assignment: Vec<Elem> = Vec::with_capacity(tgd.var_count());
            assignment.extend(universal.iter().copied());
            let mut witnesses: Vec<Elem> = Vec::new();
            for _ in tgd.existential_vars() {
                let e = Elem(next_null);
                next_null += 1;
                nulls.insert(e);
                witnesses.push(e);
                assignment.push(e);
            }
            let mut step_added: Vec<Fact> = Vec::new();
            for atom in tgd.head() {
                let args: Vec<Elem> = atom.args.iter().map(|v| assignment[v.index()]).collect();
                if store.add_fact(atom.pred, args.clone()) {
                    let fact = Fact::new(atom.pred, args);
                    added_this_round.push(fact.clone());
                    step_added.push(fact);
                }
            }
            if let Some(prov) = log.as_deref_mut() {
                prov.steps.push(DerivationStep {
                    tgd_index: ti,
                    universal: universal.to_vec(),
                    witnesses,
                    added: step_added,
                });
            }
            fired_this_round = true;
            stats.triggers_fired += 1;
            if store.fact_count() > hard_fact_cap {
                stats.apply_time += apply_started.elapsed();
                resumable = false;
                break 'run ChaseOutcome::BudgetExceeded;
            }
        }

        if !fired_this_round {
            stats.apply_time += apply_started.elapsed();
            break 'run ChaseOutcome::Terminated;
        }
        // Fold the round's tail so the next round's search sees I ∪ Δ.
        if folded < added_this_round.len() {
            index.extend(&added_this_round[folded..]);
            stats.index_extends += 1;
        }
        stats.facts_added += added_this_round.len();
        stats.apply_time += apply_started.elapsed();
        delta = Some(added_this_round);
    };

    // Final high-water observation (the loop's charge sites see round
    // starts only, not the last round's growth).
    accountant.observe(store.heap_bytes());
    stats.mem_peak_bytes = stats.mem_peak_bytes.max(accountant.peak_bytes());
    record_run_shape(&store);
    let instance = store.into_instance();
    stats.rounds = rounds;
    // `+=` not `=`: a resumed run accumulates wall time across segments.
    stats.total_time += run_started.elapsed();
    (
        ChaseResult {
            instance,
            outcome,
            nulls,
            rounds,
            stats,
        },
        ChaseRunEnd {
            next_null,
            fired,
            delta,
            resumable,
        },
    )
}

/// Builds the checkpoint for a non-terminated, round-boundary stop.
/// `shards` is the run's shard count; partitioning is a pure function of the facts, so the capture stores the
/// merged instance and the resume re-partitions it identically.
fn capture_checkpoint(
    result: &ChaseResult,
    end: ChaseRunEnd,
    variant: ChaseVariant,
    sigma_fp: u64,
    shards: u32,
) -> Option<Box<ChaseCheckpoint>> {
    if result.outcome == ChaseOutcome::Terminated || !end.resumable {
        return None;
    }
    Some(Box::new(ChaseCheckpoint {
        variant,
        rounds: result.rounds,
        next_null: end.next_null,
        shards,
        sigma_fp,
        nulls: result.nulls.clone(),
        // Restricted runs never consult `fired`; drop it from the capture.
        fired: match variant {
            ChaseVariant::Oblivious => end.fired,
            ChaseVariant::Restricted => Vec::new(),
        },
        delta: end.delta,
        stats: result.stats,
        instance: result.instance.clone(),
    }))
}

/// **Incremental fold**: extends an already-chased *fixpoint* with a batch
/// of new facts and chases only the consequences of the batch, never
/// re-deriving the base.
///
/// `base` must be a fixpoint of `tgds` under `variant` (e.g. the instance
/// of a `Terminated` [`ChaseResult`]), and `base_nulls` its labeled-null
/// set. The batch is inserted, the facts that were *actually* new become
/// the semi-naive delta frontier, and the run proceeds exactly like a
/// [`chase_from`] resume from a round boundary: only triggers touching at least
/// one delta fact are searched, which is sound because at a fixpoint every
/// all-old trigger is already satisfied. Folding a batch into a fixpoint
/// is therefore byte-identical to chasing `base ∪ batch` from scratch with
/// the same variant — the property the durable-store layer's
/// `restart ≡ uninterrupted` guarantee rests on — at delta cost instead of
/// from-scratch cost.
///
/// An empty (or fully duplicate) batch returns the base unchanged as
/// `Terminated` without searching a single trigger. Budgets count from
/// zero for each fold, not cumulatively across folds. Governance, shard
/// count and checkpoint capture come from `run` as in [`chase_from`]: with
/// `run.checkpoint`, a budget/memory/cancellation trip on a round boundary
/// yields a resumable checkpoint.
pub fn chase_extend(
    run: &Run,
    base: &Instance,
    base_nulls: &BTreeSet<Elem>,
    batch: &[Fact],
    tgds: &[Tgd],
    variant: ChaseVariant,
    budget: ChaseBudget,
) -> (ChaseResult, Option<Box<ChaseCheckpoint>>) {
    let sigma_fp = tgds_fingerprint(tgds);
    let shards = run.shards.max(1);
    let mut instance = base.clone();
    let mut delta: Vec<Fact> = Vec::new();
    for fact in batch {
        if instance.add_fact(fact.pred, fact.args.clone()) {
            delta.push(fact.clone());
        }
    }
    if delta.is_empty() {
        return (
            ChaseResult {
                instance,
                outcome: ChaseOutcome::Terminated,
                nulls: base_nulls.clone(),
                rounds: 0,
                stats: ChaseStats::default(),
            },
            None,
        );
    }
    // A synthesized round-boundary checkpoint: the base fixpoint plus the
    // inserted batch as the pending delta. `next_null` is re-derived from
    // the extended instance so nulls allocated by the fold can never
    // collide with batch constants. `fired` stays empty — the oblivious
    // resume path re-seeds it fresh, which only matters for triggers
    // touching the delta (all-old triggers are never searched again).
    let cp = ChaseCheckpoint {
        variant,
        rounds: 0,
        next_null: instance.fresh_elem().0,
        shards: shards as u32,
        sigma_fp,
        nulls: base_nulls.clone(),
        fired: Vec::new(),
        delta: Some(delta),
        stats: ChaseStats::default(),
        instance,
    };
    let (mut result, end) = chase_impl(
        RunStart::Resume(Box::new(cp)),
        tgds,
        variant,
        budget,
        shards,
        &run.token,
        None,
    );
    // The resume path counts itself as a resumption; a fold is not one.
    result.stats.resumes = result.stats.resumes.saturating_sub(1);
    let next = if run.checkpoint {
        capture_checkpoint(&result, end, variant, sigma_fp, shards as u32)
    } else {
        None
    };
    (result, next)
}

/// The **core chase**: a restricted chase followed by core minimization
/// relative to the input's elements, yielding the *minimal* universal model
/// containing `start` (when the chase terminates).
///
/// The core chase is the canonical-model construction of the data-exchange
/// literature; tgdkit uses it to produce small witnesses (e.g. the `J_K` of
/// the locality checks are hom-equivalent to core-chase results). Core
/// minimization is exponential in the worst case — reserve for small
/// results.
pub fn core_chase(start: &Instance, tgds: &[Tgd], budget: ChaseBudget) -> ChaseResult {
    let result = chase(start, tgds, ChaseVariant::Restricted, budget);
    if !result.terminated() {
        return result;
    }
    let frozen = start.active_domain();
    let minimized = tgdkit_hom::core_preserving(&result.instance, frozen);
    let nulls: BTreeSet<Elem> = result
        .nulls
        .iter()
        .copied()
        .filter(|n| minimized.active_domain().contains(n))
        .collect();
    ChaseResult {
        instance: minimized,
        outcome: result.outcome,
        nulls,
        rounds: result.rounds,
        stats: result.stats,
    }
}

/// An egd chase failure: the egd forced two *original* (non-null) elements
/// to be equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EgdFailure {
    /// The two original elements that the egd tried to merge.
    pub elements: (Elem, Elem),
    /// Counters for the chase passes completed before the failure (rounds,
    /// triggers, timings), so callers can still account for the work done.
    pub stats: ChaseStats,
}

impl std::fmt::Display for EgdFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "egd chase failure: cannot equate original elements {:?} and {:?}",
            self.elements.0, self.elements.1
        )
    }
}

impl std::error::Error for EgdFailure {}

/// Runs the chase with both tgds and egds: tgd rounds as in [`chase`],
/// interleaved with egd steps that merge a labeled null into the other
/// element of a violated equality (failing if both elements are original).
pub fn chase_with_egds(
    start: &Instance,
    tgds: &[Tgd],
    egds: &[Egd],
    variant: ChaseVariant,
    budget: ChaseBudget,
) -> Result<ChaseResult, Box<EgdFailure>> {
    let mut current = start.clone();
    let mut all_nulls: BTreeSet<Elem> = BTreeSet::new();
    let mut rounds_total = 0usize;
    let mut stats_total = ChaseStats::default();
    loop {
        let mut result = chase(&current, tgds, variant, budget);
        all_nulls.extend(result.nulls.iter().copied());
        rounds_total += result.rounds;
        stats_total.absorb(&result.stats);
        // Apply egds to a fixpoint.
        let mut merged_any = false;
        'egds: loop {
            for egd in egds {
                if let Some((a, b)) = egd_violation(&result.instance, egd) {
                    let (keep, drop) = match (all_nulls.contains(&a), all_nulls.contains(&b)) {
                        (_, true) => (a, b),
                        (true, false) => (b, a),
                        (false, false) => {
                            // `stats_total` already folds in the failing
                            // pass (absorbed right after the chase above):
                            // report it instead of discarding the counters.
                            // Boxed: `ChaseStats` makes the failure much
                            // larger than the `Ok` path should pay for.
                            return Err(Box::new(EgdFailure {
                                elements: (a, b),
                                stats: stats_total,
                            }));
                        }
                    };
                    result.instance =
                        result
                            .instance
                            .map_elements(|e| if e == drop { keep } else { e });
                    all_nulls.remove(&drop);
                    merged_any = true;
                    continue 'egds;
                }
            }
            break;
        }
        if !merged_any {
            return Ok(ChaseResult {
                instance: result.instance,
                outcome: result.outcome,
                nulls: all_nulls,
                rounds: rounds_total,
                stats: stats_total,
            });
        }
        if result.outcome != ChaseOutcome::Terminated || rounds_total >= budget.max_rounds {
            // Keep the specific cutoff kind (memory vs rounds/facts) when
            // the inner pass was itself cut off.
            let outcome = if result.outcome == ChaseOutcome::Terminated {
                ChaseOutcome::BudgetExceeded
            } else {
                result.outcome
            };
            return Ok(ChaseResult {
                instance: result.instance,
                outcome,
                nulls: all_nulls,
                rounds: rounds_total,
                stats: stats_total,
            });
        }
        // Merging may enable new tgd triggers: chase again.
        current = result.instance;
    }
}

fn egd_violation(instance: &Instance, egd: &Egd) -> Option<(Elem, Elem)> {
    let n = egd.var_count();
    let fixed: Binding = vec![None; n];
    let mut found = None;
    for_each_hom(egd.body(), n, instance, &fixed, &mut |binding| {
        let a = binding[egd.lhs().index()].expect("bound");
        let b = binding[egd.rhs().index()].expect("bound");
        if a == b {
            ControlFlow::Continue(())
        } else {
            found = Some((a, b));
            ControlFlow::Break(())
        }
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::satisfy::satisfies_tgds;
    use tgdkit_instance::parse_instance;
    use tgdkit_logic::{parse_dependencies, parse_tgds, Schema};

    /// A fresh, non-checkpointing run under `token`.
    fn governed(
        start: &Instance,
        tgds: &[Tgd],
        variant: ChaseVariant,
        budget: ChaseBudget,
        token: &CancelToken,
    ) -> ChaseResult {
        let run = Run {
            token: token.clone(),
            ..Run::default()
        };
        chase_from(&run, ChaseStart::Fresh(start), tgds, variant, budget)
            .unwrap()
            .0
    }

    /// A fresh checkpointing run under `token`.
    fn checkpointing(
        start: &Instance,
        tgds: &[Tgd],
        variant: ChaseVariant,
        budget: ChaseBudget,
        token: &CancelToken,
    ) -> (ChaseResult, Option<Box<ChaseCheckpoint>>) {
        let run = Run {
            token: token.clone(),
            checkpoint: true,
            ..Run::default()
        };
        chase_from(&run, ChaseStart::Fresh(start), tgds, variant, budget).unwrap()
    }

    /// A checkpointing run started from `checkpoint`.
    fn resume(
        checkpoint: &ChaseCheckpoint,
        tgds: &[Tgd],
        budget: ChaseBudget,
        token: &CancelToken,
    ) -> Result<(ChaseResult, Option<Box<ChaseCheckpoint>>), CheckpointError> {
        let run = Run {
            token: token.clone(),
            checkpoint: true,
            ..Run::default()
        };
        let variant = checkpoint.variant();
        chase_from(&run, ChaseStart::Resume(checkpoint), tgds, variant, budget)
    }
    #[test]
    fn full_tgds_reach_fixpoint() {
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "E(x,y), E(y,z) -> E(x,z).").unwrap();
        let mut path = Instance::new(s.clone());
        let e = s.pred_id("E").unwrap();
        for i in 0..6u32 {
            path.add_fact(e, vec![Elem(i), Elem(i + 1)]);
        }
        let result = chase(
            &path,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::default(),
        );
        assert!(result.terminated());
        assert!(result.nulls.is_empty());
        // Transitive closure of a 6-edge path: 7*6/2 pairs.
        assert_eq!(result.instance.fact_count(), 21);
        assert!(satisfies_tgds(&result.instance, &tgds));
    }

    #[test]
    fn existential_chase_invents_nulls() {
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "P(x) -> exists z : E(x,z).").unwrap();
        let start = parse_instance(&mut s, "P(a)").unwrap();
        let result = chase(
            &start,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::default(),
        );
        assert!(result.terminated());
        assert_eq!(result.nulls.len(), 1);
        assert_eq!(result.instance.fact_count(), 2);
    }

    #[test]
    fn restricted_chase_reuses_witnesses() {
        let mut s = Schema::default();
        // E(x,y) -> exists z : E(y,z) on a cycle: already satisfied, no
        // firing.
        let tgds = parse_tgds(&mut s, "E(x,y) -> exists z : E(y,z).").unwrap();
        let cycle = parse_instance(&mut s, "E(a,b), E(b,a)").unwrap();
        let result = chase(
            &cycle,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::default(),
        );
        assert!(result.terminated());
        assert_eq!(result.instance.fact_count(), 2);
        assert!(result.nulls.is_empty());
    }

    #[test]
    fn oblivious_chase_fires_every_trigger() {
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "E(x,y) -> exists z : E(y,z).").unwrap();
        let cycle = parse_instance(&mut s, "E(a,b), E(b,a)").unwrap();
        // Oblivious chase on a cycle diverges: every new edge spawns another.
        let result = chase(&cycle, &tgds, ChaseVariant::Oblivious, ChaseBudget::small());
        assert_eq!(result.outcome, ChaseOutcome::BudgetExceeded);
        assert!(result.instance.fact_count() > 2);
    }

    #[test]
    fn divergent_restricted_chase_hits_budget() {
        let mut s = Schema::default();
        // The classic non-terminating rule: every node has a successor,
        // and successors are fresh because of the P marker asymmetry.
        let tgds = parse_tgds(&mut s, "E(x,y) -> exists z : E(y,z), D(y,z).").unwrap();
        let start = parse_instance(&mut s, "E(a,b)").unwrap();
        let result = chase(
            &start,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget {
                max_facts: 500,
                max_rounds: 1_000,
                max_bytes: usize::MAX,
            },
        );
        assert_eq!(result.outcome, ChaseOutcome::BudgetExceeded);
    }

    #[test]
    fn extend_fold_matches_from_scratch_chase() {
        let mut s = Schema::default();
        let tgds = parse_tgds(
            &mut s,
            "E(x,y), E(y,z) -> E(x,z). P(x) -> exists w : E(x,w).",
        )
        .unwrap();
        let e = s.pred_id("E").unwrap();
        let p = s.pred_id("P").unwrap();
        let base_start = parse_instance(&mut s, "E(a,b), E(b,c)").unwrap();
        let base = chase(
            &base_start,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::default(),
        );
        assert!(base.terminated());
        // Fold in a batch touching both rules: a new edge closing into the
        // old component plus a P-fact demanding a fresh null.
        let c = base_start.elem_by_name("c").unwrap();
        let a = base_start.elem_by_name("a").unwrap();
        let fresh = base.instance.fresh_elem();
        let batch = vec![Fact::new(e, vec![c, fresh]), Fact::new(p, vec![a])];
        let folded = chase_extend(
            &Run::default(),
            &base.instance,
            &base.nulls,
            &batch,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::default(),
        )
        .0;
        assert!(folded.terminated());
        // Reference: chase base ∪ batch from scratch. Nulls there are
        // allocated from the *start* instance's fresh_elem, so compare by
        // hom-equivalence-free structure: same fact count and the fold's
        // instance satisfies the tgds while containing base ∪ batch.
        let mut scratch_start = base.instance.clone();
        for f in &batch {
            scratch_start.add_fact(f.pred, f.args.clone());
        }
        let scratch = chase(
            &scratch_start,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::default(),
        );
        assert!(scratch.terminated());
        assert_eq!(folded.instance, scratch.instance);
        assert_eq!(
            folded.nulls,
            scratch.nulls.union(&base.nulls).copied().collect()
        );
        assert!(satisfies_tgds(&folded.instance, &tgds));
        assert!(base.instance.is_contained_in(&folded.instance));
        assert_eq!(folded.stats.resumes, 0);
    }

    #[test]
    fn extend_with_duplicate_batch_is_a_noop() {
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "E(x,y) -> E(y,x).").unwrap();
        let start = parse_instance(&mut s, "E(a,b)").unwrap();
        let e = s.pred_id("E").unwrap();
        let base = chase(
            &start,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::default(),
        );
        let a = start.elem_by_name("a").unwrap();
        let b = start.elem_by_name("b").unwrap();
        // Both batch facts are already in the fixpoint: zero rounds, zero
        // trigger searches, unchanged instance.
        let batch = vec![Fact::new(e, vec![a, b]), Fact::new(e, vec![b, a])];
        let folded = chase_extend(
            &Run::default(),
            &base.instance,
            &base.nulls,
            &batch,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::default(),
        )
        .0;
        assert!(folded.terminated());
        assert_eq!(folded.rounds, 0);
        assert_eq!(folded.stats.triggers_found, 0);
        assert_eq!(folded.instance, base.instance);
    }

    #[test]
    fn chase_extends_start() {
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "E(x,y) -> E(y,x).").unwrap();
        let start = parse_instance(&mut s, "E(a,b)").unwrap();
        let result = chase(
            &start,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::default(),
        );
        assert!(start.is_contained_in(&result.instance));
        assert_eq!(result.instance.fact_count(), 2);
    }

    #[test]
    fn empty_body_rule_fires_once() {
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "true -> exists x : P(x).").unwrap();
        let start = parse_instance(&mut s, "").unwrap();
        let result = chase(
            &start,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::default(),
        );
        assert!(result.terminated());
        assert_eq!(result.instance.fact_count(), 1);
        // Already satisfied: no second null.
        let again = chase(
            &result.instance,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::default(),
        );
        assert_eq!(again.instance.fact_count(), 1);
    }

    #[test]
    fn provenance_explains_derived_facts() {
        let mut s = Schema::default();
        let tgds = parse_tgds(
            &mut s,
            "E(x,y), E(y,z) -> E(x,z). P(x) -> exists w : E(x,w).",
        )
        .unwrap();
        let start = parse_instance(&mut s, "E(a,b), E(b,c), P(c)").unwrap();
        let (result, provenance) = chase_with_provenance(
            &start,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::default(),
        );
        assert!(result.terminated());
        // Every derived fact has an explanation; input facts have none.
        for fact in result.instance.facts() {
            let explained = provenance.explain(&fact).is_some();
            let is_input = start.contains_fact(fact.pred, &fact.args);
            assert_eq!(explained, !is_input, "fact {fact:?}");
        }
        // The transitive edge E(a,c) is explained by rule 0 with (a,b,c).
        let e = s.pred_id("E").unwrap();
        let a = start.elem_by_name("a").unwrap();
        let c = start.elem_by_name("c").unwrap();
        let step = provenance
            .explain(&Fact::new(e, vec![a, c]))
            .expect("derived fact explained");
        assert_eq!(step.tgd_index, 0);
        assert!(step.witnesses.is_empty());
        // The existential edge records its invented witness.
        let exist_step = provenance
            .steps
            .iter()
            .find(|st| st.tgd_index == 1)
            .expect("existential rule fired");
        assert_eq!(exist_step.witnesses.len(), 1);
        assert!(result.nulls.contains(&exist_step.witnesses[0]));
    }

    #[test]
    fn provenance_free_chase_matches_logged_chase() {
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "E(x,y) -> E(y,x).").unwrap();
        let start = parse_instance(&mut s, "E(a,b), E(c,d)").unwrap();
        let plain = chase(
            &start,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::default(),
        );
        let (logged, provenance) = chase_with_provenance(
            &start,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::default(),
        );
        assert_eq!(plain.instance, logged.instance);
        assert_eq!(provenance.steps.len(), 2);
    }

    #[test]
    fn core_chase_minimizes_redundant_witnesses() {
        let mut s = Schema::default();
        // Oblivious-style redundancy through two rules deriving the same
        // witness need: the restricted chase of E(a,b) under
        // "E(x,y) -> exists z : E(y,z)" with an extra loop-closing fact.
        let tgds = parse_tgds(
            &mut s,
            "P(x) -> exists z : E(x,z). Q(x) -> exists z : E(x,z).",
        )
        .unwrap();
        let start = parse_instance(&mut s, "P(a), Q(a)").unwrap();
        let plain = chase(
            &start,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::default(),
        );
        let cored = core_chase(&start, &tgds, ChaseBudget::default());
        assert!(cored.terminated());
        // Both rules share one witness after minimization.
        assert!(cored.instance.fact_count() <= plain.instance.fact_count());
        assert_eq!(cored.instance.fact_count(), 3); // P(a), Q(a), E(a,n)
        assert_eq!(cored.nulls.len(), 1);
        // The result is still a model containing the input.
        assert!(crate::satisfy::satisfies_tgds(&cored.instance, &tgds));
        assert!(start.is_contained_in(&cored.instance));
    }

    #[test]
    fn core_chase_preserves_input_elements() {
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "E(x,y) -> exists z : E(y,z).").unwrap();
        let start = parse_instance(&mut s, "E(a,a), E(a,b), E(b,a)").unwrap();
        let cored = core_chase(&start, &tgds, ChaseBudget::default());
        assert!(cored.terminated());
        for e in start.active_domain() {
            assert!(
                cored.instance.active_domain().contains(e),
                "input element {e:?} dropped"
            );
        }
        assert!(start.is_contained_in(&cored.instance));
    }

    #[test]
    fn egd_chase_merges_nulls() {
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "P(x) -> exists z : E(x,z).").unwrap();
        let deps = parse_dependencies(&mut s, "E(x,y), E(x,z) -> y = z.").unwrap();
        let egd = deps[0].as_egd().unwrap().clone();
        // Start with E(a,b) and P(a): the chase adds E(a,n) for a null n,
        // and the key egd merges n into b.
        let start = parse_instance(&mut s, "P(a), E(a,b)").unwrap();
        // With the restricted chase nothing fires (E(a,b) witnesses the
        // head); use oblivious to force the null and exercise the merge.
        let result = chase_with_egds(
            &start,
            &tgds,
            &[egd],
            ChaseVariant::Oblivious,
            ChaseBudget::default(),
        )
        .unwrap();
        assert_eq!(result.instance.fact_count(), 2);
        assert!(result.nulls.is_empty());
    }

    #[test]
    fn egd_chase_fails_on_original_elements() {
        let mut s = Schema::default();
        let deps = parse_dependencies(&mut s, "E(x,y), E(x,z) -> y = z.").unwrap();
        let egd = deps[0].as_egd().unwrap().clone();
        let start = parse_instance(&mut s, "E(a,b), E(a,c)").unwrap();
        let err = chase_with_egds(
            &start,
            &[],
            &[egd],
            ChaseVariant::Restricted,
            ChaseBudget::default(),
        )
        .unwrap_err();
        let (x, y) = err.elements;
        assert_ne!(x, y);
        // The failure carries the stats of the work done up to it: one
        // (trivial, zero-tgd) chase pass ran to termination first.
        assert_eq!(err.stats.rounds, 1);
        assert!(err.stats.total_time > std::time::Duration::ZERO);
    }

    #[test]
    fn pre_cancelled_token_stops_before_round_one() {
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "E(x,y), E(y,z) -> E(x,z).").unwrap();
        let start = parse_instance(&mut s, "E(a,b), E(b,c), E(c,d)").unwrap();
        let token = CancelToken::new();
        token.cancel();
        let result = governed(
            &start,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::default(),
            &token,
        );
        assert!(result.cancelled());
        assert_eq!(result.rounds, 0);
        assert_eq!(result.instance, start);
        assert_eq!(result.stats.triggers_fired, 0);
    }

    #[test]
    fn expired_deadline_cancels_divergent_chase() {
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "E(x,y) -> exists z : E(y,z), D(y,z).").unwrap();
        let start = parse_instance(&mut s, "E(a,b)").unwrap();
        let token = CancelToken::with_deadline(std::time::Duration::ZERO);
        let result = governed(
            &start,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::large(),
            &token,
        );
        assert!(result.cancelled());
        assert!(start.is_contained_in(&result.instance));
    }

    #[test]
    fn never_token_matches_ungoverned_chase() {
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "E(x,y), E(y,z) -> E(x,z).").unwrap();
        let start = parse_instance(&mut s, "E(a,b), E(b,c), E(c,d)").unwrap();
        let plain = chase(
            &start,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::default(),
        );
        let governed = governed(
            &start,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::default(),
            &CancelToken::new(),
        );
        assert_eq!(plain.instance, governed.instance);
        assert_eq!(plain.outcome, governed.outcome);
        assert_eq!(plain.rounds, governed.rounds);
    }

    #[test]
    fn injected_trigger_worker_panic_is_contained() {
        crate::faults::silence_injected_panics();
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "E(x,y), E(y,z) -> E(x,z).").unwrap();
        let start = parse_instance(&mut s, "E(a,b), E(b,c), E(c,d)").unwrap();
        let token = CancelToken::with_faults(crate::faults::FaultPlan::always(
            FaultSite::TriggerWorkerPanic,
        ));
        let result = governed(
            &start,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::default(),
            &token,
        );
        // The very first per-tgd search panics: contained, nothing fired,
        // instance untouched, no process teardown.
        assert!(result.cancelled());
        assert_eq!(result.instance, start);
        assert_eq!(result.rounds, 0);
        assert!(result.stats.panics_contained >= 1);
    }

    #[test]
    fn injected_sharded_search_panic_is_contained() {
        crate::faults::silence_injected_panics();
        let mut s = Schema::default();
        let tgds = parse_tgds(
            &mut s,
            "E(x,y), E(y,z) -> E(x,z). E(x,y) -> E(y,x). E(x,y) -> D(x,y). D(x,y) -> E(x,y).",
        )
        .unwrap();
        let start = parse_instance(&mut s, "E(a,b), E(b,c)").unwrap();
        let token = CancelToken::with_faults(crate::faults::FaultPlan::always(
            FaultSite::TriggerWorkerPanic,
        ));
        let run = Run {
            token,
            shards: 4,
            ..Run::default()
        };
        let (result, _) = chase_from(
            &run,
            ChaseStart::Fresh(&start),
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::default(),
        )
        .unwrap();
        assert!(result.cancelled());
        assert_eq!(result.instance, start);
        assert!(result.stats.panics_contained >= 1);
    }

    #[test]
    fn injected_budget_trip_reports_budget_exceeded() {
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "E(x,y), E(y,z) -> E(x,z).").unwrap();
        let start = parse_instance(&mut s, "E(a,b), E(b,c), E(c,d)").unwrap();
        let token =
            CancelToken::with_faults(crate::faults::FaultPlan::always(FaultSite::BudgetTrip));
        let result = governed(
            &start,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::default(),
            &token,
        );
        assert_eq!(result.outcome, ChaseOutcome::BudgetExceeded);
        assert_eq!(result.instance, start);
    }

    #[test]
    fn cancelled_instance_is_a_round_prefix() {
        // Deterministic chase: the round-j prefix equals a run capped at
        // max_rounds = j. An injected deadline expiry must land exactly on
        // one of those prefixes.
        crate::faults::silence_injected_panics();
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "E(x,y), E(y,z) -> E(x,z).").unwrap();
        let mut path = Instance::new(s.clone());
        let e = s.pred_id("E").unwrap();
        for i in 0..8u32 {
            path.add_fact(e, vec![Elem(i), Elem(i + 1)]);
        }
        let full = chase(
            &path,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::default(),
        );
        assert!(full.terminated());
        let prefixes: Vec<Instance> = (0..=full.rounds)
            .map(|j| {
                chase(
                    &path,
                    &tgds,
                    ChaseVariant::Restricted,
                    ChaseBudget {
                        max_facts: usize::MAX,
                        max_rounds: j,
                        max_bytes: usize::MAX,
                    },
                )
                .instance
            })
            .collect();
        for seed in 0..16u64 {
            let token = CancelToken::with_faults(crate::faults::FaultPlan::only(
                seed,
                FaultSite::DeadlineExpire,
                3,
            ));
            let result = governed(
                &path,
                &tgds,
                ChaseVariant::Restricted,
                ChaseBudget::default(),
                &token,
            );
            assert!(
                prefixes.contains(&result.instance),
                "seed {seed}: cancelled instance is not a round prefix"
            );
            if result.cancelled() {
                assert_eq!(result.instance, prefixes[result.rounds]);
            }
        }
    }

    #[test]
    fn max_bytes_env_parse_rules() {
        assert_eq!(parse_max_bytes(None), usize::MAX);
        assert_eq!(parse_max_bytes(Some("")), usize::MAX);
        assert_eq!(parse_max_bytes(Some("not a number")), usize::MAX);
        // Zero means "unset", not "trip immediately on an empty arena".
        assert_eq!(parse_max_bytes(Some("0")), usize::MAX);
        assert_eq!(parse_max_bytes(Some(" 4096 ")), 4096);
    }

    #[test]
    fn explicit_max_bytes_beats_env_override() {
        // Per-request explicit caps win over the process-wide override —
        // a tenant that asked for 1 KiB gets 1 KiB even when the operator
        // set a wider (or tighter) env default.
        assert_eq!(resolve_max_bytes(1024, 1 << 30), 1024);
        assert_eq!(resolve_max_bytes(1 << 30, 1024), 1 << 30);
        // Unspecified (usize::MAX) defers to the override...
        assert_eq!(resolve_max_bytes(usize::MAX, 4096), 4096);
        // ...and stays unlimited when the override is unset too.
        assert_eq!(resolve_max_bytes(usize::MAX, usize::MAX), usize::MAX);
        // Default budgets are env-deferring, not env-baked: the field is
        // the sentinel, so the override is consulted at accountant
        // construction rather than frozen into every budget value (which
        // would leak into cache keys and checkpoint bytes).
        assert_eq!(ChaseBudget::default().max_bytes, usize::MAX);
    }

    #[test]
    fn zero_fact_budget_trips_before_any_trigger_search() {
        let mut s = Schema::default();
        // A trivially satisfied rule: nothing would ever fire, so the old
        // mid-round check never ran and the chase reported Terminated
        // despite the zero budget. The round-start check trips first now.
        let tgds = parse_tgds(&mut s, "E(x,y) -> E(x,y).").unwrap();
        let start = parse_instance(&mut s, "E(a,b)").unwrap();
        let result = chase(
            &start,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget {
                max_facts: 0,
                max_rounds: 100,
                max_bytes: usize::MAX,
            },
        );
        assert_eq!(result.outcome, ChaseOutcome::BudgetExceeded);
        assert_eq!(result.rounds, 0);
        assert_eq!(result.stats.triggers_found, 0);
        assert_eq!(result.instance, start);
        // An empty start under a zero budget is a genuine (empty) fixpoint.
        let empty = parse_instance(&mut s, "").unwrap();
        let empty_result = chase(
            &empty,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget {
                max_facts: 0,
                max_rounds: 100,
                max_bytes: usize::MAX,
            },
        );
        assert_eq!(empty_result.outcome, ChaseOutcome::Terminated);
    }

    #[test]
    fn zero_round_budget_reports_budget_exceeded_untouched() {
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "E(x,y) -> E(y,x).").unwrap();
        let start = parse_instance(&mut s, "E(a,b)").unwrap();
        let result = chase(
            &start,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget {
                max_facts: 1_000,
                max_rounds: 0,
                max_bytes: usize::MAX,
            },
        );
        assert_eq!(result.outcome, ChaseOutcome::BudgetExceeded);
        assert_eq!(result.rounds, 0);
        assert_eq!(result.instance, start);
    }

    #[test]
    fn byte_budget_trips_with_memory_exceeded() {
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "E(x,y) -> exists z : E(y,z), D(y,z).").unwrap();
        let start = parse_instance(&mut s, "E(a,b)").unwrap();
        let tight = ChaseBudget {
            max_facts: usize::MAX,
            max_rounds: 1_000,
            max_bytes: start.heap_bytes() + 64,
        };
        let result = chase(&start, &tgds, ChaseVariant::Restricted, tight);
        assert_eq!(result.outcome, ChaseOutcome::MemoryExceeded);
        assert_eq!(result.stats.mem_trips, 1);
        assert!(result.stats.mem_peak_bytes > tight.max_bytes);
        // The trip landed on a round boundary: the instance is a round
        // prefix of the unbounded run.
        let unbounded = chase(
            &start,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget {
                max_facts: usize::MAX,
                max_rounds: result.rounds,
                max_bytes: usize::MAX,
            },
        );
        assert_eq!(result.instance, unbounded.instance);
    }

    #[test]
    fn injected_mem_trip_reports_memory_exceeded() {
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "E(x,y), E(y,z) -> E(x,z).").unwrap();
        let start = parse_instance(&mut s, "E(a,b), E(b,c), E(c,d)").unwrap();
        let token =
            CancelToken::with_faults(crate::faults::FaultPlan::always(FaultSite::MemBudgetTrip));
        let result = governed(
            &start,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::default(),
            &token,
        );
        assert_eq!(result.outcome, ChaseOutcome::MemoryExceeded);
        assert_eq!(result.instance, start);
        assert_eq!(result.stats.mem_trips, 1);
    }

    #[test]
    fn trip_checkpoint_resume_matches_uninterrupted() {
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "E(x,y), E(y,z) -> E(x,z).").unwrap();
        let mut path = Instance::new(s.clone());
        let e = s.pred_id("E").unwrap();
        for i in 0..8u32 {
            path.add_fact(e, vec![Elem(i), Elem(i + 1)]);
        }
        let generous = ChaseBudget::default();
        let full = chase(&path, &tgds, ChaseVariant::Restricted, generous);
        assert!(full.terminated());
        // Trip at every possible round boundary and resume to completion.
        for j in 0..full.rounds {
            let tight = ChaseBudget {
                max_facts: 20_000,
                max_rounds: j,
                max_bytes: usize::MAX,
            };
            let (tripped, checkpoint) = checkpointing(
                &path,
                &tgds,
                ChaseVariant::Restricted,
                tight,
                &CancelToken::new(),
            );
            assert_eq!(tripped.outcome, ChaseOutcome::BudgetExceeded);
            let checkpoint = checkpoint.expect("tripped run is resumable");
            // Exercise the full encode/decode path, not just the in-memory
            // struct.
            let decoded = ChaseCheckpoint::decode(&Run::default(), &checkpoint.encode(), &s)
                .expect("decodes cleanly");
            assert_eq!(decoded, *checkpoint);
            let (resumed, next) = resume(&decoded, &tgds, generous, &CancelToken::new())
                .expect("checkpoint matches its tgd set");
            assert!(next.is_none(), "resumed run reaches the fixpoint");
            assert_eq!(resumed.instance, full.instance);
            assert_eq!(resumed.nulls, full.nulls);
            assert_eq!(resumed.rounds, full.rounds);
            assert_eq!(resumed.stats.normalized(), full.stats.normalized());
            assert_eq!(resumed.stats.resumes, 1);
        }
    }

    #[test]
    fn oblivious_resume_preserves_fired_memory() {
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "E(x,y) -> exists z : E(y,z).").unwrap();
        let cycle = parse_instance(&mut s, "E(a,b), E(b,a)").unwrap();
        let full_budget = ChaseBudget {
            max_facts: usize::MAX,
            max_rounds: 6,
            max_bytes: usize::MAX,
        };
        let full = chase(&cycle, &tgds, ChaseVariant::Oblivious, full_budget);
        for j in 0..6 {
            let (_, checkpoint) = checkpointing(
                &cycle,
                &tgds,
                ChaseVariant::Oblivious,
                ChaseBudget {
                    max_rounds: j,
                    ..full_budget
                },
                &CancelToken::new(),
            );
            let checkpoint = checkpoint.expect("resumable");
            let decoded =
                ChaseCheckpoint::decode(&Run::default(), &checkpoint.encode(), &s).unwrap();
            let (resumed, _) = resume(&decoded, &tgds, full_budget, &CancelToken::new()).unwrap();
            assert_eq!(resumed.instance, full.instance);
            assert_eq!(resumed.stats.normalized(), full.stats.normalized());
        }
    }

    #[test]
    fn resume_against_wrong_tgds_is_rejected() {
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "E(x,y) -> exists z : E(y,z), D(y,z).").unwrap();
        let other = parse_tgds(&mut s, "E(x,y) -> E(y,x).").unwrap();
        let start = parse_instance(&mut s, "E(a,b)").unwrap();
        let (_, checkpoint) = checkpointing(
            &start,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget {
                max_facts: usize::MAX,
                max_rounds: 2,
                max_bytes: usize::MAX,
            },
            &CancelToken::new(),
        );
        let checkpoint = checkpoint.expect("resumable");
        let err = resume(
            &checkpoint,
            &other,
            ChaseBudget::default(),
            &CancelToken::new(),
        )
        .unwrap_err();
        assert!(matches!(err, CheckpointError::ContextMismatch(_)));
        let err = chase_from(
            &Run::default(),
            ChaseStart::Resume(&checkpoint),
            &tgds,
            ChaseVariant::Oblivious,
            ChaseBudget::default(),
        )
        .unwrap_err();
        assert_eq!(err, CheckpointError::ContextMismatch("chase variant"));
    }

    #[test]
    fn terminated_run_yields_no_checkpoint() {
        let mut s = Schema::default();
        let tgds = parse_tgds(&mut s, "E(x,y) -> E(y,x).").unwrap();
        let start = parse_instance(&mut s, "E(a,b)").unwrap();
        let (result, checkpoint) = checkpointing(
            &start,
            &tgds,
            ChaseVariant::Restricted,
            ChaseBudget::default(),
            &CancelToken::new(),
        );
        assert!(result.terminated());
        assert!(checkpoint.is_none());
    }
}
