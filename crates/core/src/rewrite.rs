//! The rewriting procedures of paper §9.2: Algorithm 1
//! (`Rewrite(GTGD, LTGD)`, Theorem 9.1) and Algorithm 2
//! (`Rewrite(FGTGD, GTGD)`, Theorem 9.2).
//!
//! Both algorithms are instances of one scheme, justified by the
//! Linearization Lemma (6.3) and the Guardedization Lemma (7.3): if an
//! equivalent set in the weaker class exists at all, one exists within
//! `C_{n,m}` for the input's own variable profile `(n, m)`. The procedure
//! therefore:
//!
//! 1. enumerates the canonical candidate space `C_{n,m}` over the schema
//!    ([`crate::enumerate`]);
//! 2. keeps `Σ' = {σ ∈ C_{n,m} | Σ ⊨ σ}` (chase-based entailment, in
//!    parallel across candidates);
//! 3. answers *rewritable with `Σ'`* iff `Σ' ⊨ Σ`, and minimizes `Σ'`.
//!
//! Step 3 runs in three passes. A forward pass keeps only the members of
//! `Σ'` not already entailed by those kept before them, giving a kept set
//! `K ⊆ Σ'`; every dropped member is entailed by `K`, so `K ≡ Σ'`, and
//! `K ⊨ Σ` decides `Σ' ⊨ Σ` with a far smaller rule set. On success, a
//! backward pass over `K` makes it irredundant.
//!
//! Entailment under non-weakly-acyclic sets may return `Unknown`; the
//! procedure then reports [`RewriteOutcome::Inconclusive`] rather than
//! guessing. Similarly, a failed search with truncated atom budgets is
//! `Inconclusive`, while a failed search over the exhaustive space is a
//! definitive [`RewriteOutcome::NotRewritable`].

use crate::checkpoint::{keys_fingerprint, RewriteCheckpoint};
use crate::enumerate::{candidates, EnumOptions, Enumeration};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use tgdkit_chase::faults::INJECTED_PANIC;
use tgdkit_chase::{
    entails_all, entails_auto, evaluate_group, group_by_body, group_by_body_keyed,
    sigma_fingerprint, tgds_fingerprint, CancelToken, ChaseBudget, CheckpointError,
    EntailBatchStats, EntailCache, Entailment, FaultSite, MemoryAccountant, Run,
};
use tgdkit_logic::{Schema, Tgd, TgdSet, TgdVariantKey};

/// Options for the rewriting procedures.
#[derive(Debug, Clone, Copy, Default)]
pub struct RewriteOptions {
    /// Chase budget per entailment check.
    pub budget: ChaseBudget,
    /// Candidate enumeration budgets.
    pub enumeration: EnumOptions,
    /// Run the candidate filtering on all available cores.
    pub parallel: bool,
}

/// The answer of a rewriting procedure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RewriteOutcome {
    /// An equivalent set in the target class, minimized by removing
    /// candidates entailed by the rest.
    Rewritten(Vec<Tgd>),
    /// No equivalent set exists (definitive: the candidate space was
    /// exhaustive and every entailment check was decisive).
    NotRewritable,
    /// The search was cut short (chase budget exhausted, or atom budgets
    /// below the exhaustive bound) without finding a rewriting.
    Inconclusive,
    /// The run was cancelled (deadline expired or [`CancelToken::cancel`]
    /// was called) before the procedure could decide. Like
    /// [`RewriteOutcome::Inconclusive`] this never contradicts what an
    /// uncancelled run would answer; [`RewriteStats`] still describes the
    /// work completed before the cut.
    Cancelled,
    /// The run suspended on its memory budget
    /// ([`ChaseBudget::max_bytes`], or an injected
    /// [`FaultSite::MemBudgetTrip`]) or its suspension quantum at a
    /// body-group boundary. Only a checkpointing [`rewrite`] reports this;
    /// it returns the [`RewriteCheckpoint`] that resumes the run alongside.
    Suspended,
}

impl RewriteOutcome {
    /// The rewriting, if one was found.
    pub fn rewriting(&self) -> Option<&[Tgd]> {
        match self {
            RewriteOutcome::Rewritten(tgds) => Some(tgds),
            _ => None,
        }
    }
}

/// Statistics of a rewriting run, for the experiment harness.
#[derive(Debug, Clone, Default)]
pub struct RewriteStats {
    /// Number of candidates enumerated (after dedup).
    pub candidates: usize,
    /// Number of candidates entailed by the input (the `Σ'` of the paper).
    pub entailed: usize,
    /// Number of entailment checks that returned `Unknown`.
    pub unknown_checks: usize,
    /// Whether the candidate space was exhaustive.
    pub exhaustive: bool,
    /// Size of the minimized rewriting (0 if none).
    pub rewriting_size: usize,
    /// Distinct canonical bodies among the candidates.
    pub body_groups: usize,
    /// Frozen bodies actually chased during candidate filtering (the rest
    /// were shared, cached, or settled by the linear fast path).
    pub bodies_chased: usize,
    /// Heads decided by an indexed hom probe into a shared chase result.
    pub heads_probed: usize,
    /// Candidate verdicts served from the [`EntailCache`] during filtering.
    pub cache_hits: usize,
    /// Cache lookups that missed during filtering.
    pub cache_misses: usize,
    /// Work-stealing imbalance: body groups claimed by workers beyond an
    /// even static split (`Σ_w max(0, claimed_w − ⌈groups/workers⌉)`).
    /// Non-zero means the dynamic scheduler absorbed skew that a
    /// fixed-chunk split would have serialized.
    pub steals: usize,
    /// Whether the run was cancelled (mirrors
    /// [`RewriteOutcome::Cancelled`], but also set when cancellation
    /// arrived too late to change the outcome).
    pub cancelled: bool,
    /// Panics contained during candidate evaluation: each one poisoned a
    /// single body group, whose candidates settled as `Unknown` while every
    /// other group's verdict is untouched (includes panics the chase layer
    /// contained, via [`tgdkit_chase::ChaseStats::panics_contained`]).
    pub panics_contained: usize,
    /// Peak estimated resident bytes observed by the memory accounting
    /// (chase arenas; for a checkpointing run, also entailment cache
    /// residency at group boundaries).
    pub mem_peak_bytes: usize,
    /// Memory-budget trips (real or injected) during the run.
    pub mem_trips: usize,
    /// Checkpoint resumptions folded into this run's figures.
    pub resumes: usize,
    /// Keys evicted from the bounded [`EntailCache`] during the run.
    pub evictions: usize,
    /// Wall time of the `Σ' ⊨ Σ` check (run against the kept set `K`).
    pub verify_time: Duration,
    /// Wall time of minimization: the forward pass building `K` plus, on
    /// success, the backward irredundancy pass over `K`.
    pub minimize_time: Duration,
    /// Entailment checks issued by the two minimization passes.
    pub minimize_checks: usize,
}

/// Which rewriting procedure runs, named by its target class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RewriteTarget {
    /// Algorithm 1 (paper §9.2, `G-to-L`, Theorem 9.1): rewrites a set of
    /// **guarded** tgds into an equivalent set of **linear** tgds.
    Linear,
    /// Algorithm 2 (paper §9.2, `FG-to-G`, Theorem 9.2): rewrites a set of
    /// **frontier-guarded** tgds into an equivalent set of **guarded**
    /// tgds.
    Guarded,
}

impl RewriteTarget {
    /// The one-byte tag the wire protocol and the rewrite checkpoint frame
    /// carry: `1` linear, `2` guarded.
    pub fn tag(self) -> u8 {
        match self {
            RewriteTarget::Linear => 1,
            RewriteTarget::Guarded => 2,
        }
    }

    /// Inverse of [`RewriteTarget::tag`]; any other byte is
    /// [`CheckpointError::Malformed`].
    pub fn from_tag(tag: u8) -> Result<RewriteTarget, CheckpointError> {
        match tag {
            1 => Ok(RewriteTarget::Linear),
            2 => Ok(RewriteTarget::Guarded),
            _ => Err(CheckpointError::Malformed("rewrite target tag")),
        }
    }
}

/// What [`rewrite`] returns: the outcome, the run's statistics, and — for a
/// checkpointing run that suspended — the checkpoint that resumes it.
pub type RewriteRun = (RewriteOutcome, RewriteStats, Option<Box<RewriteCheckpoint>>);

/// Algorithms 1 and 2 of paper §9.2 under a [`Run`] context: rewrites
/// `set` into an equivalent set of the `target` class, if one exists.
///
/// ```
/// use tgdkit_chase::Run;
/// use tgdkit_core::{rewrite, RewriteOptions, RewriteOutcome, RewriteTarget};
/// use tgdkit_logic::{parse_tgds, Schema, TgdSet};
/// let mut schema = Schema::default();
/// // A guarded set whose side atom R(x,x) is semantically redundant (the
/// // second rule subsumes the first), so a linear equivalent exists.
/// let tgds = parse_tgds(&mut schema, "R(x,y), R(x,x) -> T(x). R(x,y) -> T(x).").unwrap();
/// let set = TgdSet::new(schema, tgds).unwrap();
/// let opts = RewriteOptions::default();
/// let (outcome, stats, _) = rewrite(&Run::default(), &set, RewriteTarget::Linear, &opts, None)
///     .expect("a fresh run has no checkpoint to mismatch");
/// assert!(matches!(outcome, RewriteOutcome::Rewritten(_)));
/// assert_eq!(stats.rewriting_size, 1);
/// ```
///
/// - **Cancellation.** A deadline expiry or an explicit
///   [`CancelToken::cancel`] of `run.token` stops the run cooperatively
///   (within one chase round / one body group) and yields
///   [`RewriteOutcome::Cancelled`] with the statistics of the work
///   completed so far:
///
///   ```
///   use tgdkit_chase::{CancelToken, Run};
///   use tgdkit_core::{rewrite, RewriteOptions, RewriteOutcome, RewriteTarget};
///   use tgdkit_logic::{parse_tgds, Schema, TgdSet};
///   let mut schema = Schema::default();
///   let tgds = parse_tgds(&mut schema, "R(x,y), R(x,x) -> T(x).").unwrap();
///   let set = TgdSet::new(schema, tgds).unwrap();
///   let token = CancelToken::new();
///   token.cancel(); // already expired: the run must stop immediately
///   let run = Run { token, ..Run::default() };
///   let (outcome, stats, _) =
///       rewrite(&run, &set, RewriteTarget::Linear, &RewriteOptions::default(), None).unwrap();
///   assert_eq!(outcome, RewriteOutcome::Cancelled);
///   assert!(stats.cancelled);
///   ```
/// - **Cache.** `run.cache` lets repeated rewrites (equivalent inputs, warm
///   reruns, expressibility sweeps) reuse entailment verdicts across
///   calls; without one the run uses a fresh cache of its own. Verdicts
///   decided before a cancellation are cached (and sound);
///   cancellation-induced `Unknown`s are not persisted, so a warm rerun
///   with a fresh token re-decides them.
/// - **Checkpoints.** With `run.checkpoint` the candidate filtering charges
///   estimated resident memory (entailment cache bytes + peak chase arena)
///   against [`ChaseBudget::max_bytes`] at every body-group boundary, and a
///   trip — real, or injected at [`FaultSite::MemBudgetTrip`] — or a due
///   [`CancelToken::should_suspend`] suspends the run as
///   [`RewriteOutcome::Suspended`] with a [`RewriteCheckpoint`] capturing
///   the verdict slots and group progress so far. Checkpointing pins the
///   **serial** evaluator (`opts.parallel` is ignored): group completion
///   order must be deterministic for the done flags to mean the same
///   thing on resume, and the serial and parallel evaluators are
///   verdict-identical anyway. The decision tail after filtering (the
///   forward pass, `K ⊨ Σ`, the backward pass; see the module docs) runs
///   without suspension points: it checks each member of `Σ'` against the
///   small kept set `K` only, a fraction of the sweep's cost.
/// - **Resume.** Started from `resume` — with the same budget after an
///   injected trip or a quantum, or a larger `max_bytes` (or a smaller
///   cache) after a real one — the run finishes with an outcome identical
///   to an uninterrupted run's. A resumed run always checkpoints. `set`,
///   `target` and `opts.enumeration` must be the ones the checkpoint was
///   taken under: resume re-enumerates the candidate space (deterministic)
///   and validates the target class, the input-set and enumeration
///   fingerprints, and the slot counts; any mismatch is a typed
///   [`CheckpointError::ContextMismatch`], never a wrong answer.
///   `opts.budget` is absolute, not incremental. A fresh start never
///   fails, and neither does a resume under an already cancelled token:
///   its cut enumeration cannot be matched, so it reports `Cancelled`.
pub fn rewrite(
    run: &Run,
    set: &TgdSet,
    target: RewriteTarget,
    opts: &RewriteOptions,
    resume: Option<&RewriteCheckpoint>,
) -> Result<RewriteRun, CheckpointError> {
    let checkpointing = run.checkpoint || resume.is_some();
    // Fresh per-run cache when the run shares none: the decision tail asks
    // about rule sets the sweep never did, so it rarely hits within one
    // run; callers wanting cross-run reuse put theirs in `run.cache`.
    let fresh;
    let cache = match run.cache {
        Some(cache) => cache,
        None => {
            fresh = EntailCache::new();
            &fresh
        }
    };
    let run = &Run {
        cache: Some(cache),
        ..run.clone()
    };
    let schema = set.schema();
    let (n, m) = set.profile();
    let enumeration = candidates(run, schema, target, n, m, &opts.enumeration);
    let mut stats = RewriteStats {
        candidates: enumeration.tgds.len(),
        exhaustive: enumeration.exhaustive,
        ..Default::default()
    };
    if resume.is_some() && run.token.is_cancelled() {
        // A cut enumeration cannot be matched against the checkpoint, and
        // the run is cancelled either way.
        stats.cancelled = true;
        return Ok((RewriteOutcome::Cancelled, stats, None));
    }

    // Σ' := { σ ∈ C_{n,m} | Σ ⊨ σ }.
    let verdicts = if checkpointing {
        let (verdicts, suspended) = sweep_resumable(
            run,
            set,
            opts,
            target,
            &enumeration,
            cache,
            resume,
            &mut stats,
        )?;
        if suspended.is_some() {
            return Ok((RewriteOutcome::Suspended, stats, suspended));
        }
        verdicts
    } else {
        let eval = evaluate_candidates(
            schema,
            set.tgds(),
            &enumeration.tgds,
            Some(&enumeration.keys),
            opts.budget,
            opts.parallel,
            cache,
            &run.token,
        );
        record_filtering(&mut stats, &eval.stats, eval.panics_contained);
        stats.steals = eval.steals;
        eval.verdicts
    };
    let (outcome, stats) = conclude(run, set, opts, &enumeration, &verdicts, stats);
    Ok((outcome, stats, None))
}

/// Copies the candidate filtering's counters into the run's statistics.
fn record_filtering(stats: &mut RewriteStats, batch: &EntailBatchStats, group_panics: usize) {
    stats.body_groups = batch.body_groups;
    stats.bodies_chased = batch.bodies_chased;
    stats.heads_probed = batch.heads_probed;
    stats.cache_hits = batch.cache_hits;
    stats.cache_misses = batch.cache_misses;
    stats.panics_contained = group_panics + batch.chase.panics_contained;
    stats.mem_peak_bytes = batch.chase.mem_peak_bytes;
    stats.mem_trips = batch.chase.mem_trips;
    stats.resumes = batch.chase.resumes;
    stats.evictions = batch.evictions;
}

/// Algorithm 1 against a caller-provided [`EntailCache`]: [`rewrite`] with
/// [`RewriteTarget::Linear`] and the cache in the [`Run`].
pub fn guarded_to_linear_cached(
    set: &TgdSet,
    opts: &RewriteOptions,
    cache: &EntailCache,
) -> (RewriteOutcome, RewriteStats) {
    rewrite_with_cache(set, RewriteTarget::Linear, opts, cache)
}

/// Algorithm 2 against a caller-provided [`EntailCache`]: [`rewrite`] with
/// [`RewriteTarget::Guarded`] and the cache in the [`Run`].
pub fn frontier_guarded_to_guarded_cached(
    set: &TgdSet,
    opts: &RewriteOptions,
    cache: &EntailCache,
) -> (RewriteOutcome, RewriteStats) {
    rewrite_with_cache(set, RewriteTarget::Guarded, opts, cache)
}

fn rewrite_with_cache(
    set: &TgdSet,
    target: RewriteTarget,
    opts: &RewriteOptions,
    cache: &EntailCache,
) -> (RewriteOutcome, RewriteStats) {
    let run = Run {
        cache: Some(cache),
        ..Run::default()
    };
    let (outcome, stats, _) =
        rewrite(&run, set, target, opts, None).expect("a fresh run has no checkpoint to mismatch");
    (outcome, stats)
}

/// Filters an enumerator-produced candidate pool through the evaluator
/// the rewriting procedures use internally: body-grouped chase sharing,
/// the entailment cache, and (when `parallel`) work stealing over the body
/// groups. `keys` are the candidates' variant keys (parallel to
/// `candidates`, as in
/// [`Enumeration::keys`](crate::enumerate::Enumeration)), so body-grouping
/// reuses them instead of re-running the canonical ordering search per
/// candidate.
///
/// Exposed for bulk entailment filtering and benchmarking; returns
/// `(verdicts in candidate order, batch stats, steals)`.
pub fn evaluate_pool_keyed(
    schema: &Schema,
    sigma: &[Tgd],
    candidates: &[Tgd],
    keys: &[TgdVariantKey],
    budget: ChaseBudget,
    parallel: bool,
    cache: &EntailCache,
) -> (Vec<Entailment>, EntailBatchStats, usize) {
    let eval = evaluate_candidates(
        schema,
        sigma,
        candidates,
        Some(keys),
        budget,
        parallel,
        cache,
        &CancelToken::new(),
    );
    (eval.verdicts, eval.stats, eval.steals)
}

/// Result of the internal candidate evaluator.
#[derive(Debug, Default)]
struct PoolEval {
    /// One verdict per candidate, in input order.
    verdicts: Vec<Entailment>,
    /// Sharing/caching counters for the sweep.
    stats: EntailBatchStats,
    /// Work-stealing imbalance (see [`RewriteStats::steals`]).
    steals: usize,
    /// Body groups whose evaluation panicked and was contained; their
    /// candidates report `Unknown`.
    panics_contained: usize,
}

/// The decision tail shared by the plain and checkpointing procedures:
/// builds `Σ' = {σ | Σ ⊨ σ}` from the verdict slots, reduces it to the kept
/// set `K ≡ Σ'` ([`forward_pass`]), then answers *rewritable* iff `K ⊨ Σ`,
/// making `K` irredundant on success ([`backward_pass`]). Every check goes
/// through `run.cache`.
fn conclude(
    run: &Run,
    set: &TgdSet,
    opts: &RewriteOptions,
    enumeration: &Enumeration,
    verdicts: &[Entailment],
    mut stats: RewriteStats,
) -> (RewriteOutcome, RewriteStats) {
    let token = &run.token;
    let schema = set.schema();
    let mut sigma_prime: Vec<Tgd> = Vec::new();
    for (candidate, verdict) in enumeration.tgds.iter().zip(verdicts) {
        match verdict {
            Entailment::Proved => sigma_prime.push(candidate.clone()),
            Entailment::Disproved => {}
            Entailment::Unknown => stats.unknown_checks += 1,
        }
    }
    stats.entailed = sigma_prime.len();
    if token.is_cancelled() {
        stats.cancelled = true;
        return (RewriteOutcome::Cancelled, stats);
    }

    // The paper's procedure: Σ' ≠ ∅ and Σ' ⊨ Σ, asked of K ≡ Σ'.
    if sigma_prime.is_empty() {
        return (negative(&stats, enumeration), stats);
    }
    let started = Instant::now();
    let (kept, checks) = forward_pass(run, schema, sigma_prime, opts.budget);
    stats.minimize_time = started.elapsed();
    stats.minimize_checks = checks;
    let started = Instant::now();
    let (verdict, _) = entails_all(run, schema, &kept, set.tgds(), opts.budget);
    stats.verify_time = started.elapsed();
    match verdict {
        Entailment::Proved => {
            // A cancellation inside the backward pass only stops the
            // pruning early: K is still a correct rewriting, so the outcome
            // stays `Rewritten` (with `stats.cancelled` set).
            let started = Instant::now();
            let (minimized, checks) = backward_pass(run, schema, kept, opts.budget);
            stats.minimize_time += started.elapsed();
            stats.minimize_checks += checks;
            stats.rewriting_size = minimized.len();
            stats.cancelled = token.is_cancelled();
            (RewriteOutcome::Rewritten(minimized), stats)
        }
        Entailment::Disproved => (negative(&stats, enumeration), stats),
        Entailment::Unknown => {
            if token.is_cancelled() {
                stats.cancelled = true;
                (RewriteOutcome::Cancelled, stats)
            } else {
                (RewriteOutcome::Inconclusive, stats)
            }
        }
    }
}

/// The candidate filtering of a checkpointing [`rewrite`]: a serial sweep
/// over the body groups, started fresh or from `resume` (validated against
/// the re-enumerated space), that suspends at a group boundary on a memory
/// trip or a due quantum. Returns the verdict slots, and the checkpoint
/// when it suspended. `run.cache` is `Some(cache)`.
#[allow(clippy::too_many_arguments)]
fn sweep_resumable(
    run: &Run,
    set: &TgdSet,
    opts: &RewriteOptions,
    target: RewriteTarget,
    enumeration: &Enumeration,
    cache: &EntailCache,
    resume: Option<&RewriteCheckpoint>,
    stats: &mut RewriteStats,
) -> Result<(Vec<Entailment>, Option<Box<RewriteCheckpoint>>), CheckpointError> {
    let token = &run.token;
    let sigma_fp = tgds_fingerprint(set.tgds());
    let enum_fp = keys_fingerprint(&enumeration.keys);
    let groups = group_by_body_keyed(&enumeration.tgds, &enumeration.keys);
    if let Some(cp) = resume {
        if cp.target != target {
            return Err(CheckpointError::ContextMismatch("rewrite target class"));
        }
        if cp.sigma_fp != sigma_fp {
            return Err(CheckpointError::ContextMismatch("tgd set"));
        }
        if cp.enum_fp != enum_fp || cp.verdicts.len() != enumeration.tgds.len() {
            return Err(CheckpointError::ContextMismatch("candidate enumeration"));
        }
        if cp.done.len() != groups.len() {
            return Err(CheckpointError::ContextMismatch("body-group count"));
        }
    }
    let (mut batch, mut verdicts, mut done, mut panics, mut tainted) = match resume {
        Some(cp) => {
            let mut batch = cp.stats;
            batch.chase.resumes += 1;
            (
                batch,
                cp.verdicts.clone(),
                cp.done.clone(),
                cp.panics_contained,
                cp.cache_tainted,
            )
        }
        None => (
            EntailBatchStats {
                candidates: enumeration.tgds.len(),
                body_groups: groups.len(),
                ..Default::default()
            },
            vec![Entailment::Unknown; enumeration.tgds.len()],
            vec![false; groups.len()],
            0usize,
            false,
        ),
    };
    let accountant = MemoryAccountant::new(opts.budget.effective_max_bytes());
    let cache_fp = sigma_fingerprint(set.tgds());
    let evictions_before = cache.evictions();
    let mut suspended = false;
    for (gi, group) in groups.iter().enumerate() {
        if done[gi] {
            continue;
        }
        if token.is_cancelled() {
            break;
        }
        let resident = cache.approx_bytes() + batch.chase.mem_peak_bytes;
        let tripped = accountant.charge_to(resident) || token.fault(FaultSite::MemBudgetTrip);
        // Quantum expiry suspends at the same boundary as a byte trip but
        // does not count as one — the scheduler resumes with the same
        // budget (see `CancelToken::should_suspend`).
        if tripped || token.should_suspend() {
            if tripped {
                batch.chase.mem_trips += 1;
            }
            suspended = true;
            break;
        }
        match evaluate_group_contained(
            set.schema(),
            set.tgds(),
            group,
            opts.budget,
            Some((cache, cache_fp)),
            &mut batch,
            token,
        ) {
            Some(group_verdicts) => {
                for (idx, v) in group_verdicts {
                    verdicts[idx] = v;
                }
            }
            None => panics += 1,
        }
        done[gi] = true;
    }
    batch.evictions += cache.evictions().saturating_sub(evictions_before);
    tainted = tainted || token.is_tainted();
    record_filtering(stats, &batch, panics);
    stats.mem_peak_bytes = stats.mem_peak_bytes.max(accountant.peak_bytes());
    let checkpoint = suspended.then(|| {
        Box::new(RewriteCheckpoint {
            target,
            sigma_fp,
            enum_fp,
            exhaustive: enumeration.exhaustive,
            done,
            verdicts: verdicts.clone(),
            stats: batch,
            panics_contained: panics,
            cache_tainted: tainted,
        })
    });
    Ok((verdicts, checkpoint))
}

fn negative(stats: &RewriteStats, enumeration: &Enumeration) -> RewriteOutcome {
    if enumeration.exhaustive && stats.unknown_checks == 0 {
        RewriteOutcome::NotRewritable
    } else {
        RewriteOutcome::Inconclusive
    }
}

/// The forward minimization pass: simplifies every member of `tgds`
/// (dropping tautologies and redundant head atoms), then walks them in
/// order and keeps a member only if the members kept so far do not prove
/// it. Returns the kept set `K` and the number of entailment checks.
///
/// Every dropped member is entailed by `K`, and `K` is a subset of the
/// simplified input, so `K` is equivalent to `tgds`. Cancellation appends
/// every member not yet examined to `K`, which keeps that equivalence.
pub(crate) fn forward_pass(
    run: &Run,
    schema: &Schema,
    tgds: Vec<Tgd>,
    budget: ChaseBudget,
) -> (Vec<Tgd>, usize) {
    let mut kept: Vec<Tgd> = Vec::new();
    let mut checks = 0usize;
    let mut simplified = tgds.iter().filter_map(tgdkit_logic::simplify_tgd);
    for candidate in simplified.by_ref() {
        if run.token.is_cancelled() {
            kept.push(candidate);
            break;
        }
        checks += 1;
        if entails_auto(run, schema, &kept, &candidate, budget).0 != Entailment::Proved {
            kept.push(candidate);
        }
    }
    kept.extend(simplified);
    (kept, checks)
}

/// The backward minimization pass: walks `tgds` from the back and drops
/// every member the remaining ones prove (the earlier, syntactically
/// smaller candidates survive). Returns the survivors and the number of
/// entailment checks.
///
/// One pass leaves no member entailed by the others: a member kept once
/// was not proved by a superset of what remains, and later removals only
/// shrink that set. Cancellation stops the pass early; the survivors still
/// form a correct, merely less minimal, set.
pub(crate) fn backward_pass(
    run: &Run,
    schema: &Schema,
    mut tgds: Vec<Tgd>,
    budget: ChaseBudget,
) -> (Vec<Tgd>, usize) {
    let mut checks = 0usize;
    let mut i = tgds.len();
    while i > 0 {
        if run.token.is_cancelled() {
            break;
        }
        i -= 1;
        let candidate = tgds.remove(i);
        checks += 1;
        if entails_auto(run, schema, &tgds, &candidate, budget).0 != Entailment::Proved {
            tgds.insert(i, candidate);
        }
    }
    (tgds, checks)
}

/// `Entailment` packed into a byte, so parallel workers can publish
/// verdicts into pre-sized atomic slots without locks.
fn encode_verdict(v: Entailment) -> u8 {
    match v {
        Entailment::Proved => 0,
        Entailment::Disproved => 1,
        Entailment::Unknown => 2,
    }
}

fn decode_verdict(b: u8) -> Entailment {
    match b {
        0 => Entailment::Proved,
        1 => Entailment::Disproved,
        _ => Entailment::Unknown,
    }
}

/// Evaluates one body group behind a panic barrier.
///
/// A panic inside the group (a bug in the chase/entailment stack, or a
/// fault injected at [`FaultSite::GroupEvalPanic`]) is caught here: the
/// group's candidates keep their pre-initialized `Unknown` verdicts, its
/// partial stats are discarded (a fresh local accumulator is absorbed only
/// on success), and the caller counts one contained panic. `Unknown` is
/// always sound, so containment can only degrade precision, never invert a
/// verdict.
fn evaluate_group_contained(
    schema: &Schema,
    sigma: &[Tgd],
    group: &tgdkit_chase::BodyGroup,
    budget: ChaseBudget,
    keyed: Option<(&EntailCache, u64)>,
    stats: &mut EntailBatchStats,
    token: &CancelToken,
) -> Option<Vec<(usize, Entailment)>> {
    let mut local = EntailBatchStats::default();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if token.fault(FaultSite::GroupEvalPanic) {
            panic!("{INJECTED_PANIC}: group evaluation");
        }
        evaluate_group(schema, sigma, group, budget, keyed, &mut local, token)
    }));
    match outcome {
        Ok(verdicts) => {
            stats.absorb(&local);
            Some(verdicts)
        }
        Err(_) => None,
    }
}

/// Filters candidates through the body-grouped, cache-aware evaluator
/// ([`evaluate_group`]): serially, or — when `parallel` — on all available
/// cores with **work stealing**.
///
/// The parallel scheduler is an atomic claim index over the body groups:
/// each worker repeatedly claims the next unevaluated group, so a worker
/// that drew cheap groups keeps pulling work while another grinds through an
/// expensive chase (the fixed-chunk split this replaces would have left it
/// idle). Verdicts are published into pre-sized per-candidate slots, so the
/// output vector — and therefore the rewriting built from it — is
/// byte-identical to the serial evaluation regardless of claim order.
///
/// Cancellation is honored at group-claim granularity (workers stop
/// claiming once the token trips; unevaluated candidates stay `Unknown`),
/// and each group evaluates behind [`evaluate_group_contained`]'s panic
/// barrier, so one poisoned group cannot take down the sweep — or the
/// process.
#[allow(clippy::too_many_arguments)]
fn evaluate_candidates(
    schema: &Schema,
    sigma: &[Tgd],
    candidates: &[Tgd],
    keys: Option<&[TgdVariantKey]>,
    budget: ChaseBudget,
    parallel: bool,
    cache: &EntailCache,
    token: &CancelToken,
) -> PoolEval {
    // A token that tripped during enumeration must not pay for grouping:
    // non-keyed grouping canonicalizes every candidate (~1µs each), which
    // on a 20k pool is tens of milliseconds of post-deadline work. All
    // candidates settle as `Unknown`, same as an immediate break below.
    if token.is_cancelled() {
        return PoolEval {
            verdicts: vec![Entailment::Unknown; candidates.len()],
            stats: EntailBatchStats {
                candidates: candidates.len(),
                ..Default::default()
            },
            steals: 0,
            panics_contained: 0,
        };
    }
    // Enumerator-produced pools carry their variant keys (dedup computed
    // them anyway); grouping then skips the canonical ordering search.
    let groups = match keys {
        Some(keys) => group_by_body_keyed(candidates, keys),
        None => group_by_body(candidates),
    };
    let fingerprint = sigma_fingerprint(sigma);
    let mut stats = EntailBatchStats {
        candidates: candidates.len(),
        body_groups: groups.len(),
        ..Default::default()
    };
    let workers = if parallel {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(groups.len().max(1))
    } else {
        1
    };
    if workers <= 1 {
        let mut verdicts = vec![Entailment::Unknown; candidates.len()];
        let mut panics = 0usize;
        for group in &groups {
            if token.is_cancelled() {
                break;
            }
            match evaluate_group_contained(
                schema,
                sigma,
                group,
                budget,
                Some((cache, fingerprint)),
                &mut stats,
                token,
            ) {
                Some(group_verdicts) => {
                    for (idx, v) in group_verdicts {
                        verdicts[idx] = v;
                    }
                }
                None => panics += 1,
            }
        }
        return PoolEval {
            verdicts,
            stats,
            steals: 0,
            panics_contained: panics,
        };
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<AtomicU8> = (0..candidates.len())
        .map(|_| AtomicU8::new(encode_verdict(Entailment::Unknown)))
        .collect();
    let mut claims: Vec<usize> = Vec::with_capacity(workers);
    let mut panics = 0usize;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (next, slots, groups) = (&next, &slots, &groups);
                scope.spawn(move || {
                    let mut local = EntailBatchStats::default();
                    let mut claimed = 0usize;
                    let mut contained = 0usize;
                    loop {
                        if token.is_cancelled() {
                            break;
                        }
                        let gi = next.fetch_add(1, Ordering::Relaxed);
                        if gi >= groups.len() {
                            break;
                        }
                        claimed += 1;
                        match evaluate_group_contained(
                            schema,
                            sigma,
                            &groups[gi],
                            budget,
                            Some((cache, fingerprint)),
                            &mut local,
                            token,
                        ) {
                            Some(group_verdicts) => {
                                for (idx, v) in group_verdicts {
                                    slots[idx].store(encode_verdict(v), Ordering::Release);
                                }
                            }
                            None => contained += 1,
                        }
                    }
                    (local, claimed, contained)
                })
            })
            .collect();
        for handle in handles {
            // Worker bodies contain per-group panics themselves; a panic
            // escaping here would be a bug in the scheduler shell, which is
            // worth aborting on.
            let (local, claimed, contained) = handle.join().expect("entailment worker panicked");
            stats.absorb(&local);
            claims.push(claimed);
            panics += contained;
        }
    });
    // `absorb` also summed the workers' zeroed candidates/body_groups;
    // restore the batch-level figures.
    stats.candidates = candidates.len();
    stats.body_groups = groups.len();
    let fair_share = groups.len().div_ceil(workers);
    let steals = claims
        .iter()
        .map(|&c| c.saturating_sub(fair_share))
        .sum::<usize>();
    let verdicts = slots
        .iter()
        .map(|s| decode_verdict(s.load(Ordering::Acquire)))
        .collect();
    PoolEval {
        verdicts,
        stats,
        steals,
        panics_contained: panics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgdkit_chase::equivalent;
    use tgdkit_logic::parse_tgds;

    fn set(s: &mut Schema, text: &str) -> TgdSet {
        let tgds = parse_tgds(s, text).unwrap();
        TgdSet::new(s.clone(), tgds).unwrap()
    }

    /// Algorithm 1 under a default run.
    fn linear(set: &TgdSet, opts: &RewriteOptions) -> (RewriteOutcome, RewriteStats) {
        let (outcome, stats, _) =
            rewrite(&Run::default(), set, RewriteTarget::Linear, opts, None).unwrap();
        (outcome, stats)
    }

    /// Algorithm 2 under a default run.
    fn guarded(set: &TgdSet, opts: &RewriteOptions) -> (RewriteOutcome, RewriteStats) {
        let (outcome, stats, _) =
            rewrite(&Run::default(), set, RewriteTarget::Guarded, opts, None).unwrap();
        (outcome, stats)
    }

    fn assert_equivalent(schema: &Schema, a: &[Tgd], b: &[Tgd]) {
        assert_eq!(
            equivalent(schema, a, b, ChaseBudget::default()),
            Entailment::Proved,
            "sets not equivalent"
        );
    }

    #[test]
    fn redundant_guard_side_atom_is_linearized() {
        let mut s = Schema::default();
        // The side atom R(x,x) is subsumed whenever the second rule fires:
        // Σ ≡ { R(x,y) -> T(x) }.
        let sigma = set(&mut s, "R(x,y), R(x,x) -> T(x). R(x,y) -> T(x).");
        let outcome = linear(&sigma, &RewriteOptions::default()).0;
        let rewriting = outcome.rewriting().expect("rewritable");
        assert!(rewriting.iter().all(Tgd::is_linear));
        assert_equivalent(&s, sigma.tgds(), rewriting);
    }

    #[test]
    fn section_9_1_gadget_is_not_linearizable() {
        let mut s = Schema::default();
        let sigma = set(&mut s, "R(x), P(x) -> T(x).");
        let opts = RewriteOptions {
            enumeration: EnumOptions {
                max_head_atoms: 8, // universe over {R/1,P/1,T/1} with 1 var: 3 atoms
                max_body_atoms: 8,
                max_candidates: 100_000,
            },
            ..Default::default()
        };
        let outcome = linear(&sigma, &opts).0;
        assert_eq!(outcome, RewriteOutcome::NotRewritable);
    }

    #[test]
    fn already_linear_sets_roundtrip() {
        let mut s = Schema::default();
        let sigma = set(&mut s, "R(x,y) -> exists z : R(y,z).");
        let outcome = linear(&sigma, &RewriteOptions::default()).0;
        let rewriting = outcome.rewriting().expect("linear input stays linear");
        assert_equivalent(&s, sigma.tgds(), rewriting);
    }

    #[test]
    fn section_9_1_fg_gadget_is_not_guardable() {
        let mut s = Schema::default();
        let sigma = set(&mut s, "R(x), P(y) -> T(x).");
        let opts = RewriteOptions {
            enumeration: EnumOptions {
                max_head_atoms: 8,
                max_body_atoms: 8,
                max_candidates: 100_000,
            },
            ..Default::default()
        };
        let outcome = guarded(&sigma, &opts).0;
        assert_eq!(outcome, RewriteOutcome::NotRewritable);
    }

    #[test]
    fn guardable_fg_set_is_guarded() {
        let mut s = Schema::default();
        // Frontier-guarded but not guarded as written; semantically the
        // side condition is implied: P(y) in the body is redundant given
        // the second rule makes every R-source P.
        let sigma = set(&mut s, "R(x,y) -> P(x). R(x,y), P(x) -> T(x).");
        // Σ ≡ { R(x,y) -> P(x), R(x,y) -> T(x) }: guarded (even linear).
        let outcome = guarded(&sigma, &RewriteOptions::default()).0;
        let rewriting = outcome.rewriting().expect("rewritable");
        assert!(rewriting.iter().all(Tgd::is_guarded));
        assert_equivalent(&s, sigma.tgds(), rewriting);
    }

    #[test]
    fn parallel_matches_sequential() {
        let mut s = Schema::default();
        let sigma = set(&mut s, "R(x,y), R(x,x) -> T(x). R(x,y) -> T(x).");
        let seq = linear(&sigma, &RewriteOptions::default()).0;
        let par = linear(
            &sigma,
            &RewriteOptions {
                parallel: true,
                ..Default::default()
            },
        )
        .0;
        // The work-stealing evaluator publishes verdicts into per-candidate
        // slots, so the rewriting must be *identical* to the serial one, not
        // merely equivalent.
        assert_eq!(seq, par, "work-stealing output diverged from serial");
        let rewriting = seq.rewriting().expect("rewritable");
        assert_equivalent(&s, sigma.tgds(), rewriting);
    }

    #[test]
    fn sharing_and_cache_counters_are_populated() {
        let mut s = Schema::default();
        let sigma = set(&mut s, "R(x,y), R(x,x) -> T(x). R(x,y) -> T(x).");
        let (outcome, stats) = linear(
            &sigma,
            &RewriteOptions {
                parallel: true,
                ..Default::default()
            },
        );
        assert!(matches!(outcome, RewriteOutcome::Rewritten(_)));
        assert!(
            stats.body_groups > 0 && stats.body_groups < stats.candidates,
            "candidates share bodies: {} groups / {} candidates",
            stats.body_groups,
            stats.candidates
        );
        assert_eq!(stats.cache_misses, stats.candidates, "cold filtering pass");
        // Each body group is chased at most once.
        assert!(stats.bodies_chased <= stats.body_groups);
    }

    #[test]
    fn shared_cache_warms_across_calls() {
        let mut s = Schema::default();
        let sigma = set(&mut s, "R(x,y), R(x,x) -> T(x). R(x,y) -> T(x).");
        let cache = tgdkit_chase::EntailCache::new();
        let opts = RewriteOptions::default();
        let (cold_outcome, cold) = guarded_to_linear_cached(&sigma, &opts, &cache);
        let (warm_outcome, warm) = guarded_to_linear_cached(&sigma, &opts, &cache);
        assert_eq!(cold_outcome, warm_outcome);
        assert_eq!(warm.cache_hits, warm.candidates, "fully warm second run");
        assert_eq!(warm.bodies_chased, 0);
        assert!(cold.cache_misses > 0);
    }

    #[test]
    fn stats_are_populated() {
        let mut s = Schema::default();
        let sigma = set(&mut s, "R(x,y) -> T(x).");
        let (outcome, stats) = linear(&sigma, &RewriteOptions::default());
        assert!(matches!(outcome, RewriteOutcome::Rewritten(_)));
        assert!(stats.candidates > 0);
        assert!(stats.entailed > 0);
        assert!(stats.rewriting_size >= 1);
        // The forward pass checks every simplified member of Σ' once, the
        // backward pass every member it kept.
        assert!(stats.minimize_checks >= 2 * stats.rewriting_size);
    }

    #[test]
    fn rewrite_resume_rejects_wrong_context() {
        let mut s = Schema::default();
        let sigma = set(&mut s, "R(x,y), R(x,x) -> T(x).");
        let other = set(&mut s, "R(x,y), R(y,y) -> T(y).");
        let opts = RewriteOptions::default();
        let suspending = Run {
            token: CancelToken::with_suspend_after_checks(1),
            checkpoint: true,
            ..Run::default()
        };
        let (outcome, _, cp) =
            rewrite(&suspending, &sigma, RewriteTarget::Linear, &opts, None).unwrap();
        assert_eq!(outcome, RewriteOutcome::Suspended);
        let cp = cp.expect("a suspended run carries its checkpoint");
        let resume = |set: &TgdSet, target, opts: &RewriteOptions, cp: &RewriteCheckpoint| {
            rewrite(&Run::default(), set, target, opts, Some(cp)).map(|_| ())
        };
        let mismatch = CheckpointError::ContextMismatch;
        assert_eq!(
            resume(&sigma, RewriteTarget::Guarded, &opts, &cp),
            Err(mismatch("rewrite target class"))
        );
        assert_eq!(
            resume(&other, RewriteTarget::Linear, &opts, &cp),
            Err(mismatch("tgd set"))
        );
        let narrower = RewriteOptions {
            enumeration: EnumOptions {
                max_head_atoms: 1,
                ..EnumOptions::default()
            },
            ..opts
        };
        assert_eq!(
            resume(&sigma, RewriteTarget::Linear, &narrower, &cp),
            Err(mismatch("candidate enumeration"))
        );
        let mut skewed = (*cp).clone();
        skewed.done.push(false);
        assert_eq!(
            resume(&sigma, RewriteTarget::Linear, &opts, &skewed),
            Err(mismatch("body-group count"))
        );
        assert_eq!(resume(&sigma, RewriteTarget::Linear, &opts, &cp), Ok(()));
    }

    #[test]
    fn cancelled_forward_pass_keeps_every_member() {
        let mut s = Schema::default();
        let tgds = parse_tgds(
            &mut s,
            "R(x,y) -> T(x). R(x,x) -> T(x). R(x,y) -> T(x), T(x).",
        )
        .unwrap();
        let (budget, cache) = (ChaseBudget::default(), EntailCache::new());
        let live = Run {
            cache: Some(&cache),
            ..Run::default()
        };
        let (kept, checks) = forward_pass(&live, &s, tgds.clone(), budget);
        assert_eq!(
            (kept.len(), checks),
            (1, 3),
            "both later members follow from the first"
        );
        let cancelled = Run {
            cache: Some(&cache),
            ..Run::default()
        };
        cancelled.token.cancel();
        let (kept, checks) = forward_pass(&cancelled, &s, tgds, budget);
        assert_eq!(
            (kept.len(), checks),
            (3, 0),
            "a cut pass keeps K equivalent to its input"
        );
    }

    #[test]
    fn truncated_budget_reports_inconclusive_not_negative() {
        let mut s = Schema::default();
        // Not linearizable; with a non-exhaustive head budget the answer
        // must be Inconclusive rather than NotRewritable... except the
        // candidate space here is small enough that even 1 head atom is
        // decisive through the Σ' ⊨ Σ check. Use a cap on candidates to
        // force truncation.
        let sigma = set(&mut s, "R(x,y), P(x,y) -> T(x,y).");
        let opts = RewriteOptions {
            enumeration: EnumOptions {
                max_head_atoms: 1,
                max_body_atoms: 1,
                max_candidates: 5,
            },
            ..Default::default()
        };
        let outcome = linear(&sigma, &opts).0;
        assert_eq!(outcome, RewriteOutcome::Inconclusive);
    }
}
