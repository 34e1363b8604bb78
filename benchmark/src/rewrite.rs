//! `rewrite`: Algorithms 1–2 decide one fixed input set once per pass.
//!
//! The set is the paper's own decision inputs: the five E7/E8 inputs, the
//! four Appendix F (E9) reduction rows — the hardest, and where `minimize`
//! dominates — and a seeded draw of E12-style generated guarded sets. Each
//! input is decided by `guarded_to_linear_cached` /
//! `frontier_guarded_to_guarded_cached` against a fresh `EntailCache`, so
//! no pass or input profits from another's verdicts.
//!
//! Oracle: decisive answers must match the known-answer table (EXPERIMENTS.md
//! E7/E8/E9); every `Rewritten` set must be chase-proved `equivalent()` to
//! its input and lie in the target class; every `NotRewritable` needs a
//! §9.1 union-closure witness (a disjoint-union one for Algorithm 2) whose
//! two models satisfy the input while their union does not. `Inconclusive`
//! is undecided, not wrong.

use std::time::{Duration, Instant};

use tgdkit_chase::{
    entails_all_cached, equivalent, satisfies_tgds, ChaseBudget, EntailCache, Entailment,
};
use tgdkit_core::enumerate::{guarded_candidates, linear_candidates, EnumOptions};
use tgdkit_core::expressibility::{disjoint_union_closure_witness, union_closure_witness};
use tgdkit_core::reductions::{
    fg_entailment_to_guarded_rewritability, guarded_entailment_to_linear_rewritability,
};
use tgdkit_core::rewrite::{
    evaluate_pool_keyed, frontier_guarded_to_guarded_cached, guarded_to_linear_cached,
    RewriteOptions, RewriteOutcome, RewriteStats,
};
use tgdkit_core::workload::{generate_set, Family, WorkloadParams};
use tgdkit_logic::{parse_tgds, Schema, Tgd, TgdSet};

use crate::stats::{median, peak_rss_mb, reset_peak_rss, secs, Rng};
use crate::trace::{maybe_span, Tracer};
use crate::{repeated_setup, Config, Layers, Measured, Metric};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Algorithm {
    /// Algorithm 1: guarded → linear.
    Linear,
    /// Algorithm 2: frontier-guarded → guarded.
    Guarded,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Known {
    Rewritten,
    NotRewritable,
}

struct Input {
    name: String,
    algorithm: Algorithm,
    set: TgdSet,
    opts: RewriteOptions,
    known: Option<Known>,
}

fn parsed(text: &str) -> TgdSet {
    let mut schema = Schema::default();
    let tgds = parse_tgds(&mut schema, text).expect("fixed workload text parses");
    TgdSet::new(schema, tgds).expect("fixed workload text is a valid set")
}

fn parallel(enumeration: EnumOptions) -> RewriteOptions {
    RewriteOptions {
        enumeration,
        parallel: true,
        ..Default::default()
    }
}

/// Budgets covering the full candidate space of the unary §9.1 gadgets, so
/// their negative answers are definitive (as in the E7/E8 table).
fn exhaustive() -> RewriteOptions {
    parallel(EnumOptions {
        max_head_atoms: 8,
        max_body_atoms: 8,
        max_candidates: 500_000,
    })
}

/// The fixed E7/E8/E9 inputs with their known answers, plus `e12` seeded
/// E12-style guarded sets.
fn build_inputs(seed: u64, e12: usize) -> Vec<Input> {
    use Algorithm::{Guarded, Linear};
    let opts = parallel(EnumOptions::default());
    let mut inputs = Vec::new();
    for (name, algorithm, text, opts, known) in [
        (
            "e7.side-atom",
            Linear,
            "R(x,y), R(x,x) -> T(x). R(x,y) -> T(x).",
            opts,
            Some(Known::Rewritten),
        ),
        (
            "e7.gadget",
            Linear,
            "R(x), P(x) -> T(x).",
            exhaustive(),
            Some(Known::NotRewritable),
        ),
        // Its chase diverges and the candidate space is budget-truncated:
        // EXPERIMENTS.md records `inconclusive`, with no decisive answer.
        (
            "e7.divergent",
            Linear,
            "G(x,y) -> exists z : G(y,z). G(x,y), G(x,x) -> T(x,y).",
            opts,
            None,
        ),
        (
            "e8.redundant",
            Guarded,
            "R(x,y) -> P(x). R(x,y), P(x) -> T(x).",
            opts,
            Some(Known::Rewritten),
        ),
        (
            "e8.gadget",
            Guarded,
            "R(x), P(y) -> T(x).",
            exhaustive(),
            Some(Known::NotRewritable),
        ),
    ] {
        inputs.push(Input {
            name: name.into(),
            algorithm,
            set: parsed(text),
            opts,
            known,
        });
    }
    // E9: Σ ⊨ ∃x Q(x) iff the reduction's Σ′ is rewritable.
    for (label, text, entailed) in [
        ("positive", "true -> exists u : P(u). P(x) -> Q(x).", true),
        ("negative", "P(x) -> Q(x).", false),
    ] {
        let sigma = parsed(text);
        let q = sigma
            .schema()
            .pred_id("Q")
            .expect("Q occurs in the E9 text");
        let opts = parallel(EnumOptions {
            max_head_atoms: if entailed { 2 } else { 8 },
            max_body_atoms: 8,
            max_candidates: 500_000,
        });
        let known = Some(if entailed {
            Known::Rewritten
        } else {
            Known::NotRewritable
        });
        let g_to_l = guarded_entailment_to_linear_rewritability(&sigma, q)
            .expect("Theorem 9.1 reduction of a guarded set");
        inputs.push(Input {
            name: format!("e9.thm9.1.{label}"),
            algorithm: Linear,
            set: g_to_l.sigma_prime,
            opts,
            known,
        });
        let fg_to_g = fg_entailment_to_guarded_rewritability(&sigma, q)
            .expect("Theorem 9.2 reduction of a frontier-guarded set");
        inputs.push(Input {
            name: format!("e9.thm9.2.{label}"),
            algorithm: Guarded,
            set: fg_to_g.sigma_prime,
            opts,
            known,
        });
    }
    // E12: generated guarded sets, the experiment's shape, drawn by seed.
    let params = WorkloadParams {
        predicates: 2,
        max_arity: 2,
        rules: 2,
        body_atoms: 2,
        head_atoms: 1,
        universals: 2,
        existentials: 0,
    };
    let mut rng = Rng::derive(seed, 12);
    let mut drawn = 0;
    while drawn < e12 {
        let set_seed = rng.next_u64();
        let set = generate_set(&params, Family::Guarded, set_seed);
        if set.is_empty() || !set.is_guarded() {
            continue;
        }
        inputs.push(Input {
            name: format!("e12.{set_seed:016x}"),
            algorithm: Linear,
            set,
            opts,
            known: None,
        });
        drawn += 1;
    }
    inputs
}

fn decide(input: &Input, cache: &EntailCache) -> (RewriteOutcome, RewriteStats) {
    match input.algorithm {
        Algorithm::Linear => guarded_to_linear_cached(&input.set, &input.opts, cache),
        Algorithm::Guarded => frontier_guarded_to_guarded_cached(&input.set, &input.opts, cache),
    }
}

/// The independent check of one decision; `Err` names what is wrong.
fn check(input: &Input, outcome: &RewriteOutcome) -> Result<(), String> {
    let schema = input.set.schema();
    match (outcome, input.known) {
        (RewriteOutcome::Rewritten(_), Some(Known::NotRewritable)) => {
            Err("rewritten, but the known answer is not rewritable".into())
        }
        (RewriteOutcome::NotRewritable, Some(Known::Rewritten)) => {
            Err("not rewritable, but the known answer is rewritten".into())
        }
        (RewriteOutcome::Rewritten(tgds), _) => {
            let in_class = match input.algorithm {
                Algorithm::Linear => tgds.iter().all(Tgd::is_linear),
                Algorithm::Guarded => tgds.iter().all(Tgd::is_guarded),
            };
            if !in_class {
                return Err("rewriting leaves the target class".into());
            }
            match equivalent(schema, input.set.tgds(), tgds, ChaseBudget::default()) {
                Entailment::Proved => Ok(()),
                other => Err(format!("rewriting not proved equivalent ({other:?})")),
            }
        }
        (RewriteOutcome::NotRewritable, _) => {
            let witness = match input.algorithm {
                Algorithm::Linear => union_closure_witness(&input.set, 8, 1),
                Algorithm::Guarded => disjoint_union_closure_witness(&input.set, 8, 1),
            };
            let w = witness.ok_or("no union-closure witness for a negative answer")?;
            let tgds = input.set.tgds();
            if satisfies_tgds(&w.left, tgds)
                && satisfies_tgds(&w.right, tgds)
                && !satisfies_tgds(&w.union, tgds)
            {
                Ok(())
            } else {
                Err("union-closure witness does not refute the input".into())
            }
        }
        (RewriteOutcome::Inconclusive, _) => Ok(()),
        (RewriteOutcome::Cancelled | RewriteOutcome::Suspended, _) => {
            Err(format!("unexpected outcome {outcome:?}"))
        }
    }
}

fn decided(outcome: &RewriteOutcome) -> bool {
    matches!(
        outcome,
        RewriteOutcome::Rewritten(_) | RewriteOutcome::NotRewritable
    )
}

/// Per-layer figures from the traced pass: the rewrite calls themselves,
/// and a replay of their first three phases through the public functions
/// the rewrite calls internally (`minimize` is private, so its share is
/// what the replayed phases leave of the full call).
#[derive(Default)]
struct PhaseTotals {
    rewrite_s: f64,
    candidates: f64,
    bodies_chased: f64,
    rewrite_lookups: f64,
    rewrite_hits: f64,
    phase_lookups: f64,
    search_s: f64,
    apply_s: f64,
    rounds: f64,
    triggers_found: f64,
    triggers_fired: f64,
}

fn replay_phases(input: &Input, tracer: &Tracer, request: u64, totals: &mut PhaseTotals) {
    let set = &input.set;
    let schema = set.schema();
    let (n, m) = set.profile();
    let cache = EntailCache::new();
    tracer.span("core.phases", None, request, |root| {
        let enumeration = tracer.span("core.enumerate", Some(root), request, |_| {
            match input.algorithm {
                Algorithm::Linear => linear_candidates(schema, n, m, &input.opts.enumeration),
                Algorithm::Guarded => guarded_candidates(schema, n, m, &input.opts.enumeration),
            }
        });
        let (verdicts, batch, _) = tracer.span("core.evaluate", Some(root), request, |_| {
            evaluate_pool_keyed(
                schema,
                set.tgds(),
                &enumeration.tgds,
                &enumeration.keys,
                input.opts.budget,
                input.opts.parallel,
                &cache,
            )
        });
        let sigma_prime: Vec<Tgd> = enumeration
            .tgds
            .iter()
            .zip(&verdicts)
            .filter(|(_, v)| **v == Entailment::Proved)
            .map(|(t, _)| t.clone())
            .collect();
        // The rewrite checks Σ′ ⊨ Σ only when Σ′ is non-empty.
        if !sigma_prime.is_empty() {
            tracer.span("core.verify", Some(root), request, |_| {
                entails_all_cached(schema, &sigma_prime, set.tgds(), input.opts.budget, &cache)
            });
        }
        totals.candidates += enumeration.tgds.len() as f64;
        totals.bodies_chased += batch.bodies_chased as f64;
        totals.search_s += secs(batch.chase.trigger_search_time);
        totals.apply_s += secs(batch.chase.apply_time);
        totals.rounds += batch.chase.rounds as f64;
        totals.triggers_found += batch.chase.triggers_found as f64;
        totals.triggers_fired += batch.chase.triggers_fired as f64;
    });
    totals.phase_lookups += (cache.hits() + cache.misses()) as f64;
}

pub fn run(cfg: &Config, budget: Duration, tracer: Option<&Tracer>) -> Measured {
    let e12 = if cfg.small { 2 } else { 8 };
    let (mut pass_s, mut pass_rss_mb) = (Vec::new(), Vec::new());
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut decided_count = 0u64;
    let mut errors: Vec<String> = Vec::new();
    // The last answer per input that passed the full check.
    let mut verified: Vec<Option<RewriteOutcome>> = Vec::new();
    let mut setup_s = Vec::new();
    let mut inputs = Vec::new();
    let mut phases = PhaseTotals::default();
    let started = Instant::now();
    let mut pass = 0u64;
    while pass_s.is_empty() || started.elapsed() < budget {
        inputs = repeated_setup(&mut setup_s, tracer, "logic.setup", || {
            let mut inputs = build_inputs(cfg.seed, e12);
            if cfg.small {
                // Every input but the two slow Appendix F rows of Algorithm
                // 2: enough to exercise every oracle branch quickly.
                inputs.retain(|i| !i.name.starts_with("e9.thm9.2."));
            }
            inputs
        });
        verified.resize(inputs.len(), None);
        let mut outcomes = Vec::with_capacity(inputs.len());
        let mut busy = 0.0;
        reset_peak_rss();
        for (i, input) in inputs.iter().enumerate() {
            let request = pass * 1000 + i as u64;
            let cache = EntailCache::new();
            let t0 = Instant::now();
            let (outcome, _) = maybe_span(tracer, "core.rewrite", None, request, |_| {
                decide(input, &cache)
            });
            let dt = secs(t0.elapsed());
            busy += dt;
            if tracer.is_some() {
                phases.rewrite_s += dt;
                phases.rewrite_lookups += (cache.hits() + cache.misses()) as f64;
                phases.rewrite_hits += cache.hits() as f64;
            }
            outcomes.push(outcome);
        }
        pass_s.push(busy);
        pass_rss_mb.push(peak_rss_mb());
        if cfg.inject_wrong {
            // Test hook: forge the answer of the first input with a known
            // decisive answer; the oracle must reject it.
            if let Some(i) = inputs.iter().position(|i| i.known.is_some()) {
                outcomes[i] = match outcomes[i] {
                    RewriteOutcome::Rewritten(_) => RewriteOutcome::NotRewritable,
                    _ => RewriteOutcome::Rewritten(Vec::new()),
                };
            }
        }
        for (i, (input, outcome)) in inputs.iter().zip(&outcomes).enumerate() {
            attempted += 1;
            if decided(outcome) {
                decided_count += 1;
            }
            // An answer identical to one already verified needs no new check.
            let verdict = match &verified[i] {
                Some(known) if known == outcome => Ok(()),
                _ => check(input, outcome),
            };
            match verdict {
                Ok(()) => verified[i] = Some(outcome.clone()),
                Err(e) => {
                    failed += 1;
                    errors.push(format!("{}: {e}", input.name));
                }
            }
        }
        if let Some(t) = tracer {
            for (i, input) in inputs.iter().enumerate() {
                replay_phases(input, t, pass * 1000 + i as u64, &mut phases);
            }
        }
        pass += 1;
    }

    let decide_s = median(&pass_s);
    let report = vec![
        Metric::new("decide_s", decide_s, "s", "lower").samples(pass_s.len()),
        Metric::new(
            "decided_share",
            decided_count as f64 / attempted as f64,
            "ratio",
            "higher",
        )
        .samples(attempted as usize),
        Metric::new("inputs", inputs.len() as f64, "count", "none"),
    ];

    let mut layers = Layers::default();
    if let Some(t) = tracer {
        let totals = t.totals();
        let self_s = |name: &str| totals.get(name).map_or(0.0, |v| v.1);
        let (enumerate_s, evaluate_s, verify_s) = (
            self_s("core.enumerate"),
            self_s("core.evaluate"),
            self_s("core.verify"),
        );
        let minimize_s = (phases.rewrite_s - enumerate_s - evaluate_s - verify_s).max(0.0);
        let passes = pass_s.len() as f64;
        layers.set("core.enumerate.self_s", enumerate_s / passes);
        layers.set("core.enumerate.candidates", phases.candidates / passes);
        layers.set("core.evaluate.self_s", evaluate_s / passes);
        layers.set("core.evaluate.bodies_chased", phases.bodies_chased / passes);
        layers.set("core.verify.self_s", verify_s / passes);
        layers.set("core.minimize.self_s", minimize_s / passes);
        layers.set(
            "core.minimize.checks",
            (phases.rewrite_lookups - phases.phase_lookups).max(0.0) / passes,
        );
        layers.set(
            "chase.cache.hit_rate",
            phases.rewrite_hits / phases.rewrite_lookups.max(1.0),
        );
        layers.set("chase.search_s", phases.search_s / passes);
        layers.set("chase.apply_s", phases.apply_s / passes);
        layers.set("chase.rounds", phases.rounds / passes);
        layers.set("chase.triggers_found", phases.triggers_found / passes);
        layers.set("chase.triggers_fired", phases.triggers_fired / passes);
        layers.set(
            "chase.fire_ratio",
            phases.triggers_fired / phases.triggers_found.max(1.0),
        );
    }
    Measured {
        setup_s,
        pass_s,
        pass_rss_mb,
        attempted,
        failed,
        errors,
        report,
        layers,
    }
}
