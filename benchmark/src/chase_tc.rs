//! `chase-tc`: the restricted chase of transitive closure over the E11
//! random graph (160 nodes, out-degree 3, 24,481 closure facts), its node
//! ids permuted by the seed.
//!
//! It runs `tgdkit_chase::chase`, the entry point `tgdkit chase` calls,
//! and is all `chase` / `hom` / `instance`: millions of triggers are found
//! and under one percent fire. It never touches `core`, so a `minimize`
//! change must show nothing here, while a trigger-dedup or engine change
//! shows first here.
//!
//! Oracle: a breadth-first reachability closure of the same edge list must
//! equal the chased instance, fact for fact.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use tgdkit_chase::{chase, ChaseBudget, ChaseResult, ChaseVariant};
use tgdkit_instance::{Elem, Instance};
use tgdkit_logic::{parse_tgds, PredId, Schema, Tgd};

use crate::stats::{median, peak_rss_mb, reset_peak_rss, secs, Rng};
use crate::trace::{maybe_span, Tracer};
use crate::{repeated_setup, Config, Layers, Measured, Metric};

struct Graph {
    nodes: u32,
    edges: Vec<(u32, u32)>,
}

/// The E11 graph (the experiments' fixed linear-congruential draw of
/// `degree` out-edges per node), with node ids permuted by the seed. Every
/// seed gets an isomorphic copy, so the chase does the same work on each
/// and the seed moves only element ids, hash placement and insertion
/// order; a fresh random graph per seed would change the closure's depth
/// and the trigger count with it.
fn graph(seed: u64, nodes: u32, degree: u32) -> Graph {
    let mut label: Vec<u32> = (0..nodes).collect();
    let mut rng = Rng::derive(seed, 11);
    for i in (1..label.len()).rev() {
        label.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut edges = Vec::with_capacity((nodes * degree) as usize);
    let mut s: u64 = 0x9e37_79b9_7f4a_7c15;
    for u in 0..nodes {
        for _ in 0..degree {
            s = s
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let v = ((s >> 33) % u64::from(nodes)) as u32;
            edges.push((label[u as usize], label[v as usize]));
        }
    }
    Graph { nodes, edges }
}

struct Setup {
    tgds: Vec<Tgd>,
    edge: PredId,
    start: Instance,
}

fn setup(g: &Graph) -> Setup {
    let mut schema = Schema::default();
    let tgds = parse_tgds(&mut schema, "E(x,y), E(y,z) -> E(x,z).").expect("TC rule parses");
    let edge = schema.pred_id("E").expect("E is declared by the rule");
    let mut start = Instance::new(schema);
    for &(u, v) in &g.edges {
        start.add_fact(edge, vec![Elem(u), Elem(v)]);
    }
    Setup { tgds, edge, start }
}

/// Room for the full closure (nodes² facts) and its rounds.
fn budget() -> ChaseBudget {
    ChaseBudget {
        max_facts: 2_000_000,
        max_rounds: 64,
        max_bytes: usize::MAX,
    }
}

/// Every pair (u, v) joined by a non-empty path, by BFS from each node.
fn closure(g: &Graph) -> BTreeSet<(u32, u32)> {
    let n = g.nodes as usize;
    let mut succ = vec![Vec::new(); n];
    for &(u, v) in &g.edges {
        succ[u as usize].push(v);
    }
    let mut pairs = BTreeSet::new();
    for s in 0..n {
        let mut seen = vec![false; n];
        let mut frontier: Vec<u32> = succ[s].clone();
        while let Some(v) = frontier.pop() {
            if !std::mem::replace(&mut seen[v as usize], true) {
                pairs.insert((s as u32, v));
                frontier.extend(&succ[v as usize]);
            }
        }
    }
    pairs
}

fn check(
    result: &ChaseResult,
    edge: PredId,
    expected: &BTreeSet<(u32, u32)>,
) -> Result<(), String> {
    if !result.terminated() {
        return Err(format!("chase stopped at {:?}", result.outcome));
    }
    if result.instance.fact_count() != expected.len() {
        return Err(format!(
            "{} facts, closure has {}",
            result.instance.fact_count(),
            expected.len()
        ));
    }
    match expected
        .iter()
        .find(|&&(u, v)| !result.instance.contains_fact(edge, &[Elem(u), Elem(v)]))
    {
        Some(missing) => Err(format!("closure pair {missing:?} missing")),
        None => Ok(()),
    }
}

pub fn run(cfg: &Config, budget_time: Duration, tracer: Option<&Tracer>) -> Measured {
    let (nodes, degree) = if cfg.small { (40, 2) } else { (160, 3) };
    let g = graph(cfg.seed, nodes, degree);
    let mut setup_s = Vec::new();
    let mut expected = closure(&g);
    if cfg.inject_wrong {
        // Test hook: drop one pair from the oracle's answer; the chased
        // instance then disagrees with it.
        let first = *expected.iter().next().expect("a non-empty closure");
        expected.remove(&first);
    }

    let (mut pass_s, mut pass_rss_mb) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut errors = Vec::new();
    let mut layers = Layers::default();
    let mut facts = 0usize;
    let (mut search_s, mut apply_s, mut rounds, mut found, mut fired, mut bytes) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    let started = Instant::now();
    while pass_s.is_empty() || started.elapsed() < budget_time {
        let request = pass_s.len() as u64;
        let s = repeated_setup(&mut setup_s, tracer, "instance.setup", || setup(&g));
        reset_peak_rss();
        let t0 = Instant::now();
        let result = maybe_span(tracer, "chase.chase", None, request, |_| {
            chase(&s.start, &s.tgds, ChaseVariant::Restricted, budget())
        });
        pass_s.push(secs(t0.elapsed()));
        pass_rss_mb.push(peak_rss_mb());
        attempted += 1;
        if let Err(e) = check(&result, s.edge, &expected) {
            failed += 1;
            errors.push(format!("chase {request}: {e}"));
        }
        facts = result.instance.fact_count();
        let st = &result.stats;
        search_s += secs(st.trigger_search_time);
        apply_s += secs(st.apply_time);
        rounds += st.rounds as f64;
        found += st.triggers_found as f64;
        fired += st.triggers_fired as f64;
        bytes += result.instance.heap_bytes() as f64 / facts.max(1) as f64;
    }
    if tracer.is_some() {
        let n = pass_s.len() as f64;
        layers.set("chase.search_s", search_s / n);
        layers.set("chase.apply_s", apply_s / n);
        layers.set("chase.rounds", rounds / n);
        layers.set("chase.triggers_found", found / n);
        layers.set("chase.triggers_fired", fired / n);
        layers.set("chase.fire_ratio", fired / found.max(1.0));
        layers.set("instance.bytes_per_tuple", bytes / n);
    }
    Measured {
        setup_s,
        report: vec![
            Metric::new("chase_s", median(&pass_s), "s", "lower").samples(pass_s.len()),
            Metric::new("result_facts", facts as f64, "count", "none"),
            Metric::new("edges", g.edges.len() as f64, "count", "none"),
        ],
        pass_s,
        pass_rss_mb,
        attempted,
        failed,
        errors,
        layers,
    }
}
