//! `serve-mixed`: a closed loop of two clients against an in-process
//! `Server` with a durable data directory.
//!
//! Each client owns a tenant and waits for every reply before sending its
//! next request. Its fixed, seed-determined sequence mixes about one half
//! `Entail`, one third `KbQuery` and one fifth `KbApply`; about one apply
//! in ten retracts a base edge (the store's full re-chase path). Applies
//! insert edges under the transitive-closure rule over a bounded node set,
//! so every pass grows the same knowledge base. Entail candidates come
//! from a seeded pool larger than the tenant cache, drawn with a hot
//! subset, so the cache both hits and evicts. This is the only workload
//! that reaches `store`, the scheduler and the wire.
//!
//! A pass starts a fresh server on a fresh data directory (under
//! `benchmark/out/`, deleted after the pass) and runs both sequences to
//! the end.
//!
//! Oracle: each client keeps its own model of its knowledge base (the base
//! edges, closed by breadth-first search) and checks every `KbQuery`
//! answer against it; every `Entail` verdict must equal the verdict of a
//! dedicated in-process `tgdkit_chase::entails` call on the same texts.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

use tgdkit_chase::{entails, ChaseBudget, Entailment, DEFAULT_CACHE_MAX_BYTES};
use tgdkit_core::workload::{generate_set, Family, WorkloadParams};
use tgdkit_instance::Elem;
use tgdkit_logic::{parse_program, parse_tgds, TgdSet};
use tgdkit_serve::{
    Client, Request, Response, Scheduler, SchedulerConfig, Server, ServerConfig, TenantConfig,
    WireFact,
};
use tgdkit_store::{DurableKb, KbConfig};

use crate::stats::{mean, median, peak_rss_mb, percentile, reset_peak_rss, secs, tail, Rng};
use crate::trace::{maybe_span, Tracer};
use crate::{out_dir, Config, Layers, Measured, Metric};

const KB_PROGRAM: &str = "E(x,y), E(y,z) -> E(x,z).";
/// Tenant cache entries: well below the entail pool, so it must evict.
const CACHE_ENTRIES: usize = 48;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Entail,
    KbQuery,
    KbApply,
}

const KINDS: [(Kind, &str); 3] = [
    (Kind::Entail, "entail"),
    (Kind::KbQuery, "kb_query"),
    (Kind::KbApply, "kb_apply"),
];

/// One step of a client's sequence.
#[derive(Clone)]
enum Step {
    /// Index into the entail pool.
    Entail(usize),
    /// Edges to test for membership in the closure.
    Query(Vec<(u32, u32)>),
    /// Edges to insert, and base edges to retract.
    Apply(Vec<(u32, u32)>, Vec<(u32, u32)>),
}

impl Step {
    fn kind(&self) -> Kind {
        match self {
            Step::Entail(_) => Kind::Entail,
            Step::Query(_) => Kind::KbQuery,
            Step::Apply(..) => Kind::KbApply,
        }
    }
}

struct PoolEntry {
    program: String,
    candidate: String,
    expected: Entailment,
}

struct Shape {
    requests: usize,
    nodes: u32,
    programs: usize,
    candidates: usize,
}

fn edge_facts(edges: &[(u32, u32)]) -> Vec<WireFact> {
    edges
        .iter()
        .map(|&(u, v)| WireFact {
            pred: "E".into(),
            args: vec![u, v],
        })
        .collect()
}

/// Entail pool: many full (so always decisive) generated ontologies, each
/// with its own rules (entailed) and generated candidates (mostly not),
/// with the expected verdict from a dedicated in-process entailment check.
fn entail_pool(seed: u64, shape: &Shape) -> Vec<PoolEntry> {
    let params = WorkloadParams {
        predicates: 3,
        max_arity: 2,
        rules: 3,
        ..Default::default()
    };
    let candidate_params = WorkloadParams {
        rules: shape.candidates,
        ..params
    };
    let mut rng = Rng::derive(seed, 30);
    let mut pool = Vec::new();
    for _ in 0..shape.programs {
        let sigma = generate_set(&params, Family::Full, rng.next_u64());
        let cands = generate_set(&candidate_params, Family::Full, rng.next_u64());
        let render = |set: &TgdSet, t: &tgdkit_logic::Tgd| t.display(set.schema()).to_string();
        let program: String = sigma
            .tgds()
            .iter()
            .map(|t| format!("{}. ", render(&sigma, t)))
            .collect();
        let texts = sigma
            .tgds()
            .iter()
            .map(|t| render(&sigma, t))
            .chain(cands.tgds().iter().map(|t| render(&cands, t)));
        for candidate in texts {
            let parsed = parse_program(&program).expect("generated program parses");
            let mut schema = parsed.schema.clone();
            let sigma = parsed.tgds();
            let cand = parse_tgds(&mut schema, &candidate).expect("generated candidate parses");
            let expected = entails(&schema, &sigma, &cand[0], ChaseBudget::default());
            pool.push(PoolEntry {
                program: program.clone(),
                candidate,
                expected,
            });
        }
    }
    // Shuffled, so the hot prefix the sequences favour mixes every
    // program instead of being the first one's candidates.
    for i in (1..pool.len()).rev() {
        pool.swap(i, rng.below(i as u64 + 1) as usize);
    }
    pool
}

/// A client's fixed request sequence: exactly 15 : 10 : 6 entail, query
/// and apply requests in seeded order (≈ ½, ⅓, ⅕), every tenth apply also
/// retracting a base edge. Fixed counts keep the costly re-chases equally
/// many on every seed. The knowledge base is modelled while generating, so
/// a retraction always names a present base edge.
fn sequence(seed: u64, client: u64, shape: &Shape, pool: usize) -> Vec<Step> {
    let mut rng = Rng::derive(seed, 40 + client);
    let mut kinds: Vec<Kind> = (0..shape.requests)
        .map(|i| match i * 31 / shape.requests {
            0..=14 => Kind::Entail,
            15..=24 => Kind::KbQuery,
            _ => Kind::KbApply,
        })
        .collect();
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let hot = (pool / 8).max(1) as u64;
    let mut base: BTreeSet<(u32, u32)> = BTreeSet::new();
    let mut applies = 0;
    let edge = |rng: &mut Rng| {
        (
            rng.below(u64::from(shape.nodes)) as u32,
            rng.below(u64::from(shape.nodes)) as u32,
        )
    };
    kinds
        .into_iter()
        .map(|kind| match kind {
            // Three in four entails hit the hot eighth of the pool.
            Kind::Entail => Step::Entail(if rng.below(4) < 3 {
                rng.below(hot) as usize
            } else {
                rng.below(pool as u64) as usize
            }),
            Kind::KbQuery => Step::Query((0..4).map(|_| edge(&mut rng)).collect()),
            Kind::KbApply => {
                applies += 1;
                let inserts: Vec<(u32, u32)> =
                    (0..1 + rng.below(2)).map(|_| edge(&mut rng)).collect();
                let retracts = if applies % 10 == 0 && !base.is_empty() {
                    let victim = *base
                        .iter()
                        .nth(rng.below(base.len() as u64) as usize)
                        .expect("index below the set's length");
                    base.remove(&victim);
                    vec![victim]
                } else {
                    Vec::new()
                };
                base.extend(&inserts);
                Step::Apply(inserts, retracts)
            }
        })
        .collect()
}

/// The reachability closure of `base` over `nodes` nodes.
fn closure(base: &BTreeSet<(u32, u32)>, nodes: u32) -> BTreeSet<(u32, u32)> {
    let mut succ = vec![Vec::new(); nodes as usize];
    for &(u, v) in base {
        succ[u as usize].push(v);
    }
    let mut pairs = BTreeSet::new();
    for s in 0..nodes {
        let mut frontier = succ[s as usize].clone();
        while let Some(v) = frontier.pop() {
            if pairs.insert((s, v)) {
                frontier.extend(&succ[v as usize]);
            }
        }
    }
    pairs
}

fn tenant(client: usize) -> String {
    format!("tenant-{client}")
}

fn request(step: &Step, client: usize, pool: &[PoolEntry]) -> Request {
    match step {
        Step::Entail(i) => Request::Entail {
            tenant: tenant(client),
            budget: ChaseBudget::default(),
            program: pool[*i].program.clone(),
            candidate: pool[*i].candidate.clone(),
        },
        Step::Query(edges) => Request::KbQuery {
            tenant: tenant(client),
            program: KB_PROGRAM.into(),
            facts: edge_facts(edges),
        },
        Step::Apply(inserts, retracts) => Request::KbApply {
            tenant: tenant(client),
            program: KB_PROGRAM.into(),
            inserts: edge_facts(inserts),
            retracts: edge_facts(retracts),
        },
    }
}

/// The client-side oracle: keeps the tenant's base edges and checks each
/// response. `inject_wrong` flips the first query answer it sees.
struct Model {
    nodes: u32,
    base: BTreeSet<(u32, u32)>,
    closure: BTreeSet<(u32, u32)>,
    inject_wrong: bool,
}

impl Model {
    fn check(
        &mut self,
        step: &Step,
        response: &Response,
        pool: &[PoolEntry],
    ) -> Result<(), String> {
        match (step, response) {
            (_, Response::Error { message }) => Err(format!("error response: {message}")),
            (Step::Entail(i), Response::Verdicts { verdicts, .. }) => {
                if verdicts.as_slice() == [pool[*i].expected] {
                    Ok(())
                } else {
                    Err(format!(
                        "entail {i}: served {verdicts:?}, dedicated {:?}",
                        pool[*i].expected
                    ))
                }
            }
            (Step::Query(edges), Response::Kb { holds, .. }) => {
                let mut expected: Vec<bool> =
                    edges.iter().map(|e| self.closure.contains(e)).collect();
                if std::mem::take(&mut self.inject_wrong) {
                    expected[0] = !expected[0];
                }
                if *holds == expected {
                    Ok(())
                } else {
                    Err(format!(
                        "query {edges:?}: served {holds:?}, model {expected:?}"
                    ))
                }
            }
            (Step::Apply(inserts, retracts), Response::Kb { fact_count, .. }) => {
                for r in retracts {
                    self.base.remove(r);
                }
                self.base.extend(inserts);
                self.closure = closure(&self.base, self.nodes);
                if *fact_count == self.closure.len() as u64 {
                    Ok(())
                } else {
                    Err(format!(
                        "apply: served fixpoint of {fact_count} facts, model has {}",
                        self.closure.len()
                    ))
                }
            }
            (_, other) => Err(format!("unexpected response {other:?}")),
        }
    }
}

/// A data directory under the benchmark's `out/`, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(label: &str) -> TempDir {
        let dir = out_dir().join(format!("kb-{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the benchmark's data directory");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn kb_config() -> KbConfig {
    KbConfig {
        // Small enough that every pass compacts a few times.
        compact_wal_bytes: 8 << 10,
        ..KbConfig::default()
    }
}

fn scheduler_config(data_dir: &Path) -> SchedulerConfig {
    SchedulerConfig {
        workers: 2,
        tenant: TenantConfig {
            cache_max_entries: CACHE_ENTRIES,
            cache_max_bytes: DEFAULT_CACHE_MAX_BYTES,
            shards: 1,
            ..TenantConfig::default()
        },
        data_dir: Some(data_dir.to_path_buf()),
        kb: kb_config(),
        ..SchedulerConfig::default()
    }
}

/// What one client saw in one pass, in sequence order.
struct ClientRun {
    latency_us: Vec<f64>,
    responses: Vec<Response>,
    failed: u64,
    errors: Vec<String>,
}

fn drive(
    client: usize,
    steps: &[Step],
    pool: &[PoolEntry],
    nodes: u32,
    inject_wrong: bool,
    send: impl Fn(usize, &Request) -> Result<Response, String>,
) -> ClientRun {
    let mut model = Model {
        nodes,
        base: BTreeSet::new(),
        closure: BTreeSet::new(),
        inject_wrong,
    };
    let mut run = ClientRun {
        latency_us: Vec::with_capacity(steps.len()),
        responses: Vec::with_capacity(steps.len()),
        failed: 0,
        errors: Vec::new(),
    };
    for (i, step) in steps.iter().enumerate() {
        let req = request(step, client, pool);
        let t0 = Instant::now();
        let response = send(i, &req);
        run.latency_us.push(secs(t0.elapsed()) * 1e6);
        let response = response.unwrap_or_else(|e| Response::Error { message: e });
        if let Err(e) = model.check(step, &response, pool) {
            run.failed += 1;
            if run.errors.len() < 5 {
                run.errors.push(format!("client {client} request {i}: {e}"));
            }
        }
        run.responses.push(response);
    }
    run
}

fn request_id(client: usize, i: usize) -> u64 {
    ((client as u64) << 32) | i as u64
}

/// Replays both sequences through an in-process scheduler (no sockets,
/// no framing), answers checked as on the wire.
fn replay_in_process(
    steps: &[Vec<Step>],
    pool: &[PoolEntry],
    nodes: u32,
    tracer: &Tracer,
) -> Vec<ClientRun> {
    let dir = TempDir::new("replay-sched");
    let scheduler = Scheduler::new(scheduler_config(&dir.0));
    let runs: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = steps
            .iter()
            .enumerate()
            .map(|(c, seq)| {
                let scheduler = &scheduler;
                s.spawn(move || {
                    drive(c, seq, pool, nodes, false, |i, req| {
                        tracer.span("serve.sched.submit", None, request_id(c, i), |_| {
                            let rx: Receiver<Response> = scheduler.submit(req.clone());
                            rx.recv().map_err(|e| e.to_string())
                        })
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay client thread"))
            .collect()
    });
    scheduler.shutdown();
    scheduler.join();
    runs
}

#[derive(Default)]
struct StoreReplay {
    failed: u64,
    errors: Vec<String>,
    apply_us: Vec<f64>,
    query_us: Vec<f64>,
    appends: u64,
    rechases: u64,
    compactions: u64,
    disk_bytes_per_fact: f64,
    bytes_per_tuple: f64,
}

/// Replays one client's knowledge-base stream directly on a `DurableKb`.
fn replay_store(client: usize, steps: &[Step], tracer: &Tracer, out: &mut StoreReplay) {
    let dir = TempDir::new(&format!("replay-store-{client}"));
    let mut schema = tgdkit_logic::Schema::default();
    let tgds = parse_tgds(&mut schema, KB_PROGRAM).expect("KB program parses");
    let edge = schema.pred_id("E").expect("E is declared by the rule");
    let set = TgdSet::new(schema, tgds).expect("KB program is a valid set");
    let (mut kb, _) = DurableKb::open(&dir.0, &set, kb_config()).expect("open a fresh store");
    let facts = |edges: &[(u32, u32)]| -> Vec<tgdkit_instance::Fact> {
        edges
            .iter()
            .map(|&(u, v)| tgdkit_instance::Fact::new(edge, vec![Elem(u), Elem(v)]))
            .collect()
    };
    for (i, step) in steps.iter().enumerate() {
        let id = request_id(client, i);
        match step {
            Step::Entail(_) => {}
            Step::Query(edges) => {
                let t0 = Instant::now();
                tracer.span("store.query", None, id, |_| {
                    for &(u, v) in edges {
                        std::hint::black_box(kb.holds(edge, &[Elem(u), Elem(v)]));
                    }
                });
                out.query_us.push(secs(t0.elapsed()) * 1e6);
            }
            Step::Apply(inserts, retracts) => {
                let (ins, ret) = (facts(inserts), facts(retracts));
                let t0 = Instant::now();
                let applied = tracer.span("store.apply", None, id, |_| kb.apply(&ins, &ret));
                out.apply_us.push(secs(t0.elapsed()) * 1e6);
                if let Err(e) = applied {
                    out.failed += 1;
                    out.errors.push(format!("store replay {client}/{i}: {e}"));
                }
            }
        }
    }
    let stats = kb.stats();
    out.appends += stats.wal_appends;
    out.rechases += stats.full_rechases;
    out.compactions += stats.compactions;
    let disk: u64 = std::fs::read_dir(&dir.0)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    let chased = kb.chased().fact_count().max(1) as f64;
    out.disk_bytes_per_fact += disk as f64 / chased / 2.0;
    out.bytes_per_tuple += kb.chased().heap_bytes() as f64 / chased / 2.0;
}

pub fn run(cfg: &Config, budget: Duration, tracer: Option<&Tracer>) -> Measured {
    let shape = if cfg.small {
        Shape {
            requests: 60,
            nodes: 8,
            programs: 2,
            candidates: 6,
        }
    } else {
        Shape {
            requests: 1000,
            nodes: 32,
            programs: 24,
            candidates: 8,
        }
    };
    let pool = entail_pool(cfg.seed, &shape);
    let steps: Vec<Vec<Step>> = (0..2)
        .map(|c| sequence(cfg.seed, c, &shape, pool.len()))
        .collect();

    let mut setup_s = Vec::new();
    let (mut pass_s, mut pass_rss_mb) = (Vec::new(), Vec::new());
    let mut latency: [Vec<f64>; 3] = Default::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut errors = Vec::new();
    let mut layers = Layers::default();
    let (mut quanta, mut entails_done, mut hits, mut lookups, mut rejected) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let mut replayed = false;
    let started = Instant::now();
    let mut pass = 0usize;
    while pass_s.len() < 3 || started.elapsed() < budget {
        let dir = TempDir::new(&format!("pass{pass}"));
        // Set-up: start the server and open both tenants' stores.
        let t0 = Instant::now();
        let (server, opened) = maybe_span(tracer, "serve.setup", None, 0, |_| {
            let server = Server::start(ServerConfig {
                addr: "127.0.0.1:0".into(),
                scheduler: scheduler_config(&dir.0),
            })
            .expect("bind a loopback port");
            let client = Client::new(server.addr());
            let opened: Vec<_> = (0..2)
                .map(|c| {
                    client.request(&Request::KbQuery {
                        tenant: tenant(c),
                        program: KB_PROGRAM.into(),
                        facts: Vec::new(),
                    })
                })
                .collect();
            (server, opened)
        });
        setup_s.push(secs(t0.elapsed()));
        for (c, response) in opened.iter().enumerate() {
            attempted += 1;
            if !matches!(response, Ok(Response::Kb { .. })) {
                failed += 1;
                errors.push(format!("opening tenant {c}'s store: {response:?}"));
            }
        }

        let client = Client::new(server.addr());
        reset_peak_rss();
        let t0 = Instant::now();
        let runs: Vec<ClientRun> = std::thread::scope(|s| {
            let handles: Vec<_> = steps
                .iter()
                .enumerate()
                .map(|(c, seq)| {
                    let pool = &pool;
                    let wrong = cfg.inject_wrong && c == 0;
                    s.spawn(move || {
                        drive(c, seq, pool, shape.nodes, wrong, |i, req| {
                            maybe_span(
                                tracer,
                                "serve.client.request",
                                None,
                                request_id(c, i),
                                |_| client.request(req).map_err(|e| e.to_string()),
                            )
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        pass_s.push(secs(t0.elapsed()));
        pass_rss_mb.push(peak_rss_mb());
        for snap in server.scheduler().snapshot() {
            quanta += snap.quanta as f64;
            hits += snap.cache_hits as f64;
            lookups += (snap.cache_hits + snap.cache_misses) as f64;
            rejected += snap.rejected as f64;
        }
        server.shutdown();
        drop(dir);

        for run in &runs {
            attempted += run.latency_us.len() as u64;
            failed += run.failed;
            errors.extend(run.errors.iter().cloned());
        }
        for (c, run) in runs.iter().enumerate() {
            for (step, us) in steps[c].iter().zip(&run.latency_us) {
                let k = KINDS
                    .iter()
                    .position(|(k, _)| *k == step.kind())
                    .expect("known kind");
                latency[k].push(*us);
            }
            entails_done += steps[c].iter().filter(|s| s.kind() == Kind::Entail).count() as f64;
        }

        if let (Some(t), false) = (tracer, replayed) {
            replayed = true;
            let (tried, bad, why) = trace_layers(t, &steps, &pool, &shape, &runs, &mut layers);
            attempted += tried;
            failed += bad;
            errors.extend(why);
        }
        pass += 1;
    }

    let requests: f64 = steps.iter().map(|s| s.len() as f64).sum();
    let mut report = vec![Metric::new(
        "throughput_rps",
        requests * pass_s.len() as f64 / pass_s.iter().sum::<f64>(),
        "1/s",
        "higher",
    )
    .samples(pass_s.len())];
    for (k, (_, name)) in KINDS.iter().enumerate() {
        let samples = &latency[k];
        report.push(
            Metric::new(&format!("{name}_p50_us"), median(samples), "us", "lower")
                .samples(samples.len())
                .percentile(50.0),
        );
        if let Some(t) = tail(samples) {
            report.push(
                Metric::new(&format!("{name}_p99_us"), t.value, "us", "lower")
                    .samples(samples.len())
                    .percentile(t.percentile),
            );
        }
    }
    report.push(Metric::new("requests_per_pass", requests, "count", "none"));
    report.push(Metric::new(
        "entail_pool",
        pool.len() as f64,
        "count",
        "none",
    ));

    if tracer.is_some() {
        layers.set("serve.quanta_per_entail", quanta / entails_done.max(1.0));
        layers.set("serve.tenant_cache.hit_rate", hits / lookups.max(1.0));
        layers.set("serve.rejected", rejected / pass_s.len() as f64);
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

/// Per-layer figures for the first traced pass: wire encoding and
/// decoding of its requests and responses, the in-process scheduler
/// latency of the same sequences (the client latency minus it is the
/// transport), and the knowledge-base streams replayed on the store.
/// Returns the replays' (attempted, failed, errors).
fn trace_layers(
    tracer: &Tracer,
    steps: &[Vec<Step>],
    pool: &[PoolEntry],
    shape: &Shape,
    runs: &[ClientRun],
    layers: &mut Layers,
) -> (u64, u64, Vec<String>) {
    let (mut encode_s, mut decode_s, mut n) = (0.0, 0.0, 0.0);
    for (c, run) in runs.iter().enumerate() {
        for (i, (step, response)) in steps[c].iter().zip(&run.responses).enumerate() {
            let req = request(step, c, pool);
            let id = request_id(c, i);
            let t0 = Instant::now();
            let frames = tracer.span("serve.proto.encode", None, id, |_| {
                (req.to_frame(), response.to_frame())
            });
            encode_s += secs(t0.elapsed());
            let t0 = Instant::now();
            let decoded = tracer.span("serve.proto.decode", None, id, |_| {
                (
                    Request::from_frame(&frames.0),
                    Response::from_frame(&frames.1),
                )
            });
            decode_s += secs(t0.elapsed());
            assert!(
                decoded.0.as_ref() == Ok(&req) && decoded.1.as_ref() == Ok(response),
                "wire round trip changed a frame"
            );
            n += 1.0;
        }
    }
    layers.set("serve.proto.encode_us", encode_s / n * 1e6);
    layers.set("serve.proto.decode_us", decode_s / n * 1e6);

    let in_process = replay_in_process(steps, pool, shape.nodes, tracer);
    let client_us: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.latency_us.iter().copied())
        .collect();
    let sched_us: Vec<f64> = in_process
        .iter()
        .flat_map(|r| r.latency_us.iter().copied())
        .collect();
    layers.set("serve.transport_us", mean(&client_us) - mean(&sched_us));
    let entail_us: Vec<f64> = steps
        .iter()
        .zip(&in_process)
        .flat_map(|(seq, run)| {
            seq.iter()
                .zip(&run.latency_us)
                .filter(|(s, _)| s.kind() == Kind::Entail)
                .map(|(_, us)| *us)
        })
        .collect();
    layers.set("serve.sched.entail_us", mean(&entail_us));

    let mut store = StoreReplay::default();
    for (c, seq) in steps.iter().enumerate() {
        replay_store(c, seq, tracer, &mut store);
    }
    layers.set("store.apply_p50_us", percentile(&store.apply_us, 50.0));
    layers.set("store.apply_p99_us", percentile(&store.apply_us, 99.0));
    layers.set("store.query_us", mean(&store.query_us));
    layers.set(
        "store.rechase_share",
        store.rechases as f64 / store.appends.max(1) as f64,
    );
    layers.set("store.compactions", store.compactions as f64);
    layers.set("store.disk_bytes_per_fact", store.disk_bytes_per_fact);
    layers.set("instance.bytes_per_tuple", store.bytes_per_tuple);

    let attempted = sched_us.len() + store.apply_us.len() + store.query_us.len();
    let mut errors = store.errors;
    let mut failed = store.failed;
    for run in in_process {
        failed += run.failed;
        errors.extend(run.errors);
    }
    (attempted as u64, failed, errors)
}
