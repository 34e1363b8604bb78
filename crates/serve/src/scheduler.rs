//! Preemptive round-robin scheduler over suspendable jobs.
//!
//! The scheduler is deliberately OS-like: each admitted request becomes a
//! [`Job`], each worker thread repeatedly picks the next tenant in a
//! round-robin ring, runs that tenant's front job for one quantum
//! ([`SliceLimit::Wall`]), and either completes it (respond), fails it
//! (byte-budget trip → error response, nobody else affected), or re-queues
//! it behind the tenant's other work. A 2EXPTIME rewrite therefore costs
//! its tenant throughput, never the fleet's: small requests from other
//! tenants are at most one quantum (plus one engine body-group overshoot)
//! away from a worker.
//!
//! Fairness invariant: a tenant is in the ring exactly when it has queued
//! jobs and is not already there; a suspended job goes to the *back* of
//! its tenant's queue and the tenant to the *back* of the ring, so within
//! a tenant requests interleave too (no convoy behind the pathological
//! one).

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tracing::{debug, info, info_span, warn};

use crate::job::{Job, JobOutput, JobStep, SliceLimit};
use crate::proto::{
    Request, Response, TenantSnapshot, WireFact, OUTCOME_CANCELLED, OUTCOME_INCONCLUSIVE,
    OUTCOME_NOT_REWRITABLE, OUTCOME_REWRITTEN,
};
use crate::tenant::{KbSlot, TenantConfig, TenantState};
use tgdkit_core::rewrite::RewriteOutcome;
use tgdkit_instance::{Elem, Fact};
use tgdkit_logic::{parse_program, Schema, TgdSet};
use tgdkit_store::{DurableKb, KbConfig};

/// Scheduler tuning.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Worker threads running slices.
    pub workers: usize,
    /// Wall-clock quantum per slice; the engine overshoots by at most one
    /// body group past it before suspending.
    pub quantum: Duration,
    /// Limits applied to every tenant.
    pub tenant: TenantConfig,
    /// Directory holding per-tenant durable knowledge bases. `None` (the
    /// default) disables KB requests — they answer with an error — so
    /// purely computational deployments never touch the filesystem.
    pub data_dir: Option<PathBuf>,
    /// Tuning applied to every tenant knowledge base.
    pub kb: KbConfig,
    /// Graceful-shutdown bound: how long a wire-level `Shutdown` waits
    /// for in-flight jobs to drain before abandoning them with error
    /// responses. Tenant WALs are flushed either way.
    pub drain: Duration,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            workers: 2,
            quantum: Duration::from_millis(25),
            tenant: TenantConfig::default(),
            data_dir: None,
            kb: KbConfig::default(),
            drain: Duration::from_secs(2),
        }
    }
}

/// What [`Scheduler::shutdown_graceful`] accomplished before stopping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// `true` when every in-flight job completed within the deadline.
    pub drained: bool,
    /// Jobs still in flight at the deadline (answered with errors).
    pub abandoned_jobs: usize,
    /// Open tenant WALs that were fsynced.
    pub flushed_wals: usize,
}

/// A job waiting in (or between) queues, with the channel its response
/// goes out on.
struct Pending {
    tenant: String,
    job: Job,
    responder: Sender<Response>,
}

struct SchedState {
    tenants: HashMap<String, TenantState>,
    jobs: HashMap<u64, Pending>,
    /// Tenants with queued jobs, in round-robin order.
    ring: VecDeque<String>,
    next_id: u64,
    /// Draining: admission rejects, but workers keep running in-flight
    /// jobs to completion (the graceful-shutdown window).
    draining: bool,
    shutdown: bool,
}

impl SchedState {
    /// Ring maintenance: add `tenant` iff it has queued work and is absent.
    fn ring_add(&mut self, tenant: &str) {
        let queued = self
            .tenants
            .get(tenant)
            .is_some_and(|t| !t.queue.is_empty());
        if queued && !self.ring.iter().any(|n| n == tenant) {
            self.ring.push_back(tenant.to_string());
        }
    }
}

struct Shared {
    state: Mutex<SchedState>,
    work: Condvar,
}

/// The multi-tenant scheduler: admission, queues, and worker threads.
pub struct Scheduler {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    config: SchedulerConfig,
}

impl Scheduler {
    /// Starts `config.workers` worker threads.
    pub fn new(config: SchedulerConfig) -> Arc<Scheduler> {
        let shared = Arc::new(Shared {
            state: Mutex::new(SchedState {
                tenants: HashMap::new(),
                jobs: HashMap::new(),
                ring: VecDeque::new(),
                next_id: 0,
                draining: false,
                shutdown: false,
            }),
            work: Condvar::new(),
        });
        let worker_count = config.workers.max(1);
        let quantum = config.quantum;
        let scheduler = Arc::new(Scheduler {
            shared: shared.clone(),
            workers: Mutex::new(Vec::new()),
            config,
        });
        let mut workers = scheduler.workers.lock().expect("fresh lock");
        for i in 0..worker_count {
            let shared = shared.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("tgdkit-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, quantum))
                    .expect("spawn worker"),
            );
        }
        drop(workers);
        scheduler
    }

    /// Admission control + enqueue. Always returns a receiver that will
    /// yield exactly one [`Response`] — rejections and parse failures are
    /// delivered through it as error responses, so the connection path has
    /// a single shape.
    pub fn submit(&self, request: Request) -> Receiver<Response> {
        let span = info_span!("submit");
        let _guard = span.enter();
        let (tx, rx) = channel();
        match &request {
            Request::Stats => {
                let _ = tx.send(Response::Stats {
                    tenants: self.snapshot(),
                });
                return rx;
            }
            Request::Shutdown => {
                let report = self.shutdown_graceful(self.config.drain);
                info!(
                    "graceful shutdown: drained={} abandoned={} wals_flushed={}",
                    report.drained, report.abandoned_jobs, report.flushed_wals
                );
                let _ = tx.send(Response::Ok);
                return rx;
            }
            Request::KbApply { .. } | Request::KbQuery { .. } => {
                let _ = tx.send(self.handle_kb(&request));
                return rx;
            }
            Request::Entail { tenant, .. }
            | Request::Batch { tenant, .. }
            | Request::Rewrite { tenant, .. } => {
                let tenant = tenant.clone();
                let job = match Job::build(&request) {
                    Ok(job) => job,
                    Err(message) => {
                        let mut state = self.shared.state.lock().expect("sched lock");
                        state
                            .tenants
                            .entry(tenant.clone())
                            .or_insert_with(|| TenantState::new(&tenant, &self.config.tenant))
                            .rejected += 1;
                        let _ = tx.send(Response::Error { message });
                        return rx;
                    }
                };
                let mut state = self.shared.state.lock().expect("sched lock");
                if state.shutdown || state.draining {
                    let _ = tx.send(Response::Error {
                        message: "server is shutting down".into(),
                    });
                    return rx;
                }
                let max_depth = self.config.tenant.max_queue_depth;
                let entry = state
                    .tenants
                    .entry(tenant.clone())
                    .or_insert_with(|| TenantState::new(&tenant, &self.config.tenant));
                if entry.queue.len() >= max_depth {
                    entry.rejected += 1;
                    warn!("tenant {tenant}: queue full, rejecting");
                    let _ = tx.send(Response::Error {
                        message: format!(
                            "admission denied: tenant queue depth {max_depth} reached"
                        ),
                    });
                    return rx;
                }
                if entry.accountant.tripped() {
                    entry.rejected += 1;
                    warn!("tenant {tenant}: byte budget exhausted, rejecting");
                    let _ = tx.send(Response::Error {
                        message: "admission denied: tenant byte budget exhausted".into(),
                    });
                    return rx;
                }
                entry.admitted += 1;
                let id = state.next_id;
                state.next_id += 1;
                state
                    .tenants
                    .get_mut(&tenant)
                    .expect("tenant just touched")
                    .queue
                    .push_back(id);
                state.jobs.insert(
                    id,
                    Pending {
                        tenant: tenant.clone(),
                        job,
                        responder: tx,
                    },
                );
                state.ring_add(&tenant);
                debug!("tenant {tenant}: admitted job {id}");
                drop(state);
                self.shared.work.notify_one();
            }
        }
        rx
    }

    /// Per-tenant counters, in tenant-name order (deterministic output).
    pub fn snapshot(&self) -> Vec<TenantSnapshot> {
        let state = self.shared.state.lock().expect("sched lock");
        let mut snaps: Vec<TenantSnapshot> =
            state.tenants.values().map(TenantState::snapshot).collect();
        snaps.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        snaps
    }

    /// Handles a KB request on the caller's thread (the per-connection
    /// thread, not a worker): KB operations are budget-bounded folds, not
    /// sliceable chases, and serializing them on the tenant's KB mutex
    /// gives each tenant a single durable timeline without occupying a
    /// scheduler worker.
    fn handle_kb(&self, request: &Request) -> Response {
        let (tenant_name, program) = match request {
            Request::KbApply {
                tenant, program, ..
            }
            | Request::KbQuery {
                tenant, program, ..
            } => (tenant.as_str(), program.as_str()),
            _ => unreachable!("handle_kb is only called for KB requests"),
        };
        let Some(data_dir) = self.config.data_dir.clone() else {
            return self.kb_reject(
                tenant_name,
                "knowledge-base requests are disabled (server has no data dir)".into(),
            );
        };
        let set = match parse_kb_program(program) {
            Ok(set) => set,
            Err(message) => return self.kb_reject(tenant_name, message),
        };
        let slot: KbSlot = {
            let mut state = self.shared.state.lock().expect("sched lock");
            if state.shutdown || state.draining {
                return Response::Error {
                    message: "server is shutting down".into(),
                };
            }
            let entry = state
                .tenants
                .entry(tenant_name.to_string())
                .or_insert_with(|| TenantState::new(tenant_name, &self.config.tenant));
            entry.admitted += 1;
            entry.kb.clone()
        };
        // KB mutations are transactional (memory commits only after the
        // WAL frame is durable), so a poisoned slot holds consistent
        // state: heal it rather than wedging the tenant forever.
        let mut guard = slot.lock().unwrap_or_else(|e| e.into_inner());
        if guard.is_none() {
            let dir = data_dir.join(tenant_dir_name(tenant_name));
            // The tenant's shard knob and the KB config's own both
            // apply; whichever asks for more wins (both default to 1).
            let kb_config = KbConfig {
                shards: self.config.kb.shards.max(self.config.tenant.shards).max(1),
                ..self.config.kb
            };
            match DurableKb::open(&dir, &set, kb_config) {
                Ok((kb, report)) => {
                    info!(
                        "tenant {tenant_name}: kb opened (gen {} seq {} replayed {} truncated {} fresh {} replicas {})",
                        report.generation,
                        report.seq,
                        report.replayed_batches,
                        report.truncated_frames,
                        report.fresh,
                        kb_config.replicas
                    );
                    *guard = Some(kb);
                }
                Err(e) => {
                    return self.kb_fail(tenant_name, format!("knowledge-base open failed: {e}"))
                }
            }
        }
        let kb = guard.as_mut().expect("slot filled above");
        if kb.sigma_fingerprint() != tgdkit_chase::checkpoint::tgds_fingerprint(set.tgds()) {
            return self.kb_fail(
                tenant_name,
                "ontology does not match the tenant's knowledge base".into(),
            );
        }
        let response = match request {
            Request::KbApply {
                inserts, retracts, ..
            } => {
                let (inserts, retracts) = match (
                    resolve_facts(kb.schema(), inserts),
                    resolve_facts(kb.schema(), retracts),
                ) {
                    (Ok(i), Ok(r)) => (i, r),
                    (Err(message), _) | (_, Err(message)) => {
                        return self.kb_fail(tenant_name, message)
                    }
                };
                match kb.apply(&inserts, &retracts) {
                    Ok(report) => Response::Kb {
                        seq: kb.seq(),
                        generation: kb.generation(),
                        fact_count: report.fact_count as u64,
                        rechased: report.rechased,
                        compacted: report.compacted,
                        holds: Vec::new(),
                    },
                    Err(e) => {
                        return self
                            .kb_fail(tenant_name, format!("knowledge-base apply failed: {e}"))
                    }
                }
            }
            Request::KbQuery { facts, .. } => {
                let facts = match resolve_facts(kb.schema(), facts) {
                    Ok(f) => f,
                    Err(message) => return self.kb_fail(tenant_name, message),
                };
                Response::Kb {
                    seq: kb.seq(),
                    generation: kb.generation(),
                    fact_count: kb.chased().fact_count() as u64,
                    rechased: false,
                    compacted: false,
                    holds: facts.iter().map(|f| kb.holds(f.pred, &f.args)).collect(),
                }
            }
            _ => unreachable!("handle_kb is only called for KB requests"),
        };
        drop(guard);
        self.bump(tenant_name, |t| t.completed += 1);
        response
    }

    /// Counts a KB request rejected before touching the store.
    fn kb_reject(&self, tenant: &str, message: String) -> Response {
        self.bump(tenant, |t| t.rejected += 1);
        Response::Error { message }
    }

    /// Counts a KB request that was admitted but failed.
    fn kb_fail(&self, tenant: &str, message: String) -> Response {
        warn!("tenant {tenant}: kb request failed: {message}");
        self.bump(tenant, |t| t.completed += 1);
        Response::Error { message }
    }

    fn bump(&self, tenant: &str, update: impl FnOnce(&mut TenantState)) {
        let mut state = self.shared.state.lock().expect("sched lock");
        let entry = state
            .tenants
            .entry(tenant.to_string())
            .or_insert_with(|| TenantState::new(tenant, &self.config.tenant));
        update(entry);
    }

    /// Graceful shutdown: stop admitting, let in-flight jobs run to
    /// completion for up to `deadline`, fsync every open tenant WAL, then
    /// hard-stop (jobs still in flight get error responses). Durable
    /// acknowledgements are never at risk either way — the WAL syncs per
    /// append — so the flush is a belt-and-braces barrier and the drain
    /// is purely about answering in-flight work instead of erroring it.
    pub fn shutdown_graceful(&self, deadline: Duration) -> DrainReport {
        let started = Instant::now();
        {
            let mut state = self.shared.state.lock().expect("sched lock");
            if state.shutdown {
                return DrainReport {
                    drained: true,
                    abandoned_jobs: 0,
                    flushed_wals: 0,
                };
            }
            state.draining = true;
        }
        self.shared.work.notify_all();
        let abandoned_jobs = loop {
            let state = self.shared.state.lock().expect("sched lock");
            if state.jobs.is_empty() {
                break 0;
            }
            if started.elapsed() >= deadline {
                break state.jobs.len();
            }
            drop(state);
            std::thread::sleep(Duration::from_millis(2));
        };
        let slots: Vec<KbSlot> = {
            let state = self.shared.state.lock().expect("sched lock");
            state.tenants.values().map(|t| t.kb.clone()).collect()
        };
        let mut flushed_wals = 0;
        for slot in slots {
            let mut guard = slot.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(kb) = guard.as_mut() {
                if kb.flush().is_ok() {
                    flushed_wals += 1;
                }
            }
        }
        self.shutdown();
        DrainReport {
            drained: abandoned_jobs == 0,
            abandoned_jobs,
            flushed_wals,
        }
    }

    /// Signals shutdown and wakes every worker. Queued jobs are answered
    /// with an error response; running slices finish their quantum.
    pub fn shutdown(&self) {
        let mut state = self.shared.state.lock().expect("sched lock");
        if state.shutdown {
            return;
        }
        state.shutdown = true;
        for (_, pending) in state.jobs.drain() {
            let _ = pending.responder.send(Response::Error {
                message: "server is shutting down".into(),
            });
        }
        state.ring.clear();
        for tenant in state.tenants.values_mut() {
            tenant.queue.clear();
        }
        drop(state);
        self.shared.work.notify_all();
        info!("scheduler shutdown requested");
    }

    /// Joins the worker threads (after [`Scheduler::shutdown`]).
    pub fn join(&self) {
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.workers.lock().expect("worker list"));
        for h in handles {
            let _ = h.join();
        }
    }
}

/// Parses and validates a KB request's ontology text.
fn parse_kb_program(program: &str) -> Result<TgdSet, String> {
    let parsed = parse_program(program).map_err(|e| format!("ontology parse error: {e}"))?;
    let tgds = parsed.tgds();
    if tgds.is_empty() {
        return Err("ontology has no tgds".into());
    }
    TgdSet::new(parsed.schema, tgds).map_err(|e| format!("invalid ontology: {e}"))
}

/// Resolves wire facts against the knowledge base's schema, validating
/// predicate names and arities (the instance layer asserts arity, so this
/// is the boundary where a hostile frame must be caught).
fn resolve_facts(schema: &Schema, facts: &[WireFact]) -> Result<Vec<Fact>, String> {
    facts
        .iter()
        .map(|f| {
            let pred = schema
                .pred_id(&f.pred)
                .ok_or_else(|| format!("unknown predicate {:?}", f.pred))?;
            let arity = schema.arity(pred);
            if f.args.len() != arity {
                return Err(format!(
                    "predicate {:?} has arity {arity}, got {} arguments",
                    f.pred,
                    f.args.len()
                ));
            }
            Ok(Fact::new(pred, f.args.iter().map(|&a| Elem(a)).collect()))
        })
        .collect()
}

/// A filesystem-safe directory name for a tenant: a sanitized prefix for
/// readability plus an FNV-1a hash of the raw name so distinct tenants
/// never collide after sanitization.
fn tenant_dir_name(tenant: &str) -> String {
    let mut safe: String = tenant
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .take(40)
        .collect();
    if safe.is_empty() {
        safe.push('t');
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in tenant.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{safe}-{h:016x}")
}

/// The wire tag for a final rewrite outcome.
///
/// # Panics
/// Panics on [`RewriteOutcome::Suspended`] — suspension is scheduler
/// state, never a response.
pub fn outcome_tag(outcome: &RewriteOutcome) -> u8 {
    match outcome {
        RewriteOutcome::Rewritten(_) => OUTCOME_REWRITTEN,
        RewriteOutcome::NotRewritable => OUTCOME_NOT_REWRITABLE,
        RewriteOutcome::Inconclusive => OUTCOME_INCONCLUSIVE,
        RewriteOutcome::Cancelled => OUTCOME_CANCELLED,
        RewriteOutcome::Suspended => panic!("suspended is not a final outcome"),
    }
}

/// Builds the response for a finished job.
fn respond_done(output: JobOutput, stats: crate::proto::WireStats) -> Response {
    match output {
        JobOutput::Verdicts(verdicts) => Response::Verdicts { verdicts, stats },
        JobOutput::Rewrite { outcome, rewritten } => Response::Rewrite {
            outcome: outcome_tag(&outcome),
            rewritten,
            stats,
        },
    }
}

fn worker_loop(shared: &Shared, quantum: Duration) {
    let span = info_span!("worker");
    let _guard = span.enter();
    loop {
        // Pick the next (tenant, job) under the lock.
        let (id, mut pending, cache) = {
            let mut state = shared.state.lock().expect("sched lock");
            loop {
                if state.shutdown {
                    return;
                }
                if let Some(tenant_name) = state.ring.pop_front() {
                    let tenant = state
                        .tenants
                        .get_mut(&tenant_name)
                        .expect("ring tenants exist");
                    let id = tenant.queue.pop_front().expect("ring tenants have work");
                    tenant.quanta += 1;
                    let cache = tenant.cache.clone();
                    state.ring_add(&tenant_name);
                    let pending = state.jobs.remove(&id).expect("queued job exists");
                    break (id, pending, cache);
                }
                state = shared.work.wait(state).expect("sched lock");
            }
        };

        // Run one quantum with the lock released: other workers keep
        // scheduling while this slice executes.
        let step = pending.job.run_slice(&cache, SliceLimit::Wall(quantum));

        let mut state = shared.state.lock().expect("sched lock");
        if state.shutdown {
            let _ = pending.responder.send(Response::Error {
                message: "server is shutting down".into(),
            });
            return;
        }
        let tenant_name = pending.tenant.clone();
        let tenant = state
            .tenants
            .get_mut(&tenant_name)
            .expect("tenant outlives its jobs");
        match step {
            JobStep::Suspended => {
                tenant.suspensions += 1;
                debug!(
                    "tenant {tenant_name}: job {id} suspended (quantum {})",
                    pending.job.stats.quanta
                );
                tenant.queue.push_back(id);
                state.jobs.insert(id, pending);
                state.ring_add(&tenant_name);
                drop(state);
                shared.work.notify_one();
            }
            JobStep::Done(output) => {
                tenant.completed += 1;
                tenant
                    .accountant
                    .charge_to(pending.job.stats.mem_peak_bytes as usize);
                info!(
                    "tenant {tenant_name}: job {id} done after {} quanta / {} suspensions",
                    pending.job.stats.quanta, pending.job.stats.suspensions
                );
                let stats = pending.job.stats;
                drop(state);
                let _ = pending.responder.send(respond_done(output, stats));
            }
            JobStep::MemExceeded => {
                tenant.completed += 1;
                tenant
                    .accountant
                    .charge_to(pending.job.stats.mem_peak_bytes as usize);
                warn!("tenant {tenant_name}: job {id} tripped its byte budget");
                let peak = pending.job.stats.mem_peak_bytes;
                drop(state);
                let _ = pending.responder.send(Response::Error {
                    message: format!(
                        "memory budget exceeded (peak {peak} bytes); resubmit with a larger max_bytes"
                    ),
                });
            }
            JobStep::Failed(message) => {
                tenant.completed += 1;
                warn!("tenant {tenant_name}: job {id} failed: {message}");
                drop(state);
                let _ = pending.responder.send(Response::Error { message });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tgdkit_chase::ChaseBudget;
    use tgdkit_chase::Entailment;

    fn entail(tenant: &str, candidate: &str) -> Request {
        Request::Entail {
            tenant: tenant.into(),
            budget: ChaseBudget::default(),
            program: "R(x0, x1) -> S(x1). S(x0) -> T(x0).".into(),
            candidate: candidate.into(),
        }
    }

    #[test]
    fn scheduler_answers_requests_across_tenants() {
        let sched = Scheduler::new(SchedulerConfig::default());
        let rx_a = sched.submit(entail("a", "R(x0, x1) -> T(x1)."));
        let rx_b = sched.submit(entail("b", "S(x0) -> R(x0, x0)."));
        match rx_a.recv().expect("response a") {
            Response::Verdicts { verdicts, stats } => {
                assert_eq!(verdicts, vec![Entailment::Proved]);
                assert!(stats.quanta >= 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        match rx_b.recv().expect("response b") {
            Response::Verdicts { verdicts, .. } => {
                assert_eq!(verdicts, vec![Entailment::Disproved])
            }
            other => panic!("unexpected {other:?}"),
        }
        let snaps = sched.snapshot();
        assert_eq!(snaps.len(), 2);
        assert!(snaps.iter().all(|s| s.admitted == 1 && s.completed == 1));
        sched.shutdown();
        sched.join();
    }

    #[test]
    fn parse_errors_are_error_responses() {
        let sched = Scheduler::new(SchedulerConfig::default());
        let rx = sched.submit(entail("a", "nonsense"));
        match rx.recv().expect("response") {
            Response::Error { message } => assert!(message.contains("parse error"), "{message}"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(sched.snapshot()[0].rejected, 1);
        sched.shutdown();
        sched.join();
    }

    #[test]
    fn queue_depth_admission_rejects_the_overflow() {
        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            tenant: TenantConfig {
                max_queue_depth: 1,
                ..TenantConfig::default()
            },
            ..SchedulerConfig::default()
        });
        // Burst faster than one worker drains: at least one rejection is
        // not guaranteed deterministically, so assert on the bookkeeping
        // instead — every submission is either admitted or rejected.
        let receivers: Vec<_> = (0..8)
            .map(|_| sched.submit(entail("a", "R(x0, x1) -> T(x1).")))
            .collect();
        let mut errors = 0;
        for rx in receivers {
            if let Response::Error { message } = rx.recv().expect("response") {
                assert!(message.contains("admission denied"), "{message}");
                errors += 1;
            }
        }
        let snap = &sched.snapshot()[0];
        assert_eq!(snap.admitted + snap.rejected, 8);
        assert_eq!(snap.rejected, errors);
        sched.shutdown();
        sched.join();
    }

    #[test]
    fn tenant_byte_cap_blocks_only_that_tenant() {
        let sched = Scheduler::new(SchedulerConfig {
            tenant: TenantConfig {
                max_bytes: 1,
                ..TenantConfig::default()
            },
            ..SchedulerConfig::default()
        });
        // A guarded Σ (two-atom body) so the chase actually runs — an
        // all-linear Σ settles via the saturation fast path with zero
        // observed bytes and would never charge the tenant accountant.
        let guarded = |tenant: &str| Request::Entail {
            tenant: tenant.into(),
            budget: ChaseBudget::default(),
            program: "R(x0, x1) -> S(x1). S(x0), R(x0, x1) -> T(x1).".into(),
            candidate: "R(x0, x1) -> S(x1).".into(),
        };
        // First request completes and charges its peak (> 1 byte) to the
        // tenant accountant.
        let rx = sched.submit(guarded("greedy"));
        match rx.recv().expect("response") {
            Response::Verdicts { verdicts, stats } => {
                assert_eq!(verdicts, vec![Entailment::Proved]);
                assert!(stats.mem_peak_bytes > 1, "chase observed no memory");
            }
            other => panic!("unexpected {other:?}"),
        }
        // The accountant is now tripped: the tenant's next request is
        // rejected at admission...
        let rx = sched.submit(guarded("greedy"));
        match rx.recv().expect("response") {
            Response::Error { message } => {
                assert!(message.contains("byte budget exhausted"), "{message}")
            }
            other => panic!("unexpected {other:?}"),
        }
        // ...while another tenant sails through with the same workload
        // (its own accountant also trips *after* completion, but the
        // verdict is unperturbed).
        let rx = sched.submit(guarded("other"));
        match rx.recv().expect("response") {
            Response::Verdicts { verdicts, .. } => {
                assert_eq!(verdicts, vec![Entailment::Proved])
            }
            other => panic!("unexpected {other:?}"),
        }
        sched.shutdown();
        sched.join();
    }

    #[test]
    fn stats_and_shutdown_requests_answer_inline() {
        let sched = Scheduler::new(SchedulerConfig::default());
        let rx = sched.submit(Request::Stats);
        assert!(matches!(rx.recv().expect("stats"), Response::Stats { .. }));
        let rx = sched.submit(Request::Shutdown);
        assert!(matches!(rx.recv().expect("ok"), Response::Ok));
        sched.join();
        // Post-shutdown submissions fail cleanly.
        let rx = sched.submit(entail("a", "R(x0, x1) -> T(x1)."));
        assert!(matches!(rx.recv().expect("late"), Response::Error { .. }));
    }
}
