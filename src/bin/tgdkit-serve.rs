//! The tgdkit entailment server.
//!
//! ```text
//! tgdkit-serve --listen <addr> [--workers N] [--quantum-ms N] [--data-dir DIR] [--drain-ms N] [--shards N] [--replicas N] [--quorum N]
//! tgdkit-serve --self-test [--levels N] [--smalls N]
//! tgdkit-serve --kb-drive <addr> [--batches N] [--tenant NAME]
//! tgdkit-serve --kb-verify <addr> [--batches N] [--tenant NAME]
//! ```
//!
//! `--listen` starts the multi-tenant scheduler (see `tgdkit-serve`'s
//! crate docs for the wire protocol) and blocks until a client sends a
//! `Shutdown` request; with `--data-dir`, tenants additionally get
//! durable knowledge bases under that directory, recovered
//! crash-consistently on restart. `--self-test` is the CI entry point: it
//! runs one pathological guarded→linear rewrite next to a stream of small
//! entailments from other tenants and fails the process unless
//!
//! - every small request completed with the expected verdict,
//! - small requests kept completing while the rewrite was in flight,
//! - the rewrite was actually time-sliced (suspended and resumed), and
//! - its time-sliced verdict matched a dedicated (unsliced) run.
//!
//! `--kb-drive`/`--kb-verify` are the client halves of the CI
//! kill-and-recover smoke: drive applies chain-edge batches one
//! acknowledged request at a time (the server is SIGKILLed somewhere in
//! the loop), verify checks a restarted server's recovered state against
//! the closed form the acknowledged prefix implies.

use std::process::ExitCode;
use std::time::Duration;

use tgdkit_serve::smoke::{run_kb_drive, run_kb_verify, run_smoke, SmokeConfig};
use tgdkit_serve::{Server, ServerConfig};

const USAGE: &str = "\
tgdkit-serve — multi-tenant entailment service (tgdkit engine)

USAGE:
  tgdkit-serve --listen <addr> [--workers N] [--quantum-ms N] [--data-dir DIR] [--drain-ms N] [--shards N]
                [--replicas N] [--quorum N]
  tgdkit-serve --self-test [--levels N] [--smalls N] [--quantum-ms N] [--workers N]
  tgdkit-serve --kb-drive <addr> [--batches N] [--tenant NAME]
  tgdkit-serve --kb-verify <addr> [--batches N] [--tenant NAME]
";

struct Flags {
    listen: Option<String>,
    self_test: bool,
    kb_drive: Option<String>,
    kb_verify: Option<String>,
    levels: Option<usize>,
    smalls: Option<usize>,
    quantum_ms: Option<u64>,
    workers: Option<usize>,
    data_dir: Option<String>,
    drain_ms: Option<u64>,
    batches: Option<usize>,
    tenant: Option<String>,
    shards: Option<usize>,
    replicas: Option<usize>,
    quorum: Option<usize>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        listen: None,
        self_test: false,
        kb_drive: None,
        kb_verify: None,
        levels: None,
        smalls: None,
        quantum_ms: None,
        workers: None,
        data_dir: None,
        drain_ms: None,
        batches: None,
        tenant: None,
        shards: None,
        replicas: None,
        quorum: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--self-test" => flags.self_test = true,
            "--listen" => flags.listen = Some(value("--listen")?),
            "--kb-drive" => flags.kb_drive = Some(value("--kb-drive")?),
            "--kb-verify" => flags.kb_verify = Some(value("--kb-verify")?),
            "--levels" => flags.levels = Some(parse_num(&value("--levels")?, "--levels")?),
            "--smalls" => flags.smalls = Some(parse_num(&value("--smalls")?, "--smalls")?),
            "--quantum-ms" => {
                flags.quantum_ms = Some(parse_num(&value("--quantum-ms")?, "--quantum-ms")? as u64)
            }
            "--workers" => flags.workers = Some(parse_num(&value("--workers")?, "--workers")?),
            "--data-dir" => flags.data_dir = Some(value("--data-dir")?),
            "--drain-ms" => {
                flags.drain_ms = Some(parse_num(&value("--drain-ms")?, "--drain-ms")? as u64)
            }
            "--batches" => flags.batches = Some(parse_num(&value("--batches")?, "--batches")?),
            "--tenant" => flags.tenant = Some(value("--tenant")?),
            "--shards" => flags.shards = Some(parse_num(&value("--shards")?, "--shards")?),
            "--replicas" => flags.replicas = Some(parse_num(&value("--replicas")?, "--replicas")?),
            "--quorum" => flags.quorum = Some(parse_num(&value("--quorum")?, "--quorum")?),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    let modes = usize::from(flags.self_test)
        + usize::from(flags.listen.is_some())
        + usize::from(flags.kb_drive.is_some())
        + usize::from(flags.kb_verify.is_some());
    if modes != 1 {
        return Err(USAGE.to_string());
    }
    Ok(flags)
}

fn parse_num(text: &str, flag: &str) -> Result<usize, String> {
    text.parse()
        .map_err(|_| format!("{flag} expects a number, got {text:?}"))
}

fn self_test(flags: &Flags) -> Result<String, String> {
    let defaults = SmokeConfig::default();
    let config = SmokeConfig {
        levels: flags.levels.unwrap_or(defaults.levels),
        smalls: flags.smalls.unwrap_or(defaults.smalls),
        quantum: flags
            .quantum_ms
            .map(Duration::from_millis)
            .unwrap_or(defaults.quantum),
        workers: flags.workers.unwrap_or(defaults.workers),
    };
    let report = run_smoke(&config)?;

    let mut out = String::new();
    out.push_str(&format!(
        "requests: {} (1 rewrite + {} smalls)\n",
        report.requests, config.smalls
    ));
    out.push_str(&format!(
        "rewrite: outcome tag {} in {} ms, {} quanta, {} suspensions, matches dedicated: {}\n",
        report.rewrite_outcome,
        report.rewrite_ms,
        report.rewrite_quanta,
        report.rewrite_suspensions,
        report.rewrite_matches_dedicated
    ));
    out.push_str(&format!(
        "smalls: {}/{} correct, {} finished while the rewrite was in flight, p50 {} us, p99 {} us\n",
        report.smalls_correct,
        config.smalls,
        report.smalls_finished_before_rewrite,
        report.small_p50_us(),
        report.small_p99_us()
    ));

    // The acceptance gates. Latency gets a generous absolute bound — CI
    // machines are slow and shared — but the structural properties
    // (sliced ≡ dedicated, smalls made progress during the rewrite,
    // the rewrite really was preempted) are exact.
    let mut failures = Vec::new();
    if report.smalls_correct != config.smalls {
        failures.push(format!(
            "only {}/{} small requests answered correctly",
            report.smalls_correct, config.smalls
        ));
    }
    if !report.rewrite_matches_dedicated {
        failures.push("time-sliced rewrite diverged from the dedicated run".into());
    }
    if report.rewrite_suspensions < 3 {
        failures.push(format!(
            "rewrite was suspended only {} times (expected >= 3: it should be time-sliced repeatedly)",
            report.rewrite_suspensions
        ));
    }
    if report.smalls_finished_before_rewrite == 0 {
        failures.push("no small request completed while the rewrite was in flight".into());
    }
    let latency_bound_us = 100 * config.quantum.as_micros().max(1) as u64;
    if report.small_p99_us() > latency_bound_us {
        failures.push(format!(
            "small p99 {} us exceeds {} us",
            report.small_p99_us(),
            latency_bound_us
        ));
    }
    if failures.is_empty() {
        out.push_str("self-test: PASS\n");
        Ok(out)
    } else {
        Err(format!("{out}self-test: FAIL\n  {}", failures.join("\n  ")))
    }
}

fn listen(flags: &Flags) -> Result<String, String> {
    let defaults = ServerConfig::default();
    let mut scheduler = defaults.scheduler;
    if let Some(workers) = flags.workers {
        scheduler.workers = workers;
    }
    if let Some(quantum_ms) = flags.quantum_ms {
        scheduler.quantum = Duration::from_millis(quantum_ms);
    }
    if let Some(data_dir) = &flags.data_dir {
        scheduler.data_dir = Some(data_dir.into());
    }
    if let Some(drain_ms) = flags.drain_ms {
        scheduler.drain = Duration::from_millis(drain_ms);
    }
    if let Some(shards) = flags.shards {
        // Per-tenant shard count for full KB re-chases; the KB config
        // mirrors it so the knob survives either merge direction.
        scheduler.tenant.shards = shards.max(1);
        scheduler.kb.shards = shards.max(1);
    }
    // N >= 2 gives every tenant a quorum-acknowledged store of N
    // byte-identical replica directories under its data directory.
    let replicas = flags.replicas.unwrap_or(1).max(1);
    scheduler.kb.replicas = replicas;
    if let Some(quorum) = flags.quorum {
        if quorum < 1 || quorum > replicas {
            return Err(format!(
                "--quorum must be between 1 and --replicas ({replicas}), got {quorum}"
            ));
        }
        scheduler.kb.quorum = quorum;
    }
    let server = Server::start(ServerConfig {
        addr: flags.listen.clone().expect("listen mode"),
        scheduler,
    })
    .map_err(|e| format!("cannot listen: {e}"))?;
    println!("tgdkit-serve listening on {}", server.addr());
    // Blocks until a client sends a Shutdown request (or the process is
    // killed); the scheduler drains queued work with error responses.
    server.run_until_shutdown();
    Ok("tgdkit-serve: shut down cleanly\n".into())
}

fn run(args: &[String]) -> Result<String, String> {
    let flags = parse_flags(args)?;
    let tenant = flags.tenant.as_deref().unwrap_or("kb-smoke");
    let batches = flags.batches.unwrap_or(24) as u32;
    if flags.self_test {
        self_test(&flags)
    } else if let Some(addr) = &flags.kb_drive {
        run_kb_drive(addr, tenant, batches)
    } else if let Some(addr) = &flags.kb_verify {
        run_kb_verify(addr, tenant, batches)
    } else {
        listen(&flags)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn usage_on_bad_args() {
        assert!(parse_flags(&[]).is_err());
        assert!(parse_flags(&strings(&["--bogus"])).is_err());
        // --listen and --self-test are mutually exclusive modes.
        assert!(parse_flags(&strings(&["--listen", "127.0.0.1:0", "--self-test"])).is_err());
        assert!(parse_flags(&strings(&["--quantum-ms", "ten", "--self-test"])).is_err());
    }

    #[test]
    fn flags_parse() {
        let flags = parse_flags(&strings(&[
            "--self-test",
            "--levels",
            "2",
            "--smalls",
            "4",
            "--quantum-ms",
            "10",
            "--workers",
            "1",
        ]))
        .unwrap();
        assert!(flags.self_test);
        assert_eq!(flags.levels, Some(2));
        assert_eq!(flags.smalls, Some(4));
        assert_eq!(flags.quantum_ms, Some(10));
        assert_eq!(flags.workers, Some(1));
    }

    #[test]
    fn kb_flags_parse() {
        let flags = parse_flags(&strings(&[
            "--kb-drive",
            "127.0.0.1:7777",
            "--batches",
            "12",
            "--tenant",
            "acme",
        ]))
        .unwrap();
        assert_eq!(flags.kb_drive.as_deref(), Some("127.0.0.1:7777"));
        assert_eq!(flags.batches, Some(12));
        assert_eq!(flags.tenant.as_deref(), Some("acme"));
        // Exactly one mode at a time.
        assert!(parse_flags(&strings(&[
            "--kb-drive",
            "127.0.0.1:7777",
            "--kb-verify",
            "127.0.0.1:7777",
        ]))
        .is_err());
        let flags = parse_flags(&strings(&[
            "--listen",
            "127.0.0.1:0",
            "--data-dir",
            "/tmp/kb",
            "--drain-ms",
            "500",
            "--shards",
            "4",
        ]))
        .unwrap();
        assert_eq!(flags.data_dir.as_deref(), Some("/tmp/kb"));
        assert_eq!(flags.drain_ms, Some(500));
        assert_eq!(flags.shards, Some(4));
    }

    #[test]
    fn replication_flags_parse_and_validate() {
        let flags = parse_flags(&strings(&[
            "--listen",
            "127.0.0.1:0",
            "--data-dir",
            "/tmp/kb",
            "--replicas",
            "3",
            "--quorum",
            "2",
        ]))
        .unwrap();
        assert_eq!(flags.replicas, Some(3));
        assert_eq!(flags.quorum, Some(2));
        // A quorum larger than the replica count can never be met; listen
        // rejects it before binding.
        let flags = parse_flags(&strings(&[
            "--listen",
            "127.0.0.1:0",
            "--replicas",
            "2",
            "--quorum",
            "3",
        ]))
        .unwrap();
        let err = listen(&flags).unwrap_err();
        assert!(err.contains("--quorum"), "{err}");
    }

    #[test]
    fn self_test_passes_on_the_default_shape() {
        let flags = parse_flags(&strings(&["--self-test"])).unwrap();
        let out = self_test(&flags).unwrap_or_else(|e| panic!("self-test failed:\n{e}"));
        assert!(out.contains("self-test: PASS"), "{out}");
    }
}
