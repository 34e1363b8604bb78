//! The tgdkit benchmark: one command, three named workloads.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <rewrite|chase-tc|serve-mixed> --seed <n> --seconds <s> --trace <0|1> [--small]
//! ```
//!
//! Every input is generated from `--seed`; the program under test sees
//! only those inputs. Each workload repeats a fixed *pass* of work for
//! `--seconds` seconds and checks every output against an independent
//! oracle. The second-to-last stdout line is a report naming every metric
//! with its unit and better direction (plus the workload's own figures and
//! sample counts); the last line is the summary object
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! `--trace 0` measures the end-to-end metrics untraced. `--trace 1` spends
//! half the time untraced and half traced, reports the per-layer metrics
//! from the traced half, reports the tracing overhead (traced minus
//! untraced) of every end-to-end metric, and writes the spans to
//! `benchmark/out/`. `--small` shrinks every workload for the benchmark's
//! own tests; `--inject-wrong` forges one answer so a test can see the
//! oracle reject it.

mod chase_tc;
mod rewrite;
mod serve_mixed;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use stats::{median, min};
use trace::Tracer;

/// Where spans and the serve workload's temporary data directories go:
/// inside the benchmark's own directory (git-ignored), never elsewhere in
/// the working tree.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// How often the rewrite and chase-tc workloads repeat their set-up
/// before each pass. `setup_s` is the median over all of them, so like
/// `pass_s` it samples the machine across the whole run rather than in
/// one instant.
const SETUP_REPEATS: usize = 20;

/// Runs `setup` [`SETUP_REPEATS`] times in a span named `name`, records
/// each duration in `setup_s`, and returns the last result.
pub fn repeated_setup<T>(
    setup_s: &mut Vec<f64>,
    tracer: Option<&Tracer>,
    name: &'static str,
    mut setup: impl FnMut() -> T,
) -> T {
    let mut out = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = std::time::Instant::now();
        out = Some(trace::maybe_span(tracer, name, None, 0, |_| setup()));
        setup_s.push(stats::secs(t0.elapsed()));
    }
    out.expect("SETUP_REPEATS is positive")
}

/// What the workloads take from the command line.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    pub small: bool,
    pub inject_wrong: bool,
}

/// A reported figure: name, value, unit, better direction, and the number
/// of samples it summarizes when it is an order statistic.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub better: &'static str,
    pub samples: Option<usize>,
    pub percentile: Option<f64>,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, better: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            better,
            samples: None,
            percentile: None,
        }
    }

    pub fn samples(mut self, n: usize) -> Metric {
        self.samples = Some(n);
        self
    }

    pub fn percentile(mut self, p: f64) -> Metric {
        self.percentile = Some(p);
        self
    }

    fn json(&self) -> String {
        let mut s = format!(
            "{{\"name\":\"{}\",\"value\":{},\"unit\":\"{}\",\"better\":\"{}\"",
            self.name,
            num(self.value),
            self.unit,
            self.better
        );
        if let Some(n) = self.samples {
            s.push_str(&format!(",\"samples\":{n}"));
        }
        if let Some(p) = self.percentile {
            s.push_str(&format!(",\"percentile\":{}", num(p)));
        }
        s.push('}');
        s
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Per-layer figures a workload measured in its traced half, by name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Records `name`, which must be one of [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _, _)| *n == name),
            "undeclared per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// What one untraced or traced stretch of a workload produced.
pub struct Measured {
    /// Seconds of each repeated set-up.
    pub setup_s: Vec<f64>,
    /// Seconds of each pass's measured work.
    pub pass_s: Vec<f64>,
    /// Resident-set peak of each pass, MB.
    pub pass_rss_mb: Vec<f64>,
    /// Operations attempted (decisions, chases, or requests).
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// What the oracle or the program reported for each failure.
    pub errors: Vec<String>,
    /// The workload's own end-to-end figures.
    pub report: Vec<Metric>,
    /// Per-layer figures (traced stretches only).
    pub layers: Layers,
}

/// Per-layer metrics of the traced run (name, unit, better). A workload
/// that does not call into a layer reports 0 for its figures.
const PER_LAYER: [(&str, &str, &str); 35] = [
    ("core.enumerate.self_s", "s", "lower"),
    ("core.enumerate.candidates", "count", "lower"),
    ("core.evaluate.self_s", "s", "lower"),
    ("core.evaluate.bodies_chased", "count", "lower"),
    ("core.verify.self_s", "s", "lower"),
    ("core.minimize.self_s", "s", "lower"),
    ("core.minimize.checks", "count", "lower"),
    ("chase.cache.hit_rate", "ratio", "higher"),
    ("chase.search_s", "s", "lower"),
    ("chase.apply_s", "s", "lower"),
    ("chase.rounds", "count", "lower"),
    ("chase.triggers_found", "count", "lower"),
    ("chase.triggers_fired", "count", "lower"),
    ("chase.fire_ratio", "ratio", "higher"),
    ("instance.bytes_per_tuple", "bytes", "lower"),
    ("hom.plans_built", "count", "lower"),
    ("hom.plan_cache_hits", "count", "higher"),
    ("hom.hash_joins", "count", "lower"),
    ("hom.nested_loop_joins", "count", "lower"),
    ("serve.proto.encode_us", "us", "lower"),
    ("serve.proto.decode_us", "us", "lower"),
    ("serve.transport_us", "us", "lower"),
    ("serve.sched.entail_us", "us", "lower"),
    ("serve.quanta_per_entail", "count", "lower"),
    ("serve.tenant_cache.hit_rate", "ratio", "higher"),
    ("serve.rejected", "count", "lower"),
    ("store.apply_p50_us", "us", "lower"),
    ("store.apply_p99_us", "us", "lower"),
    ("store.query_us", "us", "lower"),
    ("store.rechase_share", "ratio", "lower"),
    ("store.compactions", "count", "lower"),
    ("store.disk_bytes_per_fact", "bytes", "lower"),
    ("trace.overhead.pass_s", "s", "lower"),
    ("trace.overhead.peak_rss_mb", "MB", "lower"),
    ("trace.overhead.setup_s", "s", "lower"),
];

const WORKLOADS: [&str; 3] = ["rewrite", "chase-tc", "serve-mixed"];

struct Args {
    workload: String,
    seconds: u64,
    trace: bool,
    cfg: Config,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seconds: 10,
        trace: false,
        cfg: Config {
            seed: 0,
            small: false,
            inject_wrong: false,
        },
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.cfg.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--small" => args.cfg.small = true,
            "--inject-wrong" => args.cfg.inject_wrong = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, not {:?}",
            args.workload
        ));
    }
    Ok(args)
}

fn run_workload(name: &str, cfg: &Config, budget: Duration, tracer: Option<&Tracer>) -> Measured {
    match name {
        "rewrite" => rewrite::run(cfg, budget, tracer),
        "chase-tc" => chase_tc::run(cfg, budget, tracer),
        "serve-mixed" => serve_mixed::run(cfg, budget, tracer),
        _ => unreachable!("workload names are validated by parse_args"),
    }
}

/// The end-to-end metrics of one measured stretch, the three every
/// workload reports.
fn end_to_end(m: &Measured) -> Vec<Metric> {
    vec![
        Metric::new("pass_s", median(&m.pass_s), "s", "lower").samples(m.pass_s.len()),
        // The lowest per-pass peak: later passes of a long-lived process
        // add allocator retention that varies from run to run, which the
        // per-pass samples in the report line still show.
        Metric::new("peak_rss_mb", min(&m.pass_rss_mb), "MB", "lower").samples(m.pass_rss_mb.len()),
        Metric::new("setup_s", median(&m.setup_s), "s", "lower").samples(m.setup_s.len()),
    ]
}

fn json_list(metrics: &[Metric]) -> String {
    let items: Vec<String> = metrics.iter().map(Metric::json).collect();
    format!("[{}]", items.join(","))
}

fn json_str(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tgdkit-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = &args.cfg;
    let seconds = Duration::from_secs(args.seconds);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let untraced_budget = if args.trace { seconds / 2 } else { seconds };
    let untraced = run_workload(&args.workload, cfg, untraced_budget, None);
    let untraced_e2e = end_to_end(&untraced);

    let mut report = format!(
        "{{\"report\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"small\":{},\"cores\":{cores},\"end_to_end\":{},\"workload_metrics\":{},\"pass_samples_s\":[{}],\"pass_rss_samples_mb\":[{}]",
        json_str(&args.workload),
        cfg.seed,
        args.seconds,
        u8::from(args.trace),
        cfg.small,
        json_list(&untraced_e2e),
        json_list(&untraced.report),
        untraced.pass_s.iter().map(|v| num(*v)).collect::<Vec<_>>().join(","),
        untraced.pass_rss_mb.iter().map(|v| num(*v)).collect::<Vec<_>>().join(","),
    );
    let mut attempted = untraced.attempted;
    let mut failed = untraced.failed;
    let mut errors = untraced.errors.clone();
    let metrics: Vec<(String, f64, &str)> = if args.trace {
        tgdkit_hom::reset_plan_stats();
        tgdkit_hom::reset_join_stats();
        let tracer = Tracer::new();
        let traced = run_workload(&args.workload, cfg, seconds / 2, Some(&tracer));
        let traced_e2e = end_to_end(&traced);
        attempted += traced.attempted;
        failed += traced.failed;
        errors.extend(traced.errors.iter().cloned());

        let mut layers = traced.layers;
        let passes = traced.pass_s.len() as f64;
        let plans = tgdkit_hom::plan_stats();
        let joins = tgdkit_hom::join_stats();
        layers.set("hom.plans_built", plans.plans_built as f64 / passes);
        layers.set("hom.plan_cache_hits", joins.plan_cache_hits as f64 / passes);
        layers.set("hom.hash_joins", joins.hash_joins as f64 / passes);
        layers.set(
            "hom.nested_loop_joins",
            joins.nested_loop_joins as f64 / passes,
        );
        let overhead = |i: usize| traced_e2e[i].value - untraced_e2e[i].value;
        layers.set("trace.overhead.pass_s", overhead(0));
        layers.set("trace.overhead.peak_rss_mb", overhead(1));
        layers.set("trace.overhead.setup_s", overhead(2));
        // Tracing overhead of every end-to-end figure, the three shared
        // metrics and the workload's own: traced minus untraced.
        let diffs: Vec<Metric> = untraced_e2e
            .iter()
            .zip(&traced_e2e)
            .chain(untraced.report.iter().zip(&traced.report))
            .filter(|(u, t)| u.name == t.name && u.unit != "count")
            .map(|(u, t)| Metric::new(&u.name, t.value - u.value, u.unit, "lower"))
            .collect();
        let path = out_dir().join(format!("trace-{}-seed{}.jsonl", args.workload, cfg.seed));
        let spans_written = tracer.write_jsonl(&path).is_ok();
        report.push_str(&format!(
            ",\"traced_end_to_end\":{},\"traced_workload_metrics\":{},\"tracing_overhead\":{},\"spans\":{},\"spans_written\":{}",
            json_list(&traced_e2e),
            json_list(&traced.report),
            json_list(&diffs),
            tracer.spans().len(),
            spans_written,
        ));
        let layer_metrics: Vec<Metric> = PER_LAYER
            .iter()
            .map(|(n, u, b)| Metric::new(n, layers.get(n), u, b))
            .collect();
        report.push_str(&format!(",\"per_layer\":{}", json_list(&layer_metrics)));
        PER_LAYER
            .iter()
            .map(|(n, u, _)| (n.to_string(), layers.get(n), *u))
            .collect()
    } else {
        untraced_e2e
            .iter()
            .map(|m| (m.name.clone(), m.value, m.unit))
            .collect()
    };
    let error_share = failed as f64 / attempted.max(1) as f64;
    let shown: Vec<String> = errors.iter().take(20).map(|e| json_str(e)).collect();
    report.push_str(&format!(
        ",\"attempted\":{attempted},\"failed\":{failed},\"error_share\":{},\"errors\":[{}]}}}}",
        num(error_share),
        shown.join(",")
    ));
    println!("{report}");

    let correct = failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", num(*v)))
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        body.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        for e in &errors {
            eprintln!("tgdkit-benchmark: wrong or failed: {e}");
        }
        ExitCode::FAILURE
    }
}
