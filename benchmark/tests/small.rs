//! Runs every workload in its small mode and checks its output format:
//! every metric `BENCHMARK.json` declares prints with its unit (untraced
//! and traced), every answer checks out, and a forged answer is caught.
//!
//! `cargo test --release --manifest-path benchmark/Cargo.toml`

use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["rewrite", "chase-tc", "serve-mixed"];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`,
/// which lists one metric object per line.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let end = body.find(']').expect("section is a list");
    body[..end]
        .lines()
        .filter(|l| l.contains("\"unit\""))
        .map(|l| {
            let field = |key: &str| {
                let rest = &l[l.find(&format!("\"{key}\"")).expect("field") + key.len() + 2..];
                rest.split('"').nth(1).expect("string value").to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

struct Output {
    success: bool,
    last: String,
    report: String,
}

fn run(workload: &str, trace: bool, extra: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_tgdkit-benchmark"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--small"])
        .args(extra)
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let mut lines = stdout.lines().rev();
    let last = lines.next().expect("a summary line").to_string();
    let report = lines.next().expect("a report line").to_string();
    Output {
        success: out.status.success(),
        last,
        report,
    }
}

fn assert_metrics(out: &Output, section: &str) {
    let metrics = declared(section);
    assert!(!metrics.is_empty(), "{section} declares metrics");
    for (name, unit) in metrics {
        let entry = format!("\"{name}\":{{\"value\":");
        let at = out
            .last
            .find(&entry)
            .unwrap_or_else(|| panic!("{name} missing from {}", out.last));
        let unit_field = format!("\"unit\":\"{unit}\"}}");
        assert!(
            out.last[at..].contains(&unit_field),
            "{name} lacks unit {unit}"
        );
    }
}

#[test]
fn every_workload_prints_every_metric_and_checks_out() {
    for workload in WORKLOADS {
        let plain = run(workload, false, &[]);
        assert!(plain.success, "{workload}: {}", plain.report);
        assert!(
            plain.last.starts_with("{\"correct\":true,"),
            "{}",
            plain.last
        );
        assert!(plain.last.contains("\"failed\":0,"), "{}", plain.last);
        assert_metrics(&plain, "end_to_end");
        assert!(plain.report.contains("\"seed\":5"), "seed recorded");

        let traced = run(workload, true, &[]);
        assert!(traced.success, "{workload} traced: {}", traced.report);
        assert_metrics(&traced, "per_layer");
        assert!(
            traced
                .report
                .contains("\"tracing_overhead\":[{\"name\":\"pass_s\""),
            "{workload}: tracing overhead reported"
        );
    }
}

#[test]
fn a_forged_answer_is_caught() {
    for workload in WORKLOADS {
        let out = run(workload, false, &["--inject-wrong"]);
        assert!(!out.success, "{workload}: a wrong answer must fail the run");
        assert!(out.last.starts_with("{\"correct\":false,"), "{}", out.last);
        assert!(!out.last.contains("\"failed\":0,"), "{}", out.last);
    }
}
