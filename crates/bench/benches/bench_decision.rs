//! The decision procedures layered over the chase: exact linear
//! backward-rewriting, finite countermodel search, and the combined
//! `entails_auto` dispatch (the engine inside Algorithms 1–2).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;
use tgdkit_chase::{
    entails_auto, entails_linear, refute_by_countermodel, ChaseBudget, Run, SearchBudget,
};
use tgdkit_logic::{parse_tgd, parse_tgds, Schema, Tgd};

fn fixture(sigma_text: &str, candidate_text: &str) -> (Schema, Vec<Tgd>, Tgd) {
    let mut schema = Schema::default();
    let sigma = parse_tgds(&mut schema, sigma_text).unwrap();
    let candidate = parse_tgd(&mut schema, candidate_text).unwrap();
    (schema, sigma, candidate)
}

fn bench_linear_rewriting(c: &mut Criterion) {
    let run = Run::default();
    let mut group = c.benchmark_group("decision/linear_rewriting");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(12);
    let cases = [
        (
            "proved_chain",
            "A(x) -> B(x). B(x) -> exists z : E(x,z). E(x,y) -> C(y). C(x) -> A(x).",
            "A(x) -> exists z, w : E(x,z), E(z,w)",
        ),
        (
            "disproved_divergent",
            "E(x,y) -> exists z : E(y,z).",
            "E(x,y) -> exists z : E(z,x)",
        ),
        (
            "proved_divergent",
            "E(x,y) -> exists z : E(y,z).",
            "E(x,y) -> exists z, w, u : E(y,z), E(z,w), E(w,u)",
        ),
    ];
    for (label, sigma_text, candidate_text) in cases {
        let (schema, sigma, candidate) = fixture(sigma_text, candidate_text);
        group.bench_function(label, |b| {
            b.iter(|| black_box(entails_linear(&run, &schema, &sigma, &candidate, 100_000)))
        });
    }
    group.finish();
}

fn bench_countermodel(c: &mut Criterion) {
    let run = Run::default();
    let mut group = c.benchmark_group("decision/countermodel");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(12);
    let (schema, sigma, candidate) =
        fixture("E(x,y) -> exists z : E(y,z), D(y,z).", "E(x,y) -> P(x)");
    for extra in [1usize, 2, 3] {
        group.bench_with_input(BenchmarkId::from_parameter(extra), &extra, |b, &extra| {
            b.iter(|| {
                black_box(refute_by_countermodel(
                    &run,
                    &schema,
                    &sigma,
                    &candidate,
                    &SearchBudget {
                        max_extra_elems: extra,
                        max_states: 50_000,
                    },
                ))
            })
        });
    }
    group.finish();
}

fn bench_auto_dispatch(c: &mut Criterion) {
    let run = Run::default();
    let mut group = c.benchmark_group("decision/entails_auto");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(12);
    let cases = [
        (
            "linear_fastpath",
            "E(x,y) -> exists z : E(y,z).",
            "E(x,y) -> E(y,x)",
        ),
        (
            "chase_path",
            "E(x,y), E(y,z) -> E(x,z).",
            "E(x,y) -> E(x,x)",
        ),
        (
            "countermodel_path",
            "E(x,y) -> exists z : E(y,z), D(y,z).",
            "E(x,y) -> P(x)",
        ),
    ];
    for (label, sigma_text, candidate_text) in cases {
        let (schema, sigma, candidate) = fixture(sigma_text, candidate_text);
        group.bench_function(label, |b| {
            b.iter(|| {
                black_box(entails_auto(
                    &run,
                    &schema,
                    &sigma,
                    &candidate,
                    ChaseBudget::small(),
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_linear_rewriting,
    bench_countermodel,
    bench_auto_dispatch
);
criterion_main!(benches);
