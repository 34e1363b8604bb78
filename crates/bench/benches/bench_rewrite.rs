//! E7/E8: the rewriting procedures (Algorithms 1–2, Theorems 9.1–9.2).
//!
//! Measures candidate enumeration and end-to-end rewriting across schema
//! size and arity — the dimensions along which the paper's complexity
//! bounds (double exponential in ar(S), exponential in |S|) grow.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;
use tgdkit_chase::{EntailCache, Run};
use tgdkit_core::enumerate::{guarded_candidates, linear_candidates, EnumOptions};
use tgdkit_core::rewrite::{rewrite, RewriteOptions, RewriteRun, RewriteTarget};
use tgdkit_core::workload::{schema_for, WorkloadParams};
use tgdkit_logic::{parse_tgds, Schema, TgdSet};

/// Algorithm 1 (`Linear`) or 2 (`Guarded`) on `set`, sharing `cache` when
/// one is given.
fn decide(
    set: &TgdSet,
    target: RewriteTarget,
    opts: &RewriteOptions,
    cache: Option<&EntailCache>,
) -> RewriteRun {
    let run = Run {
        cache,
        ..Run::default()
    };
    rewrite(&run, set, target, opts, None).expect("a fresh run has no checkpoint to mismatch")
}

fn bench_candidate_enumeration(c: &mut Criterion) {
    let mut group = c.benchmark_group("rewrite/enumeration");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(12);
    for preds in [1usize, 2, 3] {
        for arity in [1usize, 2] {
            let schema = schema_for(&WorkloadParams {
                predicates: preds,
                max_arity: arity,
                ..Default::default()
            });
            let label = format!("S{preds}_ar{arity}");
            group.bench_with_input(BenchmarkId::new("linear", &label), &schema, |b, schema| {
                b.iter(|| black_box(linear_candidates(schema, 2, 1, &EnumOptions::default())))
            });
            group.bench_with_input(BenchmarkId::new("guarded", &label), &schema, |b, schema| {
                b.iter(|| black_box(guarded_candidates(schema, 2, 1, &EnumOptions::default())))
            });
        }
    }
    group.finish();
}

fn set_from(text: &str) -> TgdSet {
    let mut schema = Schema::default();
    let tgds = parse_tgds(&mut schema, text).unwrap();
    TgdSet::new(schema, tgds).unwrap()
}

fn bench_algorithm_1(c: &mut Criterion) {
    let mut group = c.benchmark_group("rewrite/g_to_l");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(12);
    let cases = [
        ("rewritable", "R(x,y), R(x,x) -> T(x). R(x,y) -> T(x)."),
        ("gadget_9_1", "R(x), P(x) -> T(x)."),
    ];
    let opts = RewriteOptions {
        enumeration: EnumOptions {
            max_head_atoms: 4,
            max_body_atoms: 4,
            max_candidates: 100_000,
        },
        ..Default::default()
    };
    for (label, text) in cases {
        let set = set_from(text);
        group.bench_with_input(BenchmarkId::from_parameter(label), &set, |b, set| {
            b.iter(|| black_box(decide(set, RewriteTarget::Linear, &opts, None)))
        });
    }
    group.finish();
}

fn bench_algorithm_2(c: &mut Criterion) {
    let mut group = c.benchmark_group("rewrite/fg_to_g");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(12);
    let cases = [
        ("rewritable", "R(x,y) -> P(x). R(x,y), P(x) -> T(x)."),
        ("gadget_9_1", "R(x), P(y) -> T(x)."),
    ];
    let opts = RewriteOptions {
        enumeration: EnumOptions {
            max_head_atoms: 2,
            max_body_atoms: 2,
            max_candidates: 100_000,
        },
        ..Default::default()
    };
    for (label, text) in cases {
        let set = set_from(text);
        group.bench_with_input(BenchmarkId::from_parameter(label), &set, |b, set| {
            b.iter(|| black_box(decide(set, RewriteTarget::Guarded, &opts, None)))
        });
    }
    group.finish();
}

fn bench_parallel_speedup(c: &mut Criterion) {
    let mut group = c.benchmark_group("rewrite/parallel");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(12);
    let set = set_from("R(x,y) -> P(x). R(x,y), P(x) -> T(x).");
    for parallel in [false, true] {
        let opts = RewriteOptions {
            parallel,
            ..Default::default()
        };
        group.bench_with_input(
            BenchmarkId::from_parameter(if parallel { "parallel" } else { "sequential" }),
            &set,
            |b, set| b.iter(|| black_box(decide(set, RewriteTarget::Guarded, &opts, None))),
        );
    }
    group.finish();
}

fn bench_entail_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("rewrite/entail_cache");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(12);
    let set = set_from("R(x,y), R(x,x) -> T(x). R(x,y) -> T(x).");
    let opts = RewriteOptions {
        parallel: true,
        ..Default::default()
    };
    // Cold: every iteration pays grouping, chasing and probing afresh.
    group.bench_function("cold", |b| {
        b.iter(|| {
            let cache = EntailCache::new();
            black_box(decide(&set, RewriteTarget::Linear, &opts, Some(&cache)))
        })
    });
    // Warm: the shared cache answers every candidate after the first run.
    let warm_cache = EntailCache::new();
    let _ = decide(&set, RewriteTarget::Linear, &opts, Some(&warm_cache));
    group.bench_function("warm", |b| {
        b.iter(|| {
            black_box(decide(
                &set,
                RewriteTarget::Linear,
                &opts,
                Some(&warm_cache),
            ))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_candidate_enumeration,
    bench_algorithm_1,
    bench_algorithm_2,
    bench_parallel_speedup,
    bench_entail_cache
);
criterion_main!(benches);
