//! E1: locality checking cost (DESIGN.md §5) — the novel machinery of
//! paper §3.3 and its refinements, across flavors and (n, m).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;
use tgdkit_chase::Run;
use tgdkit_core::locality::{locally_embeddable, LocalityFlavor, LocalityOptions};
use tgdkit_instance::{parse_instance, InstanceGen};
use tgdkit_logic::{parse_tgds, Schema, TgdSet};

fn sigma() -> TgdSet {
    let mut schema = Schema::default();
    let tgds = parse_tgds(&mut schema, "E(x,y) -> E(y,x). P(x), E(x,y) -> P(y).").unwrap();
    TgdSet::new(schema, tgds).unwrap()
}

fn bench_flavors(c: &mut Criterion) {
    let run = Run::default();
    let mut group = c.benchmark_group("locality/flavors");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(12);
    let set = sigma();
    let instance = InstanceGen::new(set.schema().clone(), 11).generate(4, 0.35);
    for (flavor, label) in [
        (LocalityFlavor::Plain, "plain"),
        (LocalityFlavor::Linear, "linear"),
        (LocalityFlavor::Guarded, "guarded"),
        (LocalityFlavor::FrontierGuarded, "frontier_guarded"),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                black_box(locally_embeddable(
                    &run,
                    &set,
                    &instance,
                    2,
                    0,
                    flavor,
                    &LocalityOptions::default(),
                ))
            })
        });
    }
    group.finish();
}

fn bench_instance_size(c: &mut Criterion) {
    let run = Run::default();
    let mut group = c.benchmark_group("locality/instance_size");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(12);
    let set = sigma();
    for size in [3usize, 4, 5] {
        let instance = InstanceGen::new(set.schema().clone(), 11).generate(size, 0.3);
        group.bench_with_input(BenchmarkId::from_parameter(size), &instance, |b, inst| {
            b.iter(|| {
                black_box(locally_embeddable(
                    &run,
                    &set,
                    inst,
                    2,
                    0,
                    LocalityFlavor::Plain,
                    &LocalityOptions::default(),
                ))
            })
        });
    }
    group.finish();
}

fn bench_nm_growth(c: &mut Criterion) {
    let run = Run::default();
    let mut group = c.benchmark_group("locality/nm");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(12);
    let mut schema = Schema::default();
    let tgds = parse_tgds(&mut schema, "P(x) -> exists z : E(x,z).").unwrap();
    let set = TgdSet::new(schema, tgds).unwrap();
    let instance = InstanceGen::new(set.schema().clone(), 13).generate(5, 0.35);
    for (n, m) in [(1usize, 0usize), (1, 1), (2, 1), (3, 2)] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n{n}_m{m}")),
            &(n, m),
            |b, &(n, m)| {
                b.iter(|| {
                    black_box(locally_embeddable(
                        &run,
                        &set,
                        &instance,
                        n,
                        m,
                        LocalityFlavor::Plain,
                        &LocalityOptions::default(),
                    ))
                })
            },
        );
    }
    group.finish();
}

fn bench_separation_witnesses(c: &mut Criterion) {
    let run = Run::default();
    let mut group = c.benchmark_group("locality/separations");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(12);
    // The §9.1 check end to end.
    let mut schema = Schema::default();
    let tgds = parse_tgds(&mut schema, "R(x), P(x) -> T(x).").unwrap();
    let witness = parse_instance(&mut schema, "R(c), P(c)").unwrap();
    let g = TgdSet::new(schema, tgds).unwrap();
    group.bench_function("linear_1_0_gadget", |b| {
        b.iter(|| {
            black_box(locally_embeddable(
                &run,
                &g,
                &witness,
                1,
                0,
                LocalityFlavor::Linear,
                &LocalityOptions::default(),
            ))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_flavors,
    bench_instance_size,
    bench_nm_growth,
    bench_separation_witnesses
);
criterion_main!(benches);
