//! Criterion wall-clock benchmarks for the truly local primitives:
//! Linial color reduction, Kuhn–Wattenhofer halving, the class-sweep
//! reduction on line graphs and Cole–Vishkin.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use treelocal_algos::{kw_reduce, line_graph, run_linial, sweep_reduce, three_color_rooted};
use treelocal_gen::{random_tree, relabel, IdStrategy};
use treelocal_graph::{root_forest, SemiGraph};
use treelocal_sim::Ctx;

fn bench_linial(c: &mut Criterion) {
    let mut group = c.benchmark_group("linial");
    for &n in &[1_000usize, 10_000, 100_000] {
        let g = relabel(&random_tree(n, 1), IdStrategy::Sparse { seed: 1 });
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            let ctx = Ctx::of(g);
            b.iter(|| run_linial(&ctx).rounds)
        });
    }
    group.finish();
}

fn bench_kw_reduce(c: &mut Criterion) {
    let mut group = c.benchmark_group("kw_reduce");
    for &n in &[1_000usize, 10_000, 100_000] {
        let g = random_tree(n, 2);
        let ctx = Ctx::of(&g);
        let lin = run_linial(&ctx);
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            let ctx = Ctx::of(g);
            b.iter(|| kw_reduce(&ctx, &lin.colors, lin.final_bound).final_colors)
        });
    }
    group.finish();
}

/// The sweep on the line graph of a random tree — the inner solve of the
/// Theorem 3 edge coloring, where every node parks until its class.
fn bench_sweep_reduce(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_reduce");
    for &n in &[1_000usize, 10_000, 100_000] {
        let g = random_tree(n, 4);
        let l = line_graph(&SemiGraph::whole(&g)).graph;
        let ctx = Ctx::of(&l);
        let lin = run_linial(&ctx);
        group.bench_with_input(BenchmarkId::from_parameter(n), &l, |b, l| {
            let ctx = Ctx::of(l);
            b.iter(|| sweep_reduce(&ctx, &lin.colors, lin.final_bound).final_colors)
        });
    }
    group.finish();
}

fn bench_cole_vishkin(c: &mut Criterion) {
    let mut group = c.benchmark_group("cole_vishkin");
    for &n in &[1_000usize, 10_000, 100_000] {
        let g = relabel(&random_tree(n, 3), IdStrategy::Sparse { seed: 3 });
        let forest = root_forest(&g);
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            let ctx = Ctx::of(g);
            b.iter(|| three_color_rooted(&ctx, &forest).rounds)
        });
    }
    group.finish();
}

criterion_group!(benches, bench_linial, bench_kw_reduce, bench_sweep_reduce, bench_cole_vishkin);
criterion_main!(benches);
