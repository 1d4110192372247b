//! Criterion benchmarks of two Theorem 12 layers on a 100k-node Prüfer
//! tree with permuted ids:
//!
//! * `mis_inner` — `MisAlgo::solve` on `T_C` (Linial, KW reduction and
//!   the MIS class sweep on the compressed semi-graph), with `k` chosen as
//!   the MIS pipeline chooses it;
//! * `verify_graph` — the whole-graph MIS verifier on the pipeline's
//!   output labeling.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use treelocal_algos::{ChargedModel, GlobalCtx, MisAlgo, TrulyLocal};
use treelocal_core::{k_for, mis_on_tree};
use treelocal_decomp::rake_compress;
use treelocal_gen::{random_tree, relabel, IdStrategy};
use treelocal_problems::{verify_graph, Mis};

const N: usize = 100_000;

fn bench_mis_inner(c: &mut Criterion) {
    let tree = relabel(&random_tree(N, 1), IdStrategy::Permuted { seed: 1 });
    let gctx = GlobalCtx::of(&tree);
    let model = ChargedModel::bek14_coloring();
    let k = k_for(tree.node_count(), |d| model.eval(d));
    let rc = rake_compress(&tree, k);
    let tc = rc.compressed_semigraph(&tree);
    let mut group = c.benchmark_group("mis_inner");
    group.sample_size(10);
    group.bench_function(BenchmarkId::from_parameter(N), |b| {
        b.iter(|| MisAlgo.solve(&tc, &gctx, &Mis).1.total())
    });
    group.finish();
}

fn bench_verify_graph(c: &mut Criterion) {
    let tree = relabel(&random_tree(N, 1), IdStrategy::Permuted { seed: 1 });
    let (out, _) = mis_on_tree(&tree);
    assert!(out.valid);
    let labeling = out.labeling;
    assert_eq!(verify_graph(&Mis, &tree, &labeling), Ok(()));
    let mut group = c.benchmark_group("verify_graph");
    group.bench_function(BenchmarkId::from_parameter(N), |b| {
        b.iter(|| verify_graph(&Mis, &tree, &labeling).is_ok())
    });
    group.finish();
}

criterion_group!(benches, bench_mis_inner, bench_verify_graph);
criterion_main!(benches);
