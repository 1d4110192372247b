//! Criterion benchmarks of the certificate codec and checker on a
//! 100k-node sparse-id tree: the Theorem 12 MIS pipeline's certificate
//! (Linial, KW reduction, class sweep; 3 transcript segments) is
//!
//! * `emit` — serialized with `to_text`,
//! * `parse` — read back with `Certificate::parse`,
//! * `check` — validated with `check_certificate` (instance, solution,
//!   envelope, re-derived commitment chain).
//!
//! The transcript's two sides are timed on their own as well:
//!
//! * `transcript/record` — the pipeline run with the recorder armed
//!   (per-round commitments, halts handed over at each core's `finish()`),
//! * `check/transcript` — the checker's re-derivation of the commitment
//!   chain from the halt rounds alone.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use treelocal_algos::{kw_reduce, mis_from_coloring, run_linial};
use treelocal_bench::certs::mis_pipeline_cert;
use treelocal_check::{check_certificate, check_transcript, Certificate};
use treelocal_gen::{random_tree, relabel, IdStrategy};
use treelocal_sim::{transcript, Ctx};

fn bench_cert_codec(c: &mut Criterion) {
    let n = 100_000usize;
    let g = relabel(&random_tree(n, 1), IdStrategy::Sparse { seed: 1 });
    let cert = mis_pipeline_cert("bench/cert_codec", &g, None);
    let text = cert.to_text();
    let parsed = Certificate::parse(&text).expect("the emitted certificate parses");
    assert_eq!(parsed, cert, "the text round trip changed the certificate");
    assert_eq!(check_certificate(&parsed), Ok(()));

    let mut group = c.benchmark_group("cert_codec");
    group.bench_function(BenchmarkId::new("emit", n), |b| b.iter(|| cert.to_text().len()));
    group.bench_function(BenchmarkId::new("parse", n), |b| {
        b.iter(|| Certificate::parse(&text).map(|c| c.nodes))
    });
    group.bench_function(BenchmarkId::new("check", n), |b| b.iter(|| check_certificate(&parsed)));
    group.finish();

    let mut group = c.benchmark_group("transcript");
    group.bench_function(BenchmarkId::new("record", n), |b| {
        let ctx = Ctx::of(&g);
        b.iter(|| {
            transcript::begin();
            let lin = run_linial(&ctx);
            let kw = kw_reduce(&ctx, &lin.colors, lin.final_bound);
            mis_from_coloring(&ctx, &kw.colors, u64::from(kw.final_colors));
            transcript::take().total_rounds()
        })
    });
    group.finish();

    let mut group = c.benchmark_group("check");
    group.bench_function(BenchmarkId::new("transcript", n), |b| {
        b.iter(|| check_transcript(&parsed))
    });
    group.finish();
}

criterion_group!(benches, bench_cert_codec);
criterion_main!(benches);
