//! Metric definitions, their computation from a run's samples and spans,
//! and the printed report.

use std::collections::BTreeMap;

use crate::trace::{Span, Tracer};
use crate::workloads::Workload;
use crate::{RunOpts, Samples};

/// End-to-end metrics (`--trace 0`), with units, in `BENCHMARK.json` order.
/// Their times are host-normalised (see the crate documentation).
pub const END_TO_END: [(&str, &str); 6] = [
    ("instance_s_p50", "s"),
    ("instances_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("local_rounds", "rounds"),
    ("ok_frac", "frac"),
];

/// Per-layer metrics (`--trace 1`), with units, in `BENCHMARK.json` order.
/// A `<layer>.<call>_s` metric is the median self time of the spans named
/// `<layer>.<call>`; a layer a workload bypasses reads 0. Every time here
/// is wall time; `wall.*` are the end-to-end times before normalisation.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("wall.instance_s_p50", "s"),
    ("wall.setup_s", "s"),
    ("wall.host_ref_s", "s"),
    ("gen.build_s", "s"),
    ("gen.relabel_s", "s"),
    ("gen.bytes_ingested", "B"),
    ("gen.peak_build_bytes", "B"),
    ("graph.components_s", "s"),
    ("decomp.rake_compress_s", "s"),
    ("decomp.iterations", "count"),
    ("decomp.rounds", "rounds"),
    ("decomp.arb_decompose_s", "s"),
    ("decomp.split_s", "s"),
    ("decomp.lemma_check_s", "s"),
    ("core.semigraph_s", "s"),
    ("core.k", "count"),
    ("core.glue_s", "s"),
    ("algos.inner_s", "s"),
    ("algos.line_graph_s", "s"),
    ("algos.inner_rounds", "rounds"),
    ("sim.node_steps", "count"),
    ("sim.send_steps", "count"),
    ("sim.rounds", "rounds"),
    ("sim.node_steps_per_s", "1/s"),
    ("sim.gather_s", "s"),
    ("problems.complete_s", "s"),
    ("problems.verify_s", "s"),
    ("problems.components", "count"),
    ("check.pipeline_s", "s"),
    ("check.emit_s", "s"),
    ("check.cert_bytes", "B"),
    ("check.parse_s", "s"),
    ("check.check_s", "s"),
    ("bench.e1_s", "s"),
    ("bench.e2_s", "s"),
    ("bench.e3_s", "s"),
    ("bench.e4_s", "s"),
    ("bench.e5_s", "s"),
    ("bench.e6_s", "s"),
    ("bench.e7_s", "s"),
    ("bench.e8_s", "s"),
    ("bench.e9_s", "s"),
    ("bench.e10_s", "s"),
    ("bench.e11_s", "s"),
    ("bench.e12_s", "s"),
    ("bench.e13_s", "s"),
    ("bench.e14_s", "s"),
    ("trace.instance_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "%"),
    ("share.graph", "%"),
    ("share.decomp", "%"),
    ("share.core", "%"),
    ("share.algos", "%"),
    ("share.sim", "%"),
    ("share.problems", "%"),
    ("share.check", "%"),
    ("share.bench", "%"),
];

/// `local_rounds` is the mean over this many leading instances, which
/// evens out the rounds' dependence on each tree's maximum degree. A
/// benchmark run always runs this many.
pub const ROUNDS_INSTANCES: usize = 6;

/// `(span prefix, metric)`: each layer's share of the traced instance.
const SHARES: [(&str, &str); 8] = [
    ("graph.", "share.graph"),
    ("decomp.", "share.decomp"),
    ("core.", "share.core"),
    ("algos.", "share.algos"),
    ("sim.", "share.sim"),
    ("problems.", "share.problems"),
    ("check.", "share.check"),
    ("bench.", "share.bench"),
];

/// The median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

fn median0(xs: impl IntoIterator<Item = f64>) -> f64 {
    median(&xs.into_iter().collect::<Vec<_>>()).unwrap_or(0.0)
}

/// A finished run: the gate's verdict and every metric of its mode.
#[derive(Debug)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Whether every instance passed every check.
    pub correct: bool,
    /// Instances attempted.
    pub attempted: u64,
    /// Instances that failed a check or panicked.
    pub failed: u64,
    /// `(name, value, unit)`, in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// One line per failure.
    pub errors: Vec<String>,
    /// The traced run's spans.
    pub tracer: Option<Tracer>,
}

impl Report {
    /// Computes the metrics of the run's mode from its samples and spans.
    pub fn build(
        opts: &RunOpts,
        attempted: u64,
        failed: u64,
        errors: Vec<String>,
        samples: &Samples,
        tracer: Option<Tracer>,
    ) -> Report {
        let values = match &tracer {
            None => end_to_end(attempted, failed, samples),
            Some(t) => per_layer(opts.workload, samples, t),
        };
        let table: &[(&'static str, &'static str)] =
            if tracer.is_some() { &PER_LAYER } else { &END_TO_END };
        let metrics = table
            .iter()
            .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
            .collect();
        Report {
            workload: opts.workload.name(),
            correct: failed == 0 && errors.is_empty() && attempted > 0,
            attempted,
            failed,
            metrics,
            errors,
            tracer,
        }
    }

    /// The value of metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// One line per metric, for people.
    pub fn render(&self) -> String {
        let mut s = format!(
            "{}: {} attempted, {} failed, correct = {}\n",
            self.workload, self.attempted, self.failed, self.correct
        );
        for (name, value, unit) in &self.metrics {
            s.push_str(&format!("  {name:<24} {value:>16.6} {unit}\n"));
        }
        s
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn end_to_end(attempted: u64, failed: u64, s: &Samples) -> BTreeMap<&'static str, f64> {
    let timed: f64 = s.instance_norm_s.iter().sum();
    let mut m = BTreeMap::new();
    m.insert("instance_s_p50", median0(s.instance_norm_s.iter().copied()));
    m.insert(
        "instances_per_s",
        if timed > 0.0 { s.instance_norm_s.len() as f64 / timed } else { 0.0 },
    );
    // The first instance's: later ones also hold heap the allocator kept
    // from earlier instances, so their reading grows with the run's length.
    m.insert("peak_rss_mb", s.peak_rss_kb.first().map_or(0.0, |&kb| kb as f64 / 1024.0));
    m.insert("setup_s", median0(s.setup_norm_s.iter().copied()));
    // The first instances always run, so their mean is fixed by the seed.
    let first = &s.rounds[..s.rounds.len().min(ROUNDS_INSTANCES)];
    m.insert("local_rounds", first.iter().sum::<u64>() as f64 / first.len().max(1) as f64);
    m.insert(
        "ok_frac",
        if attempted > 0 { (attempted - failed) as f64 / attempted as f64 } else { 0.0 },
    );
    m
}

/// Node steps per second of the leaf spans that stepped the engine.
fn engine_rate<'a>(spans: impl Iterator<Item = &'a Span>) -> f64 {
    let stepping = spans.filter(|s| s.child_s == 0.0 && s.counters.node_steps > 0);
    let (steps, secs) =
        stepping.fold((0u64, 0.0), |(n, t), s| (n + s.counters.node_steps, t + s.duration_s()));
    if secs > 0.0 {
        steps as f64 / secs
    } else {
        0.0
    }
}

fn per_layer(w: Workload, s: &Samples, t: &Tracer) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let traced = &s.traced;
    // Layer times: median over traced instances of each span's self time.
    for &(name, unit) in &PER_LAYER {
        if let Some(span) = name.strip_suffix("_s").filter(|_| unit == "s") {
            m.insert(name, median0(traced.iter().map(|&i| t.self_s(i, span))));
        }
    }
    m.insert("core.glue_s", median0(traced.iter().map(|&i| t.self_s(i, "core.pipeline"))));
    m.insert("wall.instance_s_p50", median0(s.instance_s.iter().copied()));
    m.insert("wall.setup_s", median0(s.setup_s.iter().copied()));
    m.insert("wall.host_ref_s", median0(s.ref_s.iter().copied()));
    m.insert("gen.build_s", median0(s.build_s.iter().copied()));
    m.insert("gen.relabel_s", median0(s.relabel_s.iter().copied()));
    let (ingested, peak_build) = s.first_ingest.unwrap_or((0, 0));
    m.insert("gen.bytes_ingested", ingested as f64);
    m.insert("gen.peak_build_bytes", peak_build as f64);
    // Counts of the first instance: deterministic for the run's seed.
    if let Some(o) = s.first.filter(|_| w != Workload::SuiteQuick) {
        m.insert("decomp.iterations", o.counts.decomp_iterations as f64);
        m.insert("decomp.rounds", o.counts.decomp_rounds as f64);
        m.insert("core.k", o.counts.k as f64);
        m.insert("algos.inner_rounds", o.counts.inner_rounds as f64);
        m.insert("problems.components", o.counts.components as f64);
        m.insert("check.cert_bytes", o.counts.cert_bytes as f64);
    }
    if let Some(root) = traced.first().and_then(|&i| t.root(i)) {
        m.insert("sim.node_steps", root.counters.node_steps as f64);
        m.insert("sim.send_steps", root.counters.send_steps as f64);
        m.insert("sim.rounds", root.counters.rounds as f64);
    }
    let roots: Vec<&Span> = traced.iter().filter_map(|&i| t.root(i)).collect();
    let rates = traced.iter().map(|&i| engine_rate(t.spans().iter().filter(|s| s.instance == i)));
    m.insert("sim.node_steps_per_s", median0(rates));
    let traced_s = median0(roots.iter().map(|r| r.duration_s()));
    m.insert("trace.instance_s", traced_s);
    m.insert("trace.overhead_s", traced_s - median0(s.instance_s.iter().copied()));
    m.insert(
        "trace.coverage",
        median0(roots.iter().map(|r| 100.0 * (1.0 - r.self_s() / r.duration_s()))),
    );
    for (prefix, key) in SHARES {
        let shares = traced
            .iter()
            .filter_map(|&i| t.root(i).map(|r| 100.0 * t.layer_self_s(i, prefix) / r.duration_s()));
        m.insert(key, median0(shares));
    }
    m
}
