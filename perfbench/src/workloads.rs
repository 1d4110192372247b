//! The four workloads: input set-up, the untraced instance and the traced
//! replay.
//!
//! An untraced instance is one public pipeline call plus the verification
//! of its output. The traced replay of `mis-tree` and `edgecol-tree` runs
//! the same pipeline again through the public call of each layer, in the
//! order `TreeTransform::run` / `ArbTransform::run` make them, and must
//! reproduce the untraced [`Outcome`] exactly. `certify` and `suite-quick`
//! already drive their layers one public call at a time, so their traced
//! and untraced runs share one code path behind [`Probe`].

use std::time::Instant;

use treelocal_algos::{
    kw_reduce, line_graph, mis_from_coloring, run_linial, simulated_rounds, sweep_reduce,
    ChargedModel, GlobalCtx, LineGraph, MisAlgo, MisDecision, TrulyLocal,
};
use treelocal_bench::{all_experiment_ids, run_experiment_with_driver, Driver, ExperimentSize};
use treelocal_check::{
    check_certificate, Certificate, Envelope, MisWitness, Rule, Segment, Solution,
};
use treelocal_core::{edge_coloring_on_tree, k_for, mis_on_tree, solve_g};
use treelocal_decomp::{
    arb_decompose, check_lemma10, check_lemma11, rake_compress, split_atypical,
};
use treelocal_gen::{random_tree, relabel, IdStrategy};
use treelocal_graph::{components, stats, Graph, HalfEdge, NodeId, SemiGraph, Side};
use treelocal_problems::{
    classic, solve_edges_sequential, solve_nodes_sequential, verify_graph, EdgeColLabel,
    EdgeDegreeColoring, HalfEdgeLabeling, Mis,
};
use treelocal_sim::{transcript, Ctx, GatherPlan};

use crate::trace::{Probe, SimCounters, Tracer};

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Theorem 12 MIS on 500k-node Prüfer trees with permuted ids.
    MisTree,
    /// Theorem 3 edge coloring on 250k-node Prüfer trees.
    EdgecolTree,
    /// Linial → KW → sweep MIS with a transcript, then certificate
    /// emit / parse / check on a 500k-node tree with sparse ids.
    Certify,
    /// One pass of the quick experiment suite e1–e14 on a 1-thread driver.
    SuiteQuick,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] =
        [Workload::MisTree, Workload::EdgecolTree, Workload::Certify, Workload::SuiteQuick];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MisTree => "mis-tree",
            Workload::EdgecolTree => "edgecol-tree",
            Workload::Certify => "certify",
            Workload::SuiteQuick => "suite-quick",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Instance sizes (node counts) of the tree workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sizes {
    /// `mis-tree` node count.
    pub mis_nodes: usize,
    /// `edgecol-tree` node count.
    pub edgecol_nodes: usize,
    /// `certify` node count.
    pub certify_nodes: usize,
}

impl Sizes {
    /// The benchmark's fixed sizes.
    pub const BENCH: Sizes =
        Sizes { mis_nodes: 500_000, edgecol_nodes: 250_000, certify_nodes: 500_000 };
    /// Toy sizes for the benchmark's own tests.
    pub const TOY: Sizes = Sizes { mis_nodes: 3_000, edgecol_nodes: 1_500, certify_nodes: 3_000 };
}

/// A deliberate corruption, applied between the pipeline and the
/// verification, to prove that the gate catches it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// No corruption: the benchmark's normal mode.
    None,
    /// Flip one output label (MIS membership, an edge color, a certificate
    /// witness or a table's `holds` cell).
    FlipLabel,
    /// Flip one hex digit of the certificate's first transcript commitment
    /// (`certify` only).
    CorruptCertificate,
    /// Panic inside the instance.
    Panic,
}

/// The generated input of one instance.
#[derive(Debug)]
pub struct Input {
    /// The tree (`None` for `suite-quick`, whose experiments build their
    /// own instances).
    pub graph: Option<Graph>,
    /// Wall time of the tree build.
    pub build_s: f64,
    /// Wall time of the identifier relabeling.
    pub relabel_s: f64,
    /// Endpoint bytes streamed into graph builds during set-up.
    pub bytes_ingested: u64,
    /// Largest single-build footprint during set-up, in bytes.
    pub peak_build_bytes: u64,
}

impl Input {
    /// Total set-up time.
    pub fn setup_s(&self) -> f64 {
        self.build_s + self.relabel_s
    }

    fn tree(&self) -> &Graph {
        self.graph.as_ref().expect("tree workloads always generate a graph")
    }
}

/// Generates the input of the instance with `seed`: a Prüfer tree
/// relabeled with permuted (`mis-tree`) or sparse (`certify`) ids.
pub fn setup(w: Workload, sizes: Sizes, seed: u64) -> Input {
    let (n, ids) = match w {
        Workload::MisTree => (sizes.mis_nodes, Some(IdStrategy::Permuted { seed })),
        Workload::EdgecolTree => (sizes.edgecol_nodes, None),
        Workload::Certify => (sizes.certify_nodes, Some(IdStrategy::Sparse { seed })),
        Workload::SuiteQuick => {
            return Input {
                graph: None,
                build_s: 0.0,
                relabel_s: 0.0,
                bytes_ingested: 0,
                peak_build_bytes: 0,
            }
        }
    };
    stats::reset();
    let t0 = Instant::now();
    let tree = random_tree(n, seed);
    let build_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let graph = match ids {
        Some(strategy) => relabel(&tree, strategy),
        None => tree,
    };
    let relabel_s = if ids.is_some() { t1.elapsed().as_secs_f64() } else { 0.0 };
    Input {
        graph: Some(graph),
        build_s,
        relabel_s,
        bytes_ingested: stats::bytes_ingested(),
        peak_build_bytes: stats::peak_build_bytes(),
    }
}

/// Counts an instance produced; each repeats exactly for one seed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Decomposition parameter `k`.
    pub k: u64,
    /// Decomposition iterations.
    pub decomp_iterations: u64,
    /// Rounds of the decomposition (and forest split).
    pub decomp_rounds: u64,
    /// Rounds of the inner truly local algorithm.
    pub inner_rounds: u64,
    /// Sequential completion units: `T_R` components (Theorem 12) or
    /// non-empty star groups (Theorem 15).
    pub components: u64,
    /// Serialized certificate size in bytes.
    pub cert_bytes: u64,
}

/// What an instance produced: the determinism pins.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Executed LOCAL rounds.
    pub rounds: u64,
    /// FNV-1a digest of the output labeling.
    pub digest: u64,
    /// Structural counts.
    pub counts: Counts,
}

/// Runs the untraced instance: the public pipeline call plus verification.
///
/// # Errors
///
/// A message naming the check the output failed.
pub fn instance(w: Workload, input: &Input, fault: Fault) -> Result<Outcome, String> {
    if fault == Fault::Panic {
        panic!("injected fault: panic inside the {} instance", w.name());
    }
    match w {
        Workload::MisTree => mis_tree(input.tree(), fault),
        Workload::EdgecolTree => edgecol_tree(input.tree(), fault),
        Workload::Certify => certify(input.tree(), fault, &mut crate::trace::Off),
        Workload::SuiteQuick => suite_quick(fault, &mut crate::trace::Off),
    }
}

/// Runs the traced replay of the instance; its outcome must equal the
/// untraced one.
///
/// # Errors
///
/// As [`instance`].
pub fn traced(w: Workload, input: &Input, t: &mut Tracer) -> Result<Outcome, String> {
    match w {
        Workload::MisTree => mis_tree_traced(input.tree(), t),
        Workload::EdgecolTree => edgecol_tree_traced(input.tree(), t),
        Workload::Certify => certify(input.tree(), Fault::None, t),
        Workload::SuiteQuick => suite_quick(Fault::None, t),
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: u64, x: u64) -> u64 {
    x.to_le_bytes().iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

fn digest(xs: impl IntoIterator<Item = u64>) -> u64 {
    xs.into_iter().fold(FNV_OFFSET, fnv)
}

fn ensure(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what.to_string())
    }
}

// ---------------------------------------------------------------------
// mis-tree: Theorem 12 MIS
// ---------------------------------------------------------------------

fn mis_tree(tree: &Graph, fault: Fault) -> Result<Outcome, String> {
    let (out, mut set) = mis_on_tree(tree);
    if fault == Fault::FlipLabel {
        if let Some(b) = set.first_mut() {
            *b = !*b;
        }
    }
    let rc_rounds = out.executed.rounds_of("rake-compress(Alg1)");
    let gather = out.executed.rounds_of("gather-residual(Alg2)");
    let outcome = Outcome {
        rounds: out.total_rounds(),
        digest: digest(set.iter().map(|&b| u64::from(b))),
        counts: Counts {
            k: out.params.k as u64,
            decomp_iterations: u64::from(out.stats.decomposition_iterations),
            decomp_rounds: rc_rounds,
            inner_rounds: out.total_rounds() - rc_rounds - gather,
            components: out.stats.residual_components as u64,
            cert_bytes: 0,
        },
    };
    check_mis(tree, out.valid, &set, out.stats.sub_max_degree, out.params.k)?;
    check_mis_lemmas(tree, out.params.k, out.stats.decomposition_iterations)?;
    Ok(outcome)
}

/// The pipeline's own `valid` flag, the classic verifier and Lemma 10's
/// degree bound on `T_C`.
fn check_mis(
    tree: &Graph,
    valid: bool,
    set: &[bool],
    sub_max_degree: usize,
    k: usize,
) -> Result<(), String> {
    ensure(valid, "the pipeline reported an invalid labeling")?;
    ensure(classic::is_valid_mis(tree, set), "the classic verifier rejected the MIS")?;
    ensure(sub_max_degree <= k, "T_C has degree above k (Lemma 10)")
}

/// Recomputes the decomposition and checks Lemmas 10 and 11 on it.
fn check_mis_lemmas(tree: &Graph, k: usize, iterations: u32) -> Result<(), String> {
    let rc = rake_compress(tree, k);
    ensure(rc.iterations == iterations, "the recomputed decomposition differs")?;
    ensure(check_lemma10(tree, &rc), "Lemma 10 bound broken")?;
    ensure(check_lemma11(tree, &rc), "Lemma 11 bound broken")
}

fn mis_tree_traced(tree: &Graph, t: &mut Tracer) -> Result<Outcome, String> {
    t.span("core.pipeline", |t| {
        let gctx = GlobalCtx::of(tree);
        let model = ChargedModel::bek14_coloring();
        let k = k_for(tree.node_count(), |d| model.eval(d));
        let rc = t.span("decomp.rake_compress", |_| rake_compress(tree, k));
        let (tc, tr, sub_max_degree) = t.span("core.semigraph", |_| {
            let tc = rc.compressed_semigraph(tree);
            let d = tc.underlying_max_degree();
            (tc, rc.raked_semigraph(tree), d)
        });
        let (mut labeling, rep_a) = t.span("algos.inner", |_| MisAlgo.solve(&tc, &gctx, &Mis));
        let cc = t.span("graph.components", |_| components(&tr));
        // Each residual component is gathered at its highest node: the
        // members sorted highest first are also the completion order.
        let (orders, max_gather) = t.span("sim.gather", |_| {
            let order = rc.layer_order();
            let plan = GatherPlan::new(&tr);
            let mut max_gather = 0u64;
            let orders: Vec<Vec<NodeId>> = (0..cc.count())
                .map(|c| {
                    let mut members = cc.members(c).to_vec();
                    members.sort_by_key(|&x| std::cmp::Reverse((order.rank(x), tree.local_id(x))));
                    max_gather = max_gather.max(plan.rounds_at(members[0]));
                    members
                })
                .collect();
            (orders, max_gather)
        });
        let set = t.span("problems.complete", |_| {
            for members in &orders {
                solve_nodes_sequential(&Mis, tree, members, &mut labeling)
                    .map_err(|e| format!("sequential completion stuck: {e:?}"))?;
            }
            Ok::<_, String>(Mis.extract(tree, &labeling))
        })?;
        t.span("problems.verify", |_| {
            let valid = verify_graph(&Mis, tree, &labeling).is_ok();
            check_mis(tree, valid, &set, sub_max_degree, k)
        })?;
        t.span("decomp.lemma_check", |_| check_mis_lemmas(tree, k, rc.iterations))?;
        let inner_rounds = rep_a.total();
        Ok(Outcome {
            rounds: rc.rounds + inner_rounds + max_gather,
            digest: digest(set.iter().map(|&b| u64::from(b))),
            counts: Counts {
                k: k as u64,
                decomp_iterations: u64::from(rc.iterations),
                decomp_rounds: rc.rounds,
                inner_rounds,
                components: cc.count() as u64,
                cert_bytes: 0,
            },
        })
    })
}

// ---------------------------------------------------------------------
// edgecol-tree: Theorem 3 (edge-degree+1)-edge coloring
// ---------------------------------------------------------------------

fn edgecol_tree(tree: &Graph, fault: Fault) -> Result<Outcome, String> {
    let (out, mut colors) = edge_coloring_on_tree(tree);
    if fault == Fault::FlipLabel {
        if let Some(c) = colors.first_mut() {
            *c = u32::MAX;
        }
    }
    let decomp_rounds =
        out.executed.rounds_of("decomposition(Alg3)") + out.executed.rounds_of("forest-split(CV)");
    let star_rounds = out.executed.rounds_of("star-groups(Alg4)");
    let outcome = Outcome {
        rounds: out.total_rounds(),
        digest: digest(colors.iter().map(|&c| u64::from(c))),
        counts: Counts {
            k: out.params.k as u64,
            decomp_iterations: u64::from(out.stats.decomposition_iterations),
            decomp_rounds,
            inner_rounds: out.total_rounds() - decomp_rounds - star_rounds,
            components: out.stats.star_groups as u64,
            cert_bytes: 0,
        },
    };
    check_edgecol(tree, out.valid, &colors)?;
    Ok(outcome)
}

fn check_edgecol(tree: &Graph, valid: bool, colors: &[u32]) -> Result<(), String> {
    ensure(valid, "the pipeline reported an invalid labeling")?;
    ensure(
        classic::is_valid_edge_degree_coloring(tree, colors),
        "the classic verifier rejected the edge coloring",
    )
}

/// `EdgeColoringAlgo::solve` after its line-graph build: Linial and the
/// class sweep on `L(sub)`, read back into half-edge labels. Returns the
/// labeling and the simulated rounds.
fn color_line_graph(
    sub: &SemiGraph<'_>,
    l: &LineGraph,
    gctx: &GlobalCtx,
) -> Result<(HalfEdgeLabeling<EdgeColLabel>, u64), String> {
    let mut rounds = 0;
    let colors = if l.graph.node_count() == 0 {
        Vec::new()
    } else {
        let ctx = Ctx {
            topo: &l.graph,
            n: gctx.n,
            id_space: l.id_space,
            max_degree: l.graph.max_degree(),
        };
        let lin = run_linial(&ctx);
        rounds += simulated_rounds(lin.rounds);
        let red = sweep_reduce(&ctx, &lin.colors, lin.final_bound);
        rounds += simulated_rounds(red.rounds);
        red.colors
    };
    rounds += 1; // publishing the labels
    let mut labeling = HalfEdgeLabeling::new(sub.parent().edge_count());
    let g = sub.parent();
    for &e in sub.edges() {
        match sub.rank(e) {
            2 => {
                let ln = l.lnode_of[e.index()].ok_or("rank-2 edge without a line node")?;
                let b = colors[ln as usize].ok_or("uncolored line node")?;
                let [u, v] = g.endpoints(e);
                let au = sub.underlying_degree(u) as u32;
                let av = sub.underlying_degree(v) as u32;
                labeling.set_fresh(HalfEdge::new(e, Side::First), EdgeColLabel::C(au, b));
                labeling.set_fresh(HalfEdge::new(e, Side::Second), EdgeColLabel::C(av, b));
            }
            1 => {
                let side =
                    if sub.half_present(e, Side::First) { Side::First } else { Side::Second };
                labeling.set_fresh(HalfEdge::new(e, side), EdgeColLabel::D);
            }
            _ => {}
        }
    }
    Ok((labeling, rounds))
}

fn edgecol_tree_traced(tree: &Graph, t: &mut Tracer) -> Result<Outcome, String> {
    t.span("core.pipeline", |t| {
        let n = tree.node_count();
        let gctx = GlobalCtx::of(tree);
        let model = ChargedModel::bbko22b_edge_coloring();
        // Theorem 3 on trees: a = 1, ρ = 1, k = max(⌊g⌋, 5a, 2).
        let g_value = if n >= 4 { solve_g(n as f64, |d| model.eval(d)) } else { 2.0 };
        let k = (g_value.floor() as usize).max(5).max(2);
        let d = t.span("decomp.arb_decompose", |_| arb_decompose(tree, 1, k));
        let split = t.span("decomp.split", |_| split_atypical(tree, &d));
        let e2 = t.span("core.semigraph", |_| d.typical_semigraph(tree));
        let l = t.span("algos.line_graph", |_| line_graph(&e2));
        let (mut labeling, inner_rounds) =
            t.span("algos.inner", |_| color_line_graph(&e2, &l, &gctx))?;
        let (colors, star_rounds, groups) = t.span("problems.complete", |_| {
            let (mut star_rounds, mut groups) = (0u64, 0u64);
            for (i, j) in split.groups() {
                let mut edges = split.group_edges(i, j);
                if edges.is_empty() {
                    continue;
                }
                groups += 1;
                star_rounds += 3;
                edges.sort_unstable();
                solve_edges_sequential(&EdgeDegreeColoring, tree, &edges, &mut labeling)
                    .map_err(|e| format!("star-group completion stuck: {e:?}"))?;
            }
            Ok::<_, String>((EdgeDegreeColoring.extract(tree, &labeling), star_rounds, groups))
        })?;
        t.span("problems.verify", |_| {
            let valid = verify_graph(&EdgeDegreeColoring, tree, &labeling).is_ok();
            check_edgecol(tree, valid, &colors)
        })?;
        let decomp_rounds = d.rounds + split.rounds;
        Ok(Outcome {
            rounds: decomp_rounds + inner_rounds + star_rounds,
            digest: digest(colors.iter().map(|&c| u64::from(c))),
            counts: Counts {
                k: k as u64,
                decomp_iterations: u64::from(d.iterations),
                decomp_rounds,
                inner_rounds,
                components: groups,
                cert_bytes: 0,
            },
        })
    })
}

// ---------------------------------------------------------------------
// certify: transcript-recorded MIS pipeline and the certificate round trip
// ---------------------------------------------------------------------

/// Linial → KW → sweep on the whole tree with transcript recording, packed
/// into a `treelocal-cert v1` certificate. Also returns the MIS.
fn mis_certificate<P: Probe>(g: &Graph, p: &mut P) -> (Certificate, Vec<bool>) {
    let ctx = Ctx::of(g);
    transcript::begin();
    let mis = p.span("algos.inner", |_| {
        let lin = run_linial(&ctx);
        let kw = kw_reduce(&ctx, &lin.colors, lin.final_bound);
        mis_from_coloring(&ctx, &kw.colors, u64::from(kw.final_colors))
    });
    let t = transcript::take();
    let set: Vec<bool> =
        mis.decisions.iter().map(|d| matches!(d, Some(MisDecision::Member))).collect();
    let witnesses = mis
        .decisions
        .iter()
        .map(|d| match d {
            Some(MisDecision::NonMember { witness }) => {
                MisWitness::NonMember { witness: witness.index() }
            }
            _ => MisWitness::Member,
        })
        .collect();
    let segments = t
        .segments
        .iter()
        .map(|s| Segment {
            rounds: s.rounds,
            participants: s.halts.len(),
            halts: s.halts.iter().map(|&(v, r)| (v.index(), r)).collect(),
            commitments: s.commitments.clone(),
        })
        .collect();
    let edges = g
        .edge_ids()
        .map(|e| {
            let [u, v] = g.endpoints(e);
            (u.index(), v.index())
        })
        .collect();
    let cert = Certificate {
        instance: "perfbench/certify".to_string(),
        rule: Rule::Mis,
        nodes: g.node_count(),
        id_space: g.id_space(),
        edges,
        lists: None,
        solution: Solution::MisWitnesses(witnesses),
        envelope: Envelope::MisPipeline,
        rounds: t.total_rounds(),
        segments,
    };
    (cert, set)
}

fn flip_witness(cert: &mut Certificate, g: &Graph) {
    if let Solution::MisWitnesses(w) = &mut cert.solution {
        let v = NodeId::new(0);
        w[0] = match w[0] {
            MisWitness::Member => match g.neighbor_edges(v).first() {
                Some(e) => MisWitness::NonMember { witness: e.index() },
                None => MisWitness::Member,
            },
            MisWitness::NonMember { .. } => MisWitness::Member,
        };
    }
}

fn corrupt_commitment(text: &mut String) {
    if let Some(at) = text.find("\nc 1 ") {
        let i = at + "\nc 1 ".len();
        let flipped = if &text[i..=i] == "0" { "1" } else { "0" };
        text.replace_range(i..=i, flipped);
    }
}

fn certify<P: Probe>(g: &Graph, fault: Fault, p: &mut P) -> Result<Outcome, String> {
    p.span("check.round_trip", |p| {
        let (mut cert, set) = p.span("check.pipeline", |p| mis_certificate(g, p));
        if fault == Fault::FlipLabel {
            flip_witness(&mut cert, g);
        }
        let mut text = p.span("check.emit", |_| cert.to_text());
        if fault == Fault::CorruptCertificate {
            corrupt_commitment(&mut text);
        }
        let cert_bytes = text.len() as u64;
        let parsed = p.span("check.parse", |_| Certificate::parse(&text));
        drop(text);
        let parsed = parsed.map_err(|e| format!("certificate did not parse: {e:?}"))?;
        p.span("check.check", |_| {
            check_certificate(&parsed).map_err(|e| format!("certificate rejected: {e:?}"))?;
            ensure(parsed == cert, "the text round trip changed the certificate")
        })?;
        p.span("problems.verify", |_| {
            ensure(classic::is_valid_mis(g, &set), "the classic verifier rejected the MIS")
        })?;
        Ok(Outcome {
            rounds: cert.rounds,
            digest: digest(set.iter().map(|&b| u64::from(b))),
            counts: Counts { inner_rounds: cert.rounds, cert_bytes, ..Counts::default() },
        })
    })
}

// ---------------------------------------------------------------------
// suite-quick: the e1–e14 quick pass
// ---------------------------------------------------------------------

/// Span names of the experiments, in `all_experiment_ids` order.
pub const EXPERIMENT_SPANS: [&str; 14] = [
    "bench.e1",
    "bench.e2",
    "bench.e3",
    "bench.e4",
    "bench.e5",
    "bench.e6",
    "bench.e7",
    "bench.e8",
    "bench.e9",
    "bench.e10",
    "bench.e11",
    "bench.e12",
    "bench.e13",
    "bench.e14",
];

/// Rejects empty tables and any `false` in a `holds` / `*-ok` column.
fn check_tables(tables: &[treelocal_bench::Table]) -> Result<(), String> {
    for t in tables {
        ensure(!t.rows.is_empty(), &format!("table {} has no rows", t.id))?;
        for (c, h) in t.headers.iter().enumerate() {
            if h == "holds" || h.ends_with("-ok") {
                let broken = t.rows.iter().any(|r| r.get(c).map(String::as_str) != Some("true"));
                ensure(!broken, &format!("table {} reports a broken bound in {h}", t.id))?;
            }
        }
    }
    Ok(())
}

fn suite_quick<P: Probe>(fault: Fault, p: &mut P) -> Result<Outcome, String> {
    p.span("bench.pass", |p| {
        let driver = Driver::sequential();
        let c0 = SimCounters::now();
        let mut h = FNV_OFFSET;
        for (id, span) in all_experiment_ids().into_iter().zip(EXPERIMENT_SPANS) {
            let mut tables =
                p.span(span, |_| run_experiment_with_driver(id, ExperimentSize::Quick, &driver));
            if fault == Fault::FlipLabel && id == "e1" {
                if let Some(cell) = tables[0].rows[0].last_mut() {
                    *cell = "false".to_string();
                }
            }
            check_tables(&tables)?;
            for t in &tables {
                h = t.render().bytes().fold(h, |h, b| fnv(h, u64::from(b)));
            }
        }
        let rounds = SimCounters::now().since(c0).rounds;
        Ok(Outcome {
            rounds,
            digest: h,
            counts: Counts { inner_rounds: rounds, ..Counts::default() },
        })
    })
}
