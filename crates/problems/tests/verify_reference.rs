//! Differential pin for the graph-native verifier: `verify_graph(p, g, l)`
//! returns exactly `verify_semigraph(p, &SemiGraph::whole(g), l)` — the
//! same `Ok`, or the same `Violation` with the same edge, node and label
//! payload — on valid labelings and on seeded damage to them (dropped
//! halves, flipped labels, relabelled nodes, damage spread over several
//! edges), for every problem the pipelines verify.

use treelocal_gen::{caterpillar, random_forest, random_tree, relabel, star, IdStrategy};
use treelocal_graph::{widen_u64, EdgeId, Graph, HalfEdge, NodeId, SemiGraph, Side};
use treelocal_problems::{
    solve_edges_sequential, solve_nodes_sequential, verify_graph, verify_semigraph, BMatchLabel,
    BMatching, DegPlusOneColoring, DeltaPlusOneColoring, EdgeDegreeColoring, EdgeSequential,
    Enumerable, HalfEdgeLabeling, MaximalMatching, Mis, NodeSequential, Problem, Violation,
};

/// SplitMix64 finalizer: a deterministic value stream from a seed.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct Rng {
    seed: u64,
    i: u64,
}

impl Rng {
    fn below(&mut self, bound: usize) -> usize {
        self.i += 1;
        usize::try_from(mix(self.seed, self.i) % widen_u64(bound)).unwrap()
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len())]
    }
}

/// How often each outcome showed up, so the suite can prove it reached
/// every branch of both verifiers.
#[derive(Default)]
struct Tally {
    ok: usize,
    missing: usize,
    edge: usize,
    node: usize,
    /// Node violations at a node whose neighbor order is not its edge
    /// order: the case where the reported label order matters.
    node_reordered: usize,
}

fn assert_same<P: Problem>(p: &P, g: &Graph, l: &HalfEdgeLabeling<P::Label>, tally: &mut Tally) {
    let fast = verify_graph(p, g, l);
    let reference = verify_semigraph(p, &SemiGraph::whole(g), l);
    assert_eq!(fast, reference, "{}: verify_graph diverges from the semi-graph check", p.name());
    match fast {
        Ok(()) => tally.ok += 1,
        Err(Violation::Missing { .. }) => tally.missing += 1,
        Err(Violation::EdgeConstraint { .. }) => tally.edge += 1,
        Err(Violation::NodeConstraint { node, .. }) => {
            tally.node += 1;
            if !g.neighbor_edges(node).is_sorted() {
                tally.node_reordered += 1;
            }
        }
    }
}

fn halves_of(g: &Graph, v: NodeId) -> Vec<HalfEdge> {
    g.neighbor_edges(v).iter().map(|&e| HalfEdge::new(e, g.side_of(e, v))).collect()
}

/// One to three stacked mutations of `valid`.
fn damaged<L: Copy>(
    g: &Graph,
    valid: &HalfEdgeLabeling<L>,
    alphabet: &dyn Fn(HalfEdge) -> Vec<L>,
    rng: &mut Rng,
) -> HalfEdgeLabeling<L> {
    let mut l = valid.clone();
    let random_half = |rng: &mut Rng| {
        let e = EdgeId::new(rng.below(g.edge_count()));
        HalfEdge::new(e, rng.pick(&[Side::First, Side::Second]))
    };
    for _ in 0..=rng.below(3) {
        match rng.below(4) {
            // A dropped half.
            0 => {
                let h = random_half(rng);
                l.unset(h);
            }
            // A flipped label.
            1 => {
                let h = random_half(rng);
                let label = rng.pick(&alphabet(h));
                l.set(h, label);
            }
            // A relabelled node: every half at one node gets one label.
            2 => {
                let v = NodeId::new(rng.below(g.node_count()));
                let halves = halves_of(g, v);
                if let Some(&h) = halves.first() {
                    let label = rng.pick(&alphabet(h));
                    for h in halves {
                        l.set(h, label);
                    }
                }
            }
            // Damage over several edges, both halves each.
            _ => {
                for _ in 0..2 + rng.below(3) {
                    let e = EdgeId::new(rng.below(g.edge_count()));
                    for side in [Side::First, Side::Second] {
                        let h = HalfEdge::new(e, side);
                        let label = rng.pick(&alphabet(h));
                        l.set(h, label);
                    }
                }
            }
        }
    }
    l
}

fn instances() -> Vec<(String, Graph)> {
    let mut out = vec![
        ("single".to_string(), Graph::from_edges(1, &[]).unwrap()),
        ("edge".to_string(), Graph::from_edges(2, &[(0, 1)]).unwrap()),
        ("star".to_string(), star(12)),
        ("caterpillar".to_string(), caterpillar(6, 3)),
        ("forest".to_string(), random_forest(50, 0.7, 3)),
    ];
    for seed in 0..6 {
        let t = random_tree(40 + 10 * usize::try_from(seed).unwrap(), seed);
        out.push((format!("permuted-tree-{seed}"), relabel(&t, IdStrategy::Permuted { seed })));
        out.push((format!("tree-{seed}"), t));
    }
    out
}

/// Differential check of one problem on every instance: the valid labeling
/// the sequential solver builds, the empty labeling, and `rounds` damaged
/// copies of the valid one.
fn differential<P: Problem>(
    p: &P,
    solve: impl Fn(&Graph) -> HalfEdgeLabeling<P::Label>,
    alphabet: impl Fn(&Graph, HalfEdge) -> Vec<P::Label>,
    rounds: u64,
) -> Tally {
    let mut tally = Tally::default();
    for (seed, (name, g)) in (0u64..).zip(instances()) {
        let valid = solve(&g);
        assert_same(p, &g, &valid, &mut tally);
        assert!(
            verify_graph(p, &g, &valid).is_ok(),
            "{}: {name}: solver output rejected",
            p.name()
        );
        assert_same(p, &g, &HalfEdgeLabeling::for_graph(&g), &mut tally);
        if g.edge_count() == 0 {
            continue;
        }
        let mut rng = Rng { seed, i: 0 };
        for _ in 0..rounds {
            let l = damaged(&g, &valid, &|h| alphabet(&g, h), &mut rng);
            assert_same(p, &g, &l, &mut tally);
        }
    }
    tally
}

fn by_nodes<P: NodeSequential>(p: &P) -> impl Fn(&Graph) -> HalfEdgeLabeling<P::Label> + '_ {
    move |g| {
        let mut l = HalfEdgeLabeling::for_graph(g);
        solve_nodes_sequential(p, g, &g.node_ids().collect::<Vec<_>>(), &mut l).unwrap();
        l
    }
}

fn by_edges<P: EdgeSequential>(p: &P) -> impl Fn(&Graph) -> HalfEdgeLabeling<P::Label> + '_ {
    move |g| {
        let mut l = HalfEdgeLabeling::for_graph(g);
        solve_edges_sequential(p, g, &g.edge_ids().collect::<Vec<_>>(), &mut l).unwrap();
        l
    }
}

fn universe<P: Enumerable>(p: &P) -> impl Fn(&Graph, HalfEdge) -> Vec<P::Label> + '_ {
    move |g, h| p.universe(g, h)
}

/// Every outcome was reached, node violations included where the reported
/// label order differs from the neighbor order the fast path reads.
fn assert_covered(name: &str, t: &Tally) {
    assert!(t.ok > 0 && t.missing > 0 && t.edge > 0, "{name}: outcome not reached");
    assert!(t.node_reordered > 0, "{name}: no node violation at a reordered node");
}

#[test]
fn mis_verifiers_agree() {
    let t = differential(&Mis, by_nodes(&Mis), universe(&Mis), 300);
    assert_covered("mis", &t);
}

#[test]
fn maximal_matching_verifiers_agree() {
    let p = MaximalMatching;
    let t = differential(&p, by_edges(&p), universe(&p), 300);
    assert_covered("maximal matching", &t);
}

#[test]
fn b_matching_verifiers_agree() {
    for b in [1, 2, 3] {
        let p = BMatching { b };
        let alphabet = |_: &Graph, _: HalfEdge| {
            vec![BMatchLabel::M, BMatchLabel::S, BMatchLabel::O, BMatchLabel::D]
        };
        let t = differential(&p, by_edges(&p), alphabet, 300);
        assert_covered("b-matching", &t);
    }
}

#[test]
fn deg_plus_one_coloring_verifiers_agree() {
    let p = DegPlusOneColoring;
    let t = differential(&p, by_nodes(&p), universe(&p), 300);
    assert_covered("deg+1 coloring", &t);
}

#[test]
fn delta_plus_one_coloring_verifiers_agree() {
    // Δ is a property of each instance, so the problem is built per graph.
    let mut total = Tally::default();
    for (seed, (_, g)) in (0u64..).zip(instances()) {
        let p = DeltaPlusOneColoring { delta: g.max_degree() };
        let valid = by_nodes(&p)(&g);
        assert_same(&p, &g, &valid, &mut total);
        if g.edge_count() == 0 {
            continue;
        }
        let mut rng = Rng { seed, i: 0 };
        for _ in 0..300 {
            let l = damaged(&g, &valid, &|h| p.universe(&g, h), &mut rng);
            assert_same(&p, &g, &l, &mut total);
        }
    }
    assert_covered("delta+1 coloring", &total);
}

#[test]
fn edge_coloring_verifiers_agree() {
    let p = EdgeDegreeColoring;
    let t = differential(&p, by_edges(&p), universe(&p), 300);
    assert!(t.ok > 0 && t.missing > 0 && t.edge > 0, "edge coloring: outcome not reached");
    assert!(t.node > 0, "edge coloring: no node violation");
}
