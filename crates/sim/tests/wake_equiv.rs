//! Wake-round parking equivalence: parking a node until its
//! [`SoaAlgorithm::wake_round`] is a work-skipping change, never a
//! semantics change. Every algorithm that declares wake rounds runs twice
//! through [`run_soa`] — as itself, and wrapped in [`NoPark`], which
//! forwards `init`/`step` but keeps the default wake round of 1 so every
//! live node is stepped every round — on random trees, their line graphs
//! and a restricted semi-graph. Both runs must agree on the raw lane
//! columns, the round count, every process-wide counter delta and, when a
//! transcript records, every segment (halts and frontier commitments).
//! Under `--features parallel` the parked run must also match at pool
//! sizes 1, 2 and 4.
//!
//! The counters are global and monotone, so every test in this binary
//! serializes on one mutex; keep counter-oblivious tests out of this file.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use treelocal_algos::{
    kw_reduce, line_graph, run_linial, KwPhase, ListSweep, MisSweep, SweepPhase,
};
use treelocal_graph::{narrow_u32, widen_u64, Graph, NodeId, SemiGraph, Topology};
use treelocal_sim::transcript::{self, Transcript};
use treelocal_sim::{
    counters, run_soa, Ctx, ParSafe, SoaAlgorithm, SoaSnapshot, StateCodec, Verdict,
};

/// Serializes the tests in this binary so counter deltas are attributable.
static LOCK: Mutex<()> = Mutex::new(());

/// Forwards `init` and `step` to the wrapped algorithm but keeps the
/// default `wake_round`, so the engine steps every live node every round.
struct NoPark<A>(A);

impl<T: Topology, A: SoaAlgorithm<T>> SoaAlgorithm<T> for NoPark<A> {
    type State = A::State;

    fn init(&self, ctx: &Ctx<T>, v: NodeId) -> Verdict<A::State> {
        self.0.init(ctx, v)
    }

    fn step(
        &self,
        ctx: &Ctx<T>,
        v: NodeId,
        round: u64,
        own: A::State,
        prev: &SoaSnapshot<'_, A::State>,
    ) -> Verdict<A::State> {
        self.0.step(ctx, v, round, own, prev)
    }
}

/// Forwards everything, wake rounds included, and counts `step` calls.
struct Counting<A> {
    inner: A,
    steps: AtomicU64,
}

impl<T: Topology, A: SoaAlgorithm<T>> SoaAlgorithm<T> for Counting<A> {
    type State = A::State;

    fn init(&self, ctx: &Ctx<T>, v: NodeId) -> Verdict<A::State> {
        self.inner.init(ctx, v)
    }

    fn wake_round(&self, own: &A::State) -> u64 {
        self.inner.wake_round(own)
    }

    fn step(
        &self,
        ctx: &Ctx<T>,
        v: NodeId,
        round: u64,
        own: A::State,
        prev: &SoaSnapshot<'_, A::State>,
    ) -> Verdict<A::State> {
        self.steps.fetch_add(1, Ordering::Relaxed);
        self.inner.step(ctx, v, round, own, prev)
    }
}

/// Everything a run exposes: lane bytes, rounds, counter deltas
/// `(rounds, node steps, send steps)` and the transcript.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    lanes32: Vec<u32>,
    lanes64: Vec<u64>,
    rounds: u64,
    counters: (u64, u64, u64),
    transcript: Transcript,
}

/// One run of `algo`, recording a transcript iff `record`, on `threads`
/// pool workers (`None`: the default entry point).
fn observe<T, A>(
    ctx: &Ctx<'_, T>,
    algo: &A,
    max_rounds: u64,
    record: bool,
    threads: Option<usize>,
) -> Observed
where
    T: Topology + ParSafe,
    A: SoaAlgorithm<T> + ParSafe,
    A::State: ParSafe,
{
    let (r0, s0, m0) = counters::snapshot();
    if record {
        transcript::begin();
    }
    let out = match threads {
        #[cfg(feature = "parallel")]
        Some(t) => treelocal_sim::run_soa_with_threads(ctx, algo, max_rounds, t),
        _ => run_soa(ctx, algo, max_rounds),
    };
    let transcript = transcript::take();
    let (r1, s1, m1) = counters::snapshot();
    let (lanes32, lanes64) = out.lanes();
    Observed {
        lanes32: lanes32.to_vec(),
        lanes64: lanes64.to_vec(),
        rounds: out.rounds,
        counters: (r1 - r0, s1 - s0, m1 - m0),
        transcript,
    }
}

/// Asserts that `algo` and `NoPark(algo)` are indistinguishable, with and
/// without a transcript recorder.
fn assert_parking_invisible<T, A>(ctx: &Ctx<'_, T>, algo: A, max_rounds: u64, label: &str)
where
    T: Topology + ParSafe,
    A: SoaAlgorithm<T> + ParSafe,
    A::State: ParSafe,
{
    let unparked = NoPark(algo);
    for record in [false, true] {
        let parked = observe(ctx, &unparked.0, max_rounds, record, None);
        let reference = observe(ctx, &unparked, max_rounds, record, None);
        assert_eq!(parked, reference, "{label}, record {record}");
        assert_eq!(parked.transcript.segments.is_empty(), !record || parked.rounds == 0, "{label}");
    }
}

/// A toy algorithm whose nodes park for a few rounds, then run several
/// order-sensitive rounds reading parked, woken and halted neighbors
/// alike; nodes with an id divisible by 11 halt at seeding.
struct StaggeredWake;

#[derive(Clone, Debug, PartialEq, Eq)]
struct WakeState {
    value: u64,
    wake: u64,
    ticks: u32,
}

impl StateCodec for WakeState {
    const U32_LANES: usize = 1;
    const U64_LANES: usize = 2;

    fn encode(&self, lanes32: &mut [u32], lanes64: &mut [u64]) {
        lanes32[0] = self.ticks;
        lanes64[0] = self.value;
        lanes64[1] = self.wake;
    }

    fn decode(lanes32: &[u32], lanes64: &[u64]) -> Self {
        WakeState { value: lanes64[0], wake: lanes64[1], ticks: lanes32[0] }
    }
}

impl<T: Topology> SoaAlgorithm<T> for StaggeredWake {
    type State = WakeState;

    fn init(&self, ctx: &Ctx<T>, v: NodeId) -> Verdict<WakeState> {
        let id = ctx.topo.local_id(v);
        let state = WakeState { value: id, wake: 1 + id % 6, ticks: 0 };
        if id.is_multiple_of(11) {
            Verdict::Halted(state)
        } else {
            Verdict::Active(state)
        }
    }

    fn wake_round(&self, own: &WakeState) -> u64 {
        own.wake
    }

    fn step(
        &self,
        ctx: &Ctx<T>,
        v: NodeId,
        round: u64,
        own: WakeState,
        prev: &SoaSnapshot<'_, WakeState>,
    ) -> Verdict<WakeState> {
        if round < own.wake {
            return Verdict::Active(own);
        }
        let mut acc = own.value;
        for &w in ctx.topo.neighbor_nodes(v) {
            let s = prev.get(w);
            acc = acc.wrapping_mul(0x100000001b3).wrapping_add(s.value ^ u64::from(s.ticks));
        }
        let next = WakeState { value: acc, wake: own.wake, ticks: own.ticks + 1 };
        if round >= own.wake + ctx.topo.local_id(v) % 4 {
            Verdict::Halted(next)
        } else {
            Verdict::Active(next)
        }
    }
}

fn trees() -> Vec<(String, Graph)> {
    (0..3u64)
        .map(|seed| {
            let n = 1500 + 700 * usize::try_from(seed).expect("small seed");
            let g = treelocal_gen::relabel(
                &treelocal_gen::random_tree(n, seed),
                treelocal_gen::IdStrategy::Permuted { seed },
            );
            (format!("tree n {n} seed {seed}"), g)
        })
        .collect()
}

/// The tree itself and its line graph.
fn instances() -> Vec<(String, Graph)> {
    let mut out = Vec::new();
    for (label, g) in trees() {
        let l = line_graph(&SemiGraph::whole(&g)).graph;
        out.push((format!("line graph of {label}"), l));
        out.push((label, g));
    }
    out
}

/// Lists of `deg + 1` colors, offset per instance.
fn lists_for<T: Topology>(topo: &T, offset: u32) -> Vec<Vec<u32>> {
    (0..topo.index_space())
        .map(|i| {
            let deg =
                if topo.contains_node(NodeId::new(i)) { topo.degree(NodeId::new(i)) } else { 0 };
            (0..=narrow_u32(deg)).map(|k| offset + 3 * k + 1).collect()
        })
        .collect()
}

/// Runs every opted-in algorithm, parked and unparked, on `ctx`.
fn check_all_sweeps<T: Topology + ParSafe>(ctx: &Ctx<'_, T>, label: &str) {
    let lin = run_linial(ctx);
    let m = lin.final_bound;
    assert_parking_invisible(
        ctx,
        SweepPhase::new(&lin.colors, m),
        m + 2,
        &format!("sweep, {label}"),
    );
    let slots = widen_u64(ctx.max_degree) + 1;
    assert_parking_invisible(
        ctx,
        KwPhase::new(&lin.colors, m, slots),
        2 * slots + 2,
        &format!("kw phase, {label}"),
    );
    let lists = lists_for(ctx.topo, 5);
    assert_parking_invisible(
        ctx,
        ListSweep::new(&lin.colors, m, &lists),
        m + 2,
        &format!("list sweep, {label}"),
    );
    let red = kw_reduce(ctx, &lin.colors, m);
    let mc = u64::from(red.final_colors);
    assert_parking_invisible(ctx, MisSweep::new(&red.colors, mc), mc + 2, &format!("mis, {label}"));
    assert_parking_invisible(ctx, StaggeredWake, 64, &format!("staggered, {label}"));
}

#[test]
fn parking_is_invisible_on_trees_and_line_graphs() {
    let _guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    for (label, g) in instances() {
        check_all_sweeps(&Ctx::of(&g), &label);
    }
}

#[test]
fn parking_is_invisible_on_a_restricted_semigraph() {
    let _guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    for (label, g) in trees() {
        // Drop every third node: a forest whose index space is larger
        // than its node set, like the `T_C` restrictions of the pipeline.
        let s = SemiGraph::induced_by_nodes(&g, |v| v.index() % 3 != 0);
        let ctx = Ctx::restricted(&s, g.node_count(), g.id_space());
        check_all_sweeps(&ctx, &format!("restricted {label}"));
    }
}

#[test]
fn a_sweep_steps_each_node_once() {
    let _guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    for (label, g) in instances() {
        let ctx = Ctx::of(&g);
        let lin = run_linial(&ctx);
        let algo =
            Counting { inner: SweepPhase::new(&lin.colors, lin.final_bound), steps: 0.into() };
        let (_, s0, _) = counters::snapshot();
        let out = run_soa(&ctx, &algo, lin.final_bound + 2);
        let (_, s1, _) = counters::snapshot();
        // Parked: one step per node. Charged: every non-halted node-round.
        assert_eq!(algo.steps.load(Ordering::Relaxed), widen_u64(g.node_count()), "{label}");
        assert!(s1 - s0 >= widen_u64(g.node_count()), "{label}");
        assert!(out.rounds <= lin.final_bound, "{label}");
    }
}

#[cfg(feature = "parallel")]
#[test]
fn parking_is_invisible_at_every_pool_size() {
    let _guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    for (label, g) in instances() {
        let ctx = Ctx::of(&g);
        let lin = run_linial(&ctx);
        let m = lin.final_bound;
        for record in [false, true] {
            let sweep = SweepPhase::new(&lin.colors, m);
            let reference = observe(&ctx, &NoPark(sweep), m + 2, record, Some(1));
            let toy = observe(&ctx, &NoPark(StaggeredWake), 64, record, Some(1));
            for threads in [1usize, 2, 4] {
                let parked = observe(&ctx, &sweep, m + 2, record, Some(threads));
                assert_eq!(parked, reference, "sweep, {label}, {threads} threads");
                let parked = observe(&ctx, &StaggeredWake, 64, record, Some(threads));
                assert_eq!(parked, toy, "staggered, {label}, {threads} threads");
            }
        }
    }
}
