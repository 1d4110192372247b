//! The synchronous execution engine.
//!
//! Definition 5 of the paper: in each round every node sends messages of
//! arbitrary size to its neighbors, receives theirs, and computes. Because
//! message size is unbounded, exchanging full local state is equivalent to
//! arbitrary messaging; the engine therefore models a round as "every node
//! reads the previous-round state of each neighbor and computes a new
//! state". Round counts are exactly those of a real deployment of the same
//! algorithm.

use std::fmt::Debug;
use treelocal_graph::OrInvariant;
use treelocal_graph::{NodeId, Topology};

/// Everything a node is allowed to know globally (Definition 5): the number
/// of nodes `n`, the identifier space, and the maximum degree.
#[derive(Clone, Debug)]
pub struct Ctx<'t, T> {
    /// The communication topology the algorithm runs on.
    pub topo: &'t T,
    /// The number of nodes of the *original* instance (nodes of a restricted
    /// semi-graph still know the global `n`).
    pub n: usize,
    /// Exclusive upper bound on LOCAL identifiers (the `n^c` of the model).
    pub id_space: u64,
    /// The maximum degree the algorithm may assume (`Δ` of the instance the
    /// algorithm is invoked on).
    pub max_degree: usize,
}

impl<'t, T: Topology> Ctx<'t, T> {
    /// A context with parameters taken directly from the topology.
    pub fn of(topo: &'t T) -> Self {
        Ctx {
            topo,
            n: topo.nodes().len(),
            id_space: topo.graph().id_space(),
            max_degree: topo.max_degree(),
        }
    }

    /// A context for running on a restriction of an instance with `n_global`
    /// nodes and the given identifier space.
    pub fn restricted(topo: &'t T, n_global: usize, id_space: u64) -> Self {
        Ctx { topo, n: n_global, id_space, max_degree: topo.max_degree() }
    }
}

/// A node's per-round decision: keep running or fix the output and stop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict<S> {
    /// Continue with the given state.
    Active(S),
    /// Terminate with the given (final) state. The state stays visible to
    /// neighbors for the remainder of the execution.
    Halted(S),
}

/// Read-only view of the previous round's states.
#[derive(Debug)]
pub struct Snapshot<'a, S> {
    states: &'a [Option<S>],
}

impl<S> Snapshot<'_, S> {
    /// A view over a state buffer (used by the shared execution core).
    pub(crate) fn over(states: &[Option<S>]) -> Snapshot<'_, S> {
        Snapshot { states }
    }

    /// The previous-round state of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not participate in the execution. Algorithms only
    /// read states of their topology neighbors, which always participate.
    pub fn get(&self, v: NodeId) -> &S {
        self.states[v.index()].as_ref().or_invariant("neighbor participates in the execution")
    }

    /// The previous-round state of `v`, or `None` when `v` is not running.
    pub fn try_get(&self, v: NodeId) -> Option<&S> {
        self.states[v.index()].as_ref()
    }
}

/// A deterministic synchronous LOCAL algorithm as a per-node state machine.
///
/// `init` is evaluated before any communication (round 0); each `step`
/// consumes exactly one communication round, in which the node observes the
/// previous-round states of its topology neighbors via [`Snapshot`].
pub trait SyncAlgorithm<T: Topology> {
    /// Per-node state; its full content is what neighbors can read (LOCAL
    /// messages are unbounded).
    type State: Clone + Debug;

    /// The state of `v` before any communication happened.
    fn init(&self, ctx: &Ctx<T>, v: NodeId) -> Verdict<Self::State>;

    /// One synchronous round at node `v`.
    fn step(
        &self,
        ctx: &Ctx<T>,
        v: NodeId,
        round: u64,
        own: &Self::State,
        prev: &Snapshot<'_, Self::State>,
    ) -> Verdict<Self::State>;
}

/// The result of running an algorithm to quiescence.
#[derive(Clone, Debug)]
pub struct RunOutcome<S> {
    /// Final per-node states (indexed by the parent graph's node space;
    /// `None` for non-participating nodes).
    pub states: Vec<Option<S>>,
    /// Number of communication rounds executed (the maximum halting round
    /// over all nodes).
    pub rounds: u64,
}

impl<S> RunOutcome<S> {
    /// The final state of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` did not participate.
    pub fn state(&self, v: NodeId) -> &S {
        self.states[v.index()].as_ref().or_invariant("node participated in the run")
    }
}

/// Thread-shareability marker used by the engine's generic bounds.
///
/// With the `parallel` feature this is `Send + Sync` (auto-implemented for
/// every `Send + Sync` type), which is what lets [`run`] step frontier
/// chunks on pool workers. Without the feature it is implemented for
/// **every** type, so the bound is vacuous and sequential builds accept
/// exactly the types they always did. Generic code that feeds algorithms
/// or topologies into [`run`] writes `T: ParSafe` once instead of
/// feature-gated signatures.
#[cfg(feature = "parallel")]
pub trait ParSafe: Send + Sync {}
#[cfg(feature = "parallel")]
impl<T: Send + Sync + ?Sized> ParSafe for T {}

/// Thread-shareability marker used by the engine's generic bounds (vacuous
/// without the `parallel` feature; see the feature-gated docs).
#[cfg(not(feature = "parallel"))]
pub trait ParSafe {}
#[cfg(not(feature = "parallel"))]
impl<T: ?Sized> ParSafe for T {}

/// Runs `algo` on `ctx.topo` until every node halts.
///
/// Built on the shared [`ExecCore`](crate::ExecCore): each round steps only
/// the active frontier, halted states are moved into place once and never
/// cloned, and commit happens after every frontier node has read the
/// previous round — exactly the synchronous semantics of Definition 5.
///
/// With the `parallel` feature, large frontiers are stepped on the
/// vendored rayon pool ([`crate::par::auto_threads`] sizes it; the
/// `TREELOCAL_THREADS` environment variable overrides). Outcomes and round
/// counts are byte-identical to a sequential run — pinned by
/// `tests/parallel_equiv.rs`.
///
/// # Panics
///
/// Panics if the algorithm has not fully halted after `max_rounds` rounds —
/// a deterministic LOCAL algorithm that exceeds a generous round budget is a
/// bug, not a runtime condition.
pub fn run<T, A>(ctx: &Ctx<'_, T>, algo: &A, max_rounds: u64) -> RunOutcome<A::State>
where
    T: Topology + ParSafe,
    A: SyncAlgorithm<T> + ParSafe,
    A::State: ParSafe,
{
    #[cfg(feature = "parallel")]
    {
        run_with_threads(ctx, algo, max_rounds, crate::par::auto_threads())
    }
    #[cfg(not(feature = "parallel"))]
    {
        let mut core = crate::ExecCore::new(ctx.topo.index_space());
        for v in ctx.topo.nodes() {
            core.seed(v, algo.init(ctx, v));
        }
        while !core.is_done() {
            let round = core.begin_round(max_rounds);
            core.step_snapshot(|v, own, snap| algo.step(ctx, v, round, own, snap));
        }
        core.finish()
    }
}

/// [`run`] with an explicit pool size (1 forces sequential execution).
///
/// Exists so tests and harnesses can compare pool sizes; every size
/// produces the same [`RunOutcome`].
///
/// # Panics
///
/// As [`run`].
#[cfg(feature = "parallel")]
pub fn run_with_threads<T, A>(
    ctx: &Ctx<'_, T>,
    algo: &A,
    max_rounds: u64,
    threads: usize,
) -> RunOutcome<A::State>
where
    T: Topology + ParSafe,
    A: SyncAlgorithm<T> + ParSafe,
    A::State: ParSafe,
{
    let mut core = crate::ExecCore::new(ctx.topo.index_space());
    for v in ctx.topo.nodes() {
        core.seed(v, algo.init(ctx, v));
    }
    while !core.is_done() {
        let round = core.begin_round(max_rounds);
        core.step_snapshot_threads(threads, |v, own, snap| algo.step(ctx, v, round, own, snap));
    }
    core.finish()
}

/// A deterministic synchronous LOCAL algorithm stepping over
/// codec-encoded state ([`crate::StateCodec`]).
///
/// The semantics are exactly [`SyncAlgorithm`]'s — `init` before any
/// communication, each `step` one synchronous round reading the previous
/// round through a snapshot — with two signature changes forced by the
/// flat-column layout: `own` arrives **by value** (decoded from the
/// node's lanes, not borrowed from a state buffer) and neighbor reads via
/// [`SoaSnapshot::get`](crate::SoaSnapshot::get) decode by value too.
/// Problems implement both traits over the same state type and the
/// equivalence suites assert the two paths agree byte for byte.
///
/// Algorithms in which a node idles until a known round — the colour-class
/// sweeps, where each node acts in exactly one round — declare that round
/// through [`wake_round`](SoaAlgorithm::wake_round), and [`run_soa`] parks
/// the node until then instead of stepping it every round. Message runs
/// ([`crate::run_messages_soa`]) take a different trait and never park: a
/// parked node would stop sending.
pub trait SoaAlgorithm<T: Topology> {
    /// Per-node state with a fixed-width lane encoding.
    type State: crate::StateCodec;

    /// The state of `v` before any communication happened.
    fn init(&self, ctx: &Ctx<T>, v: NodeId) -> Verdict<Self::State>;

    /// The first round in which a node seeded `Active(own)` must be
    /// stepped. The engine reads it once, when it seeds the node.
    ///
    /// The contract: in every round before the returned one, [`step`]
    /// would return `Active(own)` unchanged, whatever the neighbors hold.
    /// The engine then skips those steps; the node still counts as live
    /// in [`counters`](crate::counters), in transcripts and for its
    /// neighbors, so outcomes, rounds and counters are exactly those of
    /// stepping it every round. The default, 1, parks nothing.
    ///
    /// [`step`]: SoaAlgorithm::step
    fn wake_round(&self, own: &Self::State) -> u64 {
        let _ = own;
        1
    }

    /// One synchronous round at node `v`.
    fn step(
        &self,
        ctx: &Ctx<T>,
        v: NodeId,
        round: u64,
        own: Self::State,
        prev: &crate::SoaSnapshot<'_, Self::State>,
    ) -> Verdict<Self::State>;
}

/// Runs a codec-backed algorithm on `ctx.topo` until every node halts —
/// [`run`] over [`crate::ExecCoreSoa`] instead of the boxed core.
///
/// Outcomes, round counts and work counters are identical to running the
/// same logic through [`run`]; only the state layout (and therefore cache
/// behavior and peak memory) differs. Nodes whose
/// [`SoaAlgorithm::wake_round`] lies ahead are parked rather than stepped
/// until then, which turns a colour-class sweep over `m` classes from
/// `O(n·m)` node visits into `O(n + m)` without changing any of those
/// observables (`tests/wake_equiv.rs`). With the `parallel` feature large
/// frontiers step on the vendored rayon pool, byte-identically for every
/// pool size — pinned by `tests/soa_equiv.rs`.
///
/// # Panics
///
/// As [`run`]: panics if the algorithm has not halted after `max_rounds`.
pub fn run_soa<T, A>(ctx: &Ctx<'_, T>, algo: &A, max_rounds: u64) -> crate::SoaOutcome<A::State>
where
    T: Topology + ParSafe,
    A: SoaAlgorithm<T> + ParSafe,
    A::State: ParSafe,
{
    #[cfg(feature = "parallel")]
    {
        run_soa_with_threads(ctx, algo, max_rounds, crate::par::auto_threads())
    }
    #[cfg(not(feature = "parallel"))]
    {
        let mut core = seed_soa(ctx, algo);
        while !core.is_done() {
            let round = core.begin_round(max_rounds);
            core.step_snapshot(|v, own, snap| algo.step(ctx, v, round, own, snap));
        }
        core.finish()
    }
}

/// [`run_soa`] with an explicit pool size (1 forces sequential execution);
/// every size produces the same [`crate::SoaOutcome`].
///
/// # Panics
///
/// As [`run_soa`].
#[cfg(feature = "parallel")]
pub fn run_soa_with_threads<T, A>(
    ctx: &Ctx<'_, T>,
    algo: &A,
    max_rounds: u64,
    threads: usize,
) -> crate::SoaOutcome<A::State>
where
    T: Topology + ParSafe,
    A: SoaAlgorithm<T> + ParSafe,
    A::State: ParSafe,
{
    let mut core = seed_soa(ctx, algo);
    while !core.is_done() {
        let round = core.begin_round(max_rounds);
        core.step_snapshot_threads(threads, |v, own, snap| algo.step(ctx, v, round, own, snap));
    }
    core.finish()
}

/// A codec core seeded with every node's round-0 verdict, `Active` nodes
/// parked until their [`SoaAlgorithm::wake_round`].
fn seed_soa<T: Topology, A: SoaAlgorithm<T>>(
    ctx: &Ctx<'_, T>,
    algo: &A,
) -> crate::ExecCoreSoa<A::State> {
    let mut core = crate::ExecCoreSoa::new(ctx.topo.index_space());
    for v in ctx.topo.nodes() {
        let verdict = algo.init(ctx, v);
        let wake = match &verdict {
            Verdict::Active(s) => algo.wake_round(s),
            Verdict::Halted(_) => 1,
        };
        core.seed_parked(v, verdict, wake);
    }
    core
}

#[cfg(test)]
mod tests {
    use super::*;
    use treelocal_graph::{widen_u64, Graph};

    /// Every node computes its eccentricity-capped hop distance from the
    /// minimum-id node by flooding.
    struct Flood;

    #[derive(Clone, Debug, PartialEq)]
    struct Dist(Option<u64>);

    impl<T: Topology> SyncAlgorithm<T> for Flood {
        type State = Dist;

        fn init(&self, ctx: &Ctx<T>, v: NodeId) -> Verdict<Dist> {
            let my = ctx.topo.local_id(v);
            let is_min = ctx.topo.nodes().all(|w| ctx.topo.local_id(w) >= my);
            // Knowing the global minimum id is NOT something a LOCAL node can
            // do; this test algorithm only uses it because ids are index+1
            // here, making node 0 the source. Fine for engine testing.
            if is_min {
                Verdict::Active(Dist(Some(0)))
            } else {
                Verdict::Active(Dist(None))
            }
        }

        fn step(
            &self,
            ctx: &Ctx<T>,
            v: NodeId,
            _round: u64,
            own: &Dist,
            prev: &Snapshot<'_, Dist>,
        ) -> Verdict<Dist> {
            if let Dist(Some(d)) = own {
                return Verdict::Halted(Dist(Some(*d)));
            }
            let best = ctx.topo.neighbor_nodes(v).iter().filter_map(|&w| prev.get(w).0).min();
            match best {
                Some(d) => Verdict::Active(Dist(Some(d + 1))),
                None => Verdict::Active(Dist(None)),
            }
        }
    }

    #[test]
    fn flood_on_path_counts_rounds() {
        let g = Graph::from_edges(5, &(0..4).map(|i| (i, i + 1)).collect::<Vec<_>>()).unwrap();
        let ctx = Ctx::of(&g);
        let out = run(&ctx, &Flood, 100);
        for i in 0..5 {
            assert_eq!(out.state(NodeId::new(i)).0, Some(widen_u64(i)));
        }
        // The farthest node learns its distance in round 4 and halts in
        // round 5.
        assert_eq!(out.rounds, 5);
    }

    #[test]
    fn zero_round_algorithm() {
        struct Instant;
        impl<T: Topology> SyncAlgorithm<T> for Instant {
            type State = u64;
            fn init(&self, ctx: &Ctx<T>, v: NodeId) -> Verdict<u64> {
                Verdict::Halted(ctx.topo.local_id(v))
            }
            fn step(
                &self,
                _: &Ctx<T>,
                _: NodeId,
                _: u64,
                s: &u64,
                _: &Snapshot<'_, u64>,
            ) -> Verdict<u64> {
                Verdict::Halted(*s)
            }
        }
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let ctx = Ctx::of(&g);
        let out = run(&ctx, &Instant, 10);
        assert_eq!(out.rounds, 0);
        assert_eq!(*out.state(NodeId::new(2)), 3);
    }

    #[test]
    #[should_panic(expected = "did not halt")]
    fn runaway_algorithm_is_detected() {
        struct Forever;
        impl<T: Topology> SyncAlgorithm<T> for Forever {
            type State = ();
            fn init(&self, _: &Ctx<T>, _: NodeId) -> Verdict<()> {
                Verdict::Active(())
            }
            fn step(
                &self,
                _: &Ctx<T>,
                _: NodeId,
                _: u64,
                _: &(),
                _: &Snapshot<'_, ()>,
            ) -> Verdict<()> {
                Verdict::Active(())
            }
        }
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let ctx = Ctx::of(&g);
        let _ = run(&ctx, &Forever, 5);
    }

    #[test]
    fn empty_topology_runs_zero_rounds() {
        let g = Graph::from_edges(0, &[]).unwrap();
        let ctx = Ctx::of(&g);
        let out = run(&ctx, &Flood, 10);
        assert_eq!(out.rounds, 0);
        assert!(out.states.is_empty());
    }
}
