//! Transcript halts are emitted by the execution core at `finish()`, from
//! the halt round it kept per node: each segment must list every
//! participant exactly once, strictly ascending by node, with the round
//! the algorithm itself halted it in. An instrumented algorithm halts
//! nodes out of index order and logs the round of every halting verdict;
//! the recorded halts must equal that log on every engine (boxed `run`,
//! `run_soa` parked and unparked, `run_messages`, `run_messages_soa`), on
//! a whole tree and a node-restricted semi-graph, and under
//! `--features parallel` at pool sizes 1, 2 and 4. The engine-blind
//! checker must accept each recorded transcript, and must reject every
//! transcript a core dropped before `finish()` contributed to.

use std::sync::atomic::{AtomicU64, Ordering};
use treelocal_check::{
    check_certificate, Certificate, CheckError, Envelope, Palette, Rule, Segment, Solution,
};
use treelocal_gen::random_tree;
use treelocal_graph::{widen_u64, Graph, NodeId, SemiGraph, Topology};
use treelocal_sim::transcript::{self, Transcript};
use treelocal_sim::{
    run, run_messages, run_messages_soa, run_soa, Ctx, ExecCore, ExecCoreSoa, MessageAlgorithm,
    ParSafe, Snapshot, SoaAlgorithm, SoaSnapshot, StateCodec, Verdict,
};

/// Not halted (yet).
const RUNNING: u64 = u64::MAX;

/// The round node `v` halts in: scattered over `1..=9` against the index
/// order, and `0` (halted at seeding) for every seventh node where the
/// engine allows it.
fn halt_round(v: NodeId, seeded_halts: bool) -> u64 {
    let i = widen_u64(v.index());
    if seeded_halts && i % 7 == 3 {
        0
    } else {
        1 + (i * 37 + 11) % 9
    }
}

/// A node's state: the round it will halt in.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Due(u64);

impl StateCodec for Due {
    const U32_LANES: usize = 0;
    const U64_LANES: usize = 1;
    fn encode(&self, _lanes32: &mut [u32], lanes64: &mut [u64]) {
        lanes64[0] = self.0;
    }
    fn decode(_lanes32: &[u32], lanes64: &[u64]) -> Self {
        Due(lanes64[0])
    }
}

/// Halts every node in its [`halt_round`] and logs the round of each
/// halting verdict it returns.
struct Timer {
    log: Vec<AtomicU64>,
    /// Whether `wake_round` parks a node until its halt round.
    park: bool,
}

impl Timer {
    fn new(index_space: usize, park: bool) -> Self {
        Timer { log: (0..index_space).map(|_| AtomicU64::new(RUNNING)).collect(), park }
    }

    fn seed(&self, v: NodeId, seeded_halts: bool) -> Verdict<Due> {
        match halt_round(v, seeded_halts) {
            0 => self.halt(v, 0),
            r => Verdict::Active(Due(r)),
        }
    }

    fn halt(&self, v: NodeId, round: u64) -> Verdict<Due> {
        let before = self.log[v.index()].swap(round, Ordering::Relaxed);
        assert_eq!(before, RUNNING, "node {v:?} halted twice");
        Verdict::Halted(Due(round))
    }

    fn tick(&self, v: NodeId, round: u64, own: Due) -> Verdict<Due> {
        if round >= own.0 {
            self.halt(v, round)
        } else {
            Verdict::Active(own)
        }
    }

    fn log(&self) -> Vec<u64> {
        self.log.iter().map(|r| r.load(Ordering::Relaxed)).collect()
    }
}

impl<T: Topology> treelocal_sim::SyncAlgorithm<T> for Timer {
    type State = Due;
    fn init(&self, _ctx: &Ctx<T>, v: NodeId) -> Verdict<Due> {
        self.seed(v, true)
    }
    fn step(
        &self,
        _ctx: &Ctx<T>,
        v: NodeId,
        round: u64,
        own: &Due,
        _prev: &Snapshot<'_, Due>,
    ) -> Verdict<Due> {
        self.tick(v, round, own.clone())
    }
}

impl<T: Topology> SoaAlgorithm<T> for Timer {
    type State = Due;
    fn init(&self, _ctx: &Ctx<T>, v: NodeId) -> Verdict<Due> {
        self.seed(v, true)
    }
    fn wake_round(&self, own: &Due) -> u64 {
        if self.park {
            own.0
        } else {
            1
        }
    }
    fn step(
        &self,
        _ctx: &Ctx<T>,
        v: NodeId,
        round: u64,
        own: Due,
        _prev: &SoaSnapshot<'_, Due>,
    ) -> Verdict<Due> {
        self.tick(v, round, own)
    }
}

impl<T: Topology> MessageAlgorithm<T> for Timer {
    type State = Due;
    type Msg = ();
    fn init(&self, _ctx: &Ctx<T>, v: NodeId) -> Due {
        Due(halt_round(v, false))
    }
    fn send(&self, ctx: &Ctx<T>, v: NodeId, _round: u64, _state: &Due) -> Vec<Option<()>> {
        vec![Some(()); ctx.topo.neighbor_nodes(v).len()]
    }
    fn receive(
        &self,
        _ctx: &Ctx<T>,
        v: NodeId,
        round: u64,
        state: Due,
        _inbox: &[Option<()>],
    ) -> Verdict<Due> {
        self.tick(v, round, state)
    }
}

/// The engines under test; `threads` picks a pool size in `parallel`
/// builds (`None`: the default entry point).
#[derive(Clone, Copy, Debug)]
enum Engine {
    Boxed,
    SoaParked,
    SoaUnparked,
    Messages,
    MessagesSoa,
}

const ENGINES: [Engine; 5] =
    [Engine::Boxed, Engine::SoaParked, Engine::SoaUnparked, Engine::Messages, Engine::MessagesSoa];

fn pool_sizes() -> Vec<Option<usize>> {
    #[cfg(feature = "parallel")]
    {
        vec![None, Some(1), Some(2), Some(4)]
    }
    #[cfg(not(feature = "parallel"))]
    {
        vec![None]
    }
}

/// Runs `engine` with a recorder armed; returns the transcript and the
/// algorithm's own halt log.
fn record<T: Topology + ParSafe>(
    ctx: &Ctx<'_, T>,
    engine: Engine,
    threads: Option<usize>,
) -> (Transcript, Vec<u64>) {
    let timer = Timer::new(ctx.topo.index_space(), matches!(engine, Engine::SoaParked));
    let max = 20;
    transcript::begin();
    match (engine, threads) {
        #[cfg(feature = "parallel")]
        (Engine::Boxed, Some(t)) => drop(treelocal_sim::run_with_threads(ctx, &timer, max, t)),
        #[cfg(feature = "parallel")]
        (Engine::SoaParked | Engine::SoaUnparked, Some(t)) => {
            drop(treelocal_sim::run_soa_with_threads(ctx, &timer, max, t))
        }
        #[cfg(feature = "parallel")]
        (Engine::Messages, Some(t)) => {
            drop(treelocal_sim::run_messages_with_threads(ctx, &timer, max, t))
        }
        #[cfg(feature = "parallel")]
        (Engine::MessagesSoa, Some(t)) => {
            drop(treelocal_sim::run_messages_soa_with_threads(ctx, &timer, max, t))
        }
        (Engine::Boxed, _) => drop(run(ctx, &timer, max)),
        (Engine::SoaParked | Engine::SoaUnparked, _) => drop(run_soa(ctx, &timer, max)),
        (Engine::Messages, _) => drop(run_messages(ctx, &timer, max)),
        (Engine::MessagesSoa, _) => drop(run_messages_soa(ctx, &timer, max)),
    }
    (transcript::take(), timer.log())
}

/// A certificate for `g` carrying `t`: a trivially proper coloring (every
/// node its own color), no round envelope, and the transcript's segments.
fn certificate(g: &Graph, t: &Transcript) -> Certificate {
    Certificate {
        instance: "transcript-halts".to_string(),
        rule: Rule::Coloring { palette: Palette::Any },
        nodes: g.node_count(),
        id_space: g.id_space(),
        edges: g
            .edge_ids()
            .map(|e| {
                let [u, v] = g.endpoints(e);
                (u.index(), v.index())
            })
            .collect(),
        lists: None,
        solution: Solution::NodeColors((1..=widen_u64(g.node_count())).collect()),
        envelope: Envelope::None,
        rounds: t.total_rounds(),
        segments: t
            .segments
            .iter()
            .map(|s| Segment {
                rounds: s.rounds,
                participants: s.halts.len(),
                halts: s.halts.iter().map(|&(v, r)| (v.index(), r)).collect(),
                commitments: s.commitments.clone(),
            })
            .collect(),
    }
}

fn assert_halts_match<T: Topology + ParSafe>(g: &Graph, topo: &T, label: &str) {
    let ctx = Ctx::of(topo);
    let participants: Vec<NodeId> = topo.nodes().collect();
    for engine in ENGINES {
        for threads in pool_sizes() {
            let (t, log) = record(&ctx, engine, threads);
            let what = format!("{label}, {engine:?}, threads {threads:?}");
            assert_eq!(t.segments.len(), 1, "{what}");
            let seg = &t.segments[0];
            assert!(seg.halts.windows(2).all(|w| w[0].0 < w[1].0), "{what}: not ascending");
            let nodes: Vec<NodeId> = seg.halts.iter().map(|&(v, _)| v).collect();
            assert_eq!(nodes, participants, "{what}: one halt per participant");
            for &(v, r) in &seg.halts {
                assert_eq!(r, log[v.index()], "{what}: node {v:?}");
            }
            assert_eq!(seg.rounds, seg.halts.iter().map(|&(_, r)| r).max().unwrap(), "{what}");
            assert_eq!(check_certificate(&certificate(g, &t)), Ok(()), "{what}");
        }
    }
}

#[test]
fn halts_are_ascending_and_equal_the_algorithms_own_halt_rounds() {
    let g = random_tree(3000, 5);
    assert_halts_match(&g, &g, "whole tree");
}

#[test]
fn restricted_runs_list_exactly_their_participants() {
    let g = random_tree(3000, 6);
    let s = SemiGraph::induced_by_nodes(&g, |v| v.index() % 4 != 1);
    assert_halts_match(&g, &s, "restricted tree");
}

/// Seeds a core with [`Timer`]'s verdicts and steps `rounds` rounds.
fn soa_core(g: &Graph, timer: &Timer, rounds: u64) -> ExecCoreSoa<Due> {
    let mut core = ExecCoreSoa::new(g.node_count());
    for v in g.nodes() {
        core.seed(v, timer.seed(v, true));
    }
    for _ in 0..rounds {
        let round = core.begin_round(20);
        core.step_snapshot(|v, own, _| timer.tick(v, round, own));
    }
    core
}

#[test]
fn a_core_dropped_before_finish_yields_no_acceptable_transcript() {
    let g = random_tree(200, 7);
    let ctx = Ctx::of(&g);
    // Honest control: the same pipeline with every core finished passes.
    transcript::begin();
    drop(run_soa(&ctx, &Timer::new(g.node_count(), true), 20));
    let honest = transcript::take();
    assert_eq!(check_certificate(&certificate(&g, &honest)), Ok(()));

    // Dropped mid-run, dropped after quiescence, and a boxed core dropped
    // mid-run: each with a finished run after it.
    for case in 0..3 {
        transcript::begin();
        let timer = Timer::new(g.node_count(), false);
        match case {
            0 => drop(soa_core(&g, &timer, 4)),
            1 => {
                let core = soa_core(&g, &timer, 9);
                assert!(core.is_done());
                drop(core);
            }
            _ => {
                let mut core: ExecCore<Due> = ExecCore::new(g.node_count());
                for v in g.nodes() {
                    core.seed(v, timer.seed(v, true));
                }
                let round = core.begin_round(20);
                core.step_snapshot(|v, own, _| timer.tick(v, round, own.clone()));
                drop(core);
            }
        }
        drop(run_soa(&ctx, &Timer::new(g.node_count(), true), 20));
        let t = transcript::take();
        assert_eq!(t.segments.len(), 2, "case {case}");
        assert!(t.segments[0].halts.is_empty(), "case {case}: the dropped core handed no halts");
        let verdict = check_certificate(&certificate(&g, &t));
        assert!(
            matches!(
                verdict,
                Err(CheckError::SegmentRoundsMismatch { segment: 0, derived: 0, .. })
            ),
            "case {case}: {verdict:?}"
        );
    }
}
