//! Kuhn–Wattenhofer phases without a mover: `kw_reduce` renames such a
//! phase's colors directly instead of seeding the engine for a run of zero
//! rounds. The result must be exactly what running every phase through
//! the engine gives: colors, palette, rounds, the recorded transcript and
//! every process-wide counter delta.
//!
//! The counters are global and monotone, so the tests in this binary
//! serialize on one mutex.

use std::sync::{Mutex, PoisonError};
use treelocal_algos::{kw_reduce, run_linial, KwPhase, ReduceOutcome};
use treelocal_gen::{caterpillar, random_tree, relabel, IdStrategy};
use treelocal_graph::{Graph, NodeId, SemiGraph, Topology};
use treelocal_sim::transcript::{self, Transcript};
use treelocal_sim::{counters, run_soa, Ctx, ParSafe};

static LOCK: Mutex<()> = Mutex::new(());

/// The high bit `KwState` tags settled colors with in its one u64 lane.
const FINAL_TAG: u64 = 1 << 62;

/// `kw_reduce` with every phase forced through `run_soa`, plus the number
/// of phases that ran zero rounds.
fn kw_forced<T: Topology + ParSafe>(
    ctx: &Ctx<'_, T>,
    initial: &[Option<u64>],
    m: u64,
) -> (ReduceOutcome, usize) {
    let slots = ctx.max_degree as u64 + 1;
    let mut colors = initial.to_vec();
    let mut m_cur = m.max(1);
    let mut rounds = 0;
    let mut idle = 0;
    while m_cur > slots {
        let out = run_soa(ctx, &KwPhase::new(&colors, m_cur, slots), 2 * slots + 2);
        rounds += out.rounds;
        idle += usize::from(out.rounds == 0);
        let (_, lanes64) = out.lanes();
        colors = (0..out.index_space())
            .map(|i| out.try_state(NodeId::new(i)).map(|_| lanes64[i] & !FINAL_TAG))
            .collect();
        m_cur = m_cur.div_ceil(2 * slots) * slots;
    }
    let max_used = colors.iter().flatten().copied().max().unwrap_or(0);
    let outcome = ReduceOutcome {
        colors: colors.iter().map(|c| c.map(|x| u32::try_from(x + 1).unwrap())).collect(),
        final_colors: u32::try_from(max_used + 1).unwrap(),
        rounds,
    };
    (outcome, idle)
}

/// Colors, palette, rounds, counter deltas and transcript of one run.
type Observed = (Vec<Option<u32>>, u32, u64, (u64, u64, u64), Transcript);

fn observe(record: bool, run: impl FnOnce() -> ReduceOutcome) -> Observed {
    let (r0, s0, m0) = counters::snapshot();
    if record {
        transcript::begin();
    }
    let out = run();
    let t = transcript::take();
    let (r1, s1, m1) = counters::snapshot();
    (out.colors, out.final_colors, out.rounds, (r1 - r0, s1 - s0, m1 - m0), t)
}

/// Asserts `kw_reduce` equals the forced-engine reduction on `initial`,
/// with and without a transcript recorder; returns the forced run's
/// number of mover-free phases.
fn assert_matches_forced<T: Topology + ParSafe>(
    topo: &T,
    initial: &[Option<u64>],
    m: u64,
    label: &str,
) -> usize {
    let _guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let ctx = Ctx::of(topo);
    let mut idle = 0;
    for record in [false, true] {
        let skipped = observe(record, || kw_reduce(&ctx, initial, m));
        let forced = observe(record, || {
            let (out, n) = kw_forced(&ctx, initial, m);
            idle = n;
            out
        });
        assert_eq!(skipped, forced, "{label} (recording: {record})");
        if record {
            assert_eq!(skipped.4.total_rounds(), skipped.2, "{label}: transcript rounds");
        }
    }
    idle
}

#[test]
fn a_first_phase_without_movers_is_renamed_in_place() {
    // A path has Δ = 2, so groups of 6 colors keep slots 0..3. Colors 0
    // and 6 both lie in their group's kept range: phase 1 moves nobody,
    // renames 6 to 3, and phase 2 (colors < 6) moves the 3s.
    let n = 40;
    let g = Graph::from_edges(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>()).unwrap();
    let initial: Vec<Option<u64>> = (0..n).map(|i| Some(if i % 2 == 0 { 0 } else { 6 })).collect();
    let idle = assert_matches_forced(&g, &initial, 12, "alternating path");
    assert_eq!(idle, 1, "exactly the first phase has no mover");
    let ctx = Ctx::of(&g);
    let out = kw_reduce(&ctx, &initial, 12);
    assert!(out.rounds > 0, "the second phase still runs");
}

#[test]
fn every_phase_without_movers_runs_no_engine_at_all() {
    // Colors in {0, 1} of a 2-coloring already fit every phase's kept
    // range: the reduction is pure renaming, zero rounds, no transcript.
    let n = 25;
    let g = Graph::from_edges(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>()).unwrap();
    let initial: Vec<Option<u64>> = (0..n).map(|i| Some(widen(i % 2))).collect();
    let idle = assert_matches_forced(&g, &initial, 100, "two-colored path, m = 100");
    assert!(idle >= 2, "{idle} mover-free phases");
}

#[test]
fn linial_colorings_reduce_identically() {
    let mut idle = 0;
    for seed in 1..=4u64 {
        for (name, g) in [
            ("tree", relabel(&random_tree(600, seed), IdStrategy::Sparse { seed })),
            ("caterpillar", relabel(&caterpillar(150, 3), IdStrategy::Sparse { seed: seed + 10 })),
        ] {
            let lin = run_linial(&Ctx::of(&g));
            idle += assert_matches_forced(&g, &lin.colors, lin.final_bound, name);
        }
    }
    assert!(idle > 0, "pipeline colorings exercise the mover-free path too");
}

#[test]
fn restricted_topologies_rename_only_participants() {
    // Slots outside a node-restricted semi-graph take no part in a
    // phase: both paths return `None` for them, whatever `initial` holds.
    // With colors 0/6 only the first phase is mover-free; with colors
    // 0/1 every phase is, so no engine run clears those slots.
    let n = 60;
    let g = Graph::from_edges(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>()).unwrap();
    let s = SemiGraph::induced_by_nodes(&g, |v| v.index() % 5 != 0);
    for (step, idle_phases) in [(6, 1), (1, 2)] {
        let initial: Vec<Option<u64>> = (0..n).map(|i| Some(widen(i % 2) * step)).collect();
        let idle = assert_matches_forced(&s, &initial, 12, "restricted path");
        assert_eq!(idle, idle_phases, "colors 0/{step}");
        let out = kw_reduce(&Ctx::of(&s), &initial, 12);
        assert!((0..n).all(|i| out.colors[i].is_none() == (i % 5 == 0)), "colors 0/{step}");
    }
}

fn widen(x: usize) -> u64 {
    u64::try_from(x).unwrap()
}
