//! Color-count reduction from a proper `m`-coloring.
//!
//! Two classic schemes, both driven by the deterministic "color classes as
//! a schedule" idea:
//!
//! * [`sweep_reduce`] — process color classes one per round, highest
//!   first; each node re-picks the smallest color unused in its
//!   neighborhood. `m` rounds; lands at a `(deg+1)`-coloring.
//! * [`kw_reduce`] — Kuhn–Wattenhofer parallel halving: split the `m`
//!   colors into groups of `2(Δ+1)`, reduce every group to `Δ+1` colors in
//!   parallel (`Δ+1` rounds), halving the color count per phase; lands at
//!   a `(Δ+1)`-coloring in `O(Δ · log(m / Δ))` rounds total.

use treelocal_graph::OrInvariant;
use treelocal_graph::{NodeId, Topology};
use treelocal_sim::{run_soa, Ctx, ParSafe, SoaAlgorithm, SoaSnapshot, StateCodec, Verdict};

#[cfg(feature = "parallel")]
use treelocal_sim::run_soa_with_threads;

/// Outcome of a reduction phase: per-node colors (1-based) plus the rounds
/// used.
#[derive(Clone, Debug)]
pub struct ReduceOutcome {
    /// Final colors, `1 ..= final_colors`.
    pub colors: Vec<Option<u32>>,
    /// Number of colors of the final palette.
    pub final_colors: u32,
    /// Rounds executed.
    pub rounds: u64,
}

/// Smallest value not in `used`, where `used` holds at most `degree`
/// values (any order, repeats allowed).
///
/// The answer is at most `degree`, so only values `≤ degree` are marked,
/// in a word bitset: one stack word below degree 64, `degree / 64 + 1`
/// words from there on. Linear in the values, no sort.
fn smallest_free(used: impl Iterator<Item = u64>, degree: usize) -> u64 {
    let mut one = [0u64; 1];
    let mut many = Vec::new();
    let words: &mut [u64] = if degree < 64 {
        &mut one
    } else {
        many.resize(degree / 64 + 1, 0);
        &mut many
    };
    for u in used {
        if u <= degree as u64 {
            words[u as usize / 64] |= 1 << (u % 64);
        }
    }
    let (i, w) = words
        .iter()
        .enumerate()
        .find(|&(_, &w)| w != u64::MAX)
        .or_invariant("at most `degree` of the `degree + 1` low bits are marked");
    (i * 64) as u64 + u64::from((!w).trailing_zeros())
}

// ---------------------------------------------------------------------
// Sweep reduction
// ---------------------------------------------------------------------

/// A node of [`SweepPhase`].
#[derive(Debug, PartialEq, Eq)]
pub struct SweepState {
    /// Current (possibly original) color, 0-based internally.
    color: u64,
    /// The round at which this node re-picks (derived from its original
    /// class).
    my_round: u64,
}

/// Two u64 lanes: `color`, then `my_round`.
impl StateCodec for SweepState {
    const U32_LANES: usize = 0;
    const U64_LANES: usize = 2;

    fn encode(&self, _lanes32: &mut [u32], lanes64: &mut [u64]) {
        lanes64[0] = self.color;
        lanes64[1] = self.my_round;
    }

    fn decode(_lanes32: &[u32], lanes64: &[u64]) -> Self {
        SweepState { color: lanes64[0], my_round: lanes64[1] }
    }
}

/// The state machine behind [`sweep_reduce`]: class `c` of a proper
/// 0-based `m`-coloring re-picks in round `m - c`, and every node parks
/// until its round.
#[derive(Clone, Copy, Debug)]
pub struct SweepPhase<'c> {
    initial: &'c [Option<u64>],
    m: u64,
}

impl<'c> SweepPhase<'c> {
    /// The sweep over the proper 0-based `m`-coloring `initial` (indexed
    /// by the parent node space).
    pub fn new(initial: &'c [Option<u64>], m: u64) -> Self {
        SweepPhase { initial, m }
    }
}

impl<T: Topology> SoaAlgorithm<T> for SweepPhase<'_> {
    type State = SweepState;

    fn init(&self, _ctx: &Ctx<T>, v: NodeId) -> Verdict<SweepState> {
        let c = self.initial[v.index()].or_invariant("initial color for every participant");
        debug_assert!(c < self.m);
        // Highest class first: class c re-picks in round m - c.
        Verdict::Active(SweepState { color: self.m + c, my_round: self.m - c })
    }

    fn wake_round(&self, own: &SweepState) -> u64 {
        own.my_round
    }

    fn step(
        &self,
        ctx: &Ctx<T>,
        v: NodeId,
        round: u64,
        own: SweepState,
        prev: &SoaSnapshot<'_, SweepState>,
    ) -> Verdict<SweepState> {
        if round < own.my_round {
            return Verdict::Active(own);
        }
        debug_assert_eq!(round, own.my_round);
        // Pick the smallest color (0-based, below m) unused by neighbors'
        // current colors. Unprocessed neighbors hold colors ≥ m (shifted),
        // so they never block small colors.
        let neighbors = ctx.topo.neighbor_nodes(v);
        let used = neighbors.iter().map(|&w| prev.get(w).color).filter(|&c| c < self.m);
        let color = smallest_free(used, neighbors.len());
        Verdict::Halted(SweepState { color, my_round: own.my_round })
    }
}

/// Sweep reduction: from a proper 0-based `m`-coloring to a proper
/// greedy coloring where every node's color is at most its degree
/// (0-based), i.e. a `(deg+1)`-coloring 1-based. Takes at most `m` rounds.
///
/// The input coloring is shifted by `m` internally so that "not yet
/// processed" is distinguishable; the shift is invisible to callers.
pub fn sweep_reduce<T: Topology + ParSafe>(
    ctx: &Ctx<'_, T>,
    initial: &[Option<u64>],
    m: u64,
) -> ReduceOutcome {
    assert!(m >= 1);
    let out = run_soa(ctx, &SweepPhase::new(initial, m), m + 2);
    let colors: Vec<Option<u32>> = (0..out.index_space())
        .map(|i| {
            let st = out.try_state(NodeId::new(i))?;
            Some(u32::try_from(st.color + 1).or_invariant("small color"))
        })
        .collect();
    let final_colors = colors.iter().flatten().copied().max().unwrap_or(1);
    ReduceOutcome { colors, final_colors, rounds: out.rounds }
}

// ---------------------------------------------------------------------
// Kuhn–Wattenhofer halving
// ---------------------------------------------------------------------

/// A node of [`KwPhase`].
#[derive(Debug, PartialEq, Eq)]
pub struct KwState {
    /// Current color: untagged 0-based original-namespace color while
    /// waiting, `FINAL_TAG | compact color` once settled.
    color: u64,
}

/// One u64 lane: the color, `FINAL_TAG` included.
impl StateCodec for KwState {
    const U32_LANES: usize = 0;
    const U64_LANES: usize = 1;

    fn encode(&self, _lanes32: &mut [u32], lanes64: &mut [u64]) {
        lanes64[0] = self.color;
    }

    fn decode(_lanes32: &[u32], lanes64: &[u64]) -> Self {
        KwState { color: lanes64[0] }
    }
}

/// One Kuhn–Wattenhofer phase (a step of [`kw_reduce`]): colors `< m`
/// become colors `< ceil(m / (2(Δ+1))) · (Δ+1)`. A moving node parks
/// until the round of its relative color.
#[derive(Clone, Copy, Debug)]
pub struct KwPhase<'c> {
    initial: &'c [Option<u64>],
    m: u64,
    /// Slots per group: Δ+1.
    slots: u64,
}

impl<'c> KwPhase<'c> {
    /// The phase over the proper 0-based `m`-coloring `initial` (indexed
    /// by the parent node space) with `slots` = Δ+1 slots per group.
    pub fn new(initial: &'c [Option<u64>], m: u64, slots: u64) -> Self {
        KwPhase { initial, m, slots }
    }
}

/// The compact color of `c` in a phase with `slots` slots per group, if
/// `c` already lies in its group's kept slot range (the node does not
/// move); `None` for a mover.
fn kept(c: u64, slots: u64) -> Option<u64> {
    let rel = c % (2 * slots);
    (rel < slots).then(|| c / (2 * slots) * slots + rel)
}

/// Applies a phase in which no node of `ctx` moves to `colors`, in
/// place. Such a run halts every node at seeding (zero rounds, no
/// transcript segment kept, no counter moved) with its color renamed by
/// [`kept`], and leaves the slots outside the topology uncolored.
/// Returns `false`, with `colors` untouched, if some node moves.
fn rename_without_movers<T: Topology>(
    ctx: &Ctx<'_, T>,
    colors: &mut Vec<Option<u64>>,
    slots: u64,
) -> bool {
    let color = |v: NodeId| colors[v.index()].or_invariant("initial color");
    if ctx.topo.nodes().any(|v| kept(color(v), slots).is_none()) {
        return false;
    }
    colors.resize(ctx.topo.index_space(), None);
    for (i, c) in colors.iter_mut().enumerate() {
        *c = c.filter(|_| ctx.topo.contains_node(NodeId::new(i))).and_then(|c| kept(c, slots));
    }
    true
}

impl<T: Topology> SoaAlgorithm<T> for KwPhase<'_> {
    type State = KwState;

    fn init(&self, _ctx: &Ctx<T>, v: NodeId) -> Verdict<KwState> {
        let c = self.initial[v.index()].or_invariant("initial color");
        debug_assert!(c < self.m);
        match kept(c, self.slots) {
            // Already within the kept slot range: final immediately (tagged
            // so moving neighbors recognize it as a settled slot).
            Some(compact) => Verdict::Halted(KwState { color: FINAL_TAG | compact }),
            None => Verdict::Active(KwState { color: c }),
        }
    }

    /// Relative colors are processed highest-first: rel = 2s-1 moves in
    /// round 1, rel = s moves in round s.
    fn wake_round(&self, own: &KwState) -> u64 {
        let group_size = 2 * self.slots;
        group_size - own.color % group_size
    }

    fn step(
        &self,
        ctx: &Ctx<T>,
        v: NodeId,
        round: u64,
        own: KwState,
        prev: &SoaSnapshot<'_, KwState>,
    ) -> Verdict<KwState> {
        let group_size = 2 * self.slots;
        let rel = own.color % group_size;
        let group = own.color / group_size;
        debug_assert!(rel >= self.slots, "active nodes still need to move");
        let my_round = group_size - rel;
        if round < my_round {
            return Verdict::Active(own);
        }
        debug_assert_eq!(round, my_round);
        // Forbidden slots: same-group neighbors already settled in the
        // compact namespace (recognizable by FINAL_TAG; waiting neighbors
        // still carry untagged original-namespace colors and block
        // nothing).
        let neighbors = ctx.topo.neighbor_nodes(v);
        let used_slots = neighbors
            .iter()
            .map(|&w| prev.get(w).color)
            .filter(|&c| c & FINAL_TAG != 0)
            .map(|c| c & !FINAL_TAG)
            .filter(|&c| c / self.slots == group)
            .map(|c| c % self.slots);
        let slot = smallest_free(used_slots, neighbors.len());
        debug_assert!(slot < self.slots, "at most Δ same-group neighbors");
        Verdict::Halted(KwState { color: FINAL_TAG | (group * self.slots + slot) })
    }
}

/// High-bit tag distinguishing finalized compact-namespace colors from
/// waiting original-namespace colors during a KW phase.
const FINAL_TAG: u64 = 1 << 62;

/// Kuhn–Wattenhofer reduction from a proper 0-based `m`-coloring to a
/// proper `(Δ+1)`-coloring (Δ from the context), in `O(Δ · log(m / Δ))`
/// rounds.
pub fn kw_reduce<T: Topology + ParSafe>(
    ctx: &Ctx<'_, T>,
    initial: &[Option<u64>],
    m: u64,
) -> ReduceOutcome {
    kw_inner(ctx, initial, m, None)
}

/// [`kw_reduce`] on a fixed worker-pool size — the MIS-pipeline half of
/// the certificate pool-size matrix.
#[cfg(feature = "parallel")]
pub fn kw_reduce_with_threads<T: Topology + ParSafe>(
    ctx: &Ctx<'_, T>,
    initial: &[Option<u64>],
    m: u64,
    threads: usize,
) -> ReduceOutcome {
    kw_inner(ctx, initial, m, Some(threads))
}

fn kw_inner<T: Topology + ParSafe>(
    ctx: &Ctx<'_, T>,
    initial: &[Option<u64>],
    m: u64,
    threads: Option<usize>,
) -> ReduceOutcome {
    #[cfg(not(feature = "parallel"))]
    let _ = threads;
    let slots = ctx.max_degree as u64 + 1;
    let mut colors: Vec<Option<u64>> = initial.to_vec();
    let mut m_cur = m.max(1);
    let mut rounds = 0u64;
    while m_cur > slots {
        if !rename_without_movers(ctx, &mut colors, slots) {
            let phase = KwPhase::new(&colors, m_cur, slots);
            #[cfg(feature = "parallel")]
            let out = match threads {
                Some(t) => run_soa_with_threads(ctx, &phase, 2 * slots + 2, t),
                None => run_soa(ctx, &phase, 2 * slots + 2),
            };
            #[cfg(not(feature = "parallel"))]
            let out = run_soa(ctx, &phase, 2 * slots + 2);
            rounds += out.rounds;
            colors = (0..out.index_space())
                .map(|i| out.try_state(NodeId::new(i)).map(|st| st.color & !FINAL_TAG))
                .collect();
        }
        let groups = m_cur.div_ceil(2 * slots);
        m_cur = groups * slots;
        // Tag is stripped; ensure the invariant holds.
        debug_assert!(colors.iter().flatten().all(|&c| c < m_cur));
    }
    let max_used = colors.iter().flatten().copied().max().unwrap_or(0);
    ReduceOutcome {
        colors: colors
            .iter()
            .map(|c| c.map(|x| u32::try_from(x + 1).or_invariant("small color")))
            .collect(),
        final_colors: (max_used + 1) as u32,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linial::{is_proper, run_linial};
    use crate::test_mix as mix;
    use treelocal_graph::Graph;

    fn check_proper_u32(g: &Graph, colors: &[Option<u32>]) -> bool {
        let as64: Vec<Option<u64>> = colors.iter().map(|c| c.map(u64::from)).collect();
        is_proper(g, &as64)
    }

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn sweep_reaches_deg_plus_one() {
        let g = path(40);
        let ctx = Ctx::of(&g);
        let lin = run_linial(&ctx);
        let out = sweep_reduce(&ctx, &lin.colors, lin.final_bound);
        assert!(check_proper_u32(&g, &out.colors));
        for v in g.node_ids() {
            let c = out.colors[v.index()].unwrap();
            assert!(c as usize <= g.degree(v) + 1, "node {v}: color {c}");
        }
        assert!(out.rounds <= lin.final_bound);
    }

    #[test]
    fn kw_reaches_delta_plus_one() {
        for g in [
            path(60),
            Graph::from_edges(10, &(1..10).map(|i| (0, i)).collect::<Vec<_>>()).unwrap(),
            treelocal_gen::random_tree(200, 3),
        ] {
            let ctx = Ctx::of(&g);
            let lin = run_linial(&ctx);
            let out = kw_reduce(&ctx, &lin.colors, lin.final_bound);
            assert!(check_proper_u32(&g, &out.colors), "improper");
            assert!(
                out.final_colors as usize <= g.max_degree() + 1,
                "{} colors > Δ+1 = {}",
                out.final_colors,
                g.max_degree() + 1
            );
        }
    }

    #[test]
    fn kw_round_count_is_delta_log_like() {
        let g = treelocal_gen::random_tree(500, 1);
        let ctx = Ctx::of(&g);
        let lin = run_linial(&ctx);
        let out = kw_reduce(&ctx, &lin.colors, lin.final_bound);
        let delta = g.max_degree() as u64;
        let phases = (lin.final_bound as f64 / (delta + 1) as f64).log2().ceil() as u64 + 1;
        assert!(out.rounds <= (delta + 1) * phases + phases, "rounds {} exceed bound", out.rounds);
    }

    #[test]
    fn reductions_on_trivial_inputs() {
        let g = Graph::from_edges(1, &[]).unwrap();
        let ctx = Ctx::of(&g);
        let initial = vec![Some(0u64)];
        let s = sweep_reduce(&ctx, &initial, 1);
        assert_eq!(s.colors[0], Some(1));
        let k = kw_reduce(&ctx, &initial, 1);
        assert_eq!(k.colors[0], Some(1));
        assert_eq!(k.rounds, 0);
    }

    #[test]
    fn sweep_respects_already_small_colorings() {
        // A proper 2-coloring of a path stays within 2 colors after sweep.
        let g = path(10);
        let ctx = Ctx::of(&g);
        let initial: Vec<Option<u64>> = (0..10).map(|i| Some((i % 2) as u64)).collect();
        let out = sweep_reduce(&ctx, &initial, 2);
        assert!(check_proper_u32(&g, &out.colors));
        assert!(out.final_colors <= 2);
    }

    /// The sort-based pick the bitset replaced.
    fn smallest_free_sorted(mut used: Vec<u64>) -> u64 {
        used.sort_unstable();
        used.dedup();
        let mut c = 0u64;
        for u in used {
            if u == c {
                c += 1;
            } else if u > c {
                break;
            }
        }
        c
    }

    #[test]
    fn bitset_pick_matches_the_sorted_pick_for_every_degree() {
        for degree in 0..=130usize {
            for seed in 0..40u64 {
                let m = 1 + mix(seed, 0) % 300;
                let mut used: Vec<u64> = (1..)
                    .map(|i| {
                        let x = mix(seed, i);
                        match x % 7 {
                            // Below the answer's ceiling, repeats likely.
                            0..=2 => x % (degree as u64 + 2),
                            // Unprocessed sweep colors, shifted to ≥ m.
                            3 => m + x % m,
                            // Settled KW colors, tag set.
                            4 => FINAL_TAG | (x % 500),
                            // Colors of another group, or far out.
                            5 => degree as u64 + 1 + x % 1000,
                            _ => u64::MAX - x % 3,
                        }
                    })
                    .take(degree - usize::try_from(mix(seed, 1) % 3).unwrap().min(degree))
                    .collect();
                if seed % 4 == 0 {
                    // Every value below the degree taken: the answer is the
                    // ceiling itself, at the bitset's last live bit.
                    used = (0..degree as u64).rev().collect();
                }
                assert_eq!(
                    smallest_free(used.iter().copied(), degree),
                    smallest_free_sorted(used.clone()),
                    "degree {degree}, seed {seed}"
                );
            }
        }
    }

    #[test]
    fn reductions_on_a_star_wider_than_one_bitset_word() {
        // Δ = 70: the center's pick spans two words (Δ + 1 > 64).
        let g = treelocal_gen::relabel(
            &treelocal_gen::star(71),
            treelocal_gen::IdStrategy::Permuted { seed: 4 },
        );
        let ctx = Ctx::of(&g);
        let lin = run_linial(&ctx);
        let kw = kw_reduce(&ctx, &lin.colors, lin.final_bound);
        assert!(check_proper_u32(&g, &kw.colors));
        assert!(kw.final_colors <= 71, "{} colors > Δ+1", kw.final_colors);
        let sweep = sweep_reduce(&ctx, &lin.colors, lin.final_bound);
        assert!(check_proper_u32(&g, &sweep.colors));
        for v in g.node_ids() {
            assert!(sweep.colors[v.index()].unwrap() as usize <= g.degree(v) + 1);
        }
        // Leaves settle at once on the kept slots 0..=69 of group 0 (one
        // group of 2(Δ+1) = 142 colors); the center moves and must take
        // slot 70, the first bit of the second word.
        let mut initial: Vec<Option<u64>> = (0..71).map(|i| Some(i.max(1) - 1)).collect();
        initial[0] = Some(141);
        let kw = kw_reduce(&ctx, &initial, 142);
        assert_eq!(kw.colors[0], Some(71), "center takes the slot after its 70 leaves");
        assert!(check_proper_u32(&g, &kw.colors));
    }

    proptest::proptest! {
        /// The codec laws for both reduce states over the full lane range.
        #[test]
        fn reduce_states_round_trip_through_their_lanes(
            color in proptest::prelude::any::<u64>(),
            my_round in proptest::prelude::any::<u64>(),
        ) {
            let s = SweepState { color, my_round };
            let mut lanes64 = [0u64; SweepState::U64_LANES];
            s.encode(&mut [], &mut lanes64);
            proptest::prop_assert_eq!(SweepState::decode(&[], &lanes64), s);
            let k = KwState { color };
            let mut lanes64 = [0u64; KwState::U64_LANES];
            k.encode(&mut [], &mut lanes64);
            proptest::prop_assert_eq!(KwState::decode(&[], &lanes64), k);
        }
    }
}
