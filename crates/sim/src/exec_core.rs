//! The execution core shared by the snapshot engine ([`crate::run`]) and
//! the message-passing engine ([`crate::run_messages`]).
//!
//! Both engines used to carry their own copy of the same run loop:
//! per-node state slots, a halted bitmap, an active counter, and a
//! round-budget assertion — and the snapshot engine additionally paid a
//! full `clone()` of every *halted* node's state on every round to fill
//! its double buffer. [`ExecCore`] replaces both loops:
//!
//! * it tracks the **active frontier** — the (deterministically ordered)
//!   list of nodes that have not halted — so a round only visits and only
//!   rewrites the state slots of live nodes;
//! * halted states are moved exactly once, at the round the node halts,
//!   and are never cloned or rewritten afterwards — neighbors keep reading
//!   them in place through [`Snapshot`];
//! * double buffering happens through a verdict scratch buffer: all
//!   frontier nodes read the previous round's states, then the round
//!   commits atomically, preserving the synchronous-round semantics of
//!   Definition 5.
//!
//! The core never clones a state: `S: Clone` on the algorithm traits
//! exists for *algorithms* (which routinely copy fields of neighbor
//! states), not for the engine. `crates/sim/tests/clone_accounting.rs`
//! pins this with a `Clone`-instrumented state type.

use crate::codec::{SoaColumns, SoaOutcome, SoaSnapshot, StateCodec};
use crate::engine::{RunOutcome, Snapshot, Verdict};
use treelocal_graph::OrInvariant;
use treelocal_graph::{widen_u32, widen_u64, NodeId};

/// Double-buffered frontier executor for synchronous LOCAL rounds.
///
/// The lifecycle is: [`ExecCore::new`] → one [`ExecCore::seed`] per
/// participating node → repeat { [`ExecCore::begin_round`] +
/// [`ExecCore::step_snapshot`] or [`ExecCore::step_owned`] } until
/// [`ExecCore::is_done`] → [`ExecCore::finish`].
#[derive(Debug)]
pub struct ExecCore<S> {
    /// Current state per index-space slot; `None` for non-participants.
    /// During a step this holds the *previous* round's states.
    states: Vec<Option<S>>,
    /// Verdicts produced by the current round, frontier slots only.
    scratch: Vec<Option<Verdict<S>>>,
    /// Nodes still running, in seeding order (the engines seed in
    /// `topo.nodes()` order, which keeps execution deterministic).
    frontier: Vec<NodeId>,
    /// `active[i]` iff slot `i` holds a frontier node — the O(1) liveness
    /// query the message engine's send phase uses to drop deliveries to
    /// halted recipients.
    active: Vec<bool>,
    /// Communication rounds executed so far.
    rounds: u64,
    /// What a recorded run keeps for its transcript; `None` otherwise.
    recording: Option<Recording>,
}

impl<S> ExecCore<S> {
    /// An empty core over `index_space` state slots.
    pub fn new(index_space: usize) -> Self {
        let mut states = Vec::with_capacity(index_space);
        states.resize_with(index_space, || None);
        let mut scratch = Vec::with_capacity(index_space);
        scratch.resize_with(index_space, || None);
        ExecCore {
            states,
            scratch,
            frontier: Vec::new(),
            active: vec![false; index_space],
            rounds: 0,
            recording: Recording::start(index_space),
        }
    }

    /// Registers node `v` with its round-0 verdict. A node seeded
    /// [`Verdict::Halted`] contributes its state but never enters the
    /// frontier.
    ///
    /// # Panics
    ///
    /// Panics if `v` was already seeded. This is a hard invariant, not a
    /// `debug_assert`: a re-seeded Active node would sit on the frontier
    /// twice and be stepped twice per round, which in release builds used
    /// to corrupt executions silently.
    pub fn seed(&mut self, v: NodeId, verdict: Verdict<S>) {
        assert!(self.states[v.index()].is_none(), "node {v:?} seeded twice");
        if let Some(rec) = &mut self.recording {
            rec.participants += 1;
        }
        match verdict {
            Verdict::Active(s) => {
                self.states[v.index()] = Some(s);
                self.active[v.index()] = true;
                self.frontier.push(v);
            }
            // Halt round 0 is the column's initial value.
            Verdict::Halted(s) => self.states[v.index()] = Some(s),
        }
    }

    /// `true` once every node has halted.
    pub fn is_done(&self) -> bool {
        self.frontier.is_empty()
    }

    /// The nodes that will execute the next round, in deterministic order.
    pub fn frontier(&self) -> &[NodeId] {
        &self.frontier
    }

    /// Whether `v` is still running (seeded [`Verdict::Active`] and not yet
    /// halted) — equivalent to frontier membership, in O(1).
    pub fn is_active(&self, v: NodeId) -> bool {
        self.active[v.index()]
    }

    /// Rounds executed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The current state of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` was never seeded.
    pub fn state(&self, v: NodeId) -> &S {
        self.states[v.index()].as_ref().or_invariant("node participates in the execution")
    }

    /// Starts a communication round, returning its 1-based number.
    ///
    /// # Panics
    ///
    /// Panics when the round budget is exhausted — a deterministic LOCAL
    /// algorithm exceeding a generous budget is a bug, not a runtime
    /// condition.
    pub fn begin_round(&mut self, max_rounds: u64) -> u64 {
        assert!(
            self.rounds < max_rounds,
            "algorithm did not halt within {max_rounds} rounds (still {} active)",
            self.frontier.len()
        );
        crate::counters::record_round(widen_u64(self.frontier.len()));
        self.rounds += 1;
        if let Some(rec) = &mut self.recording {
            crate::transcript::record_round(rec.segment, &self.frontier);
            rec.enter_round(self.rounds);
        }
        self.rounds
    }

    /// Executes one round in snapshot style: every frontier node observes
    /// the previous round's states and returns its verdict. All reads
    /// happen before any slot is rewritten.
    pub fn step_snapshot<F>(&mut self, mut step: F)
    where
        F: FnMut(NodeId, &S, &Snapshot<'_, S>) -> Verdict<S>,
    {
        let snap = Snapshot::over(&self.states);
        for idx in 0..self.frontier.len() {
            let v = self.frontier[idx];
            let own = self.states[v.index()].as_ref().or_invariant("frontier node has a state");
            self.scratch[v.index()] = Some(step(v, own, &snap));
        }
        self.commit();
    }

    /// Executes one round in snapshot style on `threads` pool workers.
    ///
    /// Frontier chunks are stepped concurrently — sound because every node
    /// reads only the previous round's buffer — and the round then commits
    /// **sequentially in frontier order**, so outcomes and round counts
    /// are byte-identical to [`ExecCore::step_snapshot`] for every pool
    /// size. Small frontiers (and `threads <= 1`) take the sequential path
    /// unchanged.
    #[cfg(feature = "parallel")]
    pub fn step_snapshot_threads<F>(&mut self, threads: usize, step: F)
    where
        F: Fn(NodeId, &S, &Snapshot<'_, S>) -> Verdict<S> + Sync,
        S: Send + Sync,
    {
        if threads <= 1 || self.frontier.len() < crate::par::PAR_FRONTIER_MIN {
            self.step_snapshot(step);
            return;
        }
        let verdicts = {
            let snap = Snapshot::over(&self.states);
            crate::par::par_map(&self.frontier, threads, |_, &v| step(v, snap.get(v), &snap))
        };
        self.commit_in_frontier_order(verdicts);
    }

    /// Commits a round whose verdicts were collected positionally (one per
    /// frontier node, in frontier order) rather than through the scratch
    /// buffer. Identical retain semantics to [`ExecCore::commit`].
    #[cfg(feature = "parallel")]
    fn commit_in_frontier_order(&mut self, verdicts: Vec<Verdict<S>>) {
        // Checked in every profile: a mismatched batch would silently pair
        // verdicts with the wrong nodes, breaking byte-identical parallel
        // equivalence in exactly the builds that run large instances.
        assert_eq!(
            verdicts.len(),
            self.frontier.len(),
            "one verdict per frontier node, in frontier order (commit-order invariant)"
        );
        let states = &mut self.states;
        let active = &mut self.active;
        let mut recording = self.recording.as_mut();
        let mut verdicts = verdicts.into_iter();
        self.frontier.retain(|&v| {
            match verdicts.next().or_invariant("one verdict per frontier node") {
                Verdict::Active(s) => {
                    states[v.index()] = Some(s);
                    true
                }
                Verdict::Halted(s) => {
                    states[v.index()] = Some(s);
                    active[v.index()] = false;
                    if let Some(rec) = &mut recording {
                        rec.halt(v);
                    }
                    false
                }
            }
        });
    }

    /// Executes one round in owned style (the message engine's receive
    /// phase): every frontier node consumes its state by value and returns
    /// its verdict. The callback must not need neighbor states — in
    /// message passing, communication already happened in the send phase.
    pub fn step_owned<F>(&mut self, mut step: F)
    where
        F: FnMut(NodeId, S) -> Verdict<S>,
    {
        for idx in 0..self.frontier.len() {
            let v = self.frontier[idx];
            let state = self.states[v.index()].take().or_invariant("frontier node has a state");
            self.scratch[v.index()] = Some(step(v, state));
        }
        self.commit();
    }

    /// Executes one round in owned style on `threads` pool workers.
    ///
    /// The frontier's states are moved out sequentially (never cloned),
    /// chunks are stepped concurrently on the pool — sound because an
    /// owned-style step reads no neighbor state — and the round commits
    /// **sequentially in frontier order**, so outcomes and round counts are
    /// byte-identical to [`ExecCore::step_owned`] for every pool size.
    /// Small frontiers (and `threads <= 1`) take the sequential path
    /// unchanged.
    #[cfg(feature = "parallel")]
    pub fn step_owned_threads<F>(&mut self, threads: usize, step: F)
    where
        F: Fn(NodeId, S) -> Verdict<S> + Sync,
        S: Send,
    {
        if threads <= 1 || self.frontier.len() < crate::par::PAR_FRONTIER_MIN {
            self.step_owned(step);
            return;
        }
        let mut taken = Vec::with_capacity(self.frontier.len());
        for idx in 0..self.frontier.len() {
            let v = self.frontier[idx];
            taken
                .push((v, self.states[v.index()].take().or_invariant("frontier node has a state")));
        }
        let verdicts = crate::par::par_map_vec(taken, threads, |_, (v, state)| step(v, state));
        self.commit_in_frontier_order(verdicts);
    }

    /// Commits the round: moves every verdict's state into its slot and
    /// drops newly halted nodes from the frontier (order preserved).
    fn commit(&mut self) {
        let states = &mut self.states;
        let scratch = &mut self.scratch;
        let active = &mut self.active;
        let mut recording = self.recording.as_mut();
        self.frontier.retain(|&v| {
            let i = v.index();
            match scratch[i].take().or_invariant("frontier node was stepped this round") {
                Verdict::Active(s) => {
                    states[i] = Some(s);
                    true
                }
                Verdict::Halted(s) => {
                    states[i] = Some(s);
                    active[i] = false;
                    if let Some(rec) = &mut recording {
                        rec.halt(v);
                    }
                    false
                }
            }
        });
    }

    /// Consumes the core into the run's outcome. A recording run hands
    /// its segment's halts to the transcript here.
    ///
    /// # Panics
    ///
    /// Panics if called while nodes are still active.
    pub fn finish(self) -> RunOutcome<S> {
        assert!(self.frontier.is_empty(), "finish() before quiescence");
        if let Some(rec) = self.recording {
            rec.hand_over(self.states.iter().map(Option::is_some));
        }
        RunOutcome { states: self.states, rounds: self.rounds }
    }
}

/// [`ExecCore`]'s codec-backed stepping mode: the same frontier lifecycle
/// over flat [`SoaColumns`] instead of boxed `Option<S>` slots.
///
/// Differences from the boxed core, all layout-only:
///
/// * states live in node-major u32/u64 lane columns ([`StateCodec`]);
///   reads decode a fresh value, writes encode in place;
/// * halted lanes are **frozen in place** — a halted node's row is simply
///   never rewritten (the boxed path's moved-once `Option` states, minus
///   the `Option`);
/// * the verdict scratch buffer is a second set of columns plus a halt
///   bitmap; commit is a plain lane copy **in frontier order**, so
///   sequential and parallel rounds produce byte-identical columns (the
///   parallel step encodes positionally collected verdicts in frontier
///   order instead — same bytes, pinned by `tests/soa_equiv.rs`).
///
/// # Wake-round parking
///
/// A node seeded through [`ExecCoreSoa::seed_parked`] with a wake round
/// `w > 1` is **parked**: the seeder promises that in every round before
/// `w` the node's step would return `Active` with its own state unchanged,
/// whatever its neighbors hold ([`SoaAlgorithm::wake_round`]'s contract).
/// A parked node stays live — [`ExecCoreSoa::is_active`] reports it, the
/// round's [`counters`](crate::counters) charge it and the transcript's
/// frontier commitment hashes it — but it is not stepped, and its lanes
/// are not rewritten, until round `w`. Since re-encoding an unchanged
/// state writes the same lane bytes, parked and unparked runs end with
/// identical columns, rounds, counters and transcripts
/// (`tests/wake_equiv.rs`). A round without a transcript recorder never
/// walks the parked nodes, and parking costs memory in the number of
/// parked nodes only, never in the round budget.
///
/// Round accounting is shared with [`ExecCore`] (same
/// [`counters`](crate::counters) hooks, same budget assertion), which is
/// what keeps codec and boxed runs indistinguishable in every observable
/// except memory layout.
///
/// [`SoaAlgorithm::wake_round`]: crate::SoaAlgorithm::wake_round
#[derive(Debug)]
pub struct ExecCoreSoa<S: StateCodec> {
    /// Current lane columns. During a step these hold the *previous*
    /// round's states.
    main: SoaColumns<S>,
    /// Verdict scratch columns, written for frontier rows only.
    scratch: SoaColumns<S>,
    /// Whether the scratch row of a frontier node carries a halting
    /// verdict this round.
    scratch_halted: Vec<bool>,
    /// `seeded[i]` iff slot `i` participates (the boxed path's
    /// `Option::is_some`).
    seeded: Vec<bool>,
    /// `active[i]` iff slot `i` holds a live node, stepped or parked.
    active: Vec<bool>,
    /// Live nodes stepped each round: seeded unparked or already woken.
    frontier: Vec<NodeId>,
    /// Parked nodes as `(wake_round, node)`; the entries from
    /// `parked_next` on are still asleep. Wake rounds past `u32::MAX` are
    /// stored as `u32::MAX`: waking early is always safe, since a parked
    /// node's early steps return its state unchanged.
    parked: Vec<(u32, NodeId)>,
    /// First still-parked entry of `parked`.
    parked_next: usize,
    /// Whether the sleeping entries are in ascending wake order (see
    /// [`bucket_by_wake`]).
    parked_sorted: bool,
    /// What a recorded run keeps for its transcript; `None` otherwise.
    recording: Option<Recording>,
    /// Every live node in seeding order — the order the transcript
    /// commits a round's frontier in. Built when a node first parks in a
    /// recorded run; until then it would equal `frontier`.
    live_order: Option<Vec<NodeId>>,
    /// Communication rounds executed so far.
    rounds: u64,
}

impl<S: StateCodec> ExecCoreSoa<S> {
    /// An empty codec-backed core over `index_space` state slots.
    pub fn new(index_space: usize) -> Self {
        ExecCoreSoa {
            main: SoaColumns::new(index_space),
            scratch: SoaColumns::new(index_space),
            scratch_halted: vec![false; index_space],
            seeded: vec![false; index_space],
            active: vec![false; index_space],
            frontier: Vec::new(),
            parked: Vec::new(),
            parked_next: 0,
            parked_sorted: true,
            recording: Recording::start(index_space),
            live_order: None,
            rounds: 0,
        }
    }

    /// Registers node `v` with its round-0 verdict. A node seeded
    /// [`Verdict::Halted`] contributes its lanes but never enters the
    /// frontier.
    ///
    /// # Panics
    ///
    /// Panics if `v` was already seeded (same hard invariant as
    /// [`ExecCore::seed`]).
    pub fn seed(&mut self, v: NodeId, verdict: Verdict<S>) {
        self.seed_parked(v, verdict, 1);
    }

    /// [`ExecCoreSoa::seed`] for a node that is first stepped in round
    /// `wake_round`: an `Active` node due later than the next round parks
    /// until then (see the type docs for the contract). A wake round at or
    /// before the next round, or a `Halted` verdict, seeds exactly as
    /// [`ExecCoreSoa::seed`] does.
    ///
    /// # Panics
    ///
    /// Panics if `v` was already seeded.
    pub fn seed_parked(&mut self, v: NodeId, verdict: Verdict<S>, wake_round: u64) {
        assert!(!self.seeded[v.index()], "node {v:?} seeded twice");
        self.seeded[v.index()] = true;
        if let Some(rec) = &mut self.recording {
            rec.participants += 1;
        }
        match verdict {
            Verdict::Active(s) => {
                self.main.write(v, &s);
                self.active[v.index()] = true;
                if wake_round > self.rounds + 1 {
                    if self.recording.is_some() && self.live_order.is_none() {
                        // Nothing parked yet: the frontier is every live
                        // node, in seeding order.
                        self.live_order = Some(self.frontier.clone());
                    }
                    self.parked.push((u32::try_from(wake_round).unwrap_or(u32::MAX), v));
                    self.parked_sorted = false;
                } else {
                    self.frontier.push(v);
                }
                if let Some(order) = &mut self.live_order {
                    order.push(v);
                }
            }
            // Halt round 0 is the column's initial value.
            Verdict::Halted(s) => self.main.write(v, &s),
        }
    }

    /// `true` once every node has halted.
    pub fn is_done(&self) -> bool {
        self.frontier.is_empty() && self.parked_next == self.parked.len()
    }

    /// The nodes the current round steps, in deterministic order. Parked
    /// nodes join it in the round they wake.
    pub fn frontier(&self) -> &[NodeId] {
        &self.frontier
    }

    /// Whether `v` is still running, stepped or parked — in O(1).
    pub fn is_active(&self, v: NodeId) -> bool {
        self.active[v.index()]
    }

    /// Rounds executed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The current state of node `v`, decoded from its lanes.
    ///
    /// # Panics
    ///
    /// Panics if `v` was never seeded.
    pub fn state(&self, v: NodeId) -> S {
        assert!(self.seeded[v.index()], "node {v:?} participates in the execution");
        self.main.read(v)
    }

    /// Starts a communication round, returning its 1-based number — the
    /// exact accounting of [`ExecCore::begin_round`], so codec and boxed
    /// runs advance the process-wide counters identically. Parked nodes
    /// count as live; those due this round join the frontier.
    ///
    /// # Panics
    ///
    /// Panics when the round budget is exhausted.
    pub fn begin_round(&mut self, max_rounds: u64) -> u64 {
        let live = self.frontier.len() + (self.parked.len() - self.parked_next);
        assert!(
            self.rounds < max_rounds,
            "algorithm did not halt within {max_rounds} rounds (still {live} active)"
        );
        crate::counters::record_round(widen_u64(live));
        self.rounds += 1;
        if let Some(rec) = &mut self.recording {
            rec.enter_round(self.rounds);
            match &mut self.live_order {
                // One pass: drop the nodes halted last round and fold the
                // survivors, whose number is already known. (A recorder
                // taken mid-run leaves `live_order` stale, and unread.)
                Some(order) => {
                    if let Some(mut fold) = crate::transcript::RoundFold::open(rec.segment, live) {
                        let active = &self.active;
                        order.retain(|&v| {
                            let live = active[v.index()];
                            if live {
                                fold.node(v);
                            }
                            live
                        });
                        fold.close();
                    }
                }
                // Before this round's woken nodes join the frontier.
                None => crate::transcript::record_round(rec.segment, &self.frontier),
            }
        }
        if !self.parked_sorted {
            bucket_by_wake(&mut self.parked[self.parked_next..]);
            self.parked_sorted = true;
        }
        let rounds = self.rounds;
        let due =
            self.parked[self.parked_next..].partition_point(|&(wake, _)| u64::from(wake) <= rounds);
        let woken = &mut self.parked[self.parked_next..self.parked_next + due];
        // Woken nodes step in index order. Buckets keep seeding order, which
        // `seed_soa` makes ascending, so this sort only confirms a run.
        woken.sort_unstable_by_key(|&(wake, v)| (wake, v.index()));
        self.frontier.extend(woken.iter().map(|&(_, v)| v));
        self.parked_next += due;
        self.rounds
    }

    /// Executes one round in snapshot style: every frontier node observes
    /// the previous round's columns and returns its verdict. Verdicts are
    /// encoded into the scratch columns, then committed to the main
    /// columns in frontier order — all reads happen before any main row is
    /// rewritten.
    pub fn step_snapshot<F>(&mut self, mut step: F)
    where
        F: FnMut(NodeId, S, &SoaSnapshot<'_, S>) -> Verdict<S>,
    {
        let snap = SoaSnapshot::over(&self.main, &self.seeded);
        for idx in 0..self.frontier.len() {
            let v = self.frontier[idx];
            let own = self.main.read(v);
            match step(v, own, &snap) {
                Verdict::Active(s) => {
                    self.scratch.write(v, &s);
                    self.scratch_halted[v.index()] = false;
                }
                Verdict::Halted(s) => {
                    self.scratch.write(v, &s);
                    self.scratch_halted[v.index()] = true;
                }
            }
        }
        self.commit();
    }

    /// Executes one round in snapshot style on `threads` pool workers.
    ///
    /// Frontier chunks step concurrently against the shared previous-round
    /// columns; verdicts are collected positionally and encoded into the
    /// main columns **sequentially in frontier order** — the same bytes in
    /// the same write order as [`ExecCoreSoa::step_snapshot`]'s
    /// scratch-then-copy commit, for every pool size. Small frontiers (and
    /// `threads <= 1`) take the sequential path unchanged.
    #[cfg(feature = "parallel")]
    pub fn step_snapshot_threads<F>(&mut self, threads: usize, step: F)
    where
        F: Fn(NodeId, S, &SoaSnapshot<'_, S>) -> Verdict<S> + Sync,
        S: Send,
    {
        if threads <= 1 || self.frontier.len() < crate::par::PAR_FRONTIER_MIN {
            self.step_snapshot(step);
            return;
        }
        let verdicts = {
            let snap = SoaSnapshot::over(&self.main, &self.seeded);
            crate::par::par_map(&self.frontier, threads, |_, &v| step(v, snap.get(v), &snap))
        };
        self.commit_in_frontier_order(verdicts);
    }

    /// Executes one round in owned style (the message engine's receive
    /// phase): every frontier node consumes its decoded state and returns
    /// its verdict. An owned step reads no neighbor lanes, so verdicts
    /// commit directly to the main columns as the frontier is walked —
    /// byte-identical to a scratch commit, one copy cheaper.
    pub fn step_owned<F>(&mut self, mut step: F)
    where
        F: FnMut(NodeId, S) -> Verdict<S>,
    {
        let main = &mut self.main;
        let active = &mut self.active;
        let mut recording = self.recording.as_mut();
        self.frontier.retain(|&v| match step(v, main.read(v)) {
            Verdict::Active(s) => {
                main.write(v, &s);
                true
            }
            Verdict::Halted(s) => {
                main.write(v, &s);
                active[v.index()] = false;
                if let Some(rec) = &mut recording {
                    rec.halt(v);
                }
                false
            }
        });
    }

    /// Executes one round in owned style on `threads` pool workers:
    /// frontier states are decoded on the workers (an owned step reads no
    /// neighbor lanes), verdicts commit sequentially in frontier order.
    #[cfg(feature = "parallel")]
    pub fn step_owned_threads<F>(&mut self, threads: usize, step: F)
    where
        F: Fn(NodeId, S) -> Verdict<S> + Sync,
        S: Send,
    {
        if threads <= 1 || self.frontier.len() < crate::par::PAR_FRONTIER_MIN {
            self.step_owned(step);
            return;
        }
        let main = &self.main;
        let verdicts = crate::par::par_map(&self.frontier, threads, |_, &v| step(v, main.read(v)));
        self.commit_in_frontier_order(verdicts);
    }

    /// Commits a round whose verdicts were collected positionally (one per
    /// frontier node, in frontier order). Identical retain semantics to
    /// [`ExecCoreSoa::commit`].
    #[cfg(feature = "parallel")]
    fn commit_in_frontier_order(&mut self, verdicts: Vec<Verdict<S>>) {
        assert_eq!(
            verdicts.len(),
            self.frontier.len(),
            "one verdict per frontier node, in frontier order (commit-order invariant)"
        );
        let main = &mut self.main;
        let active = &mut self.active;
        let mut recording = self.recording.as_mut();
        let mut verdicts = verdicts.into_iter();
        self.frontier.retain(|&v| {
            match verdicts.next().or_invariant("one verdict per frontier node") {
                Verdict::Active(s) => {
                    main.write(v, &s);
                    true
                }
                Verdict::Halted(s) => {
                    main.write(v, &s);
                    active[v.index()] = false;
                    if let Some(rec) = &mut recording {
                        rec.halt(v);
                    }
                    false
                }
            }
        });
    }

    /// Commits the round: copies every frontier node's scratch row into
    /// the main columns (in frontier order) and drops newly halted nodes
    /// from the frontier (order preserved).
    fn commit(&mut self) {
        let main = &mut self.main;
        let scratch = &self.scratch;
        let scratch_halted = &self.scratch_halted;
        let active = &mut self.active;
        let mut recording = self.recording.as_mut();
        self.frontier.retain(|&v| {
            main.copy_row_from(scratch, v);
            if scratch_halted[v.index()] {
                active[v.index()] = false;
                if let Some(rec) = &mut recording {
                    rec.halt(v);
                }
                false
            } else {
                true
            }
        });
    }

    /// Consumes the core into the run's outcome. The scratch columns are
    /// dropped here, so a finished run holds exactly one set of lanes —
    /// the peak-RSS half of the engine-scale story. A recording run hands
    /// its segment's halts to the transcript here.
    ///
    /// # Panics
    ///
    /// Panics if called while nodes are still active.
    pub fn finish(self) -> SoaOutcome<S> {
        assert!(self.is_done(), "finish() before quiescence");
        if let Some(rec) = self.recording {
            rec.hand_over(self.seeded.iter().copied());
        }
        SoaOutcome { columns: self.main, seeded: self.seeded, rounds: self.rounds }
    }
}

/// What a core keeps while a transcript records its run: its segment,
/// its participant count and the halt round of every slot.
///
/// Rounds are stored as `u32`, narrowed once per round (no run comes near
/// 2³² rounds; one that did would stop at the checked narrow). A node
/// seeded halted keeps the initial round `0`.
#[derive(Debug)]
struct Recording {
    segment: usize,
    participants: usize,
    halt_rounds: Vec<u32>,
    /// The round being executed, as stored for the nodes halting in it.
    now: u32,
}

impl Recording {
    /// Starts a transcript segment if this thread records (one relaxed
    /// load when it does not).
    fn start(index_space: usize) -> Option<Recording> {
        crate::transcript::segment_start().map(|segment| Recording {
            segment,
            participants: 0,
            halt_rounds: vec![0; index_space],
            now: 0,
        })
    }

    fn enter_round(&mut self, round: u64) {
        self.now = u32::try_from(round).or_invariant("a recorded run fits u32 rounds");
    }

    /// `v` halts in the current round.
    #[inline]
    fn halt(&mut self, v: NodeId) {
        self.halt_rounds[v.index()] = self.now;
    }

    /// Hands the halt round of every slot flagged by `seeded` to the
    /// segment, ascending by node, in one pass.
    fn hand_over(self, seeded: impl Iterator<Item = bool>) {
        let mut halts = Vec::with_capacity(self.participants);
        for (i, (seeded, &round)) in seeded.zip(&self.halt_rounds).enumerate() {
            if seeded {
                halts.push((NodeId::new(i), u64::from(round)));
            }
        }
        crate::transcript::record_halts(self.segment, halts);
    }
}

/// Orders parked `(wake, node)` entries by wake round, keeping seeding
/// order within a round: a stable counting sort, in place and linear.
///
/// Each entry's wake field first takes its target position, then one
/// cycle walk moves every entry to its target (each swap settles one
/// entry), and the wake rounds are written back bucket by bucket. The only
/// scratch is one counter per wake round in the range. A range wider than
/// the entry count (a tiny instance with a large palette, or wakes clamped
/// at `u32::MAX`) would need more counters than entries, so it is sorted
/// by `(wake, node)` instead, which is an order the waking step accepts
/// as it stands.
fn bucket_by_wake(entries: &mut [(u32, NodeId)]) {
    if entries.is_empty() {
        return;
    }
    let (lo, hi) = entries.iter().fold((u32::MAX, 0), |(lo, hi), &(w, _)| (lo.min(w), hi.max(w)));
    let span = widen_u32(hi - lo) + 1;
    if span > entries.len() {
        entries.sort_unstable_by_key(|&(wake, v)| (wake, v.index()));
        return;
    }
    // `next[b]`: the next free position of bucket `b` (wake `lo + b`).
    let mut next = vec![0u32; span];
    for &(wake, _) in entries.iter() {
        next[widen_u32(wake - lo)] += 1;
    }
    let mut start = 0u32;
    for slot in &mut next {
        let count = *slot;
        *slot = start;
        start += count;
    }
    for entry in entries.iter_mut() {
        let bucket = &mut next[widen_u32(entry.0 - lo)];
        entry.0 = *bucket;
        *bucket += 1;
    }
    for i in 0..entries.len() {
        while widen_u32(entries[i].0) != i {
            let target = widen_u32(entries[i].0);
            entries.swap(i, target);
        }
    }
    // `next[b]` now ends bucket `b`.
    let mut start = 0;
    for (wake, &end) in (lo..=hi).zip(&next) {
        let end = widen_u32(end);
        for entry in &mut entries[start..end] {
            entry.0 = wake;
        }
        start = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treelocal_graph::narrow_u32;

    #[test]
    fn seeded_halted_nodes_never_enter_the_frontier() {
        let mut core: ExecCore<u32> = ExecCore::new(3);
        core.seed(NodeId::new(0), Verdict::Halted(7));
        core.seed(NodeId::new(1), Verdict::Active(1));
        core.seed(NodeId::new(2), Verdict::Active(2));
        assert_eq!(core.frontier(), &[NodeId::new(1), NodeId::new(2)]);
        assert!(!core.is_done());
        assert_eq!(*core.state(NodeId::new(0)), 7);
        assert!(!core.is_active(NodeId::new(0)));
        assert!(core.is_active(NodeId::new(1)));
    }

    #[test]
    fn is_active_tracks_frontier_membership_exactly() {
        let mut core: ExecCore<u32> = ExecCore::new(4);
        for i in 0..3 {
            core.seed(NodeId::new(i), Verdict::Active(narrow_u32(i)));
        }
        // Slot 3 was never seeded: not active.
        assert!(!core.is_active(NodeId::new(3)));
        core.begin_round(10);
        core.step_snapshot(|v, own, _| {
            if v.index() == 1 {
                Verdict::Halted(*own)
            } else {
                Verdict::Active(*own)
            }
        });
        for i in 0..4 {
            let v = NodeId::new(i);
            assert_eq!(core.is_active(v), core.frontier().contains(&v), "slot {i}");
        }
    }

    #[test]
    fn frontier_shrinks_in_order_and_halted_states_stay_readable() {
        let mut core: ExecCore<u32> = ExecCore::new(4);
        for i in 0..4 {
            core.seed(NodeId::new(i), Verdict::Active(narrow_u32(i)));
        }
        // Round 1: odd nodes halt, doubling their state.
        core.begin_round(10);
        core.step_snapshot(|v, own, _| {
            if v.index() % 2 == 1 {
                Verdict::Halted(own * 2)
            } else {
                Verdict::Active(own + 1)
            }
        });
        assert_eq!(core.frontier(), &[NodeId::new(0), NodeId::new(2)]);
        assert_eq!(*core.state(NodeId::new(1)), 2);
        assert_eq!(*core.state(NodeId::new(3)), 6);
        // Round 2: survivors read a halted neighbor's state via the
        // snapshot and halt.
        core.begin_round(10);
        core.step_snapshot(|_, own, snap| Verdict::Halted(own + snap.get(NodeId::new(1))));
        assert!(core.is_done());
        let out = core.finish();
        assert_eq!(out.rounds, 2);
        assert_eq!(*out.state(NodeId::new(0)), 3);
        assert_eq!(*out.state(NodeId::new(2)), 5);
    }

    #[test]
    fn snapshot_reads_previous_round_states_mid_round() {
        // Nodes 0 and 1 both read each other's state in the same round;
        // both must see the *previous* value even though one slot is
        // committed before the other.
        let mut core: ExecCore<u32> = ExecCore::new(2);
        core.seed(NodeId::new(0), Verdict::Active(10));
        core.seed(NodeId::new(1), Verdict::Active(20));
        core.begin_round(10);
        core.step_snapshot(|v, _, snap| Verdict::Halted(*snap.get(NodeId::new(1 - v.index()))));
        let out = core.finish();
        assert_eq!(*out.state(NodeId::new(0)), 20);
        assert_eq!(*out.state(NodeId::new(1)), 10);
    }

    #[test]
    #[should_panic(expected = "seeded twice")]
    fn double_seeding_an_active_node_is_rejected() {
        // A plain `assert!`, not `debug_assert!`: with debug assertions
        // compiled out (release builds), a re-seeded Active node used to be
        // pushed onto the frontier twice and stepped twice per round. The
        // `release_invariants` integration test exercises this exact path
        // under `--release`.
        let mut core: ExecCore<u32> = ExecCore::new(2);
        core.seed(NodeId::new(0), Verdict::Active(1));
        core.seed(NodeId::new(0), Verdict::Active(2));
    }

    #[test]
    #[should_panic(expected = "seeded twice")]
    fn double_seeding_a_halted_node_is_rejected() {
        let mut core: ExecCore<u32> = ExecCore::new(1);
        core.seed(NodeId::new(0), Verdict::Halted(1));
        core.seed(NodeId::new(0), Verdict::Active(2));
    }

    #[test]
    #[should_panic(expected = "did not halt")]
    fn round_budget_is_enforced() {
        let mut core: ExecCore<u32> = ExecCore::new(1);
        core.seed(NodeId::new(0), Verdict::Active(0));
        core.begin_round(1);
        core.step_snapshot(|_, own, _| Verdict::Active(own + 1));
        core.begin_round(1);
    }

    #[test]
    fn zero_round_execution() {
        let mut core: ExecCore<u32> = ExecCore::new(1);
        core.seed(NodeId::new(0), Verdict::Halted(5));
        assert!(core.is_done());
        let out = core.finish();
        assert_eq!(out.rounds, 0);
        assert_eq!(*out.state(NodeId::new(0)), 5);
    }

    /// The commit-order invariant holds in *every* build profile: this
    /// suite also runs under `--release` in CI, where a `debug_assert`
    /// would compile away.
    #[cfg(feature = "parallel")]
    #[test]
    #[should_panic(expected = "commit-order invariant")]
    fn short_verdict_batches_are_rejected_in_every_profile() {
        let mut core: ExecCore<u32> = ExecCore::new(2);
        core.seed(NodeId::new(0), Verdict::Active(1));
        core.seed(NodeId::new(1), Verdict::Active(2));
        core.commit_in_frontier_order(vec![Verdict::Active(9)]);
    }

    #[cfg(feature = "parallel")]
    #[test]
    #[should_panic(expected = "commit-order invariant")]
    fn oversized_verdict_batches_are_rejected_in_every_profile() {
        let mut core: ExecCore<u32> = ExecCore::new(1);
        core.seed(NodeId::new(0), Verdict::Active(1));
        core.commit_in_frontier_order(vec![Verdict::Active(9), Verdict::Active(8)]);
    }

    /// One-u32-lane test state for the codec-backed core.
    #[derive(Debug, PartialEq)]
    struct Lane(u32);

    impl crate::StateCodec for Lane {
        const U32_LANES: usize = 1;
        const U64_LANES: usize = 0;
        fn encode(&self, lanes32: &mut [u32], _lanes64: &mut [u64]) {
            lanes32[0] = self.0;
        }
        fn decode(lanes32: &[u32], _lanes64: &[u64]) -> Self {
            Lane(lanes32[0])
        }
    }

    #[test]
    fn soa_seeded_halted_nodes_never_enter_the_frontier() {
        let mut core: ExecCoreSoa<Lane> = ExecCoreSoa::new(3);
        core.seed(NodeId::new(0), Verdict::Halted(Lane(7)));
        core.seed(NodeId::new(1), Verdict::Active(Lane(1)));
        core.seed(NodeId::new(2), Verdict::Active(Lane(2)));
        assert_eq!(core.frontier(), &[NodeId::new(1), NodeId::new(2)]);
        assert!(!core.is_done());
        assert_eq!(core.state(NodeId::new(0)), Lane(7));
        assert!(!core.is_active(NodeId::new(0)));
        assert!(core.is_active(NodeId::new(1)));
    }

    #[test]
    fn soa_frontier_shrinks_in_order_and_halted_lanes_stay_frozen() {
        let mut core: ExecCoreSoa<Lane> = ExecCoreSoa::new(4);
        for i in 0..4 {
            core.seed(NodeId::new(i), Verdict::Active(Lane(narrow_u32(i))));
        }
        core.begin_round(10);
        core.step_snapshot(|v, own, _| {
            if v.index() % 2 == 1 {
                Verdict::Halted(Lane(own.0 * 2))
            } else {
                Verdict::Active(Lane(own.0 + 1))
            }
        });
        assert_eq!(core.frontier(), &[NodeId::new(0), NodeId::new(2)]);
        assert_eq!(core.state(NodeId::new(1)), Lane(2));
        assert_eq!(core.state(NodeId::new(3)), Lane(6));
        // Survivors read a halted neighbor's frozen lanes via the snapshot.
        core.begin_round(10);
        core.step_snapshot(|_, own, snap| {
            Verdict::Halted(Lane(own.0 + snap.get(NodeId::new(1)).0))
        });
        assert!(core.is_done());
        let out = core.finish();
        assert_eq!(out.rounds, 2);
        assert_eq!(out.state(NodeId::new(0)), Lane(3));
        assert_eq!(out.state(NodeId::new(2)), Lane(5));
        assert_eq!(out.try_state(NodeId::new(3)), Some(Lane(6)));
    }

    #[test]
    fn soa_snapshot_reads_previous_round_lanes_mid_round() {
        let mut core: ExecCoreSoa<Lane> = ExecCoreSoa::new(2);
        core.seed(NodeId::new(0), Verdict::Active(Lane(10)));
        core.seed(NodeId::new(1), Verdict::Active(Lane(20)));
        core.begin_round(10);
        core.step_snapshot(|v, _, snap| Verdict::Halted(snap.get(NodeId::new(1 - v.index()))));
        let out = core.finish();
        assert_eq!(out.state(NodeId::new(0)), Lane(20));
        assert_eq!(out.state(NodeId::new(1)), Lane(10));
    }

    #[test]
    fn soa_owned_stepping_consumes_decoded_states() {
        let mut core: ExecCoreSoa<Lane> = ExecCoreSoa::new(3);
        for i in 0..3 {
            core.seed(NodeId::new(i), Verdict::Active(Lane(narrow_u32(i) + 1)));
        }
        core.begin_round(10);
        core.step_owned(|_, own| Verdict::Halted(Lane(own.0 * 10)));
        let out = core.finish();
        assert_eq!(out.rounds, 1);
        for i in 0..3 {
            assert_eq!(out.state(NodeId::new(i)), Lane((narrow_u32(i) + 1) * 10));
        }
    }

    #[test]
    fn soa_parked_nodes_stay_live_but_are_stepped_from_their_wake_round() {
        let mut core: ExecCoreSoa<Lane> = ExecCoreSoa::new(4);
        core.seed_parked(NodeId::new(0), Verdict::Active(Lane(0)), 3);
        core.seed_parked(NodeId::new(1), Verdict::Active(Lane(1)), 1);
        core.seed_parked(NodeId::new(2), Verdict::Active(Lane(2)), 2);
        core.seed_parked(NodeId::new(3), Verdict::Halted(Lane(3)), 9);
        assert_eq!(core.frontier(), &[NodeId::new(1)]);
        assert!(core.is_active(NodeId::new(0)) && !core.is_active(NodeId::new(3)));
        let mut stepped = Vec::new();
        while !core.is_done() {
            let round = core.begin_round(10);
            core.step_snapshot(|v, own, _| {
                stepped.push((round, v.index()));
                Verdict::Halted(own)
            });
        }
        assert_eq!(stepped, vec![(1, 1), (2, 2), (3, 0)]);
        let out = core.finish();
        assert_eq!(out.rounds, 3);
        assert_eq!(out.state(NodeId::new(0)), Lane(0));
    }

    /// Seeds `(node, wake)` pairs in the given order, steps every node
    /// once (halting it) and returns the `(round, node)` steps in order.
    fn parked_steps(n: usize, seeds: &[(usize, u64)], max_rounds: u64) -> Vec<(u64, usize)> {
        let mut core: ExecCoreSoa<Lane> = ExecCoreSoa::new(n);
        for &(v, wake) in seeds {
            core.seed_parked(NodeId::new(v), Verdict::Active(Lane(narrow_u32(v))), wake);
        }
        let mut stepped = Vec::new();
        while !core.is_done() && core.rounds() < max_rounds {
            let round = core.begin_round(max_rounds);
            core.step_snapshot(|v, own, _| {
                stepped.push((round, v.index()));
                Verdict::Halted(own)
            });
        }
        stepped
    }

    /// The order the parked nodes must step in: by wake round, then index.
    fn by_wake_then_index(seeds: &[(usize, u64)]) -> Vec<(u64, usize)> {
        let mut want: Vec<(u64, usize)> = seeds.iter().map(|&(v, w)| (w, v)).collect();
        want.sort_unstable();
        want
    }

    #[test]
    fn soa_out_of_order_seeding_wakes_in_wake_then_index_order() {
        let seeds = [(5, 3), (2, 2), (7, 3), (0, 2), (3, 4), (6, 2), (1, 3), (4, 4), (8, 2)];
        assert_eq!(parked_steps(9, &seeds, 10), by_wake_then_index(&seeds));
    }

    #[test]
    fn soa_wakes_spread_wider_than_the_parked_count_keep_their_order() {
        // Five parked nodes over wake rounds 2..=40.
        let seeds = [(3, 40), (0, 9), (4, 2), (1, 40), (2, 3)];
        assert_eq!(parked_steps(5, &seeds, 50), by_wake_then_index(&seeds));
    }

    #[test]
    fn soa_wakes_clamped_at_u32_max_stay_parked_behind_the_due_ones() {
        let huge = [u64::MAX, u64::from(u32::MAX) + 1, u64::from(u32::MAX)];
        let seeds = [(4, huge[0]), (1, 3), (5, huge[1]), (0, 2), (3, huge[2]), (2, 3)];
        let stepped = parked_steps(6, &seeds, 12);
        assert_eq!(stepped, vec![(2, 0), (3, 1), (3, 2)]);
        // The clamped bucket itself: one wake, index order once woken.
        let mut entries: Vec<(u32, NodeId)> =
            [4, 5, 3].into_iter().map(|v| (u32::MAX, NodeId::new(v))).collect();
        bucket_by_wake(&mut entries);
        entries.sort_unstable_by_key(|&(wake, v)| (wake, v.index()));
        assert_eq!(entries, [3, 4, 5].map(|v| (u32::MAX, NodeId::new(v))));
    }

    #[test]
    fn bucketing_is_a_stable_sort_by_wake() {
        let mix = |seed: u64, i: u64| {
            let mut z = seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for seed in 0..200u64 {
            let len = usize::try_from(mix(seed, 0) % 300).unwrap();
            // Dense ranges take the counting path, wide ones the fallback.
            let span = 1 + mix(seed, 1) % (2 * widen_u64(len) + 2);
            let lo = if seed % 5 == 0 { u64::from(u32::MAX) - span + 1 } else { 2 };
            let entries: Vec<(u32, NodeId)> = (0..len)
                .map(|i| {
                    let wake = lo + mix(seed, 2 + widen_u64(i)) % span;
                    (u32::try_from(wake).unwrap(), NodeId::new(len - 1 - i))
                })
                .collect();
            let mut got = entries.clone();
            bucket_by_wake(&mut got);
            let mut stable = entries.clone();
            stable.sort_by_key(|&(wake, _)| wake);
            if widen_u64(len) >= span {
                assert_eq!(got, stable, "seed {seed}: counting sort is not stable");
            }
            // Either way, sorting each wake run by index gives (wake, index).
            let mut full = entries;
            full.sort_unstable_by_key(|&(wake, v)| (wake, v.index()));
            for run in got.chunk_by_mut(|a, b| a.0 == b.0) {
                run.sort_unstable_by_key(|&(_, v)| v.index());
            }
            assert_eq!(got, full, "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "seeded twice")]
    fn soa_double_seeding_is_rejected() {
        let mut core: ExecCoreSoa<Lane> = ExecCoreSoa::new(2);
        core.seed(NodeId::new(0), Verdict::Active(Lane(1)));
        core.seed(NodeId::new(0), Verdict::Halted(Lane(2)));
    }

    #[test]
    #[should_panic(expected = "did not halt")]
    fn soa_round_budget_is_enforced() {
        let mut core: ExecCoreSoa<Lane> = ExecCoreSoa::new(1);
        core.seed(NodeId::new(0), Verdict::Active(Lane(0)));
        core.begin_round(1);
        core.step_snapshot(|_, own, _| Verdict::Active(Lane(own.0 + 1)));
        core.begin_round(1);
    }

    #[test]
    fn soa_zero_round_execution() {
        let mut core: ExecCoreSoa<Lane> = ExecCoreSoa::new(1);
        core.seed(NodeId::new(0), Verdict::Halted(Lane(5)));
        assert!(core.is_done());
        let out = core.finish();
        assert_eq!(out.rounds, 0);
        assert_eq!(out.state(NodeId::new(0)), Lane(5));
    }

    #[cfg(feature = "parallel")]
    #[test]
    #[should_panic(expected = "commit-order invariant")]
    fn soa_short_verdict_batches_are_rejected_in_every_profile() {
        let mut core: ExecCoreSoa<Lane> = ExecCoreSoa::new(2);
        core.seed(NodeId::new(0), Verdict::Active(Lane(1)));
        core.seed(NodeId::new(1), Verdict::Active(Lane(2)));
        core.commit_in_frontier_order(vec![Verdict::Active(Lane(9))]);
    }
}
