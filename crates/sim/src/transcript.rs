//! Optional run transcripts for certificate emission.
//!
//! When armed (per thread, via [`begin`]), the execution cores record a
//! **transcript**: which nodes halted in which round, and a chained
//! commitment hash over every round's frontier in commit order. A
//! certificate built from the transcript can be re-checked by the
//! engine-blind `treelocal-check` crate, which re-derives the commitment
//! chain from the halt rounds alone — the checker carries its own
//! independent implementation of the hash, so the two sides genuinely
//! cross-validate.
//!
//! Recording is zero-cost when off: a core asks [`segment_start`] once
//! per run, which is one relaxed load of a process-wide armed counter,
//! and a core that is not recording never calls in again. When armed,
//! state lives in a thread-local — sound because core construction,
//! `begin_round` and `finish` run on the calling thread even in parallel
//! builds (only step closures go to the pool), which is the same property
//! the engines' determinism story rests on.
//!
//! Each engine run constructs exactly one [`ExecCore`](crate::ExecCore)
//! or [`ExecCoreSoa`](crate::ExecCoreSoa), so a multi-run pipeline
//! (Linial → KW phases → sweep) records one transcript **segment** per
//! engine run, with the commitment chain threading across segments. A
//! recording core commits each round through a [`RoundFold`] and, at
//! `finish()`, hands over the segment's halt rounds in one call,
//! ascending by node, from the halt-round column it kept during the run.
//! A core dropped before `finish()` leaves its rounds' commitments with
//! no halts, a segment the checker rejects. Zero-round segments (a run
//! whose every node halts at seeding) are dropped when the transcript is
//! taken: they contribute no rounds and no commitments, and dropping them
//! keeps snapshot and message runs of the same algorithm byte-identical
//! even when one of them short-circuits an empty schedule without
//! entering the engine.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use treelocal_graph::{widen_u32, widen_u64, NodeId};

/// FNV-1a 64-bit offset basis — the start of every commitment chain.
pub const COMMITMENT_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const COMMITMENT_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `ZERO_RUN[k]` = `COMMITMENT_PRIME^k` (wrapping): the effect of folding
/// `k` zero bytes.
const ZERO_RUN: [u64; 9] = {
    let mut table = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        table[k] = table[k - 1].wrapping_mul(COMMITMENT_PRIME);
        k += 1;
    }
    table
};

/// Folds one `u64` into an FNV-1a 64-bit hash, little-endian byte order.
///
/// A byte-at-a-time FNV-1a step is `h ← (h ^ b) · P`, and XOR with a zero
/// byte changes nothing, so the run of zero bytes above `x`'s highest
/// non-zero byte is one multiply by `P^k`. Only the significant bytes are
/// folded one by one; the value is the byte spec's.
#[inline]
pub fn commitment_fold(mut h: u64, x: u64) -> u64 {
    let zero_bytes = widen_u32(x.leading_zeros() / 8);
    for shift in 0..8 - zero_bytes {
        let byte = (x >> (8 * shift)) & 0xff;
        h = (h ^ byte).wrapping_mul(COMMITMENT_PRIME);
    }
    h.wrapping_mul(ZERO_RUN[zero_bytes])
}

/// One engine run's worth of transcript.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TranscriptSegment {
    /// `(node, halt_round)` pairs, ascending by node index. Round `0`
    /// means the node was seeded halted and never entered the frontier.
    pub halts: Vec<(NodeId, u64)>,
    /// Communication rounds this segment executed.
    pub rounds: u64,
    /// One chained frontier commitment per round, in round order.
    pub commitments: Vec<u64>,
}

/// Everything recorded between [`begin`] and [`take`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Transcript {
    /// One segment per engine run, in execution order (zero-round
    /// segments dropped).
    pub segments: Vec<TranscriptSegment>,
}

impl Transcript {
    /// Total communication rounds across all segments.
    pub fn total_rounds(&self) -> u64 {
        self.segments.iter().map(|s| s.rounds).sum()
    }
}

#[derive(Default)]
struct RawSegment {
    /// Filled once, by the core's `finish()`.
    halts: Vec<(NodeId, u64)>,
    commitments: Vec<u64>,
}

struct Recorder {
    segments: Vec<RawSegment>,
    chain: u64,
}

/// Number of threads with an armed recorder — the per-run fast-path gate.
static ARMED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Arms transcript recording on the calling thread. Any previously armed
/// recording on this thread is discarded.
pub fn begin() {
    RECORDER.with(|r| {
        let mut slot = r.borrow_mut();
        if slot.is_none() {
            ARMED.fetch_add(1, Ordering::Relaxed);
        }
        *slot = Some(Recorder { segments: Vec::new(), chain: COMMITMENT_OFFSET });
    });
}

/// Disarms recording on the calling thread and returns the transcript
/// (empty if [`begin`] was never called).
pub fn take() -> Transcript {
    RECORDER.with(|r| {
        let mut slot = r.borrow_mut();
        match slot.take() {
            Some(rec) => {
                ARMED.fetch_sub(1, Ordering::Relaxed);
                Transcript {
                    segments: rec
                        .segments
                        .into_iter()
                        .filter(|s| !s.commitments.is_empty())
                        .map(|s| TranscriptSegment {
                            rounds: widen_u64(s.commitments.len()),
                            halts: s.halts,
                            commitments: s.commitments,
                        })
                        .collect(),
                }
            }
            None => Transcript::default(),
        }
    })
}

/// Runs `f` on segment `segment` of this thread's recorder, if it is
/// still armed and the segment exists.
fn with_segment(segment: usize, f: impl FnOnce(&mut u64, &mut RawSegment)) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            if let Some(seg) = rec.segments.get_mut(segment) {
                f(&mut rec.chain, seg);
            }
        }
    });
}

/// A new engine run (one per core construction) starts a fresh segment.
/// Returns the segment's handle if this thread is recording, i.e. if the
/// run's rounds will be committed; `None` costs the caller nothing more.
pub(crate) fn segment_start() -> Option<usize> {
    if ARMED.load(Ordering::Relaxed) == 0 {
        return None;
    }
    RECORDER.with(|r| {
        r.borrow_mut().as_mut().map(|rec| {
            rec.segments.push(RawSegment::default());
            rec.segments.len() - 1
        })
    })
}

/// Hands a finished run's halts to its segment: `(node, halt_round)`,
/// ascending by node, one per participant.
pub(crate) fn record_halts(segment: usize, halts: Vec<(NodeId, u64)>) {
    with_segment(segment, |_, seg| seg.halts = halts);
}

/// One round's commitment while it is being folded: the chain is already
/// folded with the round number and the announced frontier size, and the
/// frontier nodes follow in commit order. [`RoundFold::close`] checks
/// that exactly the announced number of nodes was folded.
pub(crate) struct RoundFold {
    segment: usize,
    h: u64,
    announced: usize,
    folded: usize,
}

impl RoundFold {
    /// Opens the next round of `segment` with a frontier of `len` nodes;
    /// `None` once the recorder is gone.
    pub(crate) fn open(segment: usize, len: usize) -> Option<RoundFold> {
        let mut fold = None;
        with_segment(segment, |chain, seg| {
            let round = widen_u64(seg.commitments.len()) + 1;
            let h = commitment_fold(commitment_fold(*chain, round), widen_u64(len));
            fold = Some(RoundFold { segment, h, announced: len, folded: 0 });
        });
        fold
    }

    /// Folds the next frontier node.
    #[inline]
    pub(crate) fn node(&mut self, v: NodeId) {
        self.h = commitment_fold(self.h, widen_u64(v.index()));
        self.folded += 1;
    }

    /// Extends the chain with the finished round and records its
    /// commitment.
    ///
    /// # Panics
    ///
    /// Panics if the folded nodes do not number the announced frontier
    /// size: the commitment would not be the spec's.
    pub(crate) fn close(self) {
        assert_eq!(self.folded, self.announced, "a round folds exactly its announced frontier");
        let h = self.h;
        with_segment(self.segment, |chain, seg| {
            *chain = h;
            seg.commitments.push(h);
        });
    }
}

/// Commits a round whose frontier is `frontier`, in commit order.
pub(crate) fn record_round(segment: usize, frontier: &[NodeId]) {
    if let Some(mut fold) = RoundFold::open(segment, frontier.len()) {
        for &v in frontier {
            fold.node(v);
        }
        fold.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run, run_soa, Ctx, Snapshot, SoaAlgorithm, SyncAlgorithm, Verdict};
    use crate::{SoaSnapshot, StateCodec};
    use treelocal_graph::{Graph, Topology};

    /// Halts node `v` after `v + 1` rounds.
    struct Countdown;
    impl<T: Topology> SyncAlgorithm<T> for Countdown {
        type State = u64;
        fn init(&self, _ctx: &Ctx<T>, v: NodeId) -> Verdict<u64> {
            Verdict::Active(widen_u64(v.index()) + 1)
        }
        fn step(
            &self,
            _ctx: &Ctx<T>,
            _v: NodeId,
            round: u64,
            own: &u64,
            _prev: &Snapshot<'_, u64>,
        ) -> Verdict<u64> {
            if round >= *own {
                Verdict::Halted(*own)
            } else {
                Verdict::Active(*own)
            }
        }
    }

    /// Byte-at-a-time FNV-1a over the 8 little-endian bytes of `x`.
    fn fold_bytes(mut h: u64, x: u64) -> u64 {
        for byte in x.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(COMMITMENT_PRIME);
        }
        h
    }

    /// SplitMix64: a seeded value stream independent of the crates under
    /// test.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn zero_run_fold_equals_the_byte_spec_at_the_edges() {
        let edges = [0, 1, 0xff, 0x100, (1u64 << 56) - 1, 1 << 56, u64::MAX];
        for h in [COMMITMENT_OFFSET, 0, u64::MAX, 0x0123_4567_89ab_cdef] {
            for x in edges {
                assert_eq!(commitment_fold(h, x), fold_bytes(h, x), "h {h:#x}, x {x:#x}");
            }
        }
    }

    #[test]
    fn zero_run_fold_equals_the_byte_spec_for_every_zero_run_length() {
        let mut state = 0x5eed_0001;
        let mut h = COMMITMENT_OFFSET;
        for zero_bytes in 0..=8u32 {
            for _ in 0..1200 {
                // Exactly `zero_bytes` zero bytes on top: shift a random
                // word down, then force the highest kept byte non-zero.
                let x = match zero_bytes {
                    8 => 0,
                    z => (splitmix(&mut state) >> (8 * z)) | (1 << (8 * (7 - z))),
                };
                assert_eq!(x.leading_zeros() / 8, zero_bytes);
                let (fast, slow) = (commitment_fold(h, x), fold_bytes(h, x));
                assert_eq!(fast, slow, "x {x:#x}");
                h = fast;
            }
        }
    }

    #[test]
    fn untracked_runs_record_nothing() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let ctx = Ctx::of(&g);
        run(&ctx, &Countdown, 10);
        assert_eq!(take(), Transcript::default());
    }

    #[test]
    fn tracked_run_records_halts_and_one_commitment_per_round() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let ctx = Ctx::of(&g);
        begin();
        let out = run(&ctx, &Countdown, 10);
        let t = take();
        assert_eq!(out.rounds, 3);
        assert_eq!(t.segments.len(), 1);
        let seg = &t.segments[0];
        assert_eq!(seg.rounds, 3);
        assert_eq!(seg.commitments.len(), 3);
        assert_eq!(seg.halts, vec![(NodeId::new(0), 1), (NodeId::new(1), 2), (NodeId::new(2), 3)]);
        assert_eq!(t.total_rounds(), 3);
    }

    /// [`Countdown`] on the codec core, parking every node until the
    /// round it halts in: parked nodes must still be committed.
    struct ParkedCountdown;
    impl<T: Topology> SoaAlgorithm<T> for ParkedCountdown {
        type State = Halt;
        fn init(&self, _ctx: &Ctx<T>, v: NodeId) -> Verdict<Halt> {
            Verdict::Active(Halt(widen_u64(v.index()) + 1))
        }
        fn wake_round(&self, own: &Halt) -> u64 {
            own.0
        }
        fn step(
            &self,
            _ctx: &Ctx<T>,
            _v: NodeId,
            round: u64,
            own: Halt,
            _prev: &SoaSnapshot<'_, Halt>,
        ) -> Verdict<Halt> {
            if round >= own.0 {
                Verdict::Halted(own)
            } else {
                Verdict::Active(own)
            }
        }
    }

    #[derive(Debug)]
    struct Halt(u64);
    impl StateCodec for Halt {
        const U32_LANES: usize = 0;
        const U64_LANES: usize = 1;
        fn encode(&self, _lanes32: &mut [u32], lanes64: &mut [u64]) {
            lanes64[0] = self.0;
        }
        fn decode(_lanes32: &[u32], lanes64: &[u64]) -> Self {
            Halt(lanes64[0])
        }
    }

    #[test]
    fn commitments_match_an_independent_derivation() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let ctx = Ctx::of(&g);
        begin();
        run(&ctx, &Countdown, 10);
        let boxed = take();
        begin();
        run_soa(&ctx, &ParkedCountdown, 10);
        let parked = take();
        for t in [boxed, parked] {
            assert_eq!(t.segments[0].rounds, 3);
            // Frontier at round r = nodes with halt round >= r, commit order.
            let mut chain = COMMITMENT_OFFSET;
            for (r, &c) in t.segments[0].commitments.iter().enumerate() {
                let round = widen_u64(r) + 1;
                let frontier: Vec<NodeId> = t.segments[0]
                    .halts
                    .iter()
                    .filter(|&&(_, hr)| hr >= round)
                    .map(|&(v, _)| v)
                    .collect();
                let mut h = commitment_fold(chain, round);
                h = commitment_fold(h, widen_u64(frontier.len()));
                for v in &frontier {
                    h = commitment_fold(h, widen_u64(v.index()));
                }
                assert_eq!(c, h, "round {round}");
                chain = h;
            }
        }
    }

    #[test]
    fn consecutive_runs_become_segments_and_zero_round_runs_are_dropped() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let ctx = Ctx::of(&g);
        begin();
        run(&ctx, &Countdown, 10);
        // A run where everything halts at seeding contributes no segment.
        struct Instant;
        impl<T: Topology> SyncAlgorithm<T> for Instant {
            type State = u64;
            fn init(&self, _ctx: &Ctx<T>, _v: NodeId) -> Verdict<u64> {
                Verdict::Halted(0)
            }
            fn step(
                &self,
                _ctx: &Ctx<T>,
                _v: NodeId,
                _round: u64,
                _own: &u64,
                _prev: &Snapshot<'_, u64>,
            ) -> Verdict<u64> {
                Verdict::Halted(0)
            }
        }
        run(&ctx, &Instant, 10);
        run(&ctx, &Countdown, 10);
        let t = take();
        assert_eq!(t.segments.len(), 2);
        // The chain threads across segments: re-running the same algorithm
        // yields the same halts but distinct commitments.
        assert_eq!(t.segments[0].halts, t.segments[1].halts);
        assert_eq!(t.segments[0].rounds, t.segments[1].rounds);
        assert_ne!(t.segments[0].commitments, t.segments[1].commitments);
    }
}
