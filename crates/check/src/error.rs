//! The typed error taxonomy of the checker.
//!
//! Every rejection carries its location — a node, edge, segment or round —
//! so a failed check names the exact witness that broke, not just the rule.
//! The corruption suite (`tests/corruption.rs`) pins that each corruption
//! class maps to its *specific* variant.

use std::error::Error;
use std::fmt;

/// Why a certificate was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckError {
    /// The certificate text is malformed at `line` (1-based).
    Format {
        /// Offending line number.
        line: usize,
        /// What was expected there.
        what: String,
    },
    /// The certificate bytes are not UTF-8 text.
    InvalidUtf8 {
        /// Line (1-based) holding the first invalid byte.
        line: usize,
        /// Byte offset of the first invalid byte.
        offset: usize,
    },
    /// The format-version line does not announce a supported version.
    VersionMismatch {
        /// The version line found.
        found: String,
    },
    /// The embedded instance is not a valid graph (self-loop, parallel
    /// edge, endpoint out of range, ...).
    BadInstance {
        /// The construction error, rendered.
        what: String,
    },
    /// The header claims more nodes than the body names (as edge
    /// endpoints, witnesses, lists or halt records).
    UnbackedNodeCount {
        /// Nodes the header claims.
        claimed: usize,
        /// The most nodes the body can name.
        backed: usize,
    },
    /// The solution kind does not fit the rule (e.g. node colors offered
    /// for a matching rule).
    WitnessKind {
        /// The rule's identifier.
        rule: &'static str,
        /// The solution kind found.
        found: &'static str,
    },
    /// The solution has the wrong number of per-node / per-edge witnesses.
    WitnessCount {
        /// Entries the instance requires.
        expected: usize,
        /// Entries the solution carries.
        found: usize,
    },
    /// A witness line for some index is absent (indices must be dense and
    /// ascending).
    MissingWitness {
        /// The first index with no witness.
        index: usize,
    },
    /// Two witness lines for the same index.
    DuplicateWitness {
        /// The repeated index.
        index: usize,
    },
    /// A list-coloring rule without a lists block.
    MissingLists,
    /// The lists block covers the wrong number of nodes.
    ListCount {
        /// Lists the instance requires.
        expected: usize,
        /// Lists found.
        found: usize,
    },
    /// A node color below 1 (colors are from `{1, ...}`).
    ColorZero {
        /// The offending node.
        node: usize,
    },
    /// Two adjacent nodes share `color` across `edge`.
    ImproperColor {
        /// The monochromatic edge.
        edge: usize,
        /// The shared color.
        color: u64,
    },
    /// A node color exceeds the rule's palette.
    PaletteExceeded {
        /// The offending node.
        node: usize,
        /// Its color.
        color: u64,
        /// The palette limit for this node.
        limit: u64,
    },
    /// A node's color is not in its list.
    ColorNotInList {
        /// The offending node.
        node: usize,
        /// Its color.
        color: u64,
    },
    /// An edge color below 1.
    EdgeColorZero {
        /// The offending edge.
        edge: usize,
    },
    /// Two edges sharing `node` carry the same `color`.
    ImproperEdgeColor {
        /// The shared endpoint.
        node: usize,
        /// The repeated color.
        color: u64,
    },
    /// An edge color exceeds the rule's palette.
    EdgePaletteExceeded {
        /// The offending edge.
        edge: usize,
        /// Its color.
        color: u64,
        /// The palette limit for this edge.
        limit: u64,
    },
    /// Both endpoints of `edge` claim set membership.
    NotIndependent {
        /// The edge inside the "independent" set.
        edge: usize,
    },
    /// A non-member `node` with no member neighbor.
    NotMaximal {
        /// The node that could join the set.
        node: usize,
    },
    /// A non-member's witness edge is out of range or not incident to it.
    WitnessNotIncident {
        /// The non-member node.
        node: usize,
        /// The claimed witness edge.
        edge: usize,
    },
    /// A non-member's witness edge leads to another non-member.
    WitnessNotMember {
        /// The non-member node.
        node: usize,
        /// The witness edge whose other endpoint is not a member.
        edge: usize,
    },
    /// A node is incident to more chosen edges than the rule's `b`.
    OverSaturated {
        /// The over-saturated node.
        node: usize,
        /// Chosen edges at the node.
        chosen: u64,
        /// The rule's per-node bound.
        limit: u64,
    },
    /// An unchosen edge both of whose endpoints still have capacity.
    MatchingNotMaximal {
        /// The addable edge.
        edge: usize,
    },
    /// The claimed round count exceeds the rule's round envelope.
    EnvelopeExceeded {
        /// Rounds the certificate claims.
        rounds: u64,
        /// The envelope for this instance.
        limit: u64,
    },
    /// The claimed total round count disagrees with the transcript.
    RoundCountMismatch {
        /// Rounds the certificate claims.
        claimed: u64,
        /// Rounds the transcript derives.
        derived: u64,
    },
    /// A segment's claimed round count disagrees with its halt records.
    SegmentRoundsMismatch {
        /// The offending segment (0-based).
        segment: usize,
        /// Rounds the segment header claims.
        claimed: u64,
        /// The latest halt round recorded.
        derived: u64,
    },
    /// A segment carries fewer or more commitments than rounds.
    TranscriptTruncated {
        /// The offending segment (0-based).
        segment: usize,
        /// Rounds the segment header claims.
        rounds: u64,
        /// Commitments present.
        commitments: usize,
    },
    /// A halt record claims a round after the segment ended.
    HaltBeyondSegment {
        /// The offending segment (0-based).
        segment: usize,
        /// The halting node.
        node: usize,
        /// Its claimed halt round.
        round: u64,
        /// Rounds the segment header claims.
        rounds: u64,
    },
    /// Halt records out of ascending node order, or a node repeated.
    UnsortedHalts {
        /// The offending segment (0-based).
        segment: usize,
        /// The out-of-order node.
        node: usize,
    },
    /// A halt record names a node outside the instance.
    UnknownNode {
        /// The offending segment (0-based).
        segment: usize,
        /// The out-of-range node index.
        node: usize,
    },
    /// A segment header's participant count disagrees with its halt lines.
    ParticipantCountMismatch {
        /// The offending segment (0-based).
        segment: usize,
        /// Participants the header claims.
        claimed: usize,
        /// Halt lines present.
        found: usize,
    },
    /// A re-derived frontier commitment disagrees with the recorded one.
    CommitmentMismatch {
        /// The offending segment (0-based).
        segment: usize,
        /// The offending round (1-based within the segment).
        round: u64,
        /// The commitment the checker derives.
        expected: u64,
        /// The commitment the certificate records.
        found: u64,
    },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Format { line, what } => write!(f, "line {line}: expected {what}"),
            CheckError::InvalidUtf8 { line, offset } => {
                write!(f, "line {line}: invalid UTF-8 at byte {offset}")
            }
            CheckError::VersionMismatch { found } => {
                write!(f, "unsupported certificate version: {found:?}")
            }
            CheckError::BadInstance { what } => write!(f, "bad instance: {what}"),
            CheckError::UnbackedNodeCount { claimed, backed } => {
                write!(f, "header claims {claimed} nodes, the body names at most {backed}")
            }
            CheckError::WitnessKind { rule, found } => {
                write!(f, "rule {rule} cannot be witnessed by a {found} solution")
            }
            CheckError::WitnessCount { expected, found } => {
                write!(f, "expected {expected} witnesses, found {found}")
            }
            CheckError::MissingWitness { index } => {
                write!(f, "no witness for index {index}")
            }
            CheckError::DuplicateWitness { index } => {
                write!(f, "duplicate witness for index {index}")
            }
            CheckError::MissingLists => write!(f, "list-coloring rule without a lists block"),
            CheckError::ListCount { expected, found } => {
                write!(f, "expected {expected} lists, found {found}")
            }
            CheckError::ColorZero { node } => write!(f, "node {node}: color below 1"),
            CheckError::ImproperColor { edge, color } => {
                write!(f, "edge {edge}: both endpoints colored {color}")
            }
            CheckError::PaletteExceeded { node, color, limit } => {
                write!(f, "node {node}: color {color} exceeds palette {limit}")
            }
            CheckError::ColorNotInList { node, color } => {
                write!(f, "node {node}: color {color} not in its list")
            }
            CheckError::EdgeColorZero { edge } => write!(f, "edge {edge}: color below 1"),
            CheckError::ImproperEdgeColor { node, color } => {
                write!(f, "node {node}: two incident edges colored {color}")
            }
            CheckError::EdgePaletteExceeded { edge, color, limit } => {
                write!(f, "edge {edge}: color {color} exceeds palette {limit}")
            }
            CheckError::NotIndependent { edge } => {
                write!(f, "edge {edge}: both endpoints in the independent set")
            }
            CheckError::NotMaximal { node } => {
                write!(f, "node {node}: no member neighbor, set not maximal")
            }
            CheckError::WitnessNotIncident { node, edge } => {
                write!(f, "node {node}: witness edge {edge} is not incident")
            }
            CheckError::WitnessNotMember { node, edge } => {
                write!(f, "node {node}: witness edge {edge} leads to a non-member")
            }
            CheckError::OverSaturated { node, chosen, limit } => {
                write!(f, "node {node}: {chosen} chosen edges exceed b = {limit}")
            }
            CheckError::MatchingNotMaximal { edge } => {
                write!(f, "edge {edge}: both endpoints have capacity, matching not maximal")
            }
            CheckError::EnvelopeExceeded { rounds, limit } => {
                write!(f, "{rounds} rounds exceed the envelope of {limit}")
            }
            CheckError::RoundCountMismatch { claimed, derived } => {
                write!(f, "claimed {claimed} rounds, transcript derives {derived}")
            }
            CheckError::SegmentRoundsMismatch { segment, claimed, derived } => {
                write!(f, "segment {segment}: claims {claimed} rounds, halts derive {derived}")
            }
            CheckError::TranscriptTruncated { segment, rounds, commitments } => {
                write!(f, "segment {segment}: {rounds} rounds but {commitments} commitments")
            }
            CheckError::HaltBeyondSegment { segment, node, round, rounds } => {
                write!(f, "segment {segment}: node {node} halts at round {round} of {rounds}")
            }
            CheckError::UnsortedHalts { segment, node } => {
                write!(f, "segment {segment}: halt records unordered at node {node}")
            }
            CheckError::UnknownNode { segment, node } => {
                write!(f, "segment {segment}: halt record for unknown node {node}")
            }
            CheckError::ParticipantCountMismatch { segment, claimed, found } => {
                write!(
                    f,
                    "segment {segment}: header claims {claimed} participants, {found} halt records"
                )
            }
            CheckError::CommitmentMismatch { segment, round, expected, found } => {
                write!(
                    f,
                    "segment {segment} round {round}: commitment {found:016x}, expected {expected:016x}"
                )
            }
        }
    }
}

impl Error for CheckError {}
