//! The versioned certificate format (`treelocal-cert v1`) — parse,
//! serialize, and the three-layer check.
//!
//! A certificate is self-contained line-oriented text: it carries the
//! instance (edge list + identifier space), the rule, the per-node or
//! per-edge output witnesses, the claimed envelope and round count, and
//! the run transcript (per-segment halt rounds + chained frontier
//! commitments). [`check_certificate`] validates:
//!
//! 1. **solution legality** against the typed rule table
//!    ([`crate::check_solution`]),
//! 2. **round bounds** against the paper's envelopes
//!    ([`crate::check_envelope`]),
//! 3. **transcript consistency** — commitments re-derivable from the
//!    halt records alone, segment rounds equal to the latest halt, and
//!    the claimed total equal to the sum of segments. Monotone halting is
//!    structural here: the round-`r` frontier is *defined* as the nodes
//!    with halt round `>= r`, so a matching commitment chain proves the
//!    engine's frontier shrank exactly as the halt records say.

use crate::commit::{commitment_fold, COMMITMENT_OFFSET};
use crate::envelope::{check_envelope, Envelope};
use crate::error::CheckError;
use crate::rule::{check_solution, EdgePalette, MisWitness, Palette, Rule, Solution};
use treelocal_graph::{widen_u64, Graph, OrInvariant};

/// The format-version line every certificate must open with.
pub const FORMAT_VERSION: &str = "treelocal-cert v1";

/// One engine run's transcript inside a certificate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Rounds the segment header claims.
    pub rounds: u64,
    /// Participants the segment header claims (redundant with the halt
    /// records — redundancy is tamper evidence).
    pub participants: usize,
    /// `(node, halt_round)`, ascending by node; round 0 = halted at
    /// seeding.
    pub halts: Vec<(usize, u64)>,
    /// One chained frontier commitment per round.
    pub commitments: Vec<u64>,
}

/// A parsed (or programmatically built) certificate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Certificate {
    /// Free-form instance label (single line).
    pub instance: String,
    /// The rule the solution claims to satisfy.
    pub rule: Rule,
    /// Node count of the instance.
    pub nodes: usize,
    /// LOCAL identifier space of the instance (drives the envelopes).
    pub id_space: u64,
    /// Edge list in edge-index order.
    pub edges: Vec<(usize, usize)>,
    /// Per-node color lists (list-coloring rules only).
    pub lists: Option<Vec<Vec<u64>>>,
    /// The output witnesses.
    pub solution: Solution,
    /// The claimed round envelope.
    pub envelope: Envelope,
    /// Total communication rounds claimed.
    pub rounds: u64,
    /// Per-run transcript segments, in execution order.
    pub segments: Vec<Segment>,
}

impl Certificate {
    /// Serializes to the canonical `treelocal-cert v1` text. The output
    /// is byte-deterministic: equal certificates serialize identically.
    pub fn to_text(&self) -> String {
        let mut out = Emitter { buf: Vec::with_capacity(self.text_len_hint()) };
        out.line(&[FORMAT_VERSION]);
        out.line(&["instance ", &self.instance]);
        out.line(&["rule ", &rule_text(&self.rule)]);
        out.field("nodes ", widen_u64(self.nodes));
        out.field("idspace ", self.id_space);
        out.field("edges ", widen_u64(self.edges.len()));
        for &(u, v) in &self.edges {
            out.pair("e ", widen_u64(u), widen_u64(v));
        }
        if let Some(lists) = &self.lists {
            out.field("lists ", widen_u64(lists.len()));
            for (i, list) in lists.iter().enumerate() {
                out.text("l ");
                out.num(widen_u64(i));
                for &c in list {
                    out.text(" ");
                    out.num(c);
                }
                out.text("\n");
            }
        }
        out.line(&["solution ", self.solution.kind()]);
        match &self.solution {
            Solution::NodeColors(colors) | Solution::EdgeColors(colors) => {
                for (i, &c) in colors.iter().enumerate() {
                    out.pair("s ", widen_u64(i), c);
                }
            }
            Solution::NodeSet(set) | Solution::EdgeSet(set) => {
                for (i, &b) in set.iter().enumerate() {
                    out.pair("s ", widen_u64(i), u64::from(b));
                }
            }
            Solution::MisWitnesses(witnesses) => {
                for (i, w) in witnesses.iter().enumerate() {
                    out.text("s ");
                    out.num(widen_u64(i));
                    match *w {
                        MisWitness::Member => out.text(" M\n"),
                        MisWitness::NonMember { witness } => {
                            out.text(" P ");
                            out.num(widen_u64(witness));
                            out.text("\n");
                        }
                    }
                }
            }
        }
        out.line(&["envelope ", self.envelope.id()]);
        out.field("rounds ", self.rounds);
        out.field("segments ", widen_u64(self.segments.len()));
        for seg in &self.segments {
            out.pair("segment ", seg.rounds, widen_u64(seg.participants));
            for &(v, r) in &seg.halts {
                out.pair("h ", widen_u64(v), r);
            }
            for (i, &c) in seg.commitments.iter().enumerate() {
                out.text("c ");
                out.num(widen_u64(i) + 1);
                out.text(" ");
                out.hex16(c);
                out.text("\n");
            }
        }
        out.text("end\n");
        String::from_utf8(out.buf).or_invariant("the emitter writes only str slices and ASCII")
    }

    /// The serialized size of an honest certificate (every index below
    /// `max(nodes, edges)`, every halt below its segment's rounds), so
    /// the emitter's buffer is sized once. Only a hint: a certificate
    /// that breaks those bounds still serializes, with regrowth.
    fn text_len_hint(&self) -> usize {
        let index = digits(widen_u64(self.nodes.max(self.edges.len())));
        let edge = digits(widen_u64(self.edges.len()));
        let lists: usize = self.lists.as_ref().map_or(0, |lists| {
            let colors = lists.iter().flatten().map(|&c| 1 + digits(c)).sum::<usize>();
            lists.len() * (3 + index) + colors
        });
        let value = match &self.solution {
            Solution::NodeColors(c) | Solution::EdgeColors(c) => c.iter().map(|&c| digits(c)).sum(),
            Solution::NodeSet(s) | Solution::EdgeSet(s) => s.len(),
            Solution::MisWitnesses(w) => w.len() * (2 + edge),
        };
        let segments: usize = self
            .segments
            .iter()
            .map(|s| {
                let round = digits(s.rounds);
                48 + s.halts.len() * (4 + index + round) + s.commitments.len() * (20 + round)
            })
            .sum();
        256 + self.instance.len()
            + self.edges.len() * (4 + 2 * index)
            + lists
            + self.solution.len() * (4 + index)
            + value
            + segments
    }

    /// Parses canonical certificate text.
    ///
    /// Linear in the bytes: a newline count fixes the lines left (the
    /// bound every announced count is checked against), then a forward
    /// cursor reads the lines in order, decoding fields in place. A line
    /// in the form the emitter writes is decoded in one scan. Nothing is
    /// allocated per line beyond the parsed values themselves, and error
    /// messages are only built on the error path.
    pub fn parse(text: &str) -> Result<Certificate, CheckError> {
        let mut p = Parser::new(text);
        let version = p.next("the format-version line")?;
        if version != FORMAT_VERSION {
            return Err(CheckError::VersionMismatch { found: version.to_string() });
        }
        let instance = p.keyword_rest("instance")?.to_string();
        let rule = parse_rule(p.keyword_rest("rule")?, p.pos)?;
        let nodes: usize = p.parse_field("nodes")?;
        let id_space: u64 = p.parse_field("idspace")?;
        let edge_count = p.parse_count("edges")?;
        let mut edges = Vec::with_capacity(edge_count);
        for _ in 0..edge_count {
            edges.push(p.pair("e", "edge endpoints")?);
        }
        let lists = if p.leads_with("lists") {
            let count = p.parse_count("lists")?;
            let mut lists: Vec<Vec<u64>> = Vec::with_capacity(count);
            for want in 0..count {
                let mut toks = p.keyword_rest("l")?.split_ascii_whitespace();
                let i: usize = parse_tok(toks.next(), p.pos, "list node index")?;
                if i != want {
                    return Err(format_error(p.pos, format!("list for node {want}")));
                }
                let mut list = Vec::new();
                for t in toks {
                    list.push(parse_tok(Some(t), p.pos, "list color")?);
                }
                lists.push(list);
            }
            Some(lists)
        } else {
            None
        };
        let kind = p.keyword_rest("solution")?.trim();
        let kind_line = p.pos;
        let mut values = Witnesses::for_kind(kind, edge_count, nodes.min(p.lines_left()));
        let mut density = Density::default();
        let mut bad_value: Option<(usize, &'static str)> = None;
        loop {
            if let Some(i) = p.canonical_witness(&mut values) {
                density.push(i);
                continue;
            }
            let Some(rest) = p.take_if("s")? else { break };
            let (i, value) = split_index(rest, p.pos)?;
            density.push(i);
            if let Err(what) = values.push(value) {
                bad_value = bad_value.or(Some((p.pos, what)));
            }
        }
        density.finish()?;
        let solution = values.finish(kind, kind_line)?;
        if let Some((line, what)) = bad_value {
            return Err(format_error(line, what));
        }
        let envelope = match p.keyword_rest("envelope")?.trim() {
            "none" => Envelope::None,
            "linial" => Envelope::Linial,
            "mis-pipeline" => Envelope::MisPipeline,
            other => return Err(format_error(p.pos, format!("a known envelope, not {other:?}"))),
        };
        let rounds: u64 = p.parse_field("rounds")?;
        let segment_count = p.parse_count("segments")?;
        let mut segments = Vec::with_capacity(segment_count);
        for _ in 0..segment_count {
            let (seg_rounds, participants): (u64, usize) = p.pair("segment", "segment header")?;
            // Both counts are unverified claims: the lines left cap what
            // they may reserve, and a block shorter than its claim gives
            // the rest back, so many lying headers cannot add up.
            let mut halts = Vec::with_capacity(participants.min(p.lines_left()));
            while let Some(halt) = p.pair_if("h", "halt record")? {
                halts.push(halt);
            }
            halts.shrink_to_fit();
            let claimed_rounds = usize::try_from(seg_rounds).unwrap_or(usize::MAX);
            let mut commitments = Vec::with_capacity(claimed_rounds.min(p.lines_left()));
            loop {
                if let Some(c) = p.canonical_commitment(commitments.len() + 1) {
                    commitments.push(c);
                    continue;
                }
                let Some(rest) = p.take_if("c")? else { break };
                let mut toks = rest.split_ascii_whitespace();
                let r: usize = parse_tok(toks.next(), p.pos, "commitment round")?;
                if r != commitments.len() + 1 {
                    let what = format!("commitment for round {}", commitments.len() + 1);
                    return Err(format_error(p.pos, what));
                }
                let hex = toks.next().ok_or_else(|| format_error(p.pos, "a commitment value"))?;
                let c = hex_u64(hex.as_bytes())
                    .ok_or_else(|| format_error(p.pos, "a hex commitment value"))?;
                commitments.push(c);
            }
            commitments.shrink_to_fit();
            segments.push(Segment { rounds: seg_rounds, participants, halts, commitments });
        }
        if p.next("the end line")? != "end" {
            return Err(format_error(p.pos, "the end line"));
        }
        if !p.rest().trim().is_empty() {
            return Err(format_error(p.pos + 1, "end of file"));
        }
        Ok(Certificate {
            instance,
            rule,
            nodes,
            id_space,
            edges,
            lists,
            solution,
            envelope,
            rounds,
            segments,
        })
    }
}

/// The fmt-free text sink behind [`Certificate::to_text`].
struct Emitter {
    buf: Vec<u8>,
}

/// `"00" "01" ... "99"`: two decimal digits per table step.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

impl Emitter {
    fn text(&mut self, s: &str) {
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn line(&mut self, parts: &[&str]) {
        for part in parts {
            self.text(part);
        }
        self.text("\n");
    }

    /// Appends `x` in decimal, as `Display` renders it: digits written
    /// back to front, two at a time.
    fn num(&mut self, mut x: u64) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        while x >= 100 {
            let pair = 2 * usize::from((x % 100) as u8);
            x /= 100;
            at -= 2;
            digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        }
        if x >= 10 {
            let pair = 2 * usize::from(x as u8);
            at -= 2;
            digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        } else {
            at -= 1;
            digits[at] = b'0' + x as u8;
        }
        self.buf.extend_from_slice(&digits[at..]);
    }

    /// Appends `x` as 16 lowercase hex digits (`{x:016x}`).
    fn hex16(&mut self, x: u64) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut digits = [0u8; 16];
        for (i, d) in digits.iter_mut().enumerate() {
            *d = HEX[usize::from((x >> (60 - 4 * i)) as u8 & 0xf)];
        }
        self.buf.extend_from_slice(&digits);
    }

    /// `keyword<x>\n`.
    fn field(&mut self, keyword: &str, x: u64) {
        self.text(keyword);
        self.num(x);
        self.text("\n");
    }

    /// `keyword<a> <b>\n`.
    fn pair(&mut self, keyword: &str, a: u64, b: u64) {
        self.text(keyword);
        self.num(a);
        self.text(" ");
        self.num(b);
        self.text("\n");
    }
}

/// Decimal digits of `x`.
fn digits(x: u64) -> usize {
    x.checked_ilog10().map_or(1, |d| usize::from(d as u8) + 1)
}

/// A forward cursor over the lines of a certificate, with the line
/// semantics of `str::lines`: split at `\n`, one `\r` before it dropped,
/// and no empty line after a final terminator.
struct Parser<'a> {
    text: &'a str,
    /// Byte offset of the first unconsumed line.
    at: usize,
    /// Lines consumed so far == 1-based number of the last consumed line.
    pos: usize,
    /// Lines in the whole text.
    lines: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        // Counted in chunks a byte-wide counter cannot overflow in, which
        // vectorizes.
        let newlines: usize = text
            .as_bytes()
            .chunks(255)
            .map(|chunk| usize::from(chunk.iter().fold(0u8, |n, &b| n + u8::from(b == b'\n'))))
            .sum();
        let lines = newlines + usize::from(!text.is_empty() && !text.ends_with('\n'));
        Parser { text, at: 0, pos: 0, lines }
    }

    fn lines_left(&self) -> usize {
        self.lines - self.pos
    }

    /// The unconsumed text.
    fn rest(&self) -> &'a str {
        &self.text[self.at..]
    }

    /// The next line and the offset just past its terminator.
    fn peek(&self) -> Option<(&'a str, usize)> {
        let rest = self.rest();
        if rest.is_empty() {
            return None;
        }
        Some(match rest.find('\n') {
            Some(end) => {
                let line = &rest[..end];
                (line.strip_suffix('\r').unwrap_or(line), self.at + end + 1)
            }
            None => (rest, self.text.len()),
        })
    }

    fn advance(&mut self, next: usize) {
        self.at = next;
        self.pos += 1;
    }

    fn next(&mut self, what: &str) -> Result<&'a str, CheckError> {
        let (line, next) = self.peek().ok_or_else(|| format_error(self.pos + 1, what))?;
        self.advance(next);
        Ok(line)
    }

    /// Whether the next line's first whitespace-separated token is
    /// `keyword`.
    fn leads_with(&self, keyword: &str) -> bool {
        self.peek().is_some_and(|(line, _)| first_token_is(line, keyword))
    }

    /// Consumes a `keyword rest...` line, returning `rest`.
    fn keyword_rest(&mut self, keyword: &str) -> Result<&'a str, CheckError> {
        let Some((line, next)) = self.peek() else {
            return Err(format_error(self.pos + 1, keyword_line(keyword)));
        };
        self.advance(next);
        self.strip_keyword(line, keyword)
    }

    /// `keyword_rest` for the next line if its first token is `keyword`;
    /// `None`, consuming nothing, otherwise. Peek and take share one
    /// scan of the line.
    fn take_if(&mut self, keyword: &str) -> Result<Option<&'a str>, CheckError> {
        match self.peek() {
            Some((line, next)) if first_token_is(line, keyword) => {
                self.advance(next);
                self.strip_keyword(line, keyword).map(Some)
            }
            _ => Ok(None),
        }
    }

    /// The `rest` of a `keyword rest...` line just consumed.
    fn strip_keyword(&self, line: &'a str, keyword: &str) -> Result<&'a str, CheckError> {
        match line.strip_prefix(keyword) {
            Some(rest) if rest.starts_with(' ') || rest.is_empty() => Ok(rest.trim_start()),
            _ => Err(format_error(self.pos, keyword_line(keyword))),
        }
    }

    /// Consumes `keyword <count>` announcing a block of `count` lines. A
    /// count larger than the lines left cannot be honest, so it is
    /// rejected before it can size an allocation.
    fn parse_count(&mut self, keyword: &str) -> Result<usize, CheckError> {
        let count: usize = self.parse_field(keyword)?;
        let left = self.lines_left();
        if count > left {
            return Err(format_error(
                self.pos,
                format!("at most {left} {keyword} (the lines left)"),
            ));
        }
        Ok(count)
    }

    /// Consumes `keyword <number>`.
    fn parse_field<T: TryFrom<u64>>(&mut self, keyword: &str) -> Result<T, CheckError> {
        let rest = self.keyword_rest(keyword)?;
        decimal(rest.trim().as_bytes())
            .ok_or_else(|| format_error(self.pos, format!("a {keyword} count")))
    }

    // The record lines are read through a fast path first: a line in the
    // exact form the emitter writes (`keyword a b\n`, single spaces,
    // plain decimals) is decoded straight off the bytes in one scan. Any
    // other line, including the last one of the text and every malformed
    // one, is left untouched for the general path, which gives it the
    // `str::lines` / `split_ascii_whitespace` reading. On canonical lines
    // both paths agree, so the fast path changes no result.

    /// Fields of the next line if it opens with `keyword` and one space.
    fn canonical(&self, keyword: &str) -> Option<Fields<'a>> {
        let bytes = self.text.as_bytes();
        let fields = self.at + keyword.len();
        (bytes[self.at..].starts_with(keyword.as_bytes()) && bytes.get(fields) == Some(&b' '))
            .then_some(Fields { bytes, at: fields + 1 })
    }

    /// Consumes the canonical line `fields` has read through its `\n`.
    fn commit(&mut self, fields: Fields<'a>) {
        self.at = fields.at;
        self.pos += 1;
    }

    /// A canonical `keyword a b` line.
    fn canonical_pair<A: TryFrom<u64>, B: TryFrom<u64>>(
        &mut self,
        keyword: &str,
    ) -> Option<(A, B)> {
        let mut f = self.canonical(keyword)?;
        let a = f.decimal(b' ')?;
        let b = f.decimal(b'\n')?;
        self.commit(f);
        Some((a, b))
    }

    /// Consumes a `keyword a b` line.
    fn pair<A: TryFrom<u64>, B: TryFrom<u64>>(
        &mut self,
        keyword: &str,
        what: &str,
    ) -> Result<(A, B), CheckError> {
        if let Some(pair) = self.canonical_pair(keyword) {
            return Ok(pair);
        }
        let rest = self.keyword_rest(keyword)?;
        parse_pair(rest, self.pos, what)
    }

    /// Consumes a `keyword a b` line if the next line is a `keyword` line.
    fn pair_if<A: TryFrom<u64>, B: TryFrom<u64>>(
        &mut self,
        keyword: &str,
        what: &str,
    ) -> Result<Option<(A, B)>, CheckError> {
        if let Some(pair) = self.canonical_pair(keyword) {
            return Ok(Some(pair));
        }
        match self.take_if(keyword)? {
            Some(rest) => parse_pair(rest, self.pos, what).map(Some),
            None => Ok(None),
        }
    }

    /// A canonical `s <index> <value>` line, its value decoded into
    /// `values`; returns the index.
    fn canonical_witness(&mut self, values: &mut Witnesses) -> Option<usize> {
        let mut f = self.canonical("s")?;
        let i = f.decimal(b' ')?;
        values.push_canonical(&mut f)?;
        self.commit(f);
        Some(i)
    }

    /// A canonical `c <round> <hex>` line for `round`.
    fn canonical_commitment(&mut self, round: usize) -> Option<u64> {
        let mut f = self.canonical("c")?;
        if f.decimal::<usize>(b' ')? != round {
            return None;
        }
        let c = hex_u64(f.until(b'\n')?)?;
        self.commit(f);
        Some(c)
    }
}

/// A byte cursor over the fields of one canonical line.
struct Fields<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Fields<'a> {
    /// The bytes up to the next `end` on this line, which is consumed
    /// too. Never scans past the line's `\n`, so a failed attempt costs
    /// at most one line.
    fn until(&mut self, end: u8) -> Option<&'a [u8]> {
        let rest = &self.bytes[self.at..];
        let len = rest.iter().position(|&b| b == end || b == b'\n')?;
        (rest[len] == end).then(|| {
            self.at += len + 1;
            &rest[..len]
        })
    }

    /// A decimal field ended by `end`. A field holding whitespace or
    /// anything else `decimal` rejects sends the line to the general path.
    fn decimal<T: TryFrom<u64>>(&mut self, end: u8) -> Option<T> {
        decimal(self.until(end)?)
    }
}

#[cold]
fn format_error(line: usize, what: impl Into<String>) -> CheckError {
    CheckError::Format { line, what: what.into() }
}

#[cold]
fn keyword_line(keyword: &str) -> String {
    format!("a {keyword:?} line")
}

fn first_token_is(line: &str, keyword: &str) -> bool {
    line.split_ascii_whitespace().next() == Some(keyword)
}

/// Parses a decimal integer exactly as `str::parse` does for unsigned
/// types: an optional `+`, then one or more ASCII digits, no overflow.
fn decimal<T: TryFrom<u64>>(tok: &[u8]) -> Option<T> {
    let digits = tok.strip_prefix(b"+").unwrap_or(tok);
    if digits.is_empty() {
        return None;
    }
    let mut x: u64 = 0;
    for &b in digits {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        x = x.checked_mul(10)?.checked_add(u64::from(d))?;
    }
    T::try_from(x).ok()
}

/// Parses hex exactly as `u64::from_str_radix(_, 16)` does.
fn hex_u64(tok: &[u8]) -> Option<u64> {
    let digits = tok.strip_prefix(b"+").unwrap_or(tok);
    if digits.is_empty() {
        return None;
    }
    let mut x: u64 = 0;
    for &b in digits {
        let d = char::from(b).to_digit(16)?;
        x = x.checked_mul(16)?.checked_add(u64::from(d))?;
    }
    Some(x)
}

fn parse_tok<T: TryFrom<u64>>(tok: Option<&str>, line: usize, what: &str) -> Result<T, CheckError> {
    tok.and_then(|t| decimal(t.as_bytes())).ok_or_else(|| format_error(line, what))
}

fn parse_pair<A: TryFrom<u64>, B: TryFrom<u64>>(
    rest: &str,
    line: usize,
    what: &str,
) -> Result<(A, B), CheckError> {
    let mut toks = rest.split_ascii_whitespace();
    let a = parse_tok(toks.next(), line, what)?;
    let b = parse_tok(toks.next(), line, what)?;
    if toks.next().is_some() {
        return Err(format_error(line, what));
    }
    Ok((a, b))
}

/// Splits `<index> <value>` at the first space; the value is borrowed,
/// trimmed.
fn split_index(rest: &str, line: usize) -> Result<(usize, &str), CheckError> {
    let (index, value) = match rest.split_once(' ') {
        Some((index, value)) => (index, Some(value)),
        None => (rest, None),
    };
    let i = parse_tok(Some(index), line, "a witness index")?;
    let value = value.ok_or_else(|| format_error(line, "a witness value"))?;
    Ok((i, value.trim()))
}

/// Witness indices must be exactly `0, 1, 2, ...` — a gap is a dropped
/// witness, a repeat a duplicated one. Checked as the lines stream by:
/// only the first out-of-place index matters, and how often it occurs.
#[derive(Default)]
struct Density {
    /// Witness lines seen.
    seen: usize,
    /// `(position, index, occurrences)` of the first out-of-place index.
    first_gap: Option<(usize, usize, usize)>,
}

impl Density {
    fn push(&mut self, i: usize) {
        match &mut self.first_gap {
            None if i == self.seen => {}
            // Positions `0..seen` hold exactly the indices `0..seen`.
            None => self.first_gap = Some((self.seen, i, 1 + usize::from(i < self.seen))),
            Some((_, index, count)) => *count += usize::from(i == *index),
        }
        self.seen += 1;
    }

    fn finish(&self) -> Result<(), CheckError> {
        match self.first_gap {
            None => Ok(()),
            Some((_, index, count)) if count > 1 => Err(CheckError::DuplicateWitness { index }),
            Some((want, ..)) => Err(CheckError::MissingWitness { index: want }),
        }
    }
}

/// Witness values decoded in place, by the kind the `solution` line
/// names.
enum Witnesses {
    Colors(Vec<u64>),
    Set(Vec<bool>),
    Mis(Vec<MisWitness>),
    /// An unknown kind: values are not decoded, the kind is rejected once
    /// the indices have been checked.
    Unknown,
}

impl Witnesses {
    /// An empty decoder; `edges` and `nodes` (capped by the lines left)
    /// size the buffer of per-edge and per-node kinds.
    fn for_kind(kind: &str, edges: usize, nodes: usize) -> Self {
        match kind {
            "node-colors" => Witnesses::Colors(Vec::with_capacity(nodes)),
            "edge-colors" => Witnesses::Colors(Vec::with_capacity(edges)),
            "node-set" => Witnesses::Set(Vec::with_capacity(nodes)),
            "edge-set" => Witnesses::Set(Vec::with_capacity(edges)),
            "mis-witness" => Witnesses::Mis(Vec::with_capacity(nodes)),
            _ => Witnesses::Unknown,
        }
    }

    /// Decodes one value, or names what was expected instead.
    fn push(&mut self, value: &str) -> Result<(), &'static str> {
        match self {
            Witnesses::Colors(colors) => {
                colors.push(decimal(value.as_bytes()).ok_or("a color")?);
            }
            Witnesses::Set(set) => match value {
                "0" => set.push(false),
                "1" => set.push(true),
                _ => return Err("a 0/1 membership"),
            },
            Witnesses::Mis(witnesses) => {
                let mut toks = value.split_ascii_whitespace();
                match toks.next() {
                    Some("M") => witnesses.push(MisWitness::Member),
                    Some("P") => {
                        let witness = toks
                            .next()
                            .and_then(|t| decimal(t.as_bytes()))
                            .ok_or("a witness edge")?;
                        witnesses.push(MisWitness::NonMember { witness });
                    }
                    _ => return Err("an M or P witness"),
                }
            }
            Witnesses::Unknown => {}
        }
        Ok(())
    }

    /// Decodes the value of a canonical line (`M`, `P <edge>`, a color,
    /// `0` or `1`, then `\n`), or pushes nothing.
    fn push_canonical(&mut self, f: &mut Fields<'_>) -> Option<()> {
        let value = f.until(b'\n')?;
        match self {
            Witnesses::Colors(colors) => colors.push(decimal(value)?),
            Witnesses::Set(set) => set.push(match value {
                b"0" => false,
                b"1" => true,
                _ => return None,
            }),
            Witnesses::Mis(witnesses) => witnesses.push(match value {
                b"M" => MisWitness::Member,
                [b'P', b' ', edge @ ..] => MisWitness::NonMember { witness: decimal(edge)? },
                _ => return None,
            }),
            Witnesses::Unknown => return None,
        }
        Some(())
    }

    fn finish(self, kind: &str, kind_line: usize) -> Result<Solution, CheckError> {
        Ok(match (self, kind) {
            (Witnesses::Colors(c), "node-colors") => Solution::NodeColors(c),
            (Witnesses::Colors(c), _) => Solution::EdgeColors(c),
            (Witnesses::Set(s), "node-set") => Solution::NodeSet(s),
            (Witnesses::Set(s), _) => Solution::EdgeSet(s),
            (Witnesses::Mis(w), _) => Solution::MisWitnesses(w),
            (Witnesses::Unknown, other) => {
                return Err(format_error(
                    kind_line,
                    format!("a known solution kind, not {other:?}"),
                ))
            }
        })
    }
}

fn rule_text(rule: &Rule) -> String {
    match rule {
        Rule::Coloring { palette } => format!("coloring palette={}", palette_text(palette)),
        Rule::ListColoring => "list-coloring".to_string(),
        Rule::Mis => "mis".to_string(),
        Rule::Matching { b } => format!("matching b={b}"),
        Rule::EdgeColoring { palette } => {
            format!("edge-coloring palette={}", edge_palette_text(palette))
        }
    }
}

fn palette_text(p: &Palette) -> String {
    match p {
        Palette::Any => "any".to_string(),
        Palette::AtMost(k) => k.to_string(),
        Palette::DegreePlusOne => "deg+1".to_string(),
    }
}

fn edge_palette_text(p: &EdgePalette) -> String {
    match p {
        EdgePalette::Any => "any".to_string(),
        EdgePalette::AtMost(k) => k.to_string(),
        EdgePalette::EdgeDegreePlusOne => "edgedeg+1".to_string(),
    }
}

fn parse_rule(rest: &str, line: usize) -> Result<Rule, CheckError> {
    let mut toks = rest.split_ascii_whitespace();
    let head = toks.next().unwrap_or("");
    let arg = toks.next();
    let bad = || format_error(line, "a known rule");
    let rule = match head {
        "coloring" => {
            let p = arg.and_then(|a| a.strip_prefix("palette=")).ok_or_else(bad)?;
            Rule::Coloring { palette: parse_palette(p, line)? }
        }
        "list-coloring" => Rule::ListColoring,
        "mis" => Rule::Mis,
        "matching" => {
            let b = arg.and_then(|a| a.strip_prefix("b=")).ok_or_else(bad)?;
            Rule::Matching { b: parse_tok(Some(b), line, "a matching bound")? }
        }
        "edge-coloring" => {
            let p = arg.and_then(|a| a.strip_prefix("palette=")).ok_or_else(bad)?;
            Rule::EdgeColoring { palette: parse_edge_palette(p, line)? }
        }
        _ => return Err(bad()),
    };
    if toks.next().is_some() {
        return Err(bad());
    }
    Ok(rule)
}

fn parse_palette(p: &str, line: usize) -> Result<Palette, CheckError> {
    Ok(match p {
        "any" => Palette::Any,
        "deg+1" => Palette::DegreePlusOne,
        k => Palette::AtMost(parse_tok(Some(k), line, "a palette limit")?),
    })
}

fn parse_edge_palette(p: &str, line: usize) -> Result<EdgePalette, CheckError> {
    Ok(match p {
        "any" => EdgePalette::Any,
        "edgedeg+1" => EdgePalette::EdgeDegreePlusOne,
        k => EdgePalette::AtMost(parse_tok(Some(k), line, "a palette limit")?),
    })
}

/// Validates all three layers of a certificate. Returns the first
/// violation found, ordered: instance, solution legality, envelope,
/// transcript consistency.
pub fn check_certificate(cert: &Certificate) -> Result<(), CheckError> {
    let backed = backed_nodes(cert);
    if cert.nodes > backed {
        return Err(CheckError::UnbackedNodeCount { claimed: cert.nodes, backed });
    }
    let g = Graph::from_edges(cert.nodes, &cert.edges)
        .map_err(|e| CheckError::BadInstance { what: format!("{e:?}") })?;
    check_solution(&g, &cert.rule, &cert.solution, cert.lists.as_deref())?;
    check_envelope(cert.envelope, cert.id_space, g.max_degree(), cert.rounds)?;
    check_transcript(cert)
}

/// The most nodes the certificate's body can name: two per edge, one per
/// witness, list and halt record. A larger `nodes` count describes nodes
/// the certificate says nothing about; rejecting it bounds the instance
/// the checker builds by the size of the certificate.
fn backed_nodes(cert: &Certificate) -> usize {
    let halts: usize = cert.segments.iter().map(|s| s.halts.len()).sum();
    2 * cert.edges.len() + cert.solution.len() + cert.lists.as_ref().map_or(0, Vec::len) + halts
}

/// Parses and validates in one step.
pub fn check_text(text: &str) -> Result<(), CheckError> {
    check_certificate(&Certificate::parse(text)?)
}

/// [`check_text`] on raw bytes, as read from a file: bytes that are not
/// UTF-8 are a located [`CheckError::InvalidUtf8`] rejection.
pub fn check_bytes(bytes: &[u8]) -> Result<(), CheckError> {
    let text = std::str::from_utf8(bytes).map_err(|e| {
        let offset = e.valid_up_to();
        let line = 1 + bytes[..offset].iter().filter(|&&b| b == b'\n').count();
        CheckError::InvalidUtf8 { line, offset }
    })?;
    check_text(text)
}

/// Validates the transcript layer alone: segment headers against their
/// halt records, and every round's commitment re-derived from the halt
/// rounds, threaded across segments; the segments' rounds must sum to the
/// certificate's. [`check_certificate`] runs it last.
pub fn check_transcript(cert: &Certificate) -> Result<(), CheckError> {
    let mut chain = COMMITMENT_OFFSET;
    let mut total: u64 = 0;
    // `(node, halt round)` of the participants still running, and how
    // many participants halt in each round; both reused across segments.
    let mut live: Vec<(u64, u64)> = Vec::new();
    let mut halting: Vec<usize> = Vec::new();
    for (si, seg) in cert.segments.iter().enumerate() {
        if seg.participants != seg.halts.len() {
            return Err(CheckError::ParticipantCountMismatch {
                segment: si,
                claimed: seg.participants,
                found: seg.halts.len(),
            });
        }
        let mut prev: Option<usize> = None;
        for &(v, r) in &seg.halts {
            if v >= cert.nodes {
                return Err(CheckError::UnknownNode { segment: si, node: v });
            }
            if prev.is_some_and(|p| p >= v) {
                return Err(CheckError::UnsortedHalts { segment: si, node: v });
            }
            prev = Some(v);
            if r > seg.rounds {
                return Err(CheckError::HaltBeyondSegment {
                    segment: si,
                    node: v,
                    round: r,
                    rounds: seg.rounds,
                });
            }
        }
        if widen_u64(seg.commitments.len()) != seg.rounds {
            return Err(CheckError::TranscriptTruncated {
                segment: si,
                rounds: seg.rounds,
                commitments: seg.commitments.len(),
            });
        }
        // Every halt round is at most `rounds`, which the commitment
        // lines back, so the histogram is bounded by the certificate.
        halting.clear();
        halting.resize(seg.commitments.len() + 1, 0);
        let mut derived = 0;
        for &(_, r) in &seg.halts {
            let r = usize::try_from(r).or_invariant("halt round within the commitment count");
            halting[r] += 1;
            derived = derived.max(r);
        }
        if widen_u64(derived) != seg.rounds {
            return Err(CheckError::SegmentRoundsMismatch {
                segment: si,
                claimed: seg.rounds,
                derived: widen_u64(derived),
            });
        }
        // The round-`r` frontier is every participant still running at
        // round `r`, in ascending (= commit) order. Its size is known from
        // the histogram before it is walked, so one pass per round drops
        // the nodes that halted and folds the rest: the work is the sum of
        // the frontier sizes.
        live.clear();
        live.extend(seg.halts.iter().map(|&(v, r)| (widen_u64(v), r)));
        let mut running = seg.halts.len();
        for (i, &found) in seg.commitments.iter().enumerate() {
            let round = widen_u64(i) + 1;
            running -= halting[i];
            let mut h = commitment_fold(commitment_fold(chain, round), widen_u64(running));
            live.retain(|&(v, hr)| {
                let still = hr >= round;
                if still {
                    h = commitment_fold(h, v);
                }
                still
            });
            if h != found {
                return Err(CheckError::CommitmentMismatch {
                    segment: si,
                    round,
                    expected: h,
                    found,
                });
            }
            chain = h;
        }
        total += seg.rounds;
    }
    if total != cert.rounds {
        return Err(CheckError::RoundCountMismatch { claimed: cert.rounds, derived: total });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commit::commit_round;

    /// A hand-built, fully consistent MIS certificate on a 3-path: all
    /// three nodes run one round, then halt together.
    pub(crate) fn tiny_mis_cert() -> Certificate {
        let commitment = commit_round(COMMITMENT_OFFSET, 1, &[0, 1, 2]);
        Certificate {
            instance: "tiny-path".to_string(),
            rule: Rule::Mis,
            nodes: 3,
            id_space: 3,
            edges: vec![(0, 1), (1, 2)],
            lists: None,
            solution: Solution::MisWitnesses(vec![
                MisWitness::Member,
                MisWitness::NonMember { witness: 0 },
                MisWitness::Member,
            ]),
            envelope: Envelope::None,
            rounds: 1,
            segments: vec![Segment {
                rounds: 1,
                participants: 3,
                halts: vec![(0, 1), (1, 1), (2, 1)],
                commitments: vec![commitment],
            }],
        }
    }

    #[test]
    fn tiny_certificate_validates_and_round_trips() {
        let cert = tiny_mis_cert();
        assert_eq!(check_certificate(&cert), Ok(()));
        let text = cert.to_text();
        let reparsed = Certificate::parse(&text).unwrap();
        assert_eq!(reparsed, cert);
        assert_eq!(reparsed.to_text(), text);
        assert_eq!(check_text(&text), Ok(()));
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let text = tiny_mis_cert().to_text().replace("treelocal-cert v1", "treelocal-cert v2");
        assert_eq!(
            check_text(&text),
            Err(CheckError::VersionMismatch { found: "treelocal-cert v2".to_string() })
        );
    }

    #[test]
    fn garbage_is_a_format_error_with_a_line() {
        let text = tiny_mis_cert().to_text().replace("nodes 3", "nodes three");
        assert!(matches!(check_text(&text), Err(CheckError::Format { line: 4, .. })));
    }

    #[test]
    fn dropped_and_duplicated_witness_lines_are_typed() {
        let base = tiny_mis_cert().to_text();
        let dropped = base.replace("s 1 P 0\n", "");
        assert_eq!(check_text(&dropped), Err(CheckError::MissingWitness { index: 1 }));
        let duplicated = base.replace("s 1 P 0\n", "s 1 P 0\ns 1 P 0\n");
        assert_eq!(check_text(&duplicated), Err(CheckError::DuplicateWitness { index: 1 }));
    }

    #[test]
    fn solver_certificates_carry_no_transcript() {
        let mut cert = tiny_mis_cert();
        cert.segments.clear();
        cert.rounds = 0;
        assert_eq!(check_certificate(&cert), Ok(()));
        // A claimed round with no transcript backing it is inconsistent.
        cert.rounds = 1;
        assert_eq!(
            check_certificate(&cert),
            Err(CheckError::RoundCountMismatch { claimed: 1, derived: 0 })
        );
    }

    #[test]
    fn bad_instances_are_rejected() {
        let mut cert = tiny_mis_cert();
        cert.edges.push((2, 2));
        assert!(matches!(check_certificate(&cert), Err(CheckError::BadInstance { .. })));
    }

    #[test]
    fn commitment_perturbation_is_located() {
        let mut cert = tiny_mis_cert();
        cert.segments[0].commitments[0] ^= 1;
        assert!(matches!(
            check_certificate(&cert),
            Err(CheckError::CommitmentMismatch { segment: 0, round: 1, .. })
        ));
    }

    #[test]
    fn the_emitter_is_sized_once_for_honest_certificates() {
        let cert = tiny_mis_cert();
        let text = cert.to_text();
        assert!(cert.text_len_hint() >= text.len());
        assert!(text.capacity() < 2 * text.len() + 512, "{} for {}", text.capacity(), text.len());
    }

    #[test]
    fn lying_segment_headers_reserve_nothing_they_do_not_fill() {
        // Every header claims the most participants and rounds a count
        // can, and carries no records: capped by the lines left, each
        // claim may reserve briefly, but none is kept.
        let headers = 2000;
        let mut text = tiny_mis_cert().to_text();
        let at = text.find("segments 1").unwrap();
        text.truncate(at);
        text.push_str(&format!("segments {headers}\n"));
        for _ in 0..headers {
            text.push_str(&format!("segment {} {}\n", u64::MAX, usize::MAX));
        }
        text.push_str("end\n");
        let cert = Certificate::parse(&text).unwrap();
        assert_eq!(cert.segments.len(), headers);
        for seg in &cert.segments {
            assert_eq!((seg.halts.capacity(), seg.commitments.capacity()), (0, 0));
        }
    }

    #[test]
    fn list_blocks_round_trip() {
        let cert = Certificate {
            instance: "lists".to_string(),
            rule: Rule::ListColoring,
            nodes: 3,
            id_space: 3,
            edges: vec![(0, 1), (1, 2)],
            lists: Some(vec![vec![1, 2], vec![2, 3], vec![1, 3]]),
            solution: Solution::NodeColors(vec![1, 2, 1]),
            envelope: Envelope::None,
            rounds: 0,
            segments: vec![],
        };
        assert_eq!(check_certificate(&cert), Ok(()));
        let text = cert.to_text();
        assert_eq!(Certificate::parse(&text).unwrap(), cert);
    }
}
