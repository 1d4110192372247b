//! Differential tests of the certificate codec against the line-based
//! reference it replaced.
//!
//! The `reference` module below keeps the original `Vec<&str>`-of-lines
//! parser and `writeln!` emitter verbatim. The production codec in
//! `src/cert.rs` is a one-pass byte cursor and a fmt-free digit writer;
//! it must be indistinguishable from the reference:
//!
//! * **parser** — on every certificate of the golden quick set (every
//!   rule kind) and on hand-built ones, and on seeded mutants of them
//!   (byte flips, truncation at every line, dropped / duplicated /
//!   swapped lines, CRLF endings, doubled spaces, tabs, odd and Unicode
//!   whitespace, trailing blank lines, a leading `+`, and the numerals
//!   2^32 - 1, 2^64 and -1), `Certificate::parse` returns the identical
//!   `Result`: the same certificate, or the same `CheckError` with the
//!   same line and message;
//! * **emitter** — `to_text` renders byte-identical text on random
//!   certificates of all five solution kinds, with and without lists,
//!   with `u64::MAX` values, zero segments and empty halt lists.

use proptest::prelude::*;
use treelocal_check::{
    Certificate, CheckError, EdgePalette, Envelope, MisWitness, Palette, Rule, Segment, Solution,
};

mod reference {
    use std::fmt::Write as _;
    use treelocal_check::{
        Certificate, CheckError, EdgePalette, Envelope, MisWitness, Palette, Rule, Segment,
        Solution, FORMAT_VERSION,
    };

    /// The reference emitter: serializes to the canonical `treelocal-cert v1` text. The output
    /// is byte-deterministic: equal certificates serialize identically.
    pub fn reference_to_text(cert: &Certificate) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{FORMAT_VERSION}");
        let _ = writeln!(s, "instance {}", cert.instance);
        let _ = writeln!(s, "rule {}", rule_text(&cert.rule));
        let _ = writeln!(s, "nodes {}", cert.nodes);
        let _ = writeln!(s, "idspace {}", cert.id_space);
        let _ = writeln!(s, "edges {}", cert.edges.len());
        for &(u, v) in &cert.edges {
            let _ = writeln!(s, "e {u} {v}");
        }
        if let Some(lists) = &cert.lists {
            let _ = writeln!(s, "lists {}", lists.len());
            for (i, list) in lists.iter().enumerate() {
                let _ = write!(s, "l {i}");
                for c in list {
                    let _ = write!(s, " {c}");
                }
                s.push('\n');
            }
        }
        let _ = writeln!(s, "solution {}", cert.solution.kind());
        match &cert.solution {
            Solution::NodeColors(colors) | Solution::EdgeColors(colors) => {
                for (i, c) in colors.iter().enumerate() {
                    let _ = writeln!(s, "s {i} {c}");
                }
            }
            Solution::NodeSet(set) | Solution::EdgeSet(set) => {
                for (i, &b) in set.iter().enumerate() {
                    let _ = writeln!(s, "s {i} {}", u8::from(b));
                }
            }
            Solution::MisWitnesses(witnesses) => {
                for (i, w) in witnesses.iter().enumerate() {
                    match w {
                        MisWitness::Member => {
                            let _ = writeln!(s, "s {i} M");
                        }
                        MisWitness::NonMember { witness } => {
                            let _ = writeln!(s, "s {i} P {witness}");
                        }
                    }
                }
            }
        }
        let _ = writeln!(s, "envelope {}", cert.envelope.id());
        let _ = writeln!(s, "rounds {}", cert.rounds);
        let _ = writeln!(s, "segments {}", cert.segments.len());
        for seg in &cert.segments {
            let _ = writeln!(s, "segment {} {}", seg.rounds, seg.participants);
            for &(v, r) in &seg.halts {
                let _ = writeln!(s, "h {v} {r}");
            }
            for (i, c) in seg.commitments.iter().enumerate() {
                let _ = writeln!(s, "c {} {c:016x}", i + 1);
            }
        }
        s.push_str("end\n");
        s
    }

    /// The reference parser: parses canonical certificate text.
    pub fn reference_parse(text: &str) -> Result<Certificate, CheckError> {
        let mut p = Parser { lines: text.lines().collect(), pos: 0 };
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
            let rest = p.keyword_rest("e")?;
            let (u, v) = parse_pair(rest, p.pos, "edge endpoints")?;
            edges.push((u, v));
        }
        let lists = if p.peek_keyword("lists") {
            let count = p.parse_count("lists")?;
            let mut lists: Vec<Vec<u64>> = Vec::with_capacity(count);
            for want in 0..count {
                let rest = p.keyword_rest("l")?;
                let mut toks = rest.split_ascii_whitespace();
                let i: usize = parse_tok(toks.next(), p.pos, "list node index")?;
                if i != want {
                    return Err(CheckError::Format {
                        line: p.pos,
                        what: format!("list for node {want}"),
                    });
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
        let kind = p.keyword_rest("solution")?.trim().to_string();
        let kind_line = p.pos;
        let mut entries: Vec<(usize, usize, String)> = Vec::new();
        while p.peek_keyword("s") {
            let rest = p.keyword_rest("s")?;
            let (i, value) = split_index(rest, p.pos)?;
            entries.push((i, p.pos, value));
        }
        dense(&entries)?;
        let solution = parse_solution(&kind, kind_line, &entries)?;
        let envelope = match p.keyword_rest("envelope")?.trim() {
            "none" => Envelope::None,
            "linial" => Envelope::Linial,
            "mis-pipeline" => Envelope::MisPipeline,
            other => {
                return Err(CheckError::Format {
                    line: p.pos,
                    what: format!("a known envelope, not {other:?}"),
                })
            }
        };
        let rounds: u64 = p.parse_field("rounds")?;
        let segment_count = p.parse_count("segments")?;
        let mut segments = Vec::with_capacity(segment_count);
        for _ in 0..segment_count {
            let rest = p.keyword_rest("segment")?;
            let (seg_rounds, participants) = parse_pair(rest, p.pos, "segment header")?;
            let mut halts = Vec::new();
            while p.peek_keyword("h") {
                let rest = p.keyword_rest("h")?;
                let (v, r) = parse_pair(rest, p.pos, "halt record")?;
                halts.push((v, r));
            }
            let mut commitments = Vec::new();
            while p.peek_keyword("c") {
                let rest = p.keyword_rest("c")?;
                let mut toks = rest.split_ascii_whitespace();
                let r: usize = parse_tok(toks.next(), p.pos, "commitment round")?;
                if r != commitments.len() + 1 {
                    return Err(CheckError::Format {
                        line: p.pos,
                        what: format!("commitment for round {}", commitments.len() + 1),
                    });
                }
                let hex = toks.next().ok_or_else(|| CheckError::Format {
                    line: p.pos,
                    what: "a commitment value".to_string(),
                })?;
                let c = u64::from_str_radix(hex, 16).map_err(|_| CheckError::Format {
                    line: p.pos,
                    what: "a hex commitment value".to_string(),
                })?;
                commitments.push(c);
            }
            segments.push(Segment { rounds: seg_rounds, participants, halts, commitments });
        }
        let end = p.next("the end line")?;
        if end != "end" {
            return Err(CheckError::Format { line: p.pos, what: "the end line".to_string() });
        }
        if p.pos != p.lines.len() && p.lines[p.pos..].iter().any(|l| !l.trim().is_empty()) {
            return Err(CheckError::Format { line: p.pos + 1, what: "end of file".to_string() });
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

    struct Parser<'a> {
        lines: Vec<&'a str>,
        /// Lines consumed so far == 1-based number of the last consumed line.
        pos: usize,
    }

    impl<'a> Parser<'a> {
        fn next(&mut self, what: &str) -> Result<&'a str, CheckError> {
            let line = self
                .lines
                .get(self.pos)
                .copied()
                .ok_or_else(|| CheckError::Format { line: self.pos + 1, what: what.to_string() })?;
            self.pos += 1;
            Ok(line)
        }

        /// Consumes a `keyword rest...` line, returning `rest`.
        fn keyword_rest(&mut self, keyword: &str) -> Result<&'a str, CheckError> {
            let line = self.next(&format!("a {keyword:?} line"))?;
            match line.strip_prefix(keyword) {
                Some(rest) if rest.starts_with(' ') || rest.is_empty() => Ok(rest.trim_start()),
                _ => {
                    Err(CheckError::Format { line: self.pos, what: format!("a {keyword:?} line") })
                }
            }
        }

        fn peek_keyword(&self, keyword: &str) -> bool {
            self.lines
                .get(self.pos)
                .is_some_and(|l| l.split_ascii_whitespace().next() == Some(keyword))
        }

        /// Consumes `keyword <count>` announcing a block of `count` lines. A
        /// count larger than the lines left cannot be honest, so it is
        /// rejected before it can size an allocation.
        fn parse_count(&mut self, keyword: &str) -> Result<usize, CheckError> {
            let count: usize = self.parse_field(keyword)?;
            let left = self.lines.len() - self.pos;
            if count > left {
                return Err(CheckError::Format {
                    line: self.pos,
                    what: format!("at most {left} {keyword} (the lines left)"),
                });
            }
            Ok(count)
        }

        /// Consumes `keyword <number>`.
        fn parse_field<T: std::str::FromStr>(&mut self, keyword: &str) -> Result<T, CheckError> {
            let rest = self.keyword_rest(keyword)?;
            parse_tok(Some(rest.trim()), self.pos, &format!("a {keyword} count"))
        }
    }

    fn parse_tok<T: std::str::FromStr>(
        tok: Option<&str>,
        line: usize,
        what: &str,
    ) -> Result<T, CheckError> {
        tok.and_then(|t| t.parse().ok())
            .ok_or_else(|| CheckError::Format { line, what: what.to_string() })
    }

    fn parse_pair<A: std::str::FromStr, B: std::str::FromStr>(
        rest: &str,
        line: usize,
        what: &str,
    ) -> Result<(A, B), CheckError> {
        let mut toks = rest.split_ascii_whitespace();
        let a = parse_tok(toks.next(), line, what)?;
        let b = parse_tok(toks.next(), line, what)?;
        if toks.next().is_some() {
            return Err(CheckError::Format { line, what: what.to_string() });
        }
        Ok((a, b))
    }

    fn split_index(rest: &str, line: usize) -> Result<(usize, String), CheckError> {
        let mut toks = rest.splitn(2, ' ');
        let i = parse_tok(toks.next(), line, "a witness index")?;
        let value = toks
            .next()
            .ok_or_else(|| CheckError::Format { line, what: "a witness value".to_string() })?;
        Ok((i, value.trim().to_string()))
    }

    /// Witness indices must be exactly `0, 1, 2, ...` — a gap is a dropped
    /// witness, a repeat a duplicated one.
    fn dense(entries: &[(usize, usize, String)]) -> Result<(), CheckError> {
        for (want, &(i, _, _)) in entries.iter().enumerate() {
            if i == want {
                continue;
            }
            if entries.iter().filter(|&&(j, _, _)| j == i).count() > 1 {
                return Err(CheckError::DuplicateWitness { index: i });
            }
            return Err(CheckError::MissingWitness { index: want });
        }
        Ok(())
    }

    fn parse_solution(
        kind: &str,
        kind_line: usize,
        entries: &[(usize, usize, String)],
    ) -> Result<Solution, CheckError> {
        match kind {
            "node-colors" | "edge-colors" => {
                let mut colors = Vec::with_capacity(entries.len());
                for &(_, line, ref value) in entries {
                    colors.push(parse_tok(Some(value), line, "a color")?);
                }
                if kind == "node-colors" {
                    Ok(Solution::NodeColors(colors))
                } else {
                    Ok(Solution::EdgeColors(colors))
                }
            }
            "node-set" | "edge-set" => {
                let mut set = Vec::with_capacity(entries.len());
                for &(_, line, ref value) in entries {
                    match value.as_str() {
                        "0" => set.push(false),
                        "1" => set.push(true),
                        _ => {
                            return Err(CheckError::Format {
                                line,
                                what: "a 0/1 membership".to_string(),
                            })
                        }
                    }
                }
                if kind == "node-set" {
                    Ok(Solution::NodeSet(set))
                } else {
                    Ok(Solution::EdgeSet(set))
                }
            }
            "mis-witness" => {
                let mut witnesses = Vec::with_capacity(entries.len());
                for &(_, line, ref value) in entries {
                    let mut toks = value.split_ascii_whitespace();
                    match toks.next() {
                        Some("M") => witnesses.push(MisWitness::Member),
                        Some("P") => {
                            let witness = parse_tok(toks.next(), line, "a witness edge")?;
                            witnesses.push(MisWitness::NonMember { witness });
                        }
                        _ => {
                            return Err(CheckError::Format {
                                line,
                                what: "an M or P witness".to_string(),
                            })
                        }
                    }
                }
                Ok(Solution::MisWitnesses(witnesses))
            }
            other => Err(CheckError::Format {
                line: kind_line,
                what: format!("a known solution kind, not {other:?}"),
            }),
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
        let bad = || CheckError::Format { line, what: "a known rule".to_string() };
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
}

use reference::{reference_parse, reference_to_text};

// --- seeds ----------------------------------------------------------------

/// A SplitMix64 stream: the mutation choices of one proptest case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform-ish in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        usize::try_from(self.next() % u64::try_from(n).unwrap()).unwrap()
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// A small, fully consistent-looking certificate of the given shape (the
/// parser does not judge legality, so the transcript need not verify).
fn built(rule: Rule, solution: Solution, lists: Option<Vec<Vec<u64>>>) -> Certificate {
    Certificate {
        instance: "built".to_string(),
        rule,
        nodes: 4,
        id_space: 40,
        edges: vec![(0, 1), (1, 2), (2, 3)],
        lists,
        solution,
        envelope: Envelope::Linial,
        rounds: 3,
        segments: vec![
            Segment {
                rounds: 2,
                participants: 4,
                halts: vec![(0, 0), (1, 2), (2, 1), (3, 2)],
                commitments: vec![0x0123_4567_89ab_cdef, u64::MAX],
            },
            Segment { rounds: 1, participants: 0, halts: vec![], commitments: vec![7] },
        ],
    }
}

/// Every golden quick certificate (all rule kinds the harness emits) plus
/// hand-built shapes it does not: an MIS as a plain node set, a
/// list-coloring with an empty list, a segment without halt records, and
/// each shape again with no segments at all.
fn seeds() -> &'static [(String, String)] {
    static SEEDS: std::sync::OnceLock<Vec<(String, String)>> = std::sync::OnceLock::new();
    SEEDS.get_or_init(load_seeds)
}

fn load_seeds() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../bench/tests/golden/quick_certs");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "cert"))
        .collect();
    paths.sort();
    let mut seeds: Vec<(String, String)> = paths
        .iter()
        .map(|p| (p.display().to_string(), std::fs::read_to_string(p).unwrap()))
        .collect();
    assert!(seeds.len() >= 18, "golden quick certificates missing from {dir}");
    let shapes = [
        ("node-set mis", built(Rule::Mis, Solution::NodeSet(vec![true, false, true, false]), None)),
        (
            "lists",
            built(
                Rule::ListColoring,
                Solution::NodeColors(vec![1, 2, 1, 3]),
                Some(vec![vec![1, 2], vec![2], vec![], vec![3, u64::MAX]]),
            ),
        ),
        (
            "edge colors",
            built(
                Rule::EdgeColoring { palette: EdgePalette::AtMost(3) },
                Solution::EdgeColors(vec![1, 2, 1]),
                None,
            ),
        ),
        (
            "mis witnesses",
            built(
                Rule::Mis,
                Solution::MisWitnesses(vec![
                    MisWitness::Member,
                    MisWitness::NonMember { witness: 0 },
                    MisWitness::Member,
                    MisWitness::NonMember { witness: 2 },
                ]),
                None,
            ),
        ),
    ];
    for (name, cert) in shapes {
        seeds.push((name.to_string(), reference_to_text(&cert)));
        let mut bare = cert;
        bare.segments.clear();
        seeds.push((format!("{name}, no segments"), reference_to_text(&bare)));
    }
    seeds
}

#[track_caller]
fn assert_same(text: &str, what: &str) {
    let want = reference_parse(text);
    let got = Certificate::parse(text);
    assert!(got == want, "{what}: parser diverges\n  new: {got:?}\n  ref: {want:?}\n{text:?}");
}

// --- exhaustive mutations ------------------------------------------------------

#[test]
fn seeds_parse_identically_and_validly() {
    for (name, text) in seeds() {
        assert_same(text, name);
        assert!(reference_parse(text).is_ok(), "{name} does not parse");
    }
}

/// Every prefix costs a parse of the lines before it, so the sweep runs
/// on one golden certificate per rule kind (the caterpillar instances)
/// and on the hand-built shapes.
#[test]
fn truncation_at_every_line_parses_identically() {
    for (name, text) in seeds().iter().filter(|(name, _)| !name.ends_with("-tree.cert")) {
        for (k, (end, _)) in text.match_indices('\n').enumerate() {
            assert_same(&text[..end], &format!("{name}: {k} lines and a line unterminated"));
            assert_same(&text[..=end], &format!("{name}: first {} lines", k + 1));
        }
    }
}

#[test]
fn line_endings_and_trailing_lines_parse_identically() {
    let tails = ["", "\n", "\n\n", "  \n\t\n", "\r\n", "\u{a0}\n", "\u{b}", "x\n", "end\n", " \r"];
    for (name, text) in seeds() {
        let crlf = text.replace('\n', "\r\n");
        let trimmed = text.trim_end_matches('\n');
        for tail in tails {
            assert_same(&format!("{text}{tail}"), &format!("{name} + {tail:?}"));
            assert_same(&format!("{crlf}{tail}"), &format!("{name}, CRLF + {tail:?}"));
            assert_same(&format!("{trimmed}{tail}"), &format!("{name}, unterminated + {tail:?}"));
        }
        assert_same(&text.replace('\n', "\r\r\n"), &format!("{name}, CR CR LF"));
        assert_same(&text.replace('\n', "\n\n"), &format!("{name}, blank lines between"));
    }
}

// --- seeded mutation battery ---------------------------------------------------

/// Numerals around the integer limits and signs.
const NUMERALS: [&str; 11] = [
    "4294967295",
    "9999999999999999999",
    "00000000000000000001",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "+0",
    "+",
    "00",
    "0x1f",
];

/// Whitespace the two tokenisers of the format treat differently:
/// `split_ascii_whitespace` splits on space, tab, LF, FF and CR only,
/// `trim` also strips VT and Unicode spaces.
const SPACES: [&str; 9] = [" ", "  ", "\t", "\r", "\u{b}", "\u{c}", "\u{a0}", "\u{3000}", "\u{85}"];

/// Byte positions where `pred` holds on the byte and, if `starts`, not on
/// the one before it.
fn positions(text: &str, starts: bool, pred: impl Fn(u8) -> bool) -> Vec<usize> {
    let b = text.as_bytes();
    (0..b.len()).filter(|&i| pred(b[i]) && !(starts && i > 0 && pred(b[i - 1]))).collect()
}

/// Applies one randomly chosen mutation (kind `kind % 15`).
fn mutate(text: &str, kind: u64, rng: &mut Rng) -> String {
    if text.is_empty() {
        return String::new();
    }
    let kind = kind % 15;
    let mut lines: Vec<String> = text.split('\n').map(str::to_string).collect();
    let n = lines.len();
    let joined = |lines: &[String]| lines.join("\n");
    match kind {
        // Flip a byte to another byte (not always UTF-8: decoded lossily).
        0 => {
            let mut bytes = text.as_bytes().to_vec();
            let at = rng.below(bytes.len());
            bytes[at] = *rng.pick(&[b'0', b'9', b' ', b'\t', b'\r', b'\n', b'+', b'-', b'x', 0xff]);
            String::from_utf8_lossy(&bytes).into_owned()
        }
        // Drop a line.
        1 => {
            lines.remove(rng.below(n));
            joined(&lines)
        }
        // Duplicate a line.
        2 => {
            let at = rng.below(n);
            let line = lines[at].clone();
            lines.insert(at, line);
            joined(&lines)
        }
        // Swap two lines (often adjacent, so witness and halt order breaks).
        3 => {
            let a = rng.below(n);
            let b = if rng.below(2) == 0 { (a + 1) % n } else { rng.below(n) };
            lines.swap(a, b);
            joined(&lines)
        }
        // Double a space, or turn it into a tab or another odd space.
        4..=6 => {
            let spaces = positions(text, false, |b| b == b' ');
            let Some(&at) = spaces.get(rng.below(spaces.len().max(1))) else {
                return text.to_string();
            };
            let to = if kind == 4 {
                "  "
            } else if kind == 5 {
                "\t"
            } else {
                rng.pick(&SPACES)
            };
            format!("{}{to}{}", &text[..at], &text[at + 1..])
        }
        // A leading `+` on a numeral.
        7 => {
            let starts = positions(text, true, |b| b.is_ascii_digit());
            let Some(&at) = starts.get(rng.below(starts.len().max(1))) else {
                return text.to_string();
            };
            format!("{}+{}", &text[..at], &text[at..])
        }
        // Replace a numeral by a limit numeral.
        8 => {
            let starts = positions(text, true, |b| b.is_ascii_digit());
            let Some(&at) = starts.get(rng.below(starts.len().max(1))) else {
                return text.to_string();
            };
            let len = text[at..].bytes().take_while(u8::is_ascii_digit).count();
            format!("{}{}{}", &text[..at], rng.pick(&NUMERALS), &text[at + len..])
        }
        // CRLF on one line.
        9 => {
            let at = rng.below(n);
            lines[at].push('\r');
            joined(&lines)
        }
        // Leading or trailing whitespace on one line.
        10 => {
            let at = rng.below(n);
            let space = rng.pick(&SPACES);
            if rng.below(2) == 0 {
                lines[at].insert_str(0, space);
            } else {
                lines[at].push_str(space);
            }
            joined(&lines)
        }
        // Insert odd whitespace at any character boundary.
        11 => {
            let mut at = rng.below(text.len());
            while !text.is_char_boundary(at) {
                at -= 1;
            }
            format!("{}{}{}", &text[..at], rng.pick(&SPACES), &text[at..])
        }
        // Leading zeros on a numeral: 20-digit decimals and 17-digit hex
        // still fit their type.
        12 => {
            let starts = positions(text, true, |b| b.is_ascii_hexdigit());
            let Some(&at) = starts.get(rng.below(starts.len().max(1))) else {
                return text.to_string();
            };
            format!("{}{}{}", &text[..at], "0".repeat(1 + rng.below(4)), &text[at..])
        }
        // Upper-case a line (hex digits, keywords).
        13 => {
            let at = rng.below(n);
            lines[at] = lines[at].to_uppercase();
            joined(&lines)
        }
        // Truncate mid-line.
        _ => {
            let mut at = rng.below(text.len());
            while !text.is_char_boundary(at) {
                at -= 1;
            }
            text[..at].to_string()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn mutants_parse_identically(case in any::<u64>()) {
        let seeds = seeds();
        let mut rng = Rng(case);
        let (name, text) = rng.pick(seeds);
        let mut text = text.clone();
        let mut kinds = Vec::new();
        // One to three stacked mutations.
        for _ in 0..=rng.below(3) {
            let kind = rng.next() % 15;
            kinds.push(kind);
            text = mutate(&text, kind, &mut rng);
            if text.is_empty() {
                break;
            }
        }
        assert_same(&text, &format!("{name}, mutations {kinds:?}"));
    }
}

// --- emitter parity --------------------------------------------------------------

/// A value from `0..bound` or, now and then, a limit value.
fn value(rng: &mut Rng, bound: u64) -> u64 {
    match rng.below(8) {
        0 => u64::MAX,
        1 => 0,
        2 => rng.next(),
        _ => rng.next() % bound.max(1),
    }
}

fn index(rng: &mut Rng, bound: usize) -> usize {
    match rng.below(10) {
        0 => usize::MAX,
        _ => rng.below(bound.max(1)),
    }
}

/// A random (not necessarily legal) certificate.
fn random_cert(rng: &mut Rng) -> Certificate {
    let nodes = rng.below(40);
    let edges: Vec<(usize, usize)> =
        (0..rng.below(40)).map(|_| (index(rng, nodes), index(rng, nodes))).collect();
    let rule = match rng.below(9) {
        0 => Rule::Coloring { palette: Palette::Any },
        1 => Rule::Coloring { palette: Palette::AtMost(value(rng, 10)) },
        2 => Rule::Coloring { palette: Palette::DegreePlusOne },
        3 => Rule::ListColoring,
        4 => Rule::Mis,
        5 => Rule::Matching { b: u32::try_from(value(rng, 4) & 0xffff_ffff).unwrap() },
        6 => Rule::EdgeColoring { palette: EdgePalette::Any },
        7 => Rule::EdgeColoring { palette: EdgePalette::AtMost(value(rng, 10)) },
        _ => Rule::EdgeColoring { palette: EdgePalette::EdgeDegreePlusOne },
    };
    let len = rng.below(40);
    let solution = match rng.below(5) {
        0 => Solution::NodeColors((0..len).map(|_| value(rng, 100)).collect()),
        1 => Solution::EdgeColors((0..len).map(|_| value(rng, 100)).collect()),
        2 => Solution::NodeSet((0..len).map(|_| rng.below(2) == 0).collect()),
        3 => Solution::EdgeSet((0..len).map(|_| rng.below(2) == 0).collect()),
        _ => Solution::MisWitnesses(
            (0..len)
                .map(|_| match rng.below(2) {
                    0 => MisWitness::Member,
                    _ => MisWitness::NonMember { witness: index(rng, edges.len()) },
                })
                .collect(),
        ),
    };
    let lists = (rng.below(3) == 0).then(|| {
        (0..rng.below(10)).map(|_| (0..rng.below(5)).map(|_| value(rng, 100)).collect()).collect()
    });
    let segments = (0..rng.below(4))
        .map(|_| {
            let rounds = value(rng, 60);
            Segment {
                rounds,
                participants: index(rng, 30),
                halts: (0..rng.below(30)).map(|_| (index(rng, nodes), value(rng, 60))).collect(),
                commitments: (0..rng.below(20)).map(|_| value(rng, u64::MAX)).collect(),
            }
        })
        .collect();
    Certificate {
        instance: rng.pick(&["x", "tree n=40 δ", "", "a b\tc"]).to_string(),
        rule,
        nodes: index(rng, 1000),
        id_space: value(rng, 1 << 40),
        edges,
        lists,
        solution,
        envelope: *rng.pick(&[Envelope::None, Envelope::Linial, Envelope::MisPipeline]),
        rounds: value(rng, 100),
        segments,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn emitter_matches_reference(case in any::<u64>()) {
        let cert = random_cert(&mut Rng(case));
        let text = cert.to_text();
        prop_assert_eq!(&text, &reference_to_text(&cert));
        assert_same(&text, "emitted random certificate");
    }
}

#[test]
fn emitter_matches_reference_on_seeds() {
    for (name, text) in seeds() {
        let cert = reference_parse(text).unwrap();
        assert_eq!(cert.to_text(), reference_to_text(&cert), "{name}");
    }
}

#[test]
fn non_utf8_bytes_are_a_located_rejection() {
    let (_, text) = &seeds()[0];
    let mut bytes = text.as_bytes().to_vec();
    bytes[30] = 0xff;
    let line = 1 + bytes[..30].iter().filter(|&&b| b == b'\n').count();
    assert_eq!(
        treelocal_check::check_bytes(&bytes),
        Err(CheckError::InvalidUtf8 { line, offset: 30 })
    );
    assert_eq!(treelocal_check::check_bytes(text.as_bytes()), Ok(()));
}
