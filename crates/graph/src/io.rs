//! Plain-text edge-list input/output.
//!
//! Format: one `u v` pair per line, whitespace separated; `#`- or `%`-prefixed
//! lines are comments. This covers SNAP-style and Pajek-ish exports, which is
//! how graphs like the paper's Wikipedia snapshot are normally distributed.
//!
//! The path reader annotates every error with the offending file path.
//! Input must be plain text: gzip-compressed bytes are refused with a
//! message saying how to decompress them first (`zcat F | oca graph build
//! --input /dev/stdin …`, since a path reader reads a pipe like a file).
//! For graphs too large to build in RAM, the same block reader and line
//! scanner feed the external-memory builder in [`crate::ocg_build`], which
//! parses each block's lines on its workers.

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::error::{GraphError, Result};
use std::io::{ErrorKind, Read, Write};
use std::path::Path;

/// What edge-list ingestion saw: how many edge lines were parsed and how
/// many of them normalization dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Parsed (non-comment, non-blank) edge lines.
    pub edges_read: u64,
    /// Edges with `u == v`, dropped.
    pub self_loops: u64,
    /// Edges beyond the first occurrence of each undirected pair, dropped.
    pub duplicates: u64,
}

/// Edge-list text is read in blocks of whole lines of this size.
pub(crate) const READ_BLOCK: usize = 1 << 20;

/// Streams every `(u, v)` pair of an edge list to `f`, in file order.
/// Returns the number of edge lines parsed. `reader` is read in blocks of
/// whole lines of about `block_len` bytes ([`for_each_line_block`]), each
/// scanned in place.
///
/// The result is exactly that of reading each line with `read_line` and
/// splitting it with `trim`/`split_whitespace`: the same edges, or the
/// same error with the same line number and message.
/// * A line is split on the bytes `char::is_whitespace` accepts: space,
///   `\t`, `\n`, `\x0B`, `\x0C` and `\r`. (`u8::is_ascii_whitespace`
///   omits `\x0B`.) A line whose first field starts with `#` or `%` is a
///   comment; a line with no field is blank.
/// * Each of the first two fields is parsed by `str::parse::<u32>`, so a
///   `+` sign is accepted and an overflow is a parse error. Later fields
///   are ignored.
/// * A line with a non-ASCII byte must be UTF-8 (an `InvalidData` error
///   otherwise, the one `read_line` raises) and is then split on every
///   Unicode whitespace character, as `split_whitespace` does.
///
/// The one exception: input that starts with the gzip magic bytes `1f 8b`
/// is refused by [`for_each_line_block`] with its own message, where
/// `read_line` raises its UTF-8 error (`8b` cannot follow `1f` in UTF-8).
pub(crate) fn for_each_edge(
    reader: impl Read,
    block_len: usize,
    f: impl FnMut(u32, u32) -> Result<()>,
) -> Result<u64> {
    let mut scan = Scan {
        lineno: 0,
        edges: 0,
        f,
    };
    for_each_line_block(reader, block_len, |lines| scan.lines(lines))?;
    Ok(scan.edges)
}

/// Hands `reader`'s bytes to `f` in blocks of whole lines, in file order:
/// each block ends in `\n`, except a last line the input does not end,
/// and holds at most `block_len` bytes unless one line is longer. A block
/// is filled by as many reads as it takes, so a pipe that hands out a few
/// KiB per read still yields full blocks. A read error is returned once
/// the whole lines read before it have been handed over, as a `read_line`
/// loop handles them before it meets the error. Input that starts with
/// the gzip magic bytes is refused before any of it is handed over
/// ([`gzip_refusal`]); it is not decoded.
pub(crate) fn for_each_line_block(
    mut reader: impl Read,
    block_len: usize,
    mut f: impl FnMut(&[u8]) -> Result<()>,
) -> Result<()> {
    let mut block = vec![0u8; block_len.max(1)];
    let (mut held, mut first) = (0, true);
    loop {
        let (mut eof, mut failed) = (false, None);
        while held < block.len() {
            match reader.read(&mut block[held..]) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(read) => held += read,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
        let lines = if eof {
            held
        } else {
            block[..held]
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |last| last + 1)
        };
        if lines > 0 {
            // `1f 8b` holds no newline, so a first block that has any
            // whole line holds both bytes if the input starts with them.
            if std::mem::take(&mut first) && block[..lines].starts_with(&GZIP_MAGIC) {
                return Err(gzip_refusal());
            }
            f(&block[..lines])?;
        }
        if let Some(e) = failed {
            return Err(e.into());
        }
        if eof {
            return Ok(());
        }
        block.copy_within(lines..held, 0);
        held -= lines;
        if held == block.len() {
            // One line fills the block: make room for the rest of it.
            block.resize(2 * block.len(), 0);
        }
    }
}

/// The first two bytes of every gzip stream.
const GZIP_MAGIC: [u8; 2] = [0x1f, 0x8b];

/// The error for gzip-compressed input, which is not read: on line 1,
/// saying how to decompress it first.
fn gzip_refusal() -> GraphError {
    GraphError::Parse {
        line: 1,
        message: "gzip-compressed input is not read; decompress it first, e.g. \
                  `zcat F | oca graph build --input /dev/stdin --output G.ocg`"
            .into(),
    }
}

/// Scans a block of whole lines (as [`for_each_line_block`] hands them
/// out) by the rules of [`for_each_edge`], numbering its lines from 1.
/// Returns the number of lines. An error's line number counts from the
/// block's start; [`after_lines`] moves it past the lines before.
pub(crate) fn scan_lines(bytes: &[u8], f: impl FnMut(u32, u32) -> Result<()>) -> Result<usize> {
    let mut scan = Scan {
        lineno: 0,
        edges: 0,
        f,
    };
    scan.lines(bytes)?;
    Ok(scan.lineno)
}

/// `err` from a block scanned with [`scan_lines`], its line number moved
/// past the `before` lines that came before the block.
pub(crate) fn after_lines(err: GraphError, before: usize) -> GraphError {
    match err {
        GraphError::Parse { line, message } => GraphError::Parse {
            line: line + before,
            message,
        },
        other => other,
    }
}

/// The scanner's state across blocks.
struct Scan<F> {
    lineno: usize,
    edges: u64,
    f: F,
}

impl<F: FnMut(u32, u32) -> Result<()>> Scan<F> {
    /// Feeds the whole lines in `bytes` (each ends in `\n`, except the
    /// input's last line) to the sink. An all-ASCII run of lines is
    /// split into lines and fields without decoding characters, a plain
    /// `u v` line in one pass by [`plain_edge`]; any other run is taken
    /// line by line through [`scan_line`].
    fn lines(&mut self, bytes: &[u8]) -> Result<()> {
        if bytes.is_ascii() {
            let mut at = 0;
            while at < bytes.len() {
                self.lineno += 1;
                if let Some((u, v, next)) = plain_edge(bytes, at) {
                    self.edge(Some((u, v)))?;
                    at = next;
                    continue;
                }
                let end = bytes[at..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(bytes.len(), |len| at + len);
                let line = std::str::from_utf8(&bytes[at..end]).expect("ASCII is UTF-8");
                self.edge(edge_of_fields(AsciiFields { line, at: 0 }, self.lineno)?)?;
                at = end + 1;
            }
        } else {
            for line in bytes.split_inclusive(|&b| b == b'\n') {
                self.lineno += 1;
                self.edge(scan_line(line, self.lineno)?)?;
            }
        }
        Ok(())
    }

    #[inline]
    fn edge(&mut self, edge: Option<(u32, u32)>) -> Result<()> {
        if let Some((u, v)) = edge {
            self.edges += 1;
            (self.f)(u, v)?;
        }
        Ok(())
    }
}

/// The ASCII bytes for which `char::is_whitespace` is true.
#[inline]
fn is_space(b: u8) -> bool {
    b == b' ' || (b'\t'..=b'\r').contains(&b)
}

/// The edge of the ASCII line that starts at `at` in `bytes`, and where
/// the next line starts, when the line is plain: two fields of decimal
/// digits whose values fit a `u32`, then whitespace or the end of the
/// line. `None` for any other line — a comment, a blank line, a sign, an
/// overflow, a field with another byte in it — which the field parser
/// then takes, so the result is the same either way.
#[inline]
fn plain_edge(bytes: &[u8], mut at: usize) -> Option<(u32, u32, usize)> {
    let blank = |b: u8| b != b'\n' && is_space(b);
    while at < bytes.len() && blank(bytes[at]) {
        at += 1;
    }
    let (u, end) = plain_id(bytes, at)?;
    at = end;
    if !bytes.get(at).is_some_and(|&b| blank(b)) {
        return None;
    }
    while at < bytes.len() && blank(bytes[at]) {
        at += 1;
    }
    let (v, end) = plain_id(bytes, at)?;
    at = end;
    if bytes.get(at).is_some_and(|&b| !is_space(b)) {
        return None;
    }
    let next = bytes[at..]
        .iter()
        .position(|&b| b == b'\n')
        .map_or(bytes.len(), |len| at + len + 1);
    Some((u, v, next))
}

/// The decimal digits at `at` as a `u32`, and where they end; `None` when
/// there are none or their value overflows.
#[inline]
fn plain_id(bytes: &[u8], mut at: usize) -> Option<(u32, usize)> {
    let start = at;
    let mut value = 0u64;
    while let Some(&b) = bytes.get(at).filter(|b| b.is_ascii_digit()) {
        value = value * 10 + (b - b'0') as u64;
        if value > u32::MAX as u64 {
            return None;
        }
        at += 1;
    }
    (at > start).then_some((value as u32, at))
}

/// The fields of an ASCII line, as `split_whitespace` yields them but
/// without decoding characters.
struct AsciiFields<'a> {
    line: &'a str,
    at: usize,
}

impl<'a> Iterator for AsciiFields<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let bytes = self.line.as_bytes();
        let start = self.at + bytes[self.at..].iter().position(|&b| !is_space(b))?;
        let end = bytes[start..]
            .iter()
            .position(|&b| is_space(b))
            .map_or(bytes.len(), |len| start + len);
        self.at = end;
        Some(&self.line[start..end])
    }
}

/// One line's edge: `None` for a blank or comment line.
fn scan_line(line: &[u8], lineno: usize) -> Result<Option<(u32, u32)>> {
    let text = std::str::from_utf8(line).map_err(|_| {
        std::io::Error::new(ErrorKind::InvalidData, "stream did not contain valid UTF-8")
    })?;
    edge_of_fields(text.split_whitespace(), lineno)
}

fn edge_of_fields<'a>(
    mut fields: impl Iterator<Item = &'a str>,
    line: usize,
) -> Result<Option<(u32, u32)>> {
    let Some(first) = fields.next() else {
        return Ok(None);
    };
    if first.starts_with(['#', '%']) {
        return Ok(None);
    }
    let u = parse_field(Some(first), line)?;
    let v = parse_field(fields.next(), line)?;
    Ok(Some((u, v)))
}

fn parse_field(field: Option<&str>, line: usize) -> Result<u32> {
    let field = field.ok_or_else(|| GraphError::Parse {
        line,
        message: "expected two node ids".into(),
    })?;
    field.parse::<u32>().map_err(|e| GraphError::Parse {
        line,
        message: format!("bad node id {field:?}: {e}"),
    })
}

/// Reads an edge list from any reader, also reporting how many edge lines
/// were parsed and how many self-loops/duplicates were dropped.
pub fn read_edge_list<R: Read>(reader: R) -> Result<(CsrGraph, IngestReport)> {
    let mut b = GraphBuilder::new_growable();
    let edges_read = for_each_edge(reader, READ_BLOCK, |u, v| {
        b.add_edge(u, v);
        Ok(())
    })?;
    let (graph, build) = b.try_build_report()?;
    Ok((
        graph,
        IngestReport {
            edges_read,
            self_loops: build.self_loops,
            duplicates: build.duplicates,
        },
    ))
}

/// [`read_edge_list`] of a file path (a named pipe such as `/dev/stdin`
/// too). Errors are annotated with `path`.
pub fn read_edge_list_path<P: AsRef<Path>>(path: P) -> Result<(CsrGraph, IngestReport)> {
    let path = path.as_ref();
    std::fs::File::open(path)
        .map_err(GraphError::from)
        .and_then(read_edge_list)
        .map_err(|e| e.with_path(path))
}

/// Writes a graph as an edge list (`u v` per line, `u < v`).
pub fn write_edge_list<W: Write>(graph: &CsrGraph, writer: W) -> Result<()> {
    let mut w = std::io::BufWriter::new(writer);
    writeln!(
        w,
        "# undirected simple graph: {} nodes, {} edges",
        graph.node_count(),
        graph.edge_count()
    )?;
    for (u, v) in graph.edges() {
        writeln!(w, "{} {}", u.raw(), v.raw())?;
    }
    w.flush()?;
    Ok(())
}

/// Writes a graph to a file path.
pub fn write_edge_list_path<P: AsRef<Path>>(graph: &CsrGraph, path: P) -> Result<()> {
    write_edge_list(graph, std::fs::File::create(path)?)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::builder::from_edges;
    use crate::testing::XorShift;
    use std::io::{BufRead, BufReader};

    /// The `read_line` parser the in-buffer scanner replaced: the
    /// reference for the differential tests below.
    pub(crate) fn for_each_edge_oracle<R: BufRead>(
        mut reader: R,
        mut f: impl FnMut(u32, u32) -> Result<()>,
    ) -> Result<u64> {
        let mut line = String::new();
        let mut lineno = 0usize;
        let mut edges = 0u64;
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                break;
            }
            lineno += 1;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
                continue;
            }
            let mut it = trimmed.split_whitespace();
            let u = parse_field(it.next(), lineno)?;
            let v = parse_field(it.next(), lineno)?;
            edges += 1;
            f(u, v)?;
        }
        Ok(edges)
    }

    type Outcome = (Vec<(u32, u32)>, std::result::Result<u64, String>);

    /// A reader over `bytes` that hands out at most `step` bytes per read
    /// and, when `fail`, raises an I/O error once they are all read.
    struct Trickle<'a> {
        bytes: &'a [u8],
        step: usize,
        fail: bool,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.bytes.is_empty() && self.fail {
                return Err(std::io::Error::other("the disk went away"));
            }
            let len = buf.len().min(self.step).min(self.bytes.len());
            buf[..len].copy_from_slice(&self.bytes[..len]);
            self.bytes = &self.bytes[len..];
            Ok(len)
        }
    }

    /// The edges a parser hands its sink, and its result: the oracle's
    /// when `block_len` is `None`, else the scanner's at that block size.
    fn scan_with(reader: impl Read, block_len: Option<usize>) -> Outcome {
        let mut edges = Vec::new();
        let sink = |u, v| {
            edges.push((u, v));
            Ok(())
        };
        let result = match block_len {
            None => for_each_edge_oracle(BufReader::new(reader), sink),
            Some(block_len) => for_each_edge(reader, block_len, sink),
        };
        (edges, result.map_err(|e| e.to_string()))
    }

    /// The scanner over `bytes` in blocks of `block_len` bytes must yield
    /// the oracle's edges and result or error, whether the reader hands
    /// out one byte per read or all it can, and whether it ends in an
    /// I/O error (when `fail`) or not.
    fn assert_same_outcome(bytes: &[u8], block_len: usize, fail: bool) -> Outcome {
        let reader = |step| Trickle { bytes, step, fail };
        let want = scan_with(reader(usize::MAX), None);
        for step in [1, usize::MAX] {
            assert_eq!(
                scan_with(reader(step), Some(block_len)),
                want,
                "{:?} in blocks of {block_len}, {step} bytes per read",
                bytes.escape_ascii().to_string()
            );
        }
        want
    }

    /// Block sizes from shorter than every line to longer than every input.
    const BLOCK_LENS: [usize; 6] = [1, 2, 3, 5, 16, 8192];

    #[test]
    fn scanner_matches_the_read_line_oracle_on_edge_cases() {
        let cases: &[&[u8]] = &[
            b"0 1\n1 2\n",
            b"0 1\r\n1 2\r\n",
            b"0\x0b1\n2\x0c3\n\x0b\n",
            "0\u{85}1\n2\u{a0}3\n4\u{3000}5\n\u{3000}\n".as_bytes(),
            "\u{a0}# comment after unicode space\n7 8\n".as_bytes(),
            b"+1 +2\n",
            b"-1 2\n",
            b"4294967295 0\n",
            b"0 4294967296\n",
            b"1 2\n\xff 3\n",
            b"1 2\n3 4 \xc3\n",
            b"# header\n% pajek\n\n   \n\t\n1 2\n",
            b"  #1 2\n%3 4\n5 #6\n",
            b"1 2 3\n4 5 x y\n",
            b"1 2\n3 4",
            b"1\n",
            b"1 2\n3",
            b"1\r2\n",
            b"",
            b"\n",
            b"0 1\n\x1c2 3\n",
            b"\n\x1f\x8b 1\n",
        ];
        let (mut outcomes, mut failed) = (Vec::new(), Vec::new());
        for bytes in cases {
            for block_len in BLOCK_LENS {
                outcomes.push(assert_same_outcome(bytes, block_len, false));
            }
            failed.push(assert_same_outcome(bytes, 2, true));
        }
        // Spot checks that the cases reach what they are named for.
        let first = |case: usize| &outcomes[case * BLOCK_LENS.len()];
        assert_eq!(first(1), &(vec![(0, 1), (1, 2)], Ok(2)));
        assert_eq!(first(2), &(vec![(0, 1), (2, 3)], Ok(2)));
        assert_eq!(first(3), &(vec![(0, 1), (2, 3), (4, 5)], Ok(3)));
        assert_eq!(first(5), &(vec![(1, 2)], Ok(1)));
        assert!(first(8).1.as_ref().unwrap_err().contains("line 1"));
        assert!(first(9).1.as_ref().unwrap_err().contains("valid UTF-8"));
        assert_eq!(first(14), &(vec![(1, 2), (3, 4)], Ok(2)));
        // A read error comes after the whole lines before it; a line it
        // cuts short is not parsed.
        assert_eq!(failed[0].0, vec![(0, 1), (1, 2)]);
        assert_eq!(failed[14].0, vec![(1, 2)]);
        assert!(failed[14]
            .1
            .as_ref()
            .unwrap_err()
            .contains("the disk went away"));

        // The one exception to the oracle: input that starts with the gzip
        // magic bytes is refused with its own message, where `read_line`
        // meets invalid UTF-8. (The last case above has them on line 2,
        // which the oracle's rules take.)
        let refused: Outcome = (Vec::new(), Err(gzip_refusal().to_string()));
        let header = b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x02\x03\n0 1\n";
        for (bytes, fail) in [(&b"\x1f\x8b"[..], false), (header, false), (header, true)] {
            let reader = |step| Trickle { bytes, step, fail };
            let oracle = scan_with(reader(usize::MAX), None).1.unwrap_err();
            assert!(oracle.contains("valid UTF-8"), "{oracle}");
            for block_len in BLOCK_LENS {
                for step in [1, usize::MAX] {
                    assert_eq!(scan_with(reader(step), Some(block_len)), refused);
                }
            }
        }
        assert!(refused.1.unwrap_err().contains("zcat"));
    }

    #[test]
    fn scanner_matches_the_read_line_oracle_on_random_lines() {
        const TOKENS: &[&[u8]] = &[
            b"0",
            b"1",
            b"7",
            b"42",
            b"+3",
            b"-1",
            b"4294967295",
            b"4294967296",
            b"x",
            b" ",
            b"  ",
            b"\t",
            b"\x0b",
            b"\x0c",
            b"\r",
            b"\n",
            b"\n",
            b"\r\n",
            b"#",
            b"%",
            "\u{85}".as_bytes(),
            "\u{a0}".as_bytes(),
            "\u{3000}".as_bytes(),
            "\u{e9}".as_bytes(),
            b"\xff",
            b"\xc3",
            b"\x1f",
        ];
        const COMMON: &[&[u8]] = &[b"0", b"1", b"42", b" ", b" ", b"\n"];
        let mut rng = XorShift::new(0x5ca9);
        let mut errors = 0;
        for _ in 0..crate::testing::cases(2000) {
            let mut bytes = Vec::new();
            for _ in 0..rng.below(40) {
                // Mostly ids and plain separators, so many lines parse.
                let token = if rng.below(3) == 0 {
                    TOKENS[rng.below(TOKENS.len())]
                } else {
                    COMMON[rng.below(COMMON.len())]
                };
                bytes.extend_from_slice(token);
            }
            let block_len = 1 + rng.below(12);
            let fail = rng.below(4) == 0;
            errors += assert_same_outcome(&bytes, block_len, fail).1.is_err() as usize;
        }
        assert!(errors > 0, "no case reached an error");
    }

    #[test]
    fn parses_basic_edge_list() {
        let text = "0 1\n1 2\n2 0\n";
        let g = read_edge_list(text.as_bytes()).unwrap().0;
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let text = "# header\n% pajek style\n\n0 1\n\n# trailing\n1 2\n";
        let g = read_edge_list(text.as_bytes()).unwrap().0;
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn handles_tabs_and_extra_whitespace() {
        let text = "0\t1\n  1   2  \n";
        let g = read_edge_list(text.as_bytes()).unwrap().0;
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn reports_parse_errors_with_line_numbers() {
        let err = read_edge_list("0 1\nxyz 2\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");

        let err = read_edge_list("0\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
    }

    #[test]
    fn ingest_report_counts_drops() {
        let text = "# six raw lines\n0 1\n1 0\n0 1\n2 2\n1 2\n3 3\n";
        let (g, report) = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(report.edges_read, 6);
        assert_eq!(report.self_loops, 2);
        assert_eq!(report.duplicates, 2);
    }

    #[test]
    fn empty_and_comment_only_inputs_build_empty_graphs() {
        let (g, report) = read_edge_list("".as_bytes()).unwrap();
        assert_eq!(g.node_count(), 0);
        assert_eq!(report, IngestReport::default());

        let (g, report) = read_edge_list("# nothing\n% here\n\n".as_bytes()).unwrap();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(report.edges_read, 0);
    }

    #[test]
    fn u32_boundary_ids_fail_with_typed_errors() {
        // Largest id that parses: u32::MAX. It implies 2^32 nodes, one
        // past the id space, so ingestion reports TooManyNodes rather
        // than silently mis-counting (and without allocating O(2^32)).
        let text = format!("0 {}\n", u32::MAX);
        let err = read_edge_list(text.as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::TooManyNodes { .. }), "{err}");

        // One past u32::MAX fails at parse time, with the line number.
        let text = format!("0 {}\n", u32::MAX as u64 + 1);
        let err = read_edge_list(text.as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }), "{err}");
    }

    #[test]
    fn path_errors_carry_the_offending_path() {
        let dir = std::env::temp_dir().join(format!("oca_io_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        let missing = dir.join("does_not_exist.edges");
        let err = read_edge_list_path(&missing).unwrap_err();
        assert!(err.to_string().contains("does_not_exist.edges"), "{err}");

        let bad = dir.join("bad.edges");
        std::fs::write(&bad, "0 1\noops\n").unwrap();
        let err = read_edge_list_path(&bad).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("bad.edges"), "{msg}");
        assert!(msg.contains("line 2"), "{msg}");
        std::fs::remove_file(&bad).ok();
    }

    #[test]
    fn round_trip_preserves_graph() {
        let g = from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(buf.as_slice()).unwrap().0;
        assert_eq!(g, g2);
    }

    #[test]
    fn file_round_trip() {
        let g = from_edges(3, [(0, 2), (1, 2)]);
        let dir = std::env::temp_dir().join("oca_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.edges");
        write_edge_list_path(&g, &path).unwrap();
        let g2 = read_edge_list_path(&path).unwrap().0;
        assert_eq!(g, g2);
        std::fs::remove_file(path).ok();
    }
}
