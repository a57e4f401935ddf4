//! Plain-text edge-list input/output.
//!
//! Format: one `u v` pair per line, whitespace separated; `#`- or `%`-prefixed
//! lines are comments. This covers SNAP-style and Pajek-ish exports, which is
//! how graphs like the paper's Wikipedia snapshot are normally distributed.
//!
//! The path-based readers transparently decompress gzip input (detected by
//! magic bytes, so the extension does not matter) and annotate every error
//! with the offending file path. For graphs too large to build in RAM, the
//! same parser feeds the external-memory builder in [`crate::ocg_build`].

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::error::{GraphError, Result};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
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

/// Streams every `(u, v)` pair of an edge list to `f`, in file order.
/// Returns the number of edge lines parsed. Shared by the in-RAM readers
/// below and the external-memory `.ocg` builder.
///
/// The lines are scanned in place in the reader's buffer; only a line
/// that straddles two fills is copied. The result is exactly that of
/// reading each line with `read_line` and splitting it with
/// `trim`/`split_whitespace`: the same edges, or the same error with the
/// same line number and message.
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
pub(crate) fn for_each_edge<R: BufRead>(
    mut reader: R,
    f: impl FnMut(u32, u32) -> Result<()>,
) -> Result<u64> {
    let mut scan = Scan {
        lineno: 0,
        edges: 0,
        f,
    };
    let mut straddle = Vec::new();
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        if buf.is_empty() {
            break;
        }
        let mut start = 0;
        if !straddle.is_empty() {
            if let Some(len) = buf.iter().position(|&b| b == b'\n') {
                straddle.extend_from_slice(&buf[..=len]);
                scan.lines(&straddle)?;
                straddle.clear();
                start = len + 1;
            }
        }
        if let Some(len) = buf[start..].iter().rposition(|&b| b == b'\n') {
            scan.lines(&buf[start..=start + len])?;
            start += len + 1;
        }
        straddle.extend_from_slice(&buf[start..]);
        let filled = buf.len();
        reader.consume(filled);
    }
    if !straddle.is_empty() {
        scan.lines(&straddle)?;
    }
    Ok(scan.edges)
}

/// The scanner's state across buffer fills.
struct Scan<F> {
    lineno: usize,
    edges: u64,
    f: F,
}

impl<F: FnMut(u32, u32) -> Result<()>> Scan<F> {
    /// Feeds the whole lines in `bytes` (each ends in `\n`, except the
    /// input's last line) to the sink. An all-ASCII run of lines is
    /// split into lines and fields without decoding characters; any
    /// other run is taken line by line through [`scan_line`].
    fn lines(&mut self, bytes: &[u8]) -> Result<()> {
        match std::str::from_utf8(bytes) {
            Ok(text) if text.is_ascii() => {
                for line in text.split_terminator('\n') {
                    self.lineno += 1;
                    self.edge(edge_of_fields(AsciiFields { line, at: 0 }, self.lineno)?)?;
                }
            }
            _ => {
                for line in bytes.split_inclusive(|&b| b == b'\n') {
                    self.lineno += 1;
                    self.edge(scan_line(line, self.lineno)?)?;
                }
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

/// Reads an edge list from any reader.
pub fn read_edge_list<R: Read>(reader: R) -> Result<CsrGraph> {
    read_edge_list_report(reader).map(|(g, _)| g)
}

/// Reads an edge list from any reader, also reporting how many edge lines
/// were parsed and how many self-loops/duplicates were dropped.
pub fn read_edge_list_report<R: Read>(reader: R) -> Result<(CsrGraph, IngestReport)> {
    build_from_lines(BufReader::new(reader))
}

fn build_from_lines(reader: impl BufRead) -> Result<(CsrGraph, IngestReport)> {
    let mut b = GraphBuilder::new_growable();
    let edges_read = for_each_edge(reader, |u, v| {
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

/// Read-buffer size for edge-list files: the scanner takes its lines in
/// place from buffers of this size.
const READ_BUF: usize = 1 << 16;

/// Opens `path` for edge-list reading, transparently decompressing gzip
/// input (detected by the `1f 8b` magic bytes, not the file extension).
pub(crate) fn open_edge_list_reader(path: &Path) -> Result<Box<dyn BufRead>> {
    let mut reader = BufReader::with_capacity(READ_BUF, std::fs::File::open(path)?);
    let is_gzip = {
        let head = reader.fill_buf()?;
        head.len() >= 2 && head[0] == 0x1f && head[1] == 0x8b
    };
    Ok(if is_gzip {
        Box::new(BufReader::with_capacity(
            READ_BUF,
            crate::gzip::GzDecoder::new(reader),
        ))
    } else {
        Box::new(reader)
    })
}

/// Reads an edge list from a file path (gzip detected automatically).
/// Errors are annotated with `path`.
pub fn read_edge_list_path<P: AsRef<Path>>(path: P) -> Result<CsrGraph> {
    read_edge_list_report_path(path).map(|(g, _)| g)
}

/// Reads an edge list with an [`IngestReport`] from a file path (gzip
/// detected automatically). Errors are annotated with `path`.
pub fn read_edge_list_report_path<P: AsRef<Path>>(path: P) -> Result<(CsrGraph, IngestReport)> {
    let path = path.as_ref();
    open_edge_list_reader(path)
        .and_then(build_from_lines)
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
mod tests {
    use super::*;
    use crate::builder::from_edges;
    use crate::testing::XorShift;

    /// The `read_line` parser the in-buffer scanner replaced: the
    /// reference for the differential tests below.
    fn for_each_edge_oracle<R: BufRead>(
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

    /// The edges one parser hands its sink, and its result.
    fn scan_with<R: BufRead>(reference: bool, reader: R) -> Outcome {
        let mut edges = Vec::new();
        let sink = |u, v| {
            edges.push((u, v));
            Ok(())
        };
        let result = if reference {
            for_each_edge_oracle(reader, sink)
        } else {
            for_each_edge(reader, sink)
        };
        (edges, result.map_err(|e| e.to_string()))
    }

    /// Both parsers over `bytes` through a buffer of `capacity` bytes
    /// must yield the same edges and the same result or error.
    fn assert_same_outcome(bytes: &[u8], capacity: usize) -> Outcome {
        let got = scan_with(false, BufReader::with_capacity(capacity, bytes));
        let want = scan_with(true, BufReader::with_capacity(capacity, bytes));
        assert_eq!(
            got,
            want,
            "{:?} at capacity {capacity}",
            bytes.escape_ascii().to_string()
        );
        got
    }

    const CAPACITIES: [usize; 6] = [1, 2, 3, 5, 16, 8192];

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
        ];
        let mut outcomes = Vec::new();
        for bytes in cases {
            for capacity in CAPACITIES {
                outcomes.push(assert_same_outcome(bytes, capacity));
            }
        }
        // Spot checks that the cases reach what they are named for.
        let first = |case: usize| &outcomes[case * CAPACITIES.len()];
        assert_eq!(first(1), &(vec![(0, 1), (1, 2)], Ok(2)));
        assert_eq!(first(2), &(vec![(0, 1), (2, 3)], Ok(2)));
        assert_eq!(first(3), &(vec![(0, 1), (2, 3), (4, 5)], Ok(3)));
        assert_eq!(first(5), &(vec![(1, 2)], Ok(1)));
        assert!(first(8).1.as_ref().unwrap_err().contains("line 1"));
        assert!(first(9).1.as_ref().unwrap_err().contains("valid UTF-8"));
        assert_eq!(first(14), &(vec![(1, 2), (3, 4)], Ok(2)));
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
            let capacity = 1 + rng.below(12);
            errors += assert_same_outcome(&bytes, capacity).1.is_err() as usize;
        }
        assert!(errors > 0, "no case reached an error");
    }

    #[test]
    fn scanner_matches_the_read_line_oracle_on_the_gzip_fixture() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/data/edges.gz");
        let gz = std::fs::read(path).unwrap();
        let plain = crate::gzip::gunzip(&gz).unwrap();
        for capacity in CAPACITIES {
            let got = scan_with(
                false,
                BufReader::with_capacity(capacity, crate::gzip::GzDecoder::new(&gz[..])),
            );
            assert!(got.0.len() > 1 && got.1.is_ok(), "{got:?}");
            assert_eq!(got, assert_same_outcome(&plain, capacity));
        }
    }

    #[test]
    fn parses_basic_edge_list() {
        let text = "0 1\n1 2\n2 0\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let text = "# header\n% pajek style\n\n0 1\n\n# trailing\n1 2\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn handles_tabs_and_extra_whitespace() {
        let text = "0\t1\n  1   2  \n";
        let g = read_edge_list(text.as_bytes()).unwrap();
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
        let (g, report) = read_edge_list_report(text.as_bytes()).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(report.edges_read, 6);
        assert_eq!(report.self_loops, 2);
        assert_eq!(report.duplicates, 2);
    }

    #[test]
    fn empty_and_comment_only_inputs_build_empty_graphs() {
        let (g, report) = read_edge_list_report("".as_bytes()).unwrap();
        assert_eq!(g.node_count(), 0);
        assert_eq!(report, IngestReport::default());

        let (g, report) = read_edge_list_report("# nothing\n% here\n\n".as_bytes()).unwrap();
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
        let g2 = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn file_round_trip() {
        let g = from_edges(3, [(0, 2), (1, 2)]);
        let dir = std::env::temp_dir().join("oca_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.edges");
        write_edge_list_path(&g, &path).unwrap();
        let g2 = read_edge_list_path(&path).unwrap();
        assert_eq!(g, g2);
        std::fs::remove_file(path).ok();
    }
}
