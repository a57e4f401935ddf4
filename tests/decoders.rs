//! Every on-disk decoder handles arbitrary bytes without panicking.
//!
//! One property drives all three formats — `.ocg` (open and full verify),
//! binary covers and `.ockpt` checkpoint journals (a base frame and the
//! records a real run appended) — with byte flips, truncations, splices
//! (including bytes spliced in from another format) and aligned 8-byte
//! fields overwritten with `u64::MAX`, `1 << 62` or `u32::MAX`. Half the
//! cases re-seal the checksums after mutating, so the body decoders
//! behind the integrity checks are reached too. Every case must return a
//! typed error or `Ok`, never panic.
//!
//! A table test then pins the sealed frame's integrity classes for a
//! cover and a checkpoint journal's base: cut at every length and every
//! version but the current one (per format: the cover frame is at
//! version 2, the checkpoint base at version 6, so version-1 to version-5
//! checkpoints from older builds are refused too). A journal cut at every
//! byte past its base, or followed by garbage, reads as the state at its
//! last whole record: the state the run held when it wrote that record.
//! A checksum-valid checkpoint with a forged node count is refused
//! without anything being sized by that count.
//!
//! The same flips, truncations and splices drive the byte parsers that
//! sit in front of the formats and the serve protocol: the gzip decoder,
//! the edge-list reader, `Request::parse` and the one JSON reader
//! (`oca_graph::json`, which reads bench reports and serve responses)
//! over a committed report. The request parser and
//! the report reader also take arbitrary strings, and the report reader
//! every truncation of that report and 100k-deep `[`/`{` nesting.
//!
//! `PROPTEST_CASES` scales the properties (CI runs them at 5000 cases).

use oca::{
    checkpoint_summary, config_checksum, graph_checksum, CheckpointConfig, CheckpointFaultSpec,
    CheckpointFaults, DriverCheckpoint, Oca, OcaConfig, ResumePolicy,
};
use oca_gen::{lfr, LfrParams};
use oca_graph::json::{ParseErrorKind, Value};
use oca_graph::{
    fnv1a, gzip::gunzip, gzip::GzDecoder, open_ocg_path, read_edge_list, verify_ocg_path,
    write_ocg_path, BuildReport, Community, ContainerError, Cover, CsrGraph, DetectContext,
    DetectError, IntegrityClass, Relabeling,
};
use oca_serve::{load_cover_path, save_cover_path, Request};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Read;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

const OCG_HEADER_LEN: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Ocg,
    Cover,
    Checkpoint,
}

const FORMATS: [Format; 3] = [Format::Ocg, Format::Cover, Format::Checkpoint];

/// One valid file of each format, plus what the checkpoint is bound to.
struct Fixtures {
    ocg: Vec<u8>,
    cover: Vec<u8>,
    /// A journal of a base and several records, as a killed run left it.
    checkpoint: Vec<u8>,
    /// Per write of that run: where the journal ended after it, and the
    /// accepted communities and tickets the run held when it wrote it.
    writes: Vec<(usize, Vec<Community>, u64)>,
    node_count: usize,
    bindings: (u64, u64),
}

/// Checkpoint writes the fixture run makes before it is killed: a base
/// and three records.
const FIXTURE_WRITES: u64 = 4;

impl Fixtures {
    fn bytes(&self, format: Format) -> &[u8] {
        match format {
            Format::Ocg => &self.ocg,
            Format::Cover => &self.cover,
            Format::Checkpoint => &self.checkpoint,
        }
    }
}

fn scratch_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!("oca_decoders_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}_{}", SEQ.fetch_add(1, Ordering::Relaxed)))
}

fn config() -> OcaConfig {
    OcaConfig {
        batch: 4,
        rng_seed: 7,
        ..OcaConfig::default()
    }
}

fn fixtures() -> &'static Fixtures {
    static F: OnceLock<Fixtures> = OnceLock::new();
    F.get_or_init(|| {
        let graph: CsrGraph = lfr(&LfrParams::small(200, 0.3, 5)).graph;
        let relabeling = Relabeling::degree_descending(&graph);
        let relabeled = graph.relabeled(&relabeling);
        let ocg_path = scratch_path("fixture.ocg");
        write_ocg_path(
            &relabeled,
            Some(&relabeling),
            BuildReport::default(),
            &ocg_path,
        )
        .unwrap();

        let result = Oca::new(config()).run(&graph);
        let cover_path = scratch_path("fixture.cover");
        save_cover_path(&cover_path, &result.cover, result.c).unwrap();

        // The journal a run killed right after its `kills`th checkpoint
        // write leaves, and the accepted communities and tickets the run
        // held then (its partial result: the kill follows the write
        // before any further ticket is reduced).
        let killed = |kills: u64| {
            let ckpt_path = scratch_path("fixture.ockpt");
            let faults = CheckpointFaults::new(CheckpointFaultSpec {
                torn_write_every: 0,
                kill_after_writes: kills,
            });
            let err = Oca::new(OcaConfig {
                checkpoint: Some(CheckpointConfig {
                    path: ckpt_path.clone(),
                    resume: ResumePolicy::Fresh,
                    faults,
                }),
                ..config()
            })
            .run_ctx(&graph, &DetectContext::new(7))
            .unwrap_err();
            let DetectError::Cancelled { partial } = err else {
                panic!("expected the kill, got {err}");
            };
            let bytes = std::fs::read(&ckpt_path).unwrap();
            let accepted = partial.cover.communities().to_vec();
            (bytes, accepted, partial.iterations as u64)
        };
        let (checkpoint, accepted, seeds) = killed(FIXTURE_WRITES);
        let mut writes = Vec::new();
        for kills in 1..FIXTURE_WRITES {
            let (prefix, accepted, seeds) = killed(kills);
            assert!(checkpoint.starts_with(&prefix), "the journal only grows");
            writes.push((prefix.len(), accepted, seeds));
        }
        writes.push((checkpoint.len(), accepted, seeds));
        assert!(
            writes
                .windows(2)
                .all(|w| w[0].0 < w[1].0 && w[0].2 < w[1].2),
            "every write appended a record of a later round"
        );
        assert!(writes[0].1.is_empty() && !writes[3].1.is_empty());

        Fixtures {
            ocg: std::fs::read(&ocg_path).unwrap(),
            cover: std::fs::read(&cover_path).unwrap(),
            checkpoint,
            writes,
            node_count: graph.node_count(),
            bindings: (config_checksum(&config()), graph_checksum(&graph)),
        }
    })
}

/// Recomputes the checksums so a mutated file passes the integrity checks
/// and reaches the body decoders: the header field of an `.ocg`, the
/// trailer of a sealed frame, and for a checkpoint journal the trailer of
/// its base frame (wherever its body length now puts it) and the length
/// check and checksum of every record its length words delimit.
fn reseal(format: Format, bytes: &mut [u8]) {
    let seal = |bytes: &mut [u8], from: usize, end: usize| {
        let checksum = fnv1a(&bytes[from..end - 8]);
        bytes[end - 8..end].copy_from_slice(&checksum.to_le_bytes());
    };
    let word = |bytes: &[u8], at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    match format {
        Format::Ocg if bytes.len() >= OCG_HEADER_LEN => {
            let checksum = fnv1a(&bytes[OCG_HEADER_LEN..]);
            bytes[48..56].copy_from_slice(&checksum.to_le_bytes());
        }
        Format::Cover if bytes.len() >= 8 => seal(bytes, 0, bytes.len()),
        Format::Checkpoint if bytes.len() >= 28 => {
            let file_len = bytes.len() as u64;
            // Where a piece of `len` body bytes and `overhead` others that
            // starts at `at` ends, if it ends inside the file.
            let fits = |len: u64, at: usize, overhead: u64| {
                len.checked_add(at as u64 + overhead)
                    .filter(|&end| end <= file_len)
                    .map(|end| end as usize)
            };
            let Some(mut at) = fits(word(bytes, 12), 0, 28) else {
                return;
            };
            seal(bytes, 0, at);
            while at + 24 <= bytes.len() {
                let len = word(bytes, at);
                let Some(end) = fits(len, at, 24) else {
                    return;
                };
                bytes[at + 8..at + 16].copy_from_slice(&(!len).to_le_bytes());
                seal(bytes, at, end);
                at = end;
            }
        }
        _ => {}
    }
}

/// Applies one random mutation of `kind`; returns a description for the
/// failure message. 8-byte fields start at `grid` modulo 8: 0 in an
/// `.ocg` header, 4 in a sealed frame (its header is 20 bytes).
fn mutate(rng: &mut StdRng, kind: u8, bytes: &mut Vec<u8>, donor: &[u8], grid: usize) -> String {
    match kind {
        0 => {
            let flips = rng.random_range(1..5usize);
            for _ in 0..flips {
                let at = rng.random_range(0..bytes.len());
                bytes[at] ^= rng.random_range(1..=255u8);
            }
            format!("{flips} byte flips")
        }
        1 => {
            let len = rng.random_range(0..bytes.len());
            bytes.truncate(len);
            format!("truncated to {len}")
        }
        2 => {
            let from = rng.random_range(0..donor.len());
            let to = rng.random_range(from..=donor.len().min(from + 64));
            let at = rng.random_range(0..=bytes.len());
            let replace = rng.random_range(0..=(bytes.len() - at).min(64));
            bytes.splice(at..at + replace, donor[from..to].iter().copied());
            format!("spliced donor {from}..{to} over {at}..{}", at + replace)
        }
        _ => {
            let value = [u64::MAX, 1 << 62, u64::from(u32::MAX)][rng.random_range(0..3usize)];
            let at = grid + 8 * rng.random_range(0..(bytes.len() - grid) / 8);
            bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
            format!("u64 field at {at} set to {value:#x}")
        }
    }
}

/// Runs every decoder of `format` over the file at `path`. Results are
/// discarded: any return is a pass, a panic is the failure.
fn decode(format: Format, path: &Path, f: &Fixtures) {
    match format {
        Format::Ocg => {
            let _ = open_ocg_path(path);
            let _ = verify_ocg_path(path);
        }
        Format::Cover => {
            let _ = load_cover_path(path, Some(f.node_count));
            let _ = load_cover_path(path, None);
        }
        Format::Checkpoint => {
            let _ = DriverCheckpoint::load(path, f.bindings.0, f.bindings.1);
            let _ = checkpoint_summary(path);
        }
    }
}

proptest! {
    #[test]
    fn decoders_return_typed_errors_on_arbitrary_damage(
        raw in 0u64..u64::MAX,
        format in 0usize..3,
        kind in 0u8..4,
        donor in 0usize..3,
        resealed in 0u8..2,
    ) {
        let f = fixtures();
        let format = FORMATS[format];
        let mut rng = StdRng::seed_from_u64(raw);
        let mut bytes = f.bytes(format).to_vec();
        let grid = if format == Format::Ocg { 0 } else { 4 };
        let what = mutate(&mut rng, kind, &mut bytes, f.bytes(FORMATS[donor]), grid);
        if resealed == 1 {
            reseal(format, &mut bytes);
        }
        let path = scratch_path("case");
        std::fs::write(&path, &bytes).unwrap();
        let outcome = catch_unwind(AssertUnwindSafe(|| decode(format, &path, f)));
        std::fs::remove_file(&path).ok();
        prop_assert!(
            outcome.is_ok(),
            "{format:?} decoder panicked on: {what} (resealed: {resealed}, seed {raw})"
        );
    }
}

/// A gzip stream of three members — a dynamic-Huffman block behind a
/// header with a file name, a stored block and a fixed-Huffman block —
/// that decodes to [`gzip_plaintext`]. Made with CPython's `gzip` module
/// (`mtime=0`).
const GZIP: &[u8] = include_bytes!("data/edges.gz");

/// What [`GZIP`] decodes to: an edge list, the edge-list reader's fixture.
fn gzip_plaintext() -> Vec<u8> {
    let mut text: String = (0..200u32)
        .map(|i| format!("{i} {}\n", i * 7 % 97))
        .collect();
    text.push_str("# stored\n0 1\n1 2\n2 0\n5 6\n6 7\n");
    text.into_bytes()
}

/// One well-formed line per serve command.
const REQUESTS: [&str; 7] = [
    "query 17",
    "local 3",
    "topk 5 10",
    "snapshot",
    "stats",
    "health",
    "shutdown",
];

/// A committed bench report: the chaos bench's, the most deeply nested.
const REPORT: &str = include_str!("../results/BENCH_chaos.json");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Parser {
    Gzip,
    EdgeList,
    Request,
    Report,
}

const PARSERS: [Parser; 4] = [
    Parser::Gzip,
    Parser::EdgeList,
    Parser::Request,
    Parser::Report,
];

/// The valid input a case of `parser` mutates; `pick` chooses the request
/// line.
fn parser_input(parser: Parser, pick: usize) -> Vec<u8> {
    match parser {
        Parser::Gzip => GZIP.to_vec(),
        Parser::EdgeList => gzip_plaintext(),
        Parser::Request => REQUESTS[pick % REQUESTS.len()].as_bytes().to_vec(),
        Parser::Report => REPORT.as_bytes().to_vec(),
    }
}

/// Runs `parser` over `bytes`; any return is a pass, a panic the failure.
/// The request parser and the report reader take a `&str`, so they see
/// the bytes lossily decoded.
fn parse(parser: Parser, bytes: &[u8]) {
    match parser {
        Parser::Gzip => {
            let _ = gunzip(bytes);
        }
        Parser::EdgeList => {
            let _ = read_edge_list(bytes);
        }
        Parser::Request => {
            if let Err(e) = Request::parse(&String::from_utf8_lossy(bytes)) {
                let _ = e.to_json();
            }
        }
        Parser::Report => {
            if let Err(e) = Value::parse(&String::from_utf8_lossy(bytes)) {
                let _ = e.to_string();
            }
        }
    }
}

/// A random string of up to 40 characters: ASCII, whitespace of every
/// kind, digits and arbitrary Unicode scalar values.
fn arbitrary_string(rng: &mut StdRng) -> String {
    const PIECES: [&str; 12] = [
        "query", "local", "topk", "stats", " ", "\t", "\n", "\u{a0}", "\u{2003}", "-", "+", "0",
    ];
    let len = rng.random_range(0..=40usize);
    let mut s = String::new();
    for _ in 0..len {
        match rng.random_range(0..4u8) {
            0 => s.push_str(PIECES[rng.random_range(0..PIECES.len())]),
            1 => s.push(char::from(rng.random_range(0x20..0x7fu8))),
            2 => s.push_str(&rng.random::<u64>().to_string()),
            _ => s.extend(char::from_u32(rng.random_range(0..0x11_0000u32))),
        }
    }
    s
}

/// A random string of up to 60 JSON tokens, fragments and arbitrary
/// characters, so most cases get past the first byte.
fn arbitrary_json(rng: &mut StdRng) -> String {
    const PIECES: [&str; 20] = [
        "{", "}", "[", "]", ":", ",", "\"", "\"k\":", "\\", "\\u", "\\ud800", "null", "true",
        "fals", "-", "0", "1.5e", "E+", " ", "\n",
    ];
    let len = rng.random_range(0..=60usize);
    let mut s = String::new();
    for _ in 0..len {
        match rng.random_range(0..4u8) {
            0 | 1 => s.push_str(PIECES[rng.random_range(0..PIECES.len())]),
            2 => s.push_str(&rng.random::<u64>().to_string()),
            _ => s.extend(char::from_u32(rng.random_range(0..0x11_0000u32))),
        }
    }
    s
}

proptest! {
    #[test]
    fn byte_parsers_return_typed_errors_on_arbitrary_damage(
        raw in 0u64..u64::MAX,
        parser in 0usize..4,
        kind in 0u8..3,
        donor in 0usize..4,
    ) {
        let parser = PARSERS[parser];
        let mut rng = StdRng::seed_from_u64(raw);
        let mut bytes = parser_input(parser, rng.random_range(0..REQUESTS.len()));
        let donor = parser_input(PARSERS[donor], rng.random_range(0..REQUESTS.len()));
        let what = mutate(&mut rng, kind, &mut bytes, &donor, 0);
        let outcome = catch_unwind(AssertUnwindSafe(|| parse(parser, &bytes)));
        prop_assert!(
            outcome.is_ok(),
            "{parser:?} parser panicked on: {what} (seed {raw})"
        );
    }

    #[test]
    fn request_parser_returns_typed_errors_on_arbitrary_strings(raw in 0u64..u64::MAX) {
        let line = arbitrary_string(&mut StdRng::seed_from_u64(raw));
        let outcome = catch_unwind(|| parse(Parser::Request, line.as_bytes()));
        prop_assert!(outcome.is_ok(), "request parser panicked on {line:?}");
    }

    #[test]
    fn report_reader_returns_typed_errors_on_arbitrary_strings(raw in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(raw);
        let text = if raw % 2 == 0 {
            arbitrary_json(&mut rng)
        } else {
            arbitrary_string(&mut rng)
        };
        let outcome = catch_unwind(|| parse(Parser::Report, text.as_bytes()));
        prop_assert!(outcome.is_ok(), "report reader panicked on {text:?}");
    }
}

#[test]
fn report_reader_survives_every_truncation_and_deep_nesting() {
    // Every proper prefix of a report is an incomplete value: typed
    // error, never a panic and never a silently accepted half report.
    for (end, _) in REPORT.trim_end().char_indices() {
        let err = Value::parse(&REPORT[..end]).expect_err("a truncated report parses");
        assert!(err.offset <= end, "{err} at cut {end}");
    }
    // Nesting far past any stack the recursion could hold is refused at
    // the depth limit instead.
    for unit in ["[", "{\"a\":", "[{\"a\":", "[1,"] {
        let text = unit.repeat(100_000);
        assert_eq!(
            Value::parse(&text).unwrap_err().kind,
            ParseErrorKind::TooDeep,
            "{unit}"
        );
    }
}

#[test]
fn byte_parser_fixtures_are_valid() {
    // Guards the properties against vacuous fixtures.
    let plain = gzip_plaintext();
    assert_eq!(gunzip(GZIP).unwrap(), plain);
    let graph = read_edge_list(plain.as_slice()).unwrap();
    assert_eq!(graph.node_count(), 200);
    for line in REQUESTS {
        assert!(Request::parse(line).is_ok(), "{line}");
    }
    let report = Value::parse(REPORT).unwrap();
    assert_eq!(report.get("bench").and_then(Value::as_str), Some("chaos"));
}

/// [`long_backrefs_plaintext`] compressed by GNU gzip 1.12 (57,551 bytes):
///
/// ```text
/// awk 'BEGIN { x = 1; for (i = 0; i < 19000; i++) {
///   if (i >= 2700 && i % 8 < 5) line[i] = line[i - 2700];
///   else { x = (x * 75 + 74) % 65537; u = x; x = (x * 75 + 74) % 65537; line[i] = u " " x }
///   print line[i] } }' | gzip -9 -n > tests/data/long_backrefs.edges.gz
/// ```
const LONG_BACKREFS: &[u8] = include_bytes!("data/long_backrefs.edges.gz");

/// An edge list of 221,636 bytes in which five lines of every eight
/// repeat the line 2700 lines (about 32 KB) back, so its back-references
/// reach across the decoder's 16 KiB output step to the edge of the 32 KiB
/// window.
fn long_backrefs_plaintext() -> Vec<u8> {
    let mut x = 1u32;
    let mut next = || {
        x = (x * 75 + 74) % 65537;
        x
    };
    let mut lines: Vec<String> = Vec::new();
    for i in 0..19_000 {
        let line = if i >= 2700 && i % 8 < 5 {
            lines[i - 2700].clone()
        } else {
            let u = next();
            format!("{u} {}", next())
        };
        lines.push(line);
    }
    lines
        .iter()
        .flat_map(|line| [line, "\n"])
        .collect::<String>()
        .into_bytes()
}

#[test]
fn gzip_long_back_references_decode_at_every_read_size() {
    let plain = long_backrefs_plaintext();
    assert_eq!(plain.len(), 221_636);
    for read_len in [1, 7, 1 << 16] {
        let mut decoder = GzDecoder::new(LONG_BACKREFS);
        let (mut out, mut buf) = (Vec::new(), vec![0u8; read_len]);
        loop {
            match decoder.read(&mut buf).unwrap() {
                0 => break,
                n => out.extend_from_slice(&buf[..n]),
            }
        }
        assert!(out == plain, "{read_len}-byte reads decode other bytes");
    }
}

/// Loads `bytes` as a sealed `format` file, bound to the fixtures.
fn load_sealed(format: Format, bytes: &[u8]) -> Result<(), ContainerError> {
    let f = fixtures();
    match format {
        Format::Cover => {
            let path = scratch_path("table");
            std::fs::write(&path, bytes).unwrap();
            let result = load_cover_path(&path, Some(f.node_count)).map(drop);
            std::fs::remove_file(&path).ok();
            result
        }
        _ => load_journal(bytes).map(drop),
    }
}

/// Loads `bytes` as a checkpoint journal bound to the fixtures.
fn load_journal(bytes: &[u8]) -> Result<DriverCheckpoint, ContainerError> {
    let f = fixtures();
    let path = scratch_path("journal");
    std::fs::write(&path, bytes).unwrap();
    let result = DriverCheckpoint::load(&path, f.bindings.0, f.bindings.1);
    std::fs::remove_file(&path).ok();
    result
}

#[test]
fn sealed_frames_classify_damage_the_same_way() {
    let f = fixtures();
    for format in [Format::Cover, Format::Checkpoint] {
        // A journal's base is the sealed frame; the records after it are
        // the next test's.
        let pristine = match format {
            Format::Cover => &f.cover[..],
            _ => &f.checkpoint[..f.writes[0].0],
        };
        let class = |bytes: &[u8]| load_sealed(format, bytes).unwrap_err().integrity_class();
        assert!(
            load_sealed(format, pristine).is_ok(),
            "{format:?}: pristine"
        );
        for len in 0..pristine.len() {
            assert_eq!(
                class(&pristine[..len]),
                Some(IntegrityClass::Truncated),
                "{format:?} cut to {len} bytes"
            );
        }
        let stale: &[u32] = match format {
            Format::Cover => &[1, 3, u32::MAX],
            _ => &[1, 2, 3, 4, 5, u32::MAX],
        };
        for &version in stale {
            let mut patched = pristine.to_vec();
            patched[8..12].copy_from_slice(&version.to_le_bytes());
            assert_eq!(
                class(&patched),
                Some(IntegrityClass::VersionMismatch),
                "{format:?} patched to version {version}"
            );
        }
    }
}

#[test]
fn journal_cut_anywhere_past_its_base_reads_the_last_whole_record() {
    let f = fixtures();
    let state_at = |len: usize| {
        let state = load_journal(&f.checkpoint[..len])
            .unwrap_or_else(|e| panic!("journal cut to {len} bytes: {e}"));
        (state.accepted, state.seeds_tried)
    };
    for len in f.writes[0].0..=f.checkpoint.len() {
        let (_, accepted, seeds) = f
            .writes
            .iter()
            .rev()
            .find(|w| w.0 <= len)
            .expect("the base ends first");
        assert_eq!(state_at(len), (accepted.clone(), *seeds), "cut to {len}");
    }
    // Bytes after a cover's checksum are damage; after a journal's last
    // record they are a torn tail, and the journal still reads whole.
    let mut garbage = f.cover.clone();
    garbage.extend_from_slice(b"junk");
    assert_eq!(
        load_sealed(Format::Cover, &garbage)
            .unwrap_err()
            .integrity_class(),
        Some(IntegrityClass::ChecksumMismatch)
    );
    let mut torn = f.checkpoint.clone();
    torn.extend_from_slice(b"junk");
    let (_, accepted, seeds) = f.writes.last().unwrap();
    let state = load_journal(&torn).unwrap();
    assert_eq!((&state.accepted, state.seeds_tried), (accepted, *seeds));
}

#[test]
fn cover_fixture_is_a_real_cover() {
    // Guards the property against a vacuous fixture.
    let f = fixtures();
    let path = scratch_path("real.cover");
    std::fs::write(&path, &f.cover).unwrap();
    let (cover, c): (Cover, f64) = load_cover_path(&path, Some(f.node_count)).unwrap();
    assert!(cover.len() > 1 && c > 0.0);
    assert!(f.ocg.len() > OCG_HEADER_LEN && f.checkpoint.len() > 100);
    std::fs::remove_file(&path).ok();
}

#[test]
fn forged_node_count_is_refused_without_allocating_by_it() {
    let f = fixtures();
    let path = scratch_path("forged_n.ockpt");
    std::fs::write(&path, &f.checkpoint).unwrap();
    let mut forged = DriverCheckpoint::load(&path, f.bindings.0, f.bindings.1).unwrap();
    forged.node_count = u64::MAX;
    // `save` seals the frame, so the file passes every checksum and the
    // bindings still match: only the payload decoder can refuse it.
    forged
        .save(&path, f.bindings.0, f.bindings.1, &Default::default())
        .unwrap();
    let err = DriverCheckpoint::load(&path, f.bindings.0, f.bindings.1).unwrap_err();
    assert!(matches!(err, ContainerError::Malformed(_)), "{err:?}");
    let err = checkpoint_summary(&path).unwrap_err();
    assert!(matches!(err, ContainerError::Malformed(_)), "{err:?}");
    std::fs::remove_file(&path).ok();
}
