//! The `.ocg` on-disk graph format: a versioned, checksummed CSR image
//! that can be memory-mapped and used as a [`CsrGraph`] without parsing.
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//!      0     8  magic  b"OCAGRAPH"
//!      8     4  version (currently 1)
//!     12     4  flags   (bit 0 VALIDATED, bit 1 RELABELED)
//!     16     8  node_count
//!     24     8  directed_len   (neighbor entries = 2 × edge_count)
//!     32     8  self_loops     (dropped during ingestion)
//!     40     8  duplicates     (dropped during ingestion)
//!     48     8  checksum       (FNV-1a over every byte after the header)
//!     56     8  reserved (zero)
//!     64     …  offsets    (node_count + 1) × u32
//!      …     …  neighbors  directed_len × u32
//!      …     …  new_to_old node_count × u32   (only when RELABELED)
//! ```
//!
//! The header is exactly 64 bytes so every array section starts 4-byte
//! aligned in a page-aligned mapping, which is what lets
//! the `storage` slabs hand out `&[u32]` views directly over the file.
//!
//! ## Cost model
//!
//! Writers run the full [`CsrGraph::validate`] sweep (or construct the
//! arrays in a way that guarantees the invariants — see
//! [`crate::ocg_build`]) and set the VALIDATED flag, so
//! [`open_ocg_path`] only does O(1) structural checks: magic, version,
//! section lengths against the file size, first/last offset. Checksums
//! are *not* recomputed on open — that would force reading the whole
//! file, defeating lazy mapping. [`verify_ocg_path`] is the explicit
//! audit: it re-hashes the payload in one sequential pass and re-runs
//! every CSR invariant in another, plus one random probe per undirected
//! edge, for use after copying files between machines.

use crate::container::{check_preamble, ContainerError, Fnv1a};
use crate::csr::CsrGraph;
use crate::error::{GraphError, Result};
use crate::relabel::Relabeling;
use crate::storage::{MappedFile, NodeSlab, U32Slab};
use std::fs::File;
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

/// Magic bytes at offset 0.
pub const OCG_MAGIC: [u8; 8] = *b"OCAGRAPH";
/// Current format version.
pub const OCG_VERSION: u32 = 1;
/// Header size in bytes; array sections start here.
pub const OCG_HEADER_LEN: usize = 64;
/// Flag: the writer ran the full CSR invariant sweep.
pub const OCG_FLAG_VALIDATED: u32 = 1;
/// Flag: nodes are degree-ordered and a `new_to_old` section is present.
pub const OCG_FLAG_RELABELED: u32 = 2;

/// Parsed `.ocg` header, exposed for `graph info`/`graph verify`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OcgInfo {
    /// Format version.
    pub version: u32,
    /// Number of nodes.
    pub node_count: usize,
    /// Number of undirected edges.
    pub edge_count: usize,
    /// Self-loops dropped when the file was built.
    pub self_loops: u64,
    /// Duplicate edges dropped when the file was built.
    pub duplicates: u64,
    /// True when the writer ran the full invariant sweep.
    pub validated: bool,
    /// True when nodes are degree-ordered (a `new_to_old` map is stored).
    pub relabeled: bool,
    /// FNV-1a checksum of the payload, as recorded in the header.
    pub checksum: u64,
    /// Total file size in bytes.
    pub byte_len: u64,
}

/// A graph opened from a `.ocg` file: the mmap-backed [`CsrGraph`], its
/// header metadata, and (for relabeled files) the stored id map.
#[derive(Debug)]
pub struct OcgGraph {
    /// The graph, backed by the mapped file.
    pub graph: CsrGraph,
    /// Header metadata.
    pub info: OcgInfo,
    /// The stored `new_to_old` section, if the file is relabeled.
    new_to_old: Option<NodeSlab>,
}

impl OcgGraph {
    /// Materializes the stored id map as a [`Relabeling`] (compact ids →
    /// the edge list's original ids). `None` for files built without
    /// relabeling. O(n) per call; callers keep the result.
    pub fn relabeling(&self) -> Option<Relabeling> {
        self.new_to_old
            .as_ref()
            .map(|slab| Relabeling::from_new_to_old(slab.as_slice().to_vec()))
    }
}

fn invalid(message: impl Into<String>) -> GraphError {
    GraphError::InvalidFormat {
        message: message.into(),
    }
}

/// The fields of a `.ocg` header after the magic and the version.
pub(crate) struct Header {
    pub(crate) flags: u32,
    pub(crate) node_count: u64,
    pub(crate) directed_len: u64,
    pub(crate) self_loops: u64,
    pub(crate) duplicates: u64,
    /// FNV-1a of the payload; [`write_ocg`] fills it in.
    pub(crate) checksum: u64,
}

impl Header {
    fn encode(&self) -> [u8; OCG_HEADER_LEN] {
        let mut h = [0u8; OCG_HEADER_LEN];
        h[..8].copy_from_slice(&OCG_MAGIC);
        h[8..12].copy_from_slice(&OCG_VERSION.to_le_bytes());
        h[12..16].copy_from_slice(&self.flags.to_le_bytes());
        h[16..24].copy_from_slice(&self.node_count.to_le_bytes());
        h[24..32].copy_from_slice(&self.directed_len.to_le_bytes());
        h[32..40].copy_from_slice(&self.self_loops.to_le_bytes());
        h[40..48].copy_from_slice(&self.duplicates.to_le_bytes());
        h[48..56].copy_from_slice(&self.checksum.to_le_bytes());
        h
    }
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

fn parse_header(bytes: &[u8]) -> Result<Header> {
    check_preamble(bytes, OCG_MAGIC, OCG_VERSION, OCG_HEADER_LEN).map_err(GraphError::Container)?;
    Ok(Header {
        flags: read_u32(bytes, 12),
        node_count: read_u64(bytes, 16),
        directed_len: read_u64(bytes, 24),
        self_loops: read_u64(bytes, 32),
        duplicates: read_u64(bytes, 40),
        checksum: read_u64(bytes, 48),
    })
}

/// Section geometry derived from a parsed header: element counts and byte
/// offsets of each array, plus the expected total file size.
struct Sections {
    n: usize,
    directed: usize,
    offsets_start: usize,
    neighbors_start: usize,
    relabel_start: usize,
    expected_len: u64,
    relabeled: bool,
}

fn sections(h: &Header) -> Result<Sections> {
    if h.node_count > u32::MAX as u64 {
        return Err(invalid(format!(
            "node count {} exceeds the u32 id space",
            h.node_count
        )));
    }
    if h.directed_len > u32::MAX as u64 {
        return Err(invalid(format!(
            "directed adjacency length {} exceeds the u32 offset space",
            h.directed_len
        )));
    }
    let n = h.node_count as usize;
    let directed = h.directed_len as usize;
    if h.directed_len % 2 != 0 {
        return Err(invalid("directed adjacency length must be even"));
    }
    let relabeled = h.flags & OCG_FLAG_RELABELED != 0;
    let offsets_start = OCG_HEADER_LEN;
    let neighbors_start = offsets_start + 4 * (n + 1);
    let relabel_start = neighbors_start + 4 * directed;
    let expected_len = relabel_start as u64 + if relabeled { 4 * n as u64 } else { 0 };
    Ok(Sections {
        n,
        directed,
        offsets_start,
        neighbors_start,
        relabel_start,
        expected_len,
        relabeled,
    })
}

fn open_mapped(path: &Path) -> Result<(Arc<MappedFile>, Header, Sections)> {
    if cfg!(target_endian = "big") {
        return Err(invalid(
            ".ocg files are little-endian and cannot be mapped on a big-endian target",
        ));
    }
    let file = Arc::new(MappedFile::open(path)?);
    let header = parse_header(file.bytes())?;
    let geo = sections(&header)?;
    let len = file.byte_len() as u64;
    if len < geo.expected_len {
        return Err(GraphError::Container(ContainerError::Truncated {
            len,
            expected: geo.expected_len,
        }));
    }
    if len > geo.expected_len {
        // Bytes past the last section change the payload checksum.
        return Err(GraphError::Container(ContainerError::ChecksumMismatch));
    }
    Ok((file, header, geo))
}

/// Opens a `.ocg` file as a memory-mapped graph.
///
/// This performs only O(1) structural checks (magic, version, section
/// geometry, first/last offset) and trusts the VALIDATED flag for the
/// O(n + m) invariants; use [`verify_ocg_path`] for a full audit.
pub fn open_ocg_path<P: AsRef<Path>>(path: P) -> Result<OcgGraph> {
    let path = path.as_ref();
    open_ocg_inner(path).map_err(|e| e.with_path(path))
}

fn open_ocg_inner(path: &Path) -> Result<OcgGraph> {
    let (file, header, geo) = open_mapped(path)?;
    graph_from_mapped(file, header, geo)
}

/// Assembles the [`OcgGraph`] over an already-opened mapping, so callers
/// that need both the raw bytes and the graph (the verifier) map the file
/// once instead of twice — a second mapping would double the resident-set
/// accounting of every touched page.
fn graph_from_mapped(file: Arc<MappedFile>, header: Header, geo: Sections) -> Result<OcgGraph> {
    if header.flags & OCG_FLAG_VALIDATED == 0 {
        return Err(invalid(
            "file is not marked validated; rebuild it with a current writer",
        ));
    }
    let offsets = U32Slab::Mapped {
        file: Arc::clone(&file),
        byte_start: geo.offsets_start,
        len: geo.n + 1,
    };
    {
        let off = offsets.as_slice();
        if off[0] != 0 {
            return Err(invalid("offsets[0] must be 0"));
        }
        if *off.last().unwrap() as usize != geo.directed {
            return Err(invalid("last offset disagrees with the header's length"));
        }
    }
    let neighbors = NodeSlab::Mapped {
        file: Arc::clone(&file),
        byte_start: geo.neighbors_start,
        len: geo.directed,
    };
    let new_to_old = geo.relabeled.then(|| NodeSlab::Mapped {
        file: Arc::clone(&file),
        byte_start: geo.relabel_start,
        len: geo.n,
    });
    let info = OcgInfo {
        version: OCG_VERSION,
        node_count: geo.n,
        edge_count: geo.directed / 2,
        self_loops: header.self_loops,
        duplicates: header.duplicates,
        validated: true,
        relabeled: geo.relabeled,
        checksum: header.checksum,
        byte_len: file.byte_len() as u64,
    };
    Ok(OcgGraph {
        graph: CsrGraph::from_slabs(offsets, neighbors),
        info,
        new_to_old,
    })
}

/// Fully audits a `.ocg` file: recomputes the payload checksum against the
/// header and re-runs every CSR invariant (plus a permutation check on the
/// id map). Sequential passes over the payload plus one random probe per
/// undirected edge ([`CsrGraph::validate`]); the checksum pass runs on a
/// thread of its own beside the others. A file that fails more than one
/// check reports the first of them in the order checksum, structure, CSR
/// invariants (the first failing row), id map. Returns the header metadata
/// on success.
pub fn verify_ocg_path<P: AsRef<Path>>(path: P) -> Result<OcgInfo> {
    let path = path.as_ref();
    verify_ocg_inner(path).map_err(|e| e.with_path(path))
}

fn verify_ocg_inner(path: &Path) -> Result<OcgInfo> {
    let (file, header, geo) = open_mapped(path)?;
    let recorded = header.checksum;
    let (audited, hashed) = crate::par::join(
        || audit(Arc::clone(&file), header, geo),
        || {
            let mut fnv = Fnv1a::default();
            fnv.update(&file.bytes()[OCG_HEADER_LEN..]);
            fnv.finish()
        },
    );
    if hashed != recorded {
        return Err(GraphError::Container(ContainerError::ChecksumMismatch));
    }
    audited
}

/// Every check of [`verify_ocg_path`] but the checksum.
fn audit(file: Arc<MappedFile>, header: Header, geo: Sections) -> Result<OcgInfo> {
    let (relabeled, relabel_start, n) = (geo.relabeled, geo.relabel_start, geo.n);
    let opened = graph_from_mapped(Arc::clone(&file), header, geo)?;
    opened
        .graph
        .validate()
        .map_err(|message| invalid(format!("CSR invariant violated: {message}")))?;
    if relabeled {
        let ids = file.node_ids(relabel_start, n);
        let mut seen = vec![false; n];
        for &v in ids {
            if v.index() >= n || seen[v.index()] {
                return Err(invalid("new_to_old section is not a permutation"));
            }
            seen[v.index()] = true;
        }
    }
    Ok(opened.info)
}

/// Reads only the header of a `.ocg` file (for `graph info`). O(1).
pub fn read_ocg_info<P: AsRef<Path>>(path: P) -> Result<OcgInfo> {
    let path = path.as_ref();
    open_ocg_inner(path)
        .map(|g| g.info)
        .map_err(|e| e.with_path(path))
}

/// Feeds `words` to `block` as little-endian bytes, 4 KiB at a time, so
/// a payload is hashed and written in large blocks rather than one call
/// per word.
fn for_each_word_block<T: Copy + Into<u32>, E>(
    words: &[T],
    mut block: impl FnMut(&[u8]) -> std::result::Result<(), E>,
) -> std::result::Result<(), E> {
    let mut buf = [0u8; 4096];
    for part in words.chunks(buf.len() / 4) {
        for (bytes, &word) in buf.chunks_exact_mut(4).zip(part) {
            bytes.copy_from_slice(&word.into().to_le_bytes());
        }
        block(&buf[..4 * part.len()])?;
    }
    Ok(())
}

/// The payload of a `.ocg` file that [`write_ocg`] is writing: words
/// appended in file order and hashed into the header's checksum.
pub(crate) struct Payload<'a> {
    out: &'a mut BufWriter<File>,
    fnv: Fnv1a,
}

impl Payload<'_> {
    /// Appends `words` as little-endian `u32`s, written on this thread
    /// while a second thread hashes them.
    pub(crate) fn words<T: Copy + Into<u32> + Sync>(&mut self, words: &[T]) -> std::io::Result<()> {
        let (out, mut fnv) = (&mut *self.out, self.fnv);
        let (written, hashed) = crate::par::join(
            || for_each_word_block(words, |bytes| out.write_all(bytes)),
            || {
                let Ok(()) = for_each_word_block(words, |bytes| {
                    fnv.update(bytes);
                    Ok::<(), std::convert::Infallible>(())
                });
                fnv
            },
        );
        self.fnv = hashed;
        written
    }
}

/// Writes a `.ocg` file at `path` through [`crate::atomic_write_path`]:
/// a zeroed header, the payload `write` appends, then the header with the
/// payload's checksum patched in. A crash or an error mid-write leaves the
/// previous file at `path`, if any, untouched.
pub(crate) fn write_ocg<E: From<std::io::Error>>(
    path: &Path,
    mut header: Header,
    write: impl FnOnce(&mut Payload) -> std::result::Result<(), E>,
) -> std::result::Result<(), E> {
    crate::atomic::atomic_write_path(path, |out| {
        out.write_all(&[0; OCG_HEADER_LEN])?;
        let mut payload = Payload {
            out: &mut *out,
            fnv: Fnv1a::default(),
        };
        write(&mut payload)?;
        header.checksum = payload.fnv.finish();
        out.seek(SeekFrom::Start(0))?;
        out.write_all(&header.encode())?;
        Ok(())
    })
}

/// Writes an in-RAM graph as a `.ocg` file.
///
/// Runs the full [`CsrGraph::validate`] sweep first (the format promises
/// VALIDATED means exactly that): one pass over the rows plus one probe
/// per undirected edge. Then the payload is written while a second thread
/// hashes it, and the header is patched in last. `relabeling`, when
/// given, is stored as the `new_to_old` section and must describe this
/// graph (compact ids → original edge-list ids). `report` records the
/// ingestion drop counts in the header.
pub fn write_ocg_path<P: AsRef<Path>>(
    graph: &CsrGraph,
    relabeling: Option<&Relabeling>,
    report: crate::builder::BuildReport,
    path: P,
) -> Result<()> {
    let path = path.as_ref();
    write_ocg_inner(graph, relabeling, report, path).map_err(|e| e.with_path(path))
}

fn write_ocg_inner(
    graph: &CsrGraph,
    relabeling: Option<&Relabeling>,
    report: crate::builder::BuildReport,
    path: &Path,
) -> Result<()> {
    graph
        .validate()
        .map_err(|message| invalid(format!("refusing to write an invalid graph: {message}")))?;
    if let Some(r) = relabeling {
        if r.len() != graph.node_count() {
            return Err(invalid(format!(
                "relabeling covers {} nodes but the graph has {}",
                r.len(),
                graph.node_count()
            )));
        }
    }
    let mut flags = OCG_FLAG_VALIDATED;
    if relabeling.is_some() {
        flags |= OCG_FLAG_RELABELED;
    }
    let header = Header {
        flags,
        node_count: graph.node_count() as u64,
        directed_len: graph.neighbors_slice().len() as u64,
        self_loops: report.self_loops,
        duplicates: report.duplicates,
        checksum: 0,
    };
    write_ocg(path, header, |payload| {
        payload.words(graph.offsets_slice())?;
        payload.words(graph.neighbors_slice())?;
        match relabeling {
            Some(r) => payload.words(r.new_to_old()),
            None => Ok(()),
        }
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{BuildReport, GraphBuilder};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("oca_ocg_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample() -> (CsrGraph, Relabeling, BuildReport) {
        let mut b = GraphBuilder::new(6);
        b.extend_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 3), (0, 1), (4, 0)]);
        let (report, g, r) = {
            let (plain, report) = b.try_build_report().unwrap();
            let r = Relabeling::degree_descending(&plain);
            (report, plain.relabeled(&r), r)
        };
        (g, r, report)
    }

    #[test]
    fn round_trip_preserves_graph_and_metadata() {
        let (g, r, report) = sample();
        let path = tmp("roundtrip.ocg");
        write_ocg_path(&g, Some(&r), report, &path).unwrap();

        let opened = open_ocg_path(&path).unwrap();
        assert!(opened.graph.is_mapped());
        assert_eq!(opened.graph, g);
        assert_eq!(opened.relabeling().unwrap(), r);
        assert_eq!(opened.info.node_count, 6);
        assert_eq!(opened.info.edge_count, g.edge_count());
        assert_eq!(opened.info.self_loops, 1);
        assert_eq!(opened.info.duplicates, 1);
        assert!(opened.info.relabeled);
        assert!(opened.info.validated);

        let info = verify_ocg_path(&path).unwrap();
        assert_eq!(info, opened.info);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn round_trip_without_relabeling() {
        let g = crate::builder::from_edges(4, [(0, 1), (2, 3)]);
        let path = tmp("plain.ocg");
        write_ocg_path(&g, None, BuildReport::default(), &path).unwrap();
        let opened = open_ocg_path(&path).unwrap();
        assert_eq!(opened.graph, g);
        assert!(opened.relabeling().is_none());
        assert!(!opened.info.relabeled);
        verify_ocg_path(&path).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = CsrGraph::empty(0);
        let path = tmp("empty.ocg");
        write_ocg_path(&g, None, BuildReport::default(), &path).unwrap();
        let opened = open_ocg_path(&path).unwrap();
        assert_eq!(opened.graph.node_count(), 0);
        assert_eq!(opened.graph.edge_count(), 0);
        verify_ocg_path(&path).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_magic_and_short_files() {
        let path = tmp("garbage.ocg");
        std::fs::write(&path, b"not a graph").unwrap();
        let err = open_ocg_path(&path).unwrap_err();
        assert!(err.to_string().contains("garbage.ocg"), "{err}");

        std::fs::write(&path, [0u8; 128]).unwrap();
        let err = open_ocg_path(&path).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_unsupported_version() {
        let (g, _, report) = sample();
        let path = tmp("version.ocg");
        write_ocg_path(&g, None, report, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = open_ocg_path(&path).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_truncated_payload() {
        let (g, _, report) = sample();
        let path = tmp("truncated.ocg");
        write_ocg_path(&g, None, report, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
        let err = open_ocg_path(&path).unwrap_err();
        assert!(err.to_string().contains("header implies"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn verify_catches_payload_corruption_open_does_not() {
        let (g, r, report) = sample();
        let path = tmp("corrupt.ocg");
        write_ocg_path(&g, Some(&r), report, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a neighbor entry: structurally plausible, semantically wrong.
        let neighbors_start = OCG_HEADER_LEN + 4 * (g.node_count() + 1);
        bytes[neighbors_start] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        assert!(open_ocg_path(&path).is_ok(), "open is O(1), trusts header");
        let err = verify_ocg_path(&path).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn audit_reports_the_first_failing_check() {
        let (g, r, report) = sample();
        let path = tmp("audit_order.ocg");
        write_ocg_path(&g, Some(&r), report, &path).unwrap();
        let clean = std::fs::read(&path).unwrap();
        let first_row = OCG_HEADER_LEN + 4 * (g.node_count() + 1);
        let id_map = first_row + 4 * g.neighbors_slice().len();
        let last_row = id_map - 4;
        // Flips one bit at each offset; with `forge`, the header's checksum
        // is made to match, so the later checks get their turn.
        let audit = |flips: &[usize], forge: bool| {
            let mut bytes = clean.clone();
            for &at in flips {
                bytes[at] ^= 1;
            }
            if forge {
                let sum = crate::container::fnv1a(&bytes[OCG_HEADER_LEN..]);
                bytes[48..56].copy_from_slice(&sum.to_le_bytes());
            }
            std::fs::write(&path, &bytes).unwrap();
            verify_ocg_path(&path).unwrap_err().to_string()
        };
        let err = audit(&[first_row, id_map], false);
        assert!(err.contains("checksum mismatch"), "{err}");
        // Two bad rows: the first one is reported.
        let first = audit(&[first_row], true);
        assert!(first.contains("CSR invariant violated"), "{first}");
        assert_eq!(audit(&[first_row, last_row], true), first);
        // A bad row before a bad id map.
        let last = audit(&[last_row], true);
        assert_ne!(last, first);
        assert_eq!(audit(&[last_row, id_map], true), last);
        let err = audit(&[id_map], true);
        assert!(err.contains("not a permutation"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_checksum_is_the_fnv1a_of_the_payload() {
        let (g, r, report) = sample();
        let path = tmp("checksum.ocg");
        let mut sums = Vec::new();
        for relabeling in [Some(&r), None] {
            write_ocg_path(&g, relabeling, report, &path).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            let info = read_ocg_info(&path).unwrap();
            assert_eq!(
                info.checksum,
                crate::container::fnv1a(&bytes[OCG_HEADER_LEN..])
            );
            sums.push(info.checksum);
        }
        assert_ne!(sums[0], sums[1]);
        std::fs::remove_file(&path).ok();
    }
}
