//! External-memory `.ocg` construction: bounded-RAM chunk-sort-merge.
//!
//! [`crate::builder::GraphBuilder`] materializes every raw edge in RAM,
//! which caps ingestion around the machine's memory. This builder streams
//! the edge list instead, keeping only one bounded chunk of edges plus
//! O(n) per-node arrays resident:
//!
//! 1. **Normalize + run generation** — each edge is canonicalized to
//!    `(min, max)` (self-loops counted and dropped), packed into a `u64`,
//!    and buffered; full chunks are sorted, deduplicated (duplicates
//!    counted) and spilled to disk as sorted runs of 8 bytes/edge.
//! 2. **Merge** — a k-way merge of the runs yields the globally sorted,
//!    deduplicated undirected edge set (cross-run duplicates counted
//!    here), writing one merged spill file and accumulating per-node
//!    degrees.
//! 3. **Relabel** — the degree-descending permutation is computed from
//!    the degree array exactly as [`crate::Relabeling::degree_descending`]
//!    does (ties break by ascending original id), so the output is bit-exact
//!    with the in-RAM [`crate::GraphBuilder::build_degree_ordered`] pipeline.
//! 4. **Scatter + final merge** — the merged edges are re-read, mapped
//!    through the permutation, emitted as both directed pairs, chunk-
//!    sorted by `(src, dst)` into a second generation of runs, and merged
//!    straight into the `.ocg` payload while the FNV-1a checksum
//!    accumulates; the header is patched in afterwards.
//!
//! Peak memory is `8 B × chunk_edges` for the chunk buffer plus ~`16 B ×
//! node_count` for the degree/permutation arrays — independent of the
//! edge count. Disk usage peaks around `24 B` per undirected edge
//! (ingest runs + merged spill + directed runs) beyond the output file.
//!
//! The CSR invariants hold by construction (sorted unique rows, both
//! directions emitted), and by default the writer still re-audits the
//! finished file with [`crate::ocg::verify_ocg_path`] before returning.

use crate::container::Fnv1a;
use crate::error::{GraphError, Result};
use crate::io::{for_each_edge, open_edge_list_reader};
use crate::ocg::{encode_header, write_words, OCG_FLAG_RELABELED, OCG_FLAG_VALIDATED};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fs::File;
use std::io::{BufReader, BufWriter, ErrorKind, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Spill-file buffer size (per open run).
const SPILL_BUF: usize = 1 << 18;

/// Tuning knobs for the external-memory builder.
#[derive(Debug, Clone)]
pub struct BuildOptions {
    /// Edges buffered in RAM per sorted run (8 bytes each). The chunk
    /// buffer — `8 B × chunk_edges` — dominates the builder's peak RSS.
    pub chunk_edges: usize,
    /// Lower bound on the node count, for inputs whose trailing nodes are
    /// isolated (ids are otherwise inferred as `max_id + 1`).
    pub min_nodes: usize,
    /// Apply the degree-descending relabeling and store the id map.
    /// Disable to keep the input's own node numbering.
    pub relabel: bool,
    /// Re-audit the finished file (checksum + full CSR invariant sweep).
    pub verify: bool,
    /// Directory for spill files; defaults to `<output>.tmp`.
    pub tmp_dir: Option<PathBuf>,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            chunk_edges: 8 << 20,
            min_nodes: 0,
            relabel: true,
            verify: true,
            tmp_dir: None,
        }
    }
}

/// What the builder saw and produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildStats {
    /// Nodes in the output graph.
    pub nodes: usize,
    /// Deduplicated undirected edges in the output graph.
    pub edges: usize,
    /// Edge lines consumed from the input.
    pub edges_read: u64,
    /// Self-loops dropped.
    pub self_loops: u64,
    /// Duplicate edges dropped.
    pub duplicates: u64,
    /// Sorted runs spilled during ingestion (1 means the input fit one
    /// chunk).
    pub ingest_runs: usize,
    /// Wall time of each phase of the build.
    pub phases: BuildPhases,
}

/// Wall time of each phase of a build, in nanoseconds. The phases run
/// back to back, so they add up to the build's elapsed time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildPhases {
    /// Reading and parsing the input, canonicalizing each edge, and
    /// sorting and spilling the ingest runs.
    pub ingest_ns: u64,
    /// The k-way merge of the ingest runs into the deduplicated edge
    /// spill and the degree array.
    pub merge_ns: u64,
    /// The degree-descending permutation, the offsets, and the directed,
    /// relabeled pairs scattered into sorted runs.
    pub scatter_ns: u64,
    /// The final merge into the payload, the header, `fsync` and the
    /// rename into place.
    pub write_ns: u64,
    /// The re-audit of the finished file (0 without `verify`).
    pub verify_ns: u64,
}

impl BuildPhases {
    /// The sum of the phases: the build's elapsed time.
    pub fn total_ns(&self) -> u64 {
        self.ingest_ns + self.merge_ns + self.scatter_ns + self.write_ns + self.verify_ns
    }
}

/// A stopwatch read in laps: each [`Lap::ns`] returns the time since the
/// previous one, so consecutive laps partition the elapsed time.
struct Lap(Instant);

impl Lap {
    fn ns(&mut self) -> u64 {
        let now = Instant::now();
        let ns = now.duration_since(self.0).as_nanos() as u64;
        self.0 = now;
        ns
    }
}

/// Spill directory that cleans up after itself.
struct TmpDir {
    path: PathBuf,
    counter: usize,
}

impl TmpDir {
    fn new(path: PathBuf) -> Result<TmpDir> {
        std::fs::create_dir_all(&path)?;
        TmpDir::try_lock(&path)?;
        Ok(TmpDir { path, counter: 0 })
    }

    /// Refuses to share a spill directory with a concurrent build.
    fn try_lock(path: &Path) -> Result<()> {
        let lock = path.join("lock");
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&lock)
        {
            Ok(_) => Ok(()),
            Err(e) if e.kind() == ErrorKind::AlreadyExists => Err(GraphError::InvalidFormat {
                message: format!(
                    "spill directory {} is already in use (stale `lock` file from a crashed \
                     build? remove the directory to proceed)",
                    path.display()
                ),
            }),
            Err(e) => Err(e.into()),
        }
    }

    fn next_run(&mut self) -> PathBuf {
        self.counter += 1;
        self.path.join(format!("run{}.bin", self.counter))
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.path).ok();
    }
}

/// Sorts a chunk, optionally dedups it (adding to `duplicates`), and
/// spills it as a sorted run of little-endian `u64`s.
fn spill_run(
    tmp: &mut TmpDir,
    chunk: &mut Vec<u64>,
    dedup: bool,
    duplicates: &mut u64,
) -> Result<PathBuf> {
    chunk.sort_unstable();
    if dedup {
        let before = chunk.len();
        chunk.dedup();
        *duplicates += (before - chunk.len()) as u64;
    }
    let path = tmp.next_run();
    let mut w = BufWriter::with_capacity(SPILL_BUF, File::create(&path)?);
    let mut buf = [0u8; 4096];
    let mut used = 0usize;
    for &key in chunk.iter() {
        buf[used..used + 8].copy_from_slice(&key.to_le_bytes());
        used += 8;
        if used == buf.len() {
            w.write_all(&buf)?;
            used = 0;
        }
    }
    w.write_all(&buf[..used])?;
    w.flush()?;
    chunk.clear();
    Ok(path)
}

struct RunCursor {
    reader: BufReader<File>,
}

impl RunCursor {
    fn next_key(&mut self) -> Result<Option<u64>> {
        let mut bytes = [0u8; 8];
        match self.reader.read_exact(&mut bytes) {
            Ok(()) => Ok(Some(u64::from_le_bytes(bytes))),
            Err(e) if e.kind() == ErrorKind::UnexpectedEof => Ok(None),
            Err(e) => Err(e.into()),
        }
    }
}

/// K-way merges sorted runs, emitting every key in global order
/// (duplicates included — callers dedup where needed).
fn merge_runs(paths: &[PathBuf], mut emit: impl FnMut(u64) -> Result<()>) -> Result<()> {
    let mut cursors = Vec::with_capacity(paths.len());
    let mut heap = BinaryHeap::with_capacity(paths.len());
    for path in paths {
        let mut cursor = RunCursor {
            reader: BufReader::with_capacity(SPILL_BUF, File::open(path)?),
        };
        if let Some(key) = cursor.next_key()? {
            heap.push(Reverse((key, cursors.len())));
        }
        cursors.push(cursor);
    }
    while let Some(Reverse((key, idx))) = heap.pop() {
        emit(key)?;
        if let Some(next) = cursors[idx].next_key()? {
            heap.push(Reverse((next, idx)));
        }
    }
    Ok(())
}

#[inline]
fn pack(hi: u32, lo: u32) -> u64 {
    (hi as u64) << 32 | lo as u64
}

/// Builds a `.ocg` file from an edge-list file (plain text or gzip,
/// detected by magic bytes). Input-side errors carry the input path,
/// everything else the output path.
pub fn build_ocg_from_path<P: AsRef<Path>, Q: AsRef<Path>>(
    input: P,
    output: Q,
    options: &BuildOptions,
) -> Result<BuildStats> {
    let input = input.as_ref();
    let output = output.as_ref();
    build_ocg_with(
        |sink| {
            let reader = open_edge_list_reader(input).map_err(|e| e.with_path(input))?;
            for_each_edge(reader, sink).map_err(|e| e.with_path(input))
        },
        output,
        options,
    )
}

/// Builds a `.ocg` file from an in-process edge iterator (synthetic
/// generators, tests). Edges may repeat and contain self-loops; they are
/// normalized exactly as [`crate::builder::GraphBuilder`] would.
pub fn build_ocg_from_edges<I, Q>(edges: I, output: Q, options: &BuildOptions) -> Result<BuildStats>
where
    I: IntoIterator<Item = (u32, u32)>,
    Q: AsRef<Path>,
{
    build_ocg_with(
        |sink| {
            let mut read = 0u64;
            for (u, v) in edges {
                read += 1;
                sink(u, v)?;
            }
            Ok(read)
        },
        output.as_ref(),
        options,
    )
}

/// Builds a `.ocg` file from a push-model edge source: `produce` is
/// handed an `emit(u, v)` closure and calls it once per raw edge
/// (self-loops and duplicates welcome — they are normalized exactly as
/// [`crate::builder::GraphBuilder`] would). This is the streaming entry
/// point for closure-sink generators (e.g. `oca_gen::wiki_like_edges`),
/// which push edges instead of yielding an iterator, so a synthetic graph
/// can flow straight to disk without ever materializing its edge list.
///
/// `emit` is infallible from the producer's point of view; an I/O error
/// raised while spilling is stashed, further edges are ignored, and the
/// error surfaces once `produce` returns. The producer's own return value
/// (e.g. a planted ground-truth cover) is handed back alongside the
/// [`BuildStats`].
pub fn build_ocg_from_emitter<F, T, Q>(
    produce: F,
    output: Q,
    options: &BuildOptions,
) -> Result<(BuildStats, T)>
where
    F: FnOnce(&mut dyn FnMut(u32, u32)) -> T,
    Q: AsRef<Path>,
{
    let mut deferred: Option<GraphError> = None;
    let mut payload: Option<T> = None;
    let stats = build_ocg_with(
        |sink| {
            let mut read = 0u64;
            payload = Some(produce(&mut |u, v| {
                if deferred.is_none() {
                    read += 1;
                    if let Err(e) = sink(u, v) {
                        deferred = Some(e);
                    }
                }
            }));
            match deferred.take() {
                Some(e) => Err(e),
                None => Ok(read),
            }
        },
        output.as_ref(),
        options,
    )?;
    Ok((stats, payload.expect("produce ran to completion")))
}

/// Core pipeline; `ingest` drives edges into the sink and returns how
/// many it produced.
fn build_ocg_with<F>(ingest: F, output: &Path, options: &BuildOptions) -> Result<BuildStats>
where
    F: FnOnce(&mut dyn FnMut(u32, u32) -> Result<()>) -> Result<u64>,
{
    build_inner(ingest, output, options).map_err(|e| e.with_path(output))
}

fn build_inner<F>(ingest: F, output: &Path, options: &BuildOptions) -> Result<BuildStats>
where
    F: FnOnce(&mut dyn FnMut(u32, u32) -> Result<()>) -> Result<u64>,
{
    let mut lap = Lap(Instant::now());
    let mut phases = BuildPhases::default();
    let chunk_cap = options.chunk_edges.max(1024);
    let mut tmp = TmpDir::new(
        options
            .tmp_dir
            .clone()
            .unwrap_or_else(|| output.with_extension("ocg.tmp")),
    )?;

    // Phase 1: normalize, chunk-sort, spill.
    let mut chunk: Vec<u64> = Vec::with_capacity(chunk_cap);
    let mut runs: Vec<PathBuf> = Vec::new();
    let mut self_loops = 0u64;
    let mut duplicates = 0u64;
    let mut max_id: Option<u32> = None;
    let edges_read = {
        let mut sink = |u: u32, v: u32| -> Result<()> {
            if u == v {
                self_loops += 1;
                return Ok(());
            }
            max_id = Some(max_id.map_or(u.max(v), |m| m.max(u).max(v)));
            chunk.push(pack(u.min(v), u.max(v)));
            if chunk.len() == chunk_cap {
                runs.push(spill_run(&mut tmp, &mut chunk, true, &mut duplicates)?);
            }
            Ok(())
        };
        ingest(&mut sink)?
    };
    if !chunk.is_empty() {
        runs.push(spill_run(&mut tmp, &mut chunk, true, &mut duplicates)?);
    }
    let ingest_runs = runs.len();

    let inferred = max_id.map_or(0u64, |m| m as u64 + 1);
    let node_count = inferred.max(options.min_nodes as u64);
    if node_count > u32::MAX as u64 {
        return Err(GraphError::TooManyNodes {
            requested: node_count as usize,
        });
    }
    let n = node_count as usize;
    phases.ingest_ns = lap.ns();

    // Phase 2: merge runs into the deduplicated spill + degree array.
    let merged_path = tmp.path.join("merged.bin");
    let mut degrees = vec![0u32; n];
    let mut edge_count = 0usize;
    {
        let mut merged = BufWriter::with_capacity(SPILL_BUF, File::create(&merged_path)?);
        let mut last: Option<u64> = None;
        merge_runs(&runs, |key| {
            if last == Some(key) {
                duplicates += 1;
                return Ok(());
            }
            last = Some(key);
            edge_count += 1;
            if edge_count > (u32::MAX / 2) as usize {
                return Err(GraphError::TooManyEdges {
                    requested: edge_count,
                });
            }
            degrees[(key >> 32) as usize] += 1;
            degrees[key as u32 as usize] += 1;
            merged.write_all(&key.to_le_bytes())?;
            Ok(())
        })?;
        merged.flush()?;
    }
    for run in runs.drain(..) {
        std::fs::remove_file(run).ok();
    }
    let directed = edge_count * 2;
    phases.merge_ns = lap.ns();

    // Phase 3: the degree-descending permutation, matching
    // Relabeling::degree_descending key for key.
    let old_to_new: Option<Vec<u32>> = options.relabel.then(|| {
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by_key(|&v| (Reverse(degrees[v as usize]), v));
        let mut inverse = vec![0u32; n];
        for (new, &old) in order.iter().enumerate() {
            inverse[old as usize] = new as u32;
        }
        // `order` is new→old; stash it in place of degrees' role below by
        // returning the inverse and recomputing order from it when the
        // id-map section is written.
        inverse
    });
    let mut offsets: Vec<u32> = Vec::with_capacity(n + 1);
    offsets.push(0);
    match &old_to_new {
        Some(map) => {
            // Permuted degrees: degree of new id i is the degree of the
            // original node mapped to i.
            let mut new_degrees = vec![0u32; n];
            for (old, &new) in map.iter().enumerate() {
                new_degrees[new as usize] = degrees[old];
            }
            let mut total = 0u32;
            for &d in &new_degrees {
                total += d;
                offsets.push(total);
            }
        }
        None => {
            let mut total = 0u32;
            for &d in &degrees {
                total += d;
                offsets.push(total);
            }
        }
    }
    drop(degrees);
    debug_assert_eq!(*offsets.last().unwrap() as usize, directed);

    // Phase 4: scatter directed, relabeled pairs into a second generation
    // of sorted runs.
    let mut directed_runs: Vec<PathBuf> = Vec::new();
    {
        let mut reader = BufReader::with_capacity(SPILL_BUF, File::open(&merged_path)?);
        let mut bytes = [0u8; 8];
        loop {
            match reader.read_exact(&mut bytes) {
                Ok(()) => {}
                Err(e) if e.kind() == ErrorKind::UnexpectedEof => break,
                Err(e) => return Err(e.into()),
            }
            let key = u64::from_le_bytes(bytes);
            let (a, b) = ((key >> 32) as u32, key as u32);
            let (a, b) = match &old_to_new {
                Some(map) => (map[a as usize], map[b as usize]),
                None => (a, b),
            };
            for pair in [pack(a, b), pack(b, a)] {
                chunk.push(pair);
                if chunk.len() == chunk_cap {
                    directed_runs.push(spill_run(&mut tmp, &mut chunk, false, &mut 0)?);
                }
            }
        }
        if !chunk.is_empty() {
            directed_runs.push(spill_run(&mut tmp, &mut chunk, false, &mut 0)?);
        }
    }
    std::fs::remove_file(&merged_path).ok();
    drop(chunk);
    phases.scatter_ns = lap.ns();

    // Phase 5: merge the directed runs straight into the .ocg payload.
    let mut flags = OCG_FLAG_VALIDATED;
    if options.relabel {
        flags |= OCG_FLAG_RELABELED;
    }
    // Stream into a same-directory temp file and rename only once the
    // header is patched and the payload fsynced: a crash mid-build leaves
    // a previous .ocg at `output` (if any) complete and untouched.
    let final_tmp = crate::atomic::temp_path_for(output);
    // Any error between here and the commit removes the temp file.
    struct RemoveOnDrop(Option<std::path::PathBuf>);
    impl Drop for RemoveOnDrop {
        fn drop(&mut self) {
            if let Some(p) = self.0.take() {
                let _ = std::fs::remove_file(p);
            }
        }
    }
    let mut final_guard = RemoveOnDrop(Some(final_tmp.clone()));
    let mut w = BufWriter::with_capacity(SPILL_BUF, File::create(&final_tmp)?);
    w.write_all(&[0u8; crate::ocg::OCG_HEADER_LEN])?;
    let mut fnv = Fnv1a::default();
    write_words(&mut w, &mut fnv, offsets.iter().copied())?;
    drop(offsets);
    {
        let mut pack_buf = [0u8; 4096];
        let mut used = 0usize;
        let mut emitted = 0usize;
        merge_runs(&directed_runs, |key| {
            emitted += 1;
            pack_buf[used..used + 4].copy_from_slice(&(key as u32).to_le_bytes());
            used += 4;
            if used == pack_buf.len() {
                fnv.update(&pack_buf);
                w.write_all(&pack_buf)?;
                used = 0;
            }
            Ok(())
        })?;
        fnv.update(&pack_buf[..used]);
        w.write_all(&pack_buf[..used])?;
        if emitted != directed {
            return Err(GraphError::InvalidFormat {
                message: format!("internal error: emitted {emitted} of {directed} entries"),
            });
        }
    }
    if let Some(map) = &old_to_new {
        // The id-map section stores new→old; invert the inverse.
        let mut new_to_old = vec![0u32; n];
        for (old, &new) in map.iter().enumerate() {
            new_to_old[new as usize] = old as u32;
        }
        write_words(&mut w, &mut fnv, new_to_old.into_iter())?;
    }
    w.flush()?;
    let mut file = w.into_inner().map_err(|e| e.into_error())?;
    let header = encode_header(
        flags,
        node_count,
        directed as u64,
        self_loops,
        duplicates,
        fnv.finish(),
    );
    file.seek(SeekFrom::Start(0))?;
    file.write_all(&header)?;
    file.sync_all()?;
    drop(file);
    crate::atomic::commit_temp_path(&final_tmp, output)?;
    final_guard.0 = None;
    drop(tmp);
    phases.write_ns = lap.ns();

    if options.verify {
        crate::ocg::verify_ocg_path(output)?;
    }
    phases.verify_ns = lap.ns();
    Ok(BuildStats {
        nodes: n,
        edges: edge_count,
        edges_read,
        self_loops,
        duplicates,
        ingest_runs,
        phases,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::ocg::open_ocg_path;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("oca_ocg_build_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Deterministic messy edge list: duplicates, reversals, self-loops.
    fn messy_edges(n: u32, count: usize, seed: u64) -> Vec<(u32, u32)> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..count)
            .map(|_| {
                let u = (next() % n as u64) as u32;
                let v = (next() % n as u64) as u32;
                (u, v)
            })
            .collect()
    }

    #[test]
    fn streamed_build_is_bit_exact_with_in_ram_builder() {
        let edges = messy_edges(300, 4000, 42);
        let path = tmp("bitexact.ocg");
        // Tiny chunks force many runs through both merge generations.
        let options = BuildOptions {
            chunk_edges: 0, // clamped to the 1024 minimum
            min_nodes: 300,
            ..BuildOptions::default()
        };
        let stats = build_ocg_from_edges(edges.iter().copied(), &path, &options).unwrap();
        assert!(stats.ingest_runs > 1, "want a real multi-run merge");

        let mut b = GraphBuilder::new(300);
        b.extend_edges(edges.iter().copied());
        let (report_graph, report) = b.clone().try_build_report().unwrap();
        let (ram_graph, ram_relabeling) = b.build_degree_ordered();
        drop(report_graph);

        let opened = open_ocg_path(&path).unwrap();
        assert_eq!(opened.graph, ram_graph, "CSR must match bit for bit");
        assert_eq!(opened.relabeling().unwrap(), ram_relabeling);
        assert_eq!(stats.self_loops, report.self_loops);
        assert_eq!(stats.duplicates, report.duplicates);
        assert_eq!(stats.edges, ram_graph.edge_count());
        assert_eq!(stats.edges_read, 4000);
        assert_eq!(
            opened.info.checksum,
            crate::ocg::payload_checksum(&ram_graph, Some(&ram_relabeling))
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unrelabeled_build_matches_plain_builder() {
        let edges = messy_edges(64, 500, 7);
        let path = tmp("plainexact.ocg");
        let options = BuildOptions {
            relabel: false,
            min_nodes: 64,
            ..BuildOptions::default()
        };
        build_ocg_from_edges(edges.iter().copied(), &path, &options).unwrap();

        let mut b = GraphBuilder::new(64);
        b.extend_edges(edges.iter().copied());
        let ram = b.build();

        let opened = open_ocg_path(&path).unwrap();
        assert_eq!(opened.graph, ram);
        assert!(opened.relabeling().is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_input_builds_an_empty_graph() {
        let path = tmp("empty.ocg");
        let stats =
            build_ocg_from_edges(std::iter::empty(), &path, &BuildOptions::default()).unwrap();
        assert_eq!(stats.nodes, 0);
        assert_eq!(stats.edges, 0);
        let opened = open_ocg_path(&path).unwrap();
        assert_eq!(opened.graph.node_count(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn min_nodes_pads_isolated_tail() {
        let path = tmp("padded.ocg");
        let options = BuildOptions {
            min_nodes: 10,
            ..BuildOptions::default()
        };
        build_ocg_from_edges([(0, 1)], &path, &options).unwrap();
        let opened = open_ocg_path(&path).unwrap();
        assert_eq!(opened.graph.node_count(), 10);
        assert_eq!(opened.graph.edge_count(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn builds_from_edge_list_file_with_path_in_errors() {
        let input = tmp("input.edges");
        std::fs::write(&input, "# comment\n0 1\n1 2\n0 1\n2 2\n").unwrap();
        let output = tmp("fromfile.ocg");
        let stats = build_ocg_from_path(&input, &output, &BuildOptions::default()).unwrap();
        assert_eq!(stats.edges, 2);
        assert_eq!(stats.duplicates, 1);
        assert_eq!(stats.self_loops, 1);

        let bad = tmp("bad.edges");
        std::fs::write(&bad, "0 zzz\n").unwrap();
        let err = build_ocg_from_path(&bad, &output, &BuildOptions::default()).unwrap_err();
        assert!(err.to_string().contains("bad.edges"), "{err}");
        for p in [input, output, bad] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn emitter_build_matches_iterator_build_and_returns_payload() {
        let edges = messy_edges(80, 900, 13);
        let from_iter = tmp("emitter_iter.ocg");
        let from_emit = tmp("emitter_push.ocg");
        let options = BuildOptions {
            min_nodes: 80,
            ..BuildOptions::default()
        };
        let iter_stats = build_ocg_from_edges(edges.iter().copied(), &from_iter, &options).unwrap();
        let (emit_stats, payload) = build_ocg_from_emitter(
            |emit| {
                for &(u, v) in &edges {
                    emit(u, v);
                }
                "planted"
            },
            &from_emit,
            &options,
        )
        .unwrap();
        assert_eq!(payload, "planted");
        // Everything but the wall times.
        let untimed = |stats| BuildStats {
            phases: BuildPhases::default(),
            ..stats
        };
        assert_eq!(untimed(emit_stats), untimed(iter_stats));
        let a = open_ocg_path(&from_iter).unwrap();
        let b = open_ocg_path(&from_emit).unwrap();
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.info.checksum, b.info.checksum);
        for p in [from_iter, from_emit] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn emitter_build_surfaces_deferred_errors() {
        let path = tmp("emitter_err.ocg");
        let spill_dir = path.with_extension("ocg.tmp");
        // Yank the spill directory out from under the build mid-stream: the
        // first chunk spill fails, the error is stashed, the remaining
        // emits are ignored, and the failure surfaces when the producer
        // returns — the emit closure itself never reports it.
        let err = build_ocg_from_emitter(
            |emit| {
                std::fs::remove_dir_all(&spill_dir).unwrap();
                for i in 0..4096u32 {
                    emit(i, i + 1);
                }
            },
            &path,
            &BuildOptions {
                chunk_edges: 0, // clamped to the 1024 minimum → forces a spill
                ..BuildOptions::default()
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("emitter_err"), "{err}");
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir_all(&spill_dir).ok();
    }

    #[test]
    fn phases_add_up_to_the_elapsed_time() {
        let edges = messy_edges(20_000, 200_000, 3);
        let path = tmp("phases.ocg");
        let options = BuildOptions {
            chunk_edges: 50_000,
            ..BuildOptions::default()
        };
        let start = Instant::now();
        let stats = build_ocg_from_edges(edges.iter().copied(), &path, &options).unwrap();
        let elapsed = start.elapsed().as_nanos() as u64;
        let p = stats.phases;
        for (name, ns) in [
            ("ingest", p.ingest_ns),
            ("merge", p.merge_ns),
            ("scatter", p.scatter_ns),
            ("write", p.write_ns),
            ("verify", p.verify_ns),
        ] {
            assert!(ns > 0, "{name} phase not timed: {p:?}");
        }
        let total = p.total_ns();
        assert!(
            total <= elapsed && total as f64 >= 0.95 * elapsed as f64,
            "phases {p:?} sum to {total} ns of {elapsed} ns"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn u32_boundary_ids_are_rejected() {
        let path = tmp("boundary.ocg");
        let err =
            build_ocg_from_edges([(0, u32::MAX)], &path, &BuildOptions::default()).unwrap_err();
        assert!(err.to_string().contains("2^32"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
