//! External-memory `.ocg` construction: bounded-RAM chunk-sort-merge.
//!
//! [`crate::builder::GraphBuilder`] materializes every raw edge in RAM,
//! which caps ingestion around the machine's memory. This builder streams
//! the edge list instead, keeping only one bounded chunk of edges plus
//! O(n) per-node arrays resident. It is one pipeline whose data lives in
//! RAM when the whole graph fits one chunk and in sorted spill files
//! otherwise:
//!
//! 1. **Normalize + run generation** — each edge is canonicalized to
//!    `(min, max)` (self-loops counted and dropped), packed into a `u64`,
//!    and buffered; each chunk is sorted and deduplicated (duplicates
//!    counted). Full chunks are spilled to disk as sorted runs of 8
//!    bytes/edge. A last chunk that holds every edge stays in RAM when
//!    its `2·m` directed pairs fit one chunk too (`2·m ≤ chunk_edges`);
//!    otherwise it is spilled like the others.
//! 2. **Merge** — a k-way merge of the runs yields the globally sorted,
//!    deduplicated undirected edge set (cross-run duplicates counted
//!    here), writing one merged spill file and accumulating per-node
//!    degrees. In RAM the sorted chunk already is that set, and only the
//!    degrees are counted.
//! 3. **Relabel** — the degree-descending permutation is computed from
//!    the degree array exactly as [`crate::Relabeling::degree_descending`]
//!    does (ties break by ascending original id), so the output is bit-exact
//!    with the in-RAM [`crate::GraphBuilder::build_degree_ordered`] pipeline.
//! 4. **Scatter** — the merged edges are re-read, mapped through the
//!    permutation, emitted as both directed pairs and chunk-sorted by
//!    `(src, dst)` into a second generation of runs. In RAM both
//!    orientations go straight to their rows of one neighbour array, and
//!    each row is then sorted.
//! 5. **Write** — the offsets, the rows (merged from the directed runs, or
//!    the neighbour array as it stands) and the id map stream into the
//!    `.ocg` payload while the FNV-1a checksum accumulates; the header is
//!    patched in afterwards, and the file is fsynced and renamed into
//!    place.
//!
//! Peak memory is `8 B × chunk_edges` for the chunk buffer plus ~`16 B ×
//! node_count` for the degree/permutation arrays — independent of the
//! edge count. In RAM the sorted keys take `8 B × m` and the neighbour
//! array `8 B × m`, within the same bound. A build that fits one chunk
//! writes no spill bytes; a larger one uses about `24 B` per undirected
//! edge of disk (ingest runs + merged spill + directed runs) beyond the
//! output file, in a private directory made at the first spill and
//! removed when the build ends.
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
    /// A graph whose `2·m` directed pairs fit one chunk is built in RAM
    /// with no spill files.
    pub chunk_edges: usize,
    /// Lower bound on the node count, for inputs whose trailing nodes are
    /// isolated (ids are otherwise inferred as `max_id + 1`).
    pub min_nodes: usize,
    /// Apply the degree-descending relabeling and store the id map.
    /// Disable to keep the input's own node numbering.
    pub relabel: bool,
    /// Re-audit the finished file (checksum + full CSR invariant sweep).
    pub verify: bool,
    /// Where spill files go; defaults to `<output>.tmp`. The build makes
    /// a private directory inside it at its first spill and removes only
    /// that directory (and the location itself, if the build created it
    /// and nothing else is in it).
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
    /// Sorted runs ingestion produced: 0 for an empty input, 1 when the
    /// input fit one chunk, more when it did not. A lone run is kept in
    /// RAM, not spilled, when its `2·m` directed pairs fit one chunk too;
    /// `spill_bytes` tells the two apart.
    pub ingest_runs: usize,
    /// Bytes written to spill files: the ingest runs, the merged edge
    /// spill and the directed runs. 0 when the graph was built in RAM.
    pub spill_bytes: u64,
    /// Wall time of each phase of the build.
    pub phases: BuildPhases,
}

/// Wall time of each phase of a build, in nanoseconds. The phases run
/// back to back, so they add up to the build's elapsed time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildPhases {
    /// Reading and parsing the input, canonicalizing each edge, and
    /// sorting and deduplicating each chunk; spilling the ingest runs
    /// when there is more than one chunk's worth.
    pub ingest_ns: u64,
    /// The k-way merge of the ingest runs into the deduplicated edge
    /// spill and the degree array; in RAM, only the degree count over the
    /// sorted chunk.
    pub merge_ns: u64,
    /// The degree-descending permutation, the offsets, and the directed,
    /// relabeled pairs scattered into sorted runs; in RAM, scattered into
    /// the neighbour array, whose rows are then sorted.
    pub scatter_ns: u64,
    /// The payload written (the rows merged from the directed runs, or
    /// copied from the neighbour array), the header, `fsync` and the
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

/// The spill files of one build. They go in a private directory that is
/// created inside `parent` at the first spill, so a build that never
/// spills touches no directory, and concurrent builds sharing `parent`
/// never share files. Dropping it removes the private directory, and
/// `parent` too if the build created it and it is empty; nothing else
/// under `parent` is touched.
struct Spill {
    parent: PathBuf,
    dir: Option<PathBuf>,
    made_parent: bool,
    files: usize,
    /// Bytes written to spill files so far.
    bytes: u64,
}

impl Spill {
    fn new(parent: PathBuf) -> Spill {
        Spill {
            parent,
            dir: None,
            made_parent: false,
            files: 0,
            bytes: 0,
        }
    }

    /// A fresh path in the private directory, made on first use.
    fn next_path(&mut self, name: &str) -> Result<PathBuf> {
        if self.dir.is_none() {
            self.made_parent = !self.parent.is_dir();
            std::fs::create_dir_all(&self.parent)?;
            let mut attempt = 0u32;
            loop {
                let dir = self
                    .parent
                    .join(format!("spill-{}-{attempt}", std::process::id()));
                match std::fs::create_dir(&dir) {
                    Ok(()) => break self.dir = Some(dir),
                    Err(e) if e.kind() == ErrorKind::AlreadyExists => attempt += 1,
                    Err(e) => return Err(e.into()),
                }
            }
        }
        self.files += 1;
        Ok(self
            .dir
            .as_ref()
            .expect("made above")
            .join(format!("{name}{}.bin", self.files)))
    }

    /// Spills sorted keys as a run of little-endian `u64`s.
    fn write_run(&mut self, keys: &[u64]) -> Result<PathBuf> {
        let path = self.next_path("run")?;
        let mut w = BufWriter::with_capacity(SPILL_BUF, File::create(&path)?);
        let mut buf = [0u8; 4096];
        for block in keys.chunks(buf.len() / 8) {
            for (bytes, key) in buf.chunks_exact_mut(8).zip(block) {
                bytes.copy_from_slice(&key.to_le_bytes());
            }
            w.write_all(&buf[..block.len() * 8])?;
        }
        w.flush()?;
        self.bytes += 8 * keys.len() as u64;
        Ok(path)
    }
}

impl Drop for Spill {
    fn drop(&mut self) {
        if let Some(dir) = &self.dir {
            std::fs::remove_dir_all(dir).ok();
            if self.made_parent {
                std::fs::remove_dir(&self.parent).ok();
            }
        }
    }
}

/// Sorts a chunk and drops its repeated keys, adding them to `duplicates`.
fn sort_dedup(chunk: &mut Vec<u64>, duplicates: &mut u64) {
    chunk.sort_unstable();
    let before = chunk.len();
    chunk.dedup();
    *duplicates += (before - chunk.len()) as u64;
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

/// Where the deduplicated undirected edges live after the merge phase.
enum Edges {
    /// Sorted keys in RAM: the input fit one chunk.
    Ram(Vec<u64>),
    /// The merged spill file.
    Spilled(PathBuf),
}

/// Where the directed rows live after the scatter phase.
enum Rows {
    /// The CSR neighbour array, each row sorted.
    Ram(Vec<u32>),
    /// Directed runs sorted by `(src, dst)`, to be merged.
    Spilled(Vec<PathBuf>),
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
    let mut spill = Spill::new(
        options
            .tmp_dir
            .clone()
            .unwrap_or_else(|| output.with_extension("ocg.tmp")),
    );

    // Phase 1: normalize, chunk-sort, spill all but a last chunk that
    // holds the whole graph.
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
                sort_dedup(&mut chunk, &mut duplicates);
                runs.push(spill.write_run(&chunk)?);
                chunk.clear();
            }
            Ok(())
        };
        ingest(&mut sink)?
    };
    sort_dedup(&mut chunk, &mut duplicates);
    let ingest_runs = runs.len() + usize::from(!chunk.is_empty());
    let in_ram = runs.is_empty() && chunk.len() <= chunk_cap / 2;
    if !in_ram && !chunk.is_empty() {
        runs.push(spill.write_run(&chunk)?);
        chunk.clear();
    }

    let inferred = max_id.map_or(0u64, |m| m as u64 + 1);
    let node_count = inferred.max(options.min_nodes as u64);
    if node_count > u32::MAX as u64 {
        return Err(GraphError::TooManyNodes {
            requested: node_count as usize,
        });
    }
    let n = node_count as usize;
    phases.ingest_ns = lap.ns();

    // Phase 2: the deduplicated edge set (merged into a spill file from
    // the runs, or the RAM chunk as it stands) and the degree array.
    let mut degrees = vec![0u32; n];
    let mut edge_count = 0usize;
    let mut count = |key: u64| -> Result<()> {
        edge_count += 1;
        if edge_count > (u32::MAX / 2) as usize {
            return Err(GraphError::TooManyEdges {
                requested: edge_count,
            });
        }
        degrees[(key >> 32) as usize] += 1;
        degrees[key as u32 as usize] += 1;
        Ok(())
    };
    let edges = if in_ram {
        let mut keys = std::mem::take(&mut chunk);
        // Give back the chunk's unused capacity: the keys and the
        // neighbour array then fit the chunk's budget between them.
        keys.shrink_to_fit();
        keys.iter().try_for_each(|&key| count(key))?;
        Edges::Ram(keys)
    } else {
        let merged_path = spill.next_path("merged")?;
        let mut merged = BufWriter::with_capacity(SPILL_BUF, File::create(&merged_path)?);
        let mut last: Option<u64> = None;
        merge_runs(&runs, |key| {
            if last == Some(key) {
                duplicates += 1;
                return Ok(());
            }
            last = Some(key);
            count(key)?;
            merged.write_all(&key.to_le_bytes())?;
            Ok(())
        })?;
        merged.flush()?;
        spill.bytes += 8 * edge_count as u64;
        for run in runs.drain(..) {
            std::fs::remove_file(run).ok();
        }
        Edges::Spilled(merged_path)
    };
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

    // Phase 4: scatter directed, relabeled pairs into the neighbour array
    // or into a second generation of sorted runs.
    let relabel = |key: u64| {
        let (a, b) = ((key >> 32) as u32, key as u32);
        match &old_to_new {
            Some(map) => (map[a as usize], map[b as usize]),
            None => (a, b),
        }
    };
    let rows = match edges {
        Edges::Ram(keys) => {
            let mut next: Vec<u32> = offsets[..n].to_vec();
            let mut neighbors = vec![0u32; directed];
            for &key in &keys {
                let (a, b) = relabel(key);
                neighbors[next[a as usize] as usize] = b;
                next[a as usize] += 1;
                neighbors[next[b as usize] as usize] = a;
                next[b as usize] += 1;
            }
            drop(keys);
            for row in offsets.windows(2) {
                neighbors[row[0] as usize..row[1] as usize].sort_unstable();
            }
            Rows::Ram(neighbors)
        }
        Edges::Spilled(merged_path) => {
            let mut directed_runs: Vec<PathBuf> = Vec::new();
            let mut reader = BufReader::with_capacity(SPILL_BUF, File::open(&merged_path)?);
            let mut bytes = [0u8; 8];
            loop {
                match reader.read_exact(&mut bytes) {
                    Ok(()) => {}
                    Err(e) if e.kind() == ErrorKind::UnexpectedEof => break,
                    Err(e) => return Err(e.into()),
                }
                let (a, b) = relabel(u64::from_le_bytes(bytes));
                for pair in [pack(a, b), pack(b, a)] {
                    chunk.push(pair);
                    if chunk.len() == chunk_cap {
                        chunk.sort_unstable();
                        directed_runs.push(spill.write_run(&chunk)?);
                        chunk.clear();
                    }
                }
            }
            if !chunk.is_empty() {
                chunk.sort_unstable();
                directed_runs.push(spill.write_run(&chunk)?);
            }
            std::fs::remove_file(&merged_path).ok();
            Rows::Spilled(directed_runs)
        }
    };
    drop(chunk);
    phases.scatter_ns = lap.ns();

    // Phase 5: the offsets, the rows and the id map into the .ocg payload.
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
    match rows {
        Rows::Ram(neighbors) => write_words(&mut w, &mut fnv, neighbors.into_iter())?,
        Rows::Spilled(directed_runs) => {
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
    let spill_bytes = spill.bytes;
    drop(spill);
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
        spill_bytes,
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

    /// Builds `edges` on `n` nodes and checks the file against the in-RAM
    /// builder bit for bit: CSR, relabeling, checksum and drop counts.
    fn build_bit_exact(edges: &[(u32, u32)], n: usize, chunk_edges: usize) -> BuildStats {
        let path = tmp(&format!("bitexact_{n}_{}_{chunk_edges}.ocg", edges.len()));
        let options = BuildOptions {
            chunk_edges,
            min_nodes: n,
            ..BuildOptions::default()
        };
        let stats = build_ocg_from_edges(edges.iter().copied(), &path, &options).unwrap();

        let mut b = GraphBuilder::new(n);
        b.extend_edges(edges.iter().copied());
        let (_, report) = b.clone().try_build_report().unwrap();
        let (ram_graph, ram_relabeling) = b.build_degree_ordered();

        let opened = open_ocg_path(&path).unwrap();
        assert_eq!(opened.graph, ram_graph, "CSR must match bit for bit");
        assert_eq!(opened.relabeling().unwrap(), ram_relabeling);
        assert_eq!(stats.self_loops, report.self_loops);
        assert_eq!(stats.duplicates, report.duplicates);
        assert_eq!(stats.edges, ram_graph.edge_count());
        assert_eq!(stats.edges_read, edges.len() as u64);
        assert_eq!(
            opened.info.checksum,
            crate::ocg::payload_checksum(&ram_graph, Some(&ram_relabeling))
        );
        std::fs::remove_file(&path).ok();
        stats
    }

    #[test]
    fn streamed_build_is_bit_exact_with_in_ram_builder() {
        let edges = messy_edges(300, 4000, 42);
        // Tiny chunks (0 is clamped to the 1024 minimum) force many runs
        // through both merge generations.
        let stats = build_bit_exact(&edges, 300, 0);
        assert!(stats.ingest_runs > 1, "want a real multi-run merge");
        assert!(stats.spill_bytes > 0);
        // The default chunk holds it all: built in RAM, nothing spilled.
        let stats = build_bit_exact(&edges, 300, BuildOptions::default().chunk_edges);
        assert_eq!((stats.ingest_runs, stats.spill_bytes), (1, 0));
    }

    /// `m` distinct edges on `n` nodes, each then repeated (reversed) with
    /// probability 1/4, plus `m / 8` self-loops.
    fn distinct_edges_with_repeats(n: u32, m: usize, seed: u64) -> Vec<(u32, u32)> {
        let mut rng = crate::testing::XorShift::new(seed);
        let mut seen = std::collections::HashSet::new();
        let mut edges = Vec::new();
        while edges.len() < m {
            let u = rng.below(n as usize) as u32;
            let v = rng.below(n as usize) as u32;
            if u != v && seen.insert((u.min(v), u.max(v))) {
                edges.push((u, v));
            }
        }
        let repeats: Vec<(u32, u32)> = edges
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 4 == 0)
            .map(|(_, &(u, v))| (v, u))
            .collect();
        edges.extend(repeats);
        edges.extend((0..(m / 8) as u32).map(|i| (i % n, i % n)));
        edges
    }

    #[test]
    fn one_chunk_boundary_is_bit_exact_on_both_sides() {
        // 1024 is the chunk floor. At 2·m = 1024 every directed pair fits
        // one chunk: built in RAM. One edge more and the lone ingest run
        // is spilled, merged and scattered through directed runs.
        let at = build_bit_exact(&distinct_edges_with_repeats(90, 512, 5), 90, 1024);
        assert_eq!((at.edges, at.ingest_runs, at.spill_bytes), (512, 1, 0));
        assert!(at.duplicates > 0 && at.self_loops > 0);
        let over = build_bit_exact(&distinct_edges_with_repeats(90, 513, 5), 90, 1024);
        assert_eq!((over.edges, over.ingest_runs), (513, 1));
        // The ingest run, the merged spill and the directed runs.
        assert_eq!(over.spill_bytes, 8 * 513 * 4);
        assert!(over.duplicates > 0 && over.self_loops > 0);
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
        // A spill location under a regular file cannot be made: the first
        // chunk spill fails, the error is stashed, the remaining emits are
        // ignored, and the failure surfaces when the producer returns —
        // the emit closure itself never reports it.
        let blocker = tmp("emitter_err.blocker");
        std::fs::write(&blocker, b"not a directory").unwrap();
        let err = build_ocg_from_emitter(
            |emit| {
                for i in 0..4096u32 {
                    emit(i, i + 1);
                }
            },
            &path,
            &BuildOptions {
                chunk_edges: 0, // clamped to the 1024 minimum → forces a spill
                tmp_dir: Some(blocker.join("spill")),
                ..BuildOptions::default()
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("emitter_err"), "{err}");
        assert!(!path.exists());
        std::fs::remove_file(&blocker).ok();
    }

    #[test]
    fn tmp_dir_keeps_what_it_held() {
        let dir = tmp("user_spill_dir");
        std::fs::create_dir_all(&dir).unwrap();
        let keep = dir.join("keep.txt");
        std::fs::write(&keep, b"user data").unwrap();
        let edges = messy_edges(200, 3000, 11);
        let path = tmp("user_spill.ocg");
        // The default chunk builds in RAM; 0 (clamped to 1024) spills runs.
        for (chunk_edges, spills) in [(BuildOptions::default().chunk_edges, false), (0, true)] {
            let options = BuildOptions {
                chunk_edges,
                tmp_dir: Some(dir.clone()),
                ..BuildOptions::default()
            };
            let stats = build_ocg_from_edges(edges.iter().copied(), &path, &options).unwrap();
            assert_eq!(stats.spill_bytes > 0, spills);
            assert_eq!(std::fs::read(&keep).unwrap(), b"user data");
            let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
            assert_eq!(left.len(), 1, "only the user's file is left: {left:?}");
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spill_location_is_made_only_to_spill() {
        let path = tmp("lazy_spill.ocg");
        let edges = messy_edges(200, 3000, 17);
        // In RAM nothing is made, so a location that cannot be made is
        // never noticed.
        let blocker = tmp("lazy_spill.blocker");
        std::fs::write(&blocker, b"not a directory").unwrap();
        let options = BuildOptions {
            tmp_dir: Some(blocker.join("spill")),
            ..BuildOptions::default()
        };
        let stats = build_ocg_from_edges(edges.iter().copied(), &path, &options).unwrap();
        assert_eq!(stats.spill_bytes, 0);
        std::fs::remove_file(&blocker).ok();
        // The default location is made to spill, and removed after.
        let options = BuildOptions {
            chunk_edges: 0,
            ..BuildOptions::default()
        };
        let stats = build_ocg_from_edges(edges.iter().copied(), &path, &options).unwrap();
        assert!(stats.spill_bytes > 0);
        assert!(!path.with_extension("ocg.tmp").exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn phases_add_up_to_the_elapsed_time() {
        let edges = messy_edges(20_000, 200_000, 3);
        let path = tmp("phases.ocg");
        // Spilled runs, then one chunk in RAM.
        for chunk_edges in [50_000, BuildOptions::default().chunk_edges] {
            let options = BuildOptions {
                chunk_edges,
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
        }
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
