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
//!    degrees. In RAM the deduplicated chunk already is that set, and only
//!    the degrees are counted.
//! 3. **Relabel** — the degree-descending permutation is computed from
//!    the degree array in the order [`crate::Relabeling::degree_descending`]
//!    gives (ties break by ascending original id), so the output is bit-exact
//!    with the in-RAM [`crate::GraphBuilder::build_degree_ordered`] pipeline.
//! 4. **Scatter** — the merged edges are re-read, mapped through the
//!    permutation, emitted as both directed pairs and chunk-sorted by
//!    `(src, dst)` into a second generation of runs. In RAM both
//!    orientations go straight to their rows of one neighbour array, and
//!    each row is then sorted.
//! 5. **Write** — the offsets, the rows (merged from the directed runs, or
//!    the neighbour array as it stands) and the id map go through the one
//!    `.ocg` writer ([`crate::ocg::write_ocg_path`] uses it too): it
//!    hashes the payload as it writes it, patches the header in
//!    afterwards, and fsyncs and renames the file into place.
//!
//! ## Workers
//!
//! A build runs on the host's available parallelism, capped at 8 workers,
//! and writes the same bytes at any worker count:
//! * **Ingest.** The path builder reads the input in 1 MiB blocks of whole
//!   lines and cuts each block at newlines into one slice per worker. Each
//!   worker parses its slice into its own region of the chunk's free room;
//!   the regions are then closed up in file order, every full chunk is
//!   spilled and the overflow moved to the front, so every run holds the
//!   same edges as a one-thread parse. This is the one parse path for
//!   text. A parse error is the one of the earliest slice with an error,
//!   at its line in the file, raised once the edges before it are taken.
//! * **Sort.** Each chunk is sorted in place on the workers: the keys
//!   below a sampled pivot are moved in front of the rest, and the two
//!   sides are sorted side by side (recursively, one side per share of
//!   the workers). The chunk ends sorted with no merge and no second
//!   buffer; repeats are then dropped in one pass.
//! * **Scatter.** In RAM each worker owns one range of new row ids: it
//!   scans every edge, writes only the entries that fall in its range, and
//!   sorts its own rows. Spilled chunks of directed pairs are sorted like
//!   the ingest chunks.
//! * **Write.** Each block of the payload — an in-RAM section, or 64 Ki
//!   rows as they leave the merge — is hashed on a thread of its own while
//!   the calling thread writes it.
//! * **Verify.** The checksum pass runs on a thread of its own while the
//!   CSR invariants and the id map are checked on the calling thread.
//!
//! The two checksum threads run at every worker count, one worker too.
//!
//! The degree count and the k-way merges of spill files stay on one
//! thread.
//!
//! Peak memory is `8 B × chunk_edges` for the chunk buffer, the room one
//! block of text can fill past it (`(L + 1) / 4` keys for `L` bytes of
//! lines: 2 MiB for a 1 MiB block, which grows only to hold a longer
//! line), and ~`16 B × node_count` for the degree/permutation arrays —
//! independent of the edge count and of the worker count: the workers
//! parse into the buffer's own room and sort the chunk in place. In RAM
//! the sorted keys take `8 B × m` and the neighbour array `8 B × m`,
//! within the same bound. A build that fits one chunk writes no spill
//! bytes; a larger one uses about `24 B` per undirected edge of disk
//! (ingest runs + merged spill + directed runs) beyond the output file, in
//! a private directory made at the first spill and removed when the build
//! ends.
//!
//! The CSR invariants hold by construction (sorted unique rows, both
//! directions emitted), and by default the writer still re-audits the
//! finished file with [`crate::ocg::verify_ocg_path`] before returning.

use crate::error::{GraphError, Result};
use crate::io::{after_lines, for_each_line_block, scan_lines, READ_BLOCK};
use crate::ocg::{write_ocg, Header, OCG_FLAG_RELABELED, OCG_FLAG_VALIDATED};
use crate::par::{default_workers, even_ranges, par_map, split_ranges_mut};
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::fs::File;
use std::io::{BufWriter, ErrorKind, Read, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Spill-file buffer size (per open run).
const SPILL_BUF: usize = 1 << 18;

/// Fewest bytes of lines worth a parse thread of their own.
const MIN_SLICE_BYTES: usize = 512;

/// Fewest keys (or rows) worth a sort or scatter thread of their own.
const MIN_PART: usize = 256;

/// Tuning knobs for the external-memory builder.
#[derive(Debug, Clone)]
pub struct BuildOptions {
    /// Edges buffered in RAM per sorted run (8 bytes each). The chunk
    /// buffer — `8 B × chunk_edges`, plus the room one block of text can
    /// fill past it — dominates the builder's peak RSS.
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
    /// Where spill files go; defaults to `<output>.tmp` (the output's
    /// path with `.tmp` appended). The build makes
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
    /// Worker threads the build ran on: the host's available parallelism,
    /// capped at 8. The output does not depend on it.
    pub workers: usize,
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
    /// deduplicated chunk.
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

/// How many parts of at least [`MIN_PART`] items each `len` items make,
/// up to one per worker.
fn parts_for(len: usize, workers: usize) -> usize {
    workers.min(len.div_ceil(MIN_PART)).max(1)
}

/// Sorts `keys` on up to `workers` threads, in place: the keys below a
/// pivot are moved in front of the rest, and the two sides are sorted side
/// by side, each on its share of the workers. No merge and no second
/// buffer. The pivot is the sample quantile that matches the shares.
fn par_sort(keys: &mut [u64], workers: usize) {
    if workers < 2 || keys.len() < 2 * MIN_PART {
        keys.sort_unstable();
        return;
    }
    const SAMPLES: usize = 64;
    let mut samples: Vec<u64> = (0..SAMPLES)
        .map(|i| keys[(2 * i + 1) * keys.len() / (2 * SAMPLES)])
        .collect();
    samples.sort_unstable();
    let high_workers = workers / 2;
    let pivot = samples[SAMPLES * (workers - high_workers) / workers];
    let split = partition_below(keys, pivot);
    if split == 0 {
        // The pivot is the least key: no split to make.
        keys.sort_unstable();
        return;
    }
    let (low, high) = keys.split_at_mut(split);
    crate::par::join(
        || par_sort(low, workers - high_workers),
        || par_sort(high, high_workers),
    );
}

/// Moves every key below `pivot` in front of the others; returns how many
/// there are.
fn partition_below(keys: &mut [u64], pivot: u64) -> usize {
    let (mut low, mut high) = (0, keys.len());
    loop {
        while low < high && keys[low] < pivot {
            low += 1;
        }
        while low < high && keys[high - 1] >= pivot {
            high -= 1;
        }
        if low == high {
            return low;
        }
        keys.swap(low, high - 1);
    }
}

/// Drops the repeats from the front of sorted `keys`, keeping one copy
/// of each key in order, and returns how many keys are left.
fn dedup_sorted(keys: &mut [u64]) -> usize {
    let Some(first) = keys.windows(2).position(|pair| pair[0] == pair[1]) else {
        return keys.len();
    };
    let mut kept = first + 1;
    for i in first + 2..keys.len() {
        if keys[i] != keys[kept - 1] {
            keys[kept] = keys[i];
            kept += 1;
        }
    }
    kept
}

/// Reads a spilled run back, one block of keys at a time.
struct RunReader {
    file: File,
    block: Box<[u8]>,
    at: usize,
    held: usize,
}

impl RunReader {
    fn open(path: &Path) -> Result<RunReader> {
        Ok(RunReader {
            file: File::open(path)?,
            block: vec![0u8; SPILL_BUF].into_boxed_slice(),
            at: 0,
            held: 0,
        })
    }

    fn refill(&mut self) -> Result<()> {
        self.at = 0;
        self.held = 0;
        while self.held < self.block.len() {
            match self.file.read(&mut self.block[self.held..]) {
                Ok(0) => break,
                Ok(read) => self.held += read,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        if self.held % 8 != 0 {
            return Err(GraphError::InvalidFormat {
                message: "internal error: a spill run ends inside a key".into(),
            });
        }
        Ok(())
    }
}

impl Iterator for RunReader {
    type Item = Result<u64>;

    fn next(&mut self) -> Option<Result<u64>> {
        if self.at == self.held {
            if let Err(e) = self.refill() {
                return Some(Err(e));
            }
            if self.held == 0 {
                return None;
            }
        }
        let bytes = self.block[self.at..self.at + 8]
            .try_into()
            .expect("8 bytes");
        self.at += 8;
        Some(Ok(u64::from_le_bytes(bytes)))
    }
}

/// K-way merges the sorted run files at `paths`, emitting every key in
/// global order (duplicates included — callers dedup where needed). The
/// least head is replaced in place, one sift-down per key.
fn merge_runs(paths: &[PathBuf], mut emit: impl FnMut(u64) -> Result<()>) -> Result<()> {
    let mut runs = paths
        .iter()
        .map(|path| RunReader::open(path))
        .collect::<Result<Vec<_>>>()?;
    let mut heap = BinaryHeap::with_capacity(runs.len());
    for (i, run) in runs.iter_mut().enumerate() {
        if let Some(key) = run.next().transpose()? {
            heap.push(Reverse((key, i)));
        }
    }
    while let Some(mut top) = heap.peek_mut() {
        let Reverse((key, i)) = *top;
        emit(key)?;
        match runs[i].next().transpose()? {
            Some(next) => *top = Reverse((next, i)),
            None => {
                PeekMut::pop(top);
            }
        }
    }
    Ok(())
}

#[inline]
fn pack(hi: u32, lo: u32) -> u64 {
    (hi as u64) << 32 | lo as u64
}

/// Run generation: the chunk being filled, the runs spilled so far and
/// what ingestion has counted.
struct Chunker<'a> {
    /// The chunk is `keys[..filled]`; the rest is room for it to fill.
    /// A block of text may fill it past `cap` (the buffer grows to hold
    /// the block's room); the whole chunks are spilled after the block.
    /// The buffer is allocated zeroed, so a page of its first `cap` keys
    /// takes memory only once a key is written there.
    keys: Vec<u64>,
    filled: usize,
    cap: usize,
    workers: usize,
    spill: &'a mut Spill,
    runs: Vec<PathBuf>,
    edges_read: u64,
    /// Lines of text parsed so far, to number a parse error.
    lines: usize,
    self_loops: u64,
    duplicates: u64,
    max_id: Option<u32>,
}

/// What one worker found in its slice of a block.
struct SliceScan {
    /// Keys written to the front of the worker's region.
    stored: usize,
    self_loops: u64,
    max_id: Option<u32>,
    /// Lines scanned, or the parse error that stopped the scan.
    lines: Result<usize>,
}

/// Parses `slice` into `region`, which holds room for every edge it can
/// have.
fn scan_slice(slice: &[u8], region: &mut [u64]) -> SliceScan {
    let (mut stored, mut self_loops, mut max_id) = (0, 0, None::<u32>);
    let lines = scan_lines(slice, |u, v| {
        if u == v {
            self_loops += 1;
        } else {
            max_id = Some(max_id.map_or(u.max(v), |m| m.max(u).max(v)));
            region[stored] = pack(u.min(v), u.max(v));
            stored += 1;
        }
        Ok(())
    });
    SliceScan {
        stored,
        self_loops,
        max_id,
        lines,
    }
}

/// `text`, whole lines, cut at newlines into `parts` slices of about equal
/// length (some empty when lines are long).
pub(crate) fn line_slices(text: &[u8], parts: usize) -> Vec<&[u8]> {
    let mut slices = Vec::with_capacity(parts);
    let mut start = 0;
    for j in 1..parts {
        let target = (j * text.len() / parts).max(start);
        let end = text[target..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(text.len(), |at| target + at + 1);
        slices.push(&text[start..end]);
        start = end;
    }
    slices.push(&text[start..]);
    slices
}

impl<'a> Chunker<'a> {
    fn new(cap: usize, workers: usize, spill: &'a mut Spill) -> Chunker<'a> {
        Chunker {
            keys: vec![0; cap],
            filled: 0,
            cap,
            workers,
            spill,
            runs: Vec::new(),
            edges_read: 0,
            lines: 0,
            self_loops: 0,
            duplicates: 0,
            max_id: None,
        }
    }

    /// Takes one raw edge.
    fn push(&mut self, u: u32, v: u32) -> Result<()> {
        self.edges_read += 1;
        if u == v {
            self.self_loops += 1;
            return Ok(());
        }
        self.max_id = Some(self.max_id.map_or(u.max(v), |m| m.max(u).max(v)));
        self.keys[self.filled] = pack(u.min(v), u.max(v));
        self.filled += 1;
        if self.filled == self.cap {
            self.spill_full_chunks()?;
        }
        Ok(())
    }

    /// Takes a block of whole lines of edge-list text, cut into one slice
    /// per worker. Each worker parses its slice into its own region of the
    /// room past the chunk's fill; the regions are then closed up in file
    /// order, and every full chunk is spilled. A parse error is raised
    /// after the edges before it are taken, as a one-thread parse would.
    fn scan_text(&mut self, text: &[u8]) -> Result<()> {
        let parts = self.workers.min(1 + text.len() / MIN_SLICE_BYTES);
        let slices = line_slices(text, parts);
        // "0 1\n" is the shortest edge line, so a slice of `L` bytes has at
        // most `(L + 1) / 4` edges: its region holds that many keys.
        let mut reserved = 0;
        let regions: Vec<Range<usize>> = slices
            .iter()
            .map(|slice| {
                let start = reserved;
                reserved += (slice.len() + 1) / 4;
                start..reserved
            })
            .collect();
        let base = self.filled;
        if self.keys.len() < base + reserved {
            self.keys.reserve_exact(base + reserved - self.keys.len());
            self.keys.resize(base + reserved, 0);
        }
        let shares = split_ranges_mut(&mut self.keys[base..base + reserved], &regions);
        let scans = par_map(
            slices.into_iter().zip(shares).collect(),
            |(slice, region)| scan_slice(slice, region),
        );
        let mut failed = None;
        for (scan, region) in scans.into_iter().zip(regions) {
            let start = base + region.start;
            self.keys
                .copy_within(start..start + scan.stored, self.filled);
            self.filled += scan.stored;
            self.edges_read += scan.stored as u64 + scan.self_loops;
            self.self_loops += scan.self_loops;
            self.max_id = self.max_id.max(scan.max_id);
            match scan.lines {
                Ok(lines) => self.lines += lines,
                Err(e) => {
                    failed = Some(after_lines(e, self.lines));
                    break;
                }
            }
        }
        self.spill_full_chunks()?;
        failed.map_or(Ok(()), Err)
    }

    /// Sorts `keys[range]` and drops its repeats, counting them as
    /// duplicates; returns how many keys are left at `range.start`.
    fn sort_dedup(&mut self, range: Range<usize>) -> usize {
        let keys = &mut self.keys[range];
        par_sort(keys, self.workers);
        let unique = dedup_sorted(keys);
        self.duplicates += (keys.len() - unique) as u64;
        unique
    }

    /// Spills each whole chunk of the filled keys, in order, as a sorted
    /// run, and moves what is left to the front.
    fn spill_full_chunks(&mut self) -> Result<()> {
        let mut start = 0;
        while self.filled - start >= self.cap {
            let unique = self.sort_dedup(start..start + self.cap);
            let run = self.spill.write_run(&self.keys[start..start + unique])?;
            self.runs.push(run);
            start += self.cap;
        }
        if start > 0 {
            self.keys.copy_within(start..self.filled, 0);
            self.filled -= start;
        }
        Ok(())
    }

    /// Ends ingestion with the last chunk: kept in RAM when it is the only
    /// one and its `2·m` directed pairs fit a chunk, spilled otherwise.
    fn finish(mut self) -> Result<Ingested> {
        self.filled = self.sort_dedup(0..self.filled);
        let ingest_runs = self.runs.len() + usize::from(self.filled > 0);
        let in_ram = self.runs.is_empty() && self.filled <= self.cap / 2;
        let mut keys = std::mem::take(&mut self.keys);
        let edges = if in_ram {
            keys.truncate(self.filled);
            // Give back the chunk's unused capacity: the keys and the
            // neighbour array then fit the chunk's budget between them.
            keys.shrink_to_fit();
            Keys::Ram(keys)
        } else {
            if self.filled > 0 {
                let run = self.spill.write_run(&keys[..self.filled])?;
                self.runs.push(run);
            }
            keys.clear();
            Keys::Runs {
                runs: self.runs,
                chunk: keys,
            }
        };
        Ok(Ingested {
            edges,
            ingest_runs,
            edges_read: self.edges_read,
            self_loops: self.self_loops,
            duplicates: self.duplicates,
            max_id: self.max_id,
        })
    }
}

/// The deduplicated undirected edges after ingestion.
enum Keys {
    /// Sorted, in RAM: the input fit one chunk.
    Ram(Vec<u64>),
    /// Sorted runs to merge, and the chunk's buffer, empty, for the
    /// directed runs.
    Runs { runs: Vec<PathBuf>, chunk: Vec<u64> },
}

/// What ingestion hands on to the later phases.
struct Ingested {
    edges: Keys,
    ingest_runs: usize,
    edges_read: u64,
    self_loops: u64,
    duplicates: u64,
    max_id: Option<u32>,
}

/// The deduplicated undirected edges after the merge phase.
enum Edges {
    /// Sorted, in RAM.
    Ram(Vec<u64>),
    /// The merged spill file, sorted, and the chunk's buffer, empty, for
    /// the directed runs.
    Spilled { merged: PathBuf, chunk: Vec<u64> },
}

/// Where the directed rows live after the scatter phase.
enum Rows {
    /// The CSR neighbour array, each row sorted.
    Ram(Vec<u32>),
    /// Directed runs sorted by `(src, dst)`, to be merged.
    Spilled(Vec<PathBuf>),
}

/// The nodes in degree-descending order, ties by ascending id — the order
/// [`crate::Relabeling::degree_descending`] sorts them into — by a
/// counting sort on the degree.
fn degree_order(degrees: &[u32]) -> Vec<u32> {
    let max = degrees.iter().copied().max().unwrap_or(0) as usize;
    // `next[d]`: where the next node of degree `d` goes.
    let mut next = vec![0u32; max + 1];
    for &d in degrees {
        next[d as usize] += 1;
    }
    let mut start = 0;
    for slot in next.iter_mut().rev() {
        let count = *slot;
        *slot = start;
        start += count;
    }
    let mut order = vec![0u32; degrees.len()];
    for (v, &d) in degrees.iter().enumerate() {
        order[next[d as usize] as usize] = v as u32;
        next[d as usize] += 1;
    }
    order
}

/// The inverse of the permutation `perm`.
fn invert(perm: &[u32]) -> Vec<u32> {
    let mut inverse = vec![0u32; perm.len()];
    for (i, &p) in perm.iter().enumerate() {
        inverse[p as usize] = i as u32;
    }
    inverse
}

/// Rows `0..n` cut into `parts` ranges holding about equal numbers of
/// entries.
fn row_ranges(offsets: &[u32], parts: usize) -> Vec<Range<usize>> {
    let n = offsets.len() - 1;
    let total = offsets[n] as u64;
    let mut start = 0;
    (1..=parts)
        .map(|j| {
            let end = if j == parts {
                n
            } else {
                let target = j as u64 * total / parts as u64;
                offsets
                    .partition_point(|&o| (o as u64) < target)
                    .clamp(start, n)
            };
            let rows = start..end;
            start = end;
            rows
        })
        .collect()
}

/// The neighbour array of the edges `keys`: each worker owns one range of
/// rows, scans every edge for the entries that fall in it, and sorts its
/// rows.
fn scatter_rows(keys: &[u64], offsets: &[u32], workers: usize) -> Vec<u32> {
    let n = offsets.len() - 1;
    let mut neighbors = vec![0u32; offsets[n] as usize];
    let rows = row_ranges(offsets, parts_for(n, workers));
    let entries: Vec<Range<usize>> = rows
        .iter()
        .map(|r| offsets[r.start] as usize..offsets[r.end] as usize)
        .collect();
    let shares = split_ranges_mut(&mut neighbors, &entries);
    par_map(rows.into_iter().zip(shares).collect(), |(rows, share)| {
        let row_offsets = &offsets[rows.start..=rows.end];
        let base = row_offsets[0];
        let mut next: Vec<u32> = row_offsets[..rows.len()]
            .iter()
            .map(|&o| o - base)
            .collect();
        let (first, span) = (rows.start as u32, rows.len() as u32);
        for &key in keys {
            let (a, b) = ((key >> 32) as u32, key as u32);
            for (row, neighbor) in [(a, b), (b, a)] {
                let at = row.wrapping_sub(first);
                if at < span {
                    let slot = &mut next[at as usize];
                    share[*slot as usize] = neighbor;
                    *slot += 1;
                }
            }
        }
        for row in row_offsets.windows(2) {
            share[(row[0] - base) as usize..(row[1] - base) as usize].sort_unstable();
        }
    });
    neighbors
}

/// Builds a `.ocg` file from a plain-text edge-list file, or a named pipe
/// such as `/dev/stdin` (gzip-compressed input is refused: pipe it through
/// `zcat` instead). Input-side errors carry the input path, everything
/// else the output path.
pub fn build_ocg_from_path<P: AsRef<Path>, Q: AsRef<Path>>(
    input: P,
    output: Q,
    options: &BuildOptions,
) -> Result<BuildStats> {
    build_ocg_from_path_on(
        input.as_ref(),
        output.as_ref(),
        options,
        default_workers(),
        READ_BLOCK,
    )
}

/// [`build_ocg_from_path`] on `workers` worker threads, reading the input
/// in blocks of whole lines of about `block_len` bytes.
pub(crate) fn build_ocg_from_path_on(
    input: &Path,
    output: &Path,
    options: &BuildOptions,
    workers: usize,
    block_len: usize,
) -> Result<BuildStats> {
    build_ocg_with(
        |chunker| {
            File::open(input)
                .map_err(GraphError::from)
                .and_then(|reader| {
                    for_each_line_block(reader, block_len, |text| chunker.scan_text(text))
                })
                .map_err(|e| e.with_path(input))
        },
        output,
        options,
        workers,
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
    build_ocg_from_edges_on(edges, output.as_ref(), options, default_workers())
}

/// [`build_ocg_from_edges`] on `workers` worker threads.
pub(crate) fn build_ocg_from_edges_on(
    edges: impl IntoIterator<Item = (u32, u32)>,
    output: &Path,
    options: &BuildOptions,
    workers: usize,
) -> Result<BuildStats> {
    build_ocg_with(
        |chunker| edges.into_iter().try_for_each(|(u, v)| chunker.push(u, v)),
        output,
        options,
        workers,
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
        |chunker| {
            payload = Some(produce(&mut |u, v| {
                if deferred.is_none() {
                    if let Err(e) = chunker.push(u, v) {
                        deferred = Some(e);
                    }
                }
            }));
            deferred.take().map_or(Ok(()), Err)
        },
        output.as_ref(),
        options,
        default_workers(),
    )?;
    Ok((stats, payload.expect("produce ran to completion")))
}

/// Core pipeline; `ingest` drives the edges into the chunker.
fn build_ocg_with<F>(
    ingest: F,
    output: &Path,
    options: &BuildOptions,
    workers: usize,
) -> Result<BuildStats>
where
    F: FnOnce(&mut Chunker) -> Result<()>,
{
    build_inner(ingest, output, options, workers.max(1)).map_err(|e| e.with_path(output))
}

fn build_inner<F>(
    ingest: F,
    output: &Path,
    options: &BuildOptions,
    workers: usize,
) -> Result<BuildStats>
where
    F: FnOnce(&mut Chunker) -> Result<()>,
{
    let mut lap = Lap(Instant::now());
    let mut phases = BuildPhases::default();
    let chunk_cap = options.chunk_edges.max(1024);
    let mut spill = Spill::new(options.tmp_dir.clone().unwrap_or_else(|| {
        let mut dir = output.as_os_str().to_owned();
        dir.push(".tmp");
        dir.into()
    }));

    // Phase 1: parse, normalize, chunk-sort, spill all but a last chunk
    // that holds the whole graph.
    let mut chunker = Chunker::new(chunk_cap, workers, &mut spill);
    ingest(&mut chunker)?;
    let ingested = chunker.finish()?;
    let mut duplicates = ingested.duplicates;
    let inferred = ingested.max_id.map_or(0u64, |m| m as u64 + 1);
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
    const MAX_EDGES: usize = (u32::MAX / 2) as usize;
    let too_many = || GraphError::TooManyEdges {
        requested: MAX_EDGES + 1,
    };
    let (edges, degrees, edge_count) = match ingested.edges {
        Keys::Ram(keys) => {
            if keys.len() > MAX_EDGES {
                return Err(too_many());
            }
            let mut degrees = vec![0u32; n];
            for &key in &keys {
                degrees[(key >> 32) as usize] += 1;
                degrees[key as u32 as usize] += 1;
            }
            let edge_count = keys.len();
            (Edges::Ram(keys), degrees, edge_count)
        }
        Keys::Runs { runs, chunk } => {
            let mut degrees = vec![0u32; n];
            let mut edge_count = 0usize;
            let merged_path = spill.next_path("merged")?;
            let mut merged = BufWriter::with_capacity(SPILL_BUF, File::create(&merged_path)?);
            let mut last: Option<u64> = None;
            merge_runs(&runs, |key| {
                if last == Some(key) {
                    duplicates += 1;
                    return Ok(());
                }
                last = Some(key);
                edge_count += 1;
                if edge_count > MAX_EDGES {
                    return Err(too_many());
                }
                degrees[(key >> 32) as usize] += 1;
                degrees[key as u32 as usize] += 1;
                merged.write_all(&key.to_le_bytes())?;
                Ok(())
            })?;
            merged.flush()?;
            spill.bytes += 8 * edge_count as u64;
            for run in runs {
                std::fs::remove_file(run).ok();
            }
            let merged = Edges::Spilled {
                merged: merged_path,
                chunk,
            };
            (merged, degrees, edge_count)
        }
    };
    let directed = edge_count * 2;
    phases.merge_ns = lap.ns();

    // Phase 3: the degree-descending permutation, the offsets of the
    // relabeled rows, and the permutation's inverse (old → new) for the
    // scatter.
    let order: Option<Vec<u32>> = options.relabel.then(|| degree_order(&degrees));
    let mut offsets: Vec<u32> = Vec::with_capacity(n + 1);
    offsets.push(0);
    let mut total = 0u32;
    for row in 0..n {
        total += match &order {
            Some(order) => degrees[order[row] as usize],
            None => degrees[row],
        };
        offsets.push(total);
    }
    drop(degrees);
    debug_assert_eq!(*offsets.last().unwrap() as usize, directed);
    let old_to_new = order.map(|order| invert(&order));

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
        Edges::Ram(mut keys) => {
            if old_to_new.is_some() {
                let ranges = even_ranges(keys.len(), parts_for(keys.len(), workers));
                par_map(split_ranges_mut(&mut keys, &ranges), |part| {
                    for key in part {
                        let (a, b) = relabel(*key);
                        *key = pack(a, b);
                    }
                });
            }
            let neighbors = scatter_rows(&keys, &offsets, workers);
            drop(keys);
            Rows::Ram(neighbors)
        }
        Edges::Spilled { merged, mut chunk } => {
            let mut directed_runs: Vec<PathBuf> = Vec::new();
            let mut spill_chunk = |chunk: &mut Vec<u64>| -> Result<()> {
                par_sort(chunk, workers);
                directed_runs.push(spill.write_run(chunk)?);
                chunk.clear();
                Ok(())
            };
            for key in RunReader::open(&merged)? {
                let (a, b) = relabel(key?);
                for pair in [pack(a, b), pack(b, a)] {
                    chunk.push(pair);
                    if chunk.len() == chunk_cap {
                        spill_chunk(&mut chunk)?;
                    }
                }
            }
            if !chunk.is_empty() {
                spill_chunk(&mut chunk)?;
            }
            std::fs::remove_file(&merged).ok();
            Rows::Spilled(directed_runs)
        }
    };
    // The id-map section stores new → old.
    let new_to_old = old_to_new.map(|map| invert(&map));
    phases.scatter_ns = lap.ns();

    // Phase 5: the offsets, the rows and the id map into the .ocg payload.
    let mut flags = OCG_FLAG_VALIDATED;
    if options.relabel {
        flags |= OCG_FLAG_RELABELED;
    }
    let header = Header {
        flags,
        node_count,
        directed_len: directed as u64,
        self_loops: ingested.self_loops,
        duplicates,
        checksum: 0,
    };
    write_ocg(output, header, |payload| -> Result<()> {
        payload.words(&offsets)?;
        match rows {
            Rows::Ram(neighbors) => payload.words(&neighbors)?,
            Rows::Spilled(directed_runs) => {
                // The rows leave the merge a block at a time.
                const BLOCK: usize = SPILL_BUF / 4;
                let mut block: Vec<u32> = Vec::with_capacity(BLOCK);
                let mut emitted = 0usize;
                merge_runs(&directed_runs, |key| {
                    block.push(key as u32);
                    if block.len() == BLOCK {
                        payload.words(&block)?;
                        emitted += block.len();
                        block.clear();
                    }
                    Ok(())
                })?;
                payload.words(&block)?;
                emitted += block.len();
                if emitted != directed {
                    return Err(GraphError::InvalidFormat {
                        message: format!("internal error: emitted {emitted} of {directed} entries"),
                    });
                }
            }
        }
        if let Some(map) = &new_to_old {
            payload.words(map)?;
        }
        Ok(())
    })?;
    drop(offsets);
    drop(new_to_old);
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
        edges_read: ingested.edges_read,
        self_loops: ingested.self_loops,
        duplicates,
        ingest_runs: ingested.ingest_runs,
        spill_bytes,
        workers,
        phases,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::ocg::{open_ocg_path, write_ocg_path};

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

    /// Builds `edges` on `n` nodes and checks the file, byte for byte,
    /// against `write_ocg_path` of the in-RAM builder's degree-ordered
    /// graph and drop counts.
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
        let reference = path.with_extension("ref.ocg");
        write_ocg_path(&ram_graph, Some(&ram_relabeling), report, &reference).unwrap();

        assert!(std::fs::read(&path).unwrap() == std::fs::read(&reference).unwrap());
        assert_eq!(stats.self_loops, report.self_loops);
        assert_eq!(stats.duplicates, report.duplicates);
        assert_eq!(stats.edges, ram_graph.edge_count());
        assert_eq!(stats.edges_read, edges.len() as u64);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&reference).ok();
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
        let (ram, report) = b.try_build_report().unwrap();
        let reference = tmp("plainexact.ref.ocg");
        write_ocg_path(&ram, None, report, &reference).unwrap();

        assert!(std::fs::read(&path).unwrap() == std::fs::read(&reference).unwrap());
        assert!(open_ocg_path(&path).unwrap().relabeling().is_none());
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&reference).ok();
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
        // The default location is `<output>.tmp`, for an output that does
        // not end in `.ocg` too.
        let path = tmp("lazy_spill.bin");
        let location = tmp("lazy_spill.bin.tmp");
        let edges = messy_edges(200, 3000, 17);
        // A file where the location would be made: in RAM nothing is
        // made, so it is never noticed, and a build that spills fails.
        std::fs::write(&location, b"not a directory").unwrap();
        let stats =
            build_ocg_from_edges(edges.iter().copied(), &path, &BuildOptions::default()).unwrap();
        assert_eq!(stats.spill_bytes, 0);
        let spilling = BuildOptions {
            chunk_edges: 0,
            ..BuildOptions::default()
        };
        build_ocg_from_edges(edges.iter().copied(), &path, &spilling).unwrap_err();
        std::fs::remove_file(&location).unwrap();
        // The location is made to spill, and removed after.
        let stats = build_ocg_from_edges(edges.iter().copied(), &path, &spilling).unwrap();
        assert!(stats.spill_bytes > 0);
        assert!(!location.exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn phases_add_up_to_the_elapsed_time() {
        let edges = messy_edges(20_000, 200_000, 3);
        let path = tmp("phases.ocg");
        // Spilled runs, then one chunk in RAM, on one worker and on three.
        for (chunk_edges, workers) in [50_000, BuildOptions::default().chunk_edges]
            .into_iter()
            .flat_map(|chunk| [(chunk, 1), (chunk, 3)])
        {
            let options = BuildOptions {
                chunk_edges,
                ..BuildOptions::default()
            };
            let start = Instant::now();
            let stats =
                build_ocg_from_edges_on(edges.iter().copied(), &path, &options, workers).unwrap();
            let elapsed = start.elapsed().as_nanos() as u64;
            assert_eq!(stats.workers, workers);
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
    fn parallel_sort_and_dedup_match_one_thread() {
        let mut rng = crate::testing::XorShift::new(7);
        let random: Vec<u64> = (0..5000).map(|_| rng.next_u64()).collect();
        let repeats: Vec<u64> = (0..5000).map(|_| rng.below(40) as u64).collect();
        let sorted: Vec<u64> = (0..5000).collect();
        let reversed: Vec<u64> = (0..5000).rev().collect();
        let least_repeated: Vec<u64> = (0..5000).map(|i| if i % 5 == 0 { i } else { 0 }).collect();
        for keys in [
            random,
            repeats,
            sorted,
            reversed,
            least_repeated,
            vec![9; 5000],
            vec![],
        ] {
            let mut want = keys.clone();
            want.sort_unstable();
            want.dedup();
            for workers in [1, 2, 3, 8] {
                let mut got = keys.clone();
                par_sort(&mut got, workers);
                let kept = dedup_sorted(&mut got);
                assert_eq!(&got[..kept], &want[..], "{workers} workers");
            }
        }
    }

    /// A messy edge list of `lines` lines on `n` nodes: comments, blank and
    /// whitespace-only lines, CRLF endings, tabs, extra fields, self-loops
    /// and duplicates; the last line ends in a newline only when
    /// `trailing_newline`.
    fn messy_text(lines: usize, n: usize, seed: u64, trailing_newline: bool) -> Vec<u8> {
        let mut rng = crate::testing::XorShift::new(seed);
        let mut text = Vec::new();
        for i in 0..lines {
            match rng.below(40) {
                0 => text.extend_from_slice(b"# a comment line"),
                1 => text.extend_from_slice(b"% 1 2"),
                2 => {}
                3 => text.extend_from_slice(b" \t "),
                k => {
                    let u = rng.below(n);
                    let v = if k < 6 { u } else { rng.below(n) };
                    let sep = [" ", "\t", "  "][rng.below(3)].as_bytes();
                    text.extend_from_slice(format!("{u}").as_bytes());
                    text.extend_from_slice(sep);
                    text.extend_from_slice(format!("{v}").as_bytes());
                    if k == 6 {
                        text.extend_from_slice(b" 0.5");
                    }
                }
            }
            if i + 1 < lines || trailing_newline {
                let eol: &[u8] = if rng.below(4) == 0 { b"\r\n" } else { b"\n" };
                text.extend_from_slice(eol);
            }
        }
        text
    }

    /// Everything but the wall times and the worker count.
    fn unthreaded(stats: BuildStats) -> BuildStats {
        BuildStats {
            workers: 0,
            phases: BuildPhases::default(),
            ..stats
        }
    }

    #[test]
    fn output_is_the_same_at_every_worker_count() {
        for case in 0..crate::testing::cases(2) as u64 {
            let text = messy_text(6000, 1500, case, case % 2 == 0);
            let plain = tmp(&format!("workers_{case}.edges"));
            std::fs::write(&plain, &text).unwrap();
            // The in-RAM reader's view of the same input: the reference.
            let (graph, report) = crate::io::read_edge_list_path(&plain).unwrap();
            let relabeling = crate::Relabeling::degree_descending(&graph);
            let reference_path = tmp(&format!("workers_{case}.ref.ocg"));
            let drops = crate::builder::BuildReport {
                self_loops: report.self_loops,
                duplicates: report.duplicates,
            };
            let graph = graph.relabeled(&relabeling);
            write_ocg_path(&graph, Some(&relabeling), drops, &reference_path).unwrap();
            let reference = std::fs::read(&reference_path).unwrap();
            let output = tmp(&format!("workers_{case}.ocg"));
            // The default chunk builds in RAM; the 1024 floor spills runs.
            for (chunk_edges, spills) in [(BuildOptions::default().chunk_edges, false), (0, true)] {
                let options = BuildOptions {
                    chunk_edges,
                    ..BuildOptions::default()
                };
                let mut first: Option<(Vec<u8>, BuildStats)> = None;
                // Whole-input blocks, blocks cut across lines, and blocks
                // shorter than a line.
                let runs = [READ_BLOCK, 4096, 5]
                    .into_iter()
                    .flat_map(|block_len| [1, 2, 3, 8].map(|workers| (block_len, workers)));
                for (block_len, workers) in runs {
                    let stats =
                        build_ocg_from_path_on(&plain, &output, &options, workers, block_len)
                            .unwrap();
                    let bytes = std::fs::read(&output).unwrap();
                    assert_eq!(stats.workers, workers);
                    assert_eq!(stats.spill_bytes > 0, spills, "{stats:?}");
                    match &first {
                        None => {
                            assert!(bytes == reference, "not the in-RAM reader's bytes");
                            assert_eq!(
                                (stats.edges_read, stats.self_loops, stats.duplicates),
                                (report.edges_read, report.self_loops, report.duplicates)
                            );
                            first = Some((bytes, stats));
                        }
                        Some((want, want_stats)) => {
                            let at = format!(
                                "{workers} workers, chunk {chunk_edges}, block {block_len}"
                            );
                            assert!(bytes == *want, "{at}: other bytes");
                            assert_eq!(unthreaded(stats), unthreaded(*want_stats), "{at}");
                        }
                    }
                }
            }
            for p in [plain, output, reference_path] {
                std::fs::remove_file(p).ok();
            }
        }
    }

    /// The error (or success) of a split parse of `bytes`, against the
    /// `read_line` parser's.
    fn assert_parse_outcome_like_the_oracle(
        bytes: &[u8],
        workers: usize,
        chunk_edges: usize,
        block_len: usize,
    ) {
        let input = tmp(&format!("split_{workers}.edges"));
        let output = tmp(&format!("split_{workers}.ocg"));
        std::fs::write(&input, bytes).unwrap();
        let options = BuildOptions {
            chunk_edges,
            ..BuildOptions::default()
        };
        let got = build_ocg_from_path_on(&input, &output, &options, workers, block_len)
            .map(|_| ())
            .map_err(|e| e.to_string());
        let want = crate::io::tests::for_each_edge_oracle(bytes, |_, _| Ok(()))
            .map(|_| ())
            .map_err(|e| e.with_path(&input).to_string());
        assert_eq!(
            got,
            want,
            "{workers} workers, chunk {chunk_edges}, block {block_len}: {:?}",
            bytes.escape_ascii().to_string()
        );
        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&output).ok();
    }

    #[test]
    fn split_parse_errors_match_the_oracle_around_every_split_point() {
        const WINDOW: usize = 12;
        for case in 0..crate::testing::cases(1) as u64 {
            let text = messy_text(700, 5000, 100 + case, true);
            for workers in [2, 3, 8] {
                let parts = workers.min(1 + text.len() / MIN_SLICE_BYTES);
                let slices = line_slices(&text, parts);
                assert_eq!(slices.len(), workers, "text too short to use every worker");
                let mut cut = 0;
                for slice in &slices[..workers - 1] {
                    cut += slice.len();
                    // One byte made an `x` at every offset around the cut:
                    // a bad id on the line before, on the line after, or
                    // two lines joined into one bad line.
                    for at in cut - WINDOW..cut + WINDOW {
                        let mut bad = text.clone();
                        bad[at] = b'x';
                        assert_parse_outcome_like_the_oracle(&bad, workers, 1 << 20, READ_BLOCK);
                    }
                }
            }
            // Bad lines in the second and third slices: the second's is
            // reported, at its line number.
            let slices = line_slices(&text, 3);
            let edge_line_in = |start: usize| {
                let mut at = start;
                while !(text[at - 1] == b'\n' && text[at].is_ascii_digit()) {
                    at += 1;
                }
                at
            };
            let second = edge_line_in(slices[0].len() + 1);
            let third = edge_line_in(slices[0].len() + slices[1].len() + 1);
            let mut bad = text.clone();
            bad[second] = b'x';
            bad[third] = b'x';
            assert_parse_outcome_like_the_oracle(&bad, 3, 1 << 20, READ_BLOCK);
            let input = tmp("two_bad.edges");
            std::fs::write(&input, &bad).unwrap();
            let err = build_ocg_from_path_on(
                &input,
                &tmp("two_bad.ocg"),
                &BuildOptions::default(),
                3,
                READ_BLOCK,
            )
            .unwrap_err();
            let line = 1 + bad[..second].iter().filter(|&&b| b == b'\n').count();
            assert!(err.to_string().contains(&format!("line {line}:")), "{err}");
            std::fs::remove_file(&input).ok();
            // At the chunk floor one block's edges fill several chunks, each
            // spilled before the error is raised; across blocks the line
            // numbers carry on from the block before.
            for at in (0..text.len()).step_by(97) {
                let mut bad = text.clone();
                bad[at] = b'x';
                assert_parse_outcome_like_the_oracle(&bad, 3, 0, READ_BLOCK);
                assert_parse_outcome_like_the_oracle(&bad, 3, 1 << 20, 1000);
            }
        }
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
