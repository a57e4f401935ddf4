//! Every on-disk decoder handles arbitrary bytes without panicking.
//!
//! One property drives all three formats — `.ocg` (open and full verify),
//! binary covers and `.ockpt` checkpoints — with byte flips, truncations,
//! splices (including bytes spliced in from another format) and aligned
//! 8-byte fields overwritten with `u64::MAX`, `1 << 62` or `u32::MAX`.
//! Half the cases re-seal the checksum after mutating, so the body
//! decoders behind the integrity checks are reached too. Every case must
//! return a typed error or `Ok`, never panic.
//!
//! A table test then pins the sealed frame's integrity classes for a
//! cover and a checkpoint: cut at every length, trailing garbage, and a
//! version patch.
//!
//! `PROPTEST_CASES` scales the property (CI runs it at 5000 cases).

use oca::{checkpoint_summary, config_checksum, graph_checksum, DriverCheckpoint, Oca, OcaConfig};
use oca_gen::{lfr, LfrParams};
use oca_graph::{
    fnv1a, open_ocg_path, verify_ocg_path, write_ocg_path, BuildReport, ContainerError, Cover,
    CsrGraph, IntegrityClass, Relabeling,
};
use oca_serve::{load_cover_path, save_cover_path};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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
    checkpoint: Vec<u8>,
    node_count: usize,
    bindings: (u64, u64),
}

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

        // A checkpoint in the driver's layout, bound to this config and
        // graph: the run's communities accepted, nothing yet covered.
        let ckpt_path = scratch_path("fixture.ockpt");
        let bindings = (config_checksum(&config()), graph_checksum(&graph));
        let state = DriverCheckpoint {
            rng_seed: 7,
            c: result.c,
            lambda_min: result.lambda_min,
            seeds_tried: result.seeds_tried as u64,
            covered: 0,
            stagnant: 0,
            rejected_streak: 0,
            stops: Default::default(),
            node_count: graph.node_count() as u64,
            accepted: result.cover.communities().to_vec(),
            fingerprints: (0..result.cover.len() as u128).collect(),
            uncovered: (0..graph.node_count() as u32).rev().collect(),
            bitmap_words: vec![0; graph.node_count().div_ceil(64)],
        };
        state
            .save(&ckpt_path, bindings.0, bindings.1, &Default::default())
            .unwrap();
        let loaded = DriverCheckpoint::load(&ckpt_path, bindings.0, bindings.1).unwrap();
        assert_eq!(loaded, state);

        Fixtures {
            ocg: std::fs::read(&ocg_path).unwrap(),
            cover: std::fs::read(&cover_path).unwrap(),
            checkpoint: std::fs::read(&ckpt_path).unwrap(),
            node_count: graph.node_count(),
            bindings,
        }
    })
}

/// Recomputes the checksum so a mutated file passes the integrity check
/// and reaches the body decoder: the header field of an `.ocg`, the
/// trailer of a sealed frame.
fn reseal(format: Format, bytes: &mut [u8]) {
    match format {
        Format::Ocg if bytes.len() >= OCG_HEADER_LEN => {
            let checksum = fnv1a(&bytes[OCG_HEADER_LEN..]);
            bytes[48..56].copy_from_slice(&checksum.to_le_bytes());
        }
        Format::Cover | Format::Checkpoint if bytes.len() >= 8 => {
            let at = bytes.len() - 8;
            let checksum = fnv1a(&bytes[..at]);
            bytes[at..].copy_from_slice(&checksum.to_le_bytes());
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

/// Loads `bytes` as a sealed `format` file, bound to the fixtures.
fn load_sealed(format: Format, bytes: &[u8]) -> Result<(), ContainerError> {
    let f = fixtures();
    let path = scratch_path("table");
    std::fs::write(&path, bytes).unwrap();
    let result = match format {
        Format::Cover => load_cover_path(&path, Some(f.node_count)).map(drop),
        _ => DriverCheckpoint::load(&path, f.bindings.0, f.bindings.1).map(drop),
    };
    std::fs::remove_file(&path).ok();
    result
}

#[test]
fn sealed_frames_classify_damage_the_same_way() {
    for format in [Format::Cover, Format::Checkpoint] {
        let pristine = fixtures().bytes(format);
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
        let mut garbage = pristine.to_vec();
        garbage.extend_from_slice(b"junk");
        assert_eq!(
            class(&garbage),
            Some(IntegrityClass::ChecksumMismatch),
            "{format:?} with trailing garbage"
        );
        for version in [1u32, 3, u32::MAX] {
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
