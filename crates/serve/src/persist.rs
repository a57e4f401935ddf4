//! Binary cover persistence: save a detected cover once, warm-start the
//! server from it after a restart instead of re-running detection.
//!
//! A cover file is one sealed [`oca_graph::container`] frame (magic
//! `b"OCACOVER"`, version 2; version 1 files are refused as a version
//! mismatch) around this body, all integers little-endian:
//!
//! ```text
//! node_count 8  u64
//! count      8  u64    number of communities
//! c          8  f64    interaction strength the cover was detected with
//! per community:
//!   len      4  u32
//!   members  4·len u32 (sorted node ids)
//! ```
//!
//! Loading validates the frame, every node id against the file's node
//! count, the node count against the expected graph size, and `c` against
//! `(0, MAX_C]` — a cover saved against one graph cannot be silently
//! served against another, and a stored `c` is safe to serve with.

use oca_graph::{Community, ContainerError, Cover, Frame, Reader};
use oca_spectral::MAX_C;
use std::path::Path;

/// The cover file's frame.
const FRAME: Frame = Frame {
    magic: *b"OCACOVER",
    version: 2,
};

fn encode_body(out: &mut Vec<u8>, cover: &Cover, c: f64) {
    out.extend_from_slice(&(cover.node_count() as u64).to_le_bytes());
    out.extend_from_slice(&(cover.len() as u64).to_le_bytes());
    out.extend_from_slice(&c.to_le_bytes());
    for community in cover.communities() {
        out.extend_from_slice(&(community.len() as u32).to_le_bytes());
        for &v in community.members() {
            out.extend_from_slice(&v.raw().to_le_bytes());
        }
    }
}

fn decode_body(
    r: &mut Reader<'_>,
    expected_node_count: Option<usize>,
) -> Result<(Cover, f64), ContainerError> {
    let node_count = r.u64()?;
    let count = r.u64()?;
    let c = r.f64()?;
    if let Some(expected) = expected_node_count {
        if expected as u64 != node_count {
            return Err(ContainerError::Mismatch {
                what: "node count",
                recorded: node_count,
                current: expected as u64,
            });
        }
    }
    if !(c > 0.0 && c <= MAX_C) {
        return Err(ContainerError::Malformed(format!(
            "stored interaction strength {c} is outside (0, {MAX_C}]"
        )));
    }
    let mut communities = Vec::with_capacity(r.fits(count, 4)?);
    for _ in 0..count {
        let len = r.u32()?;
        let mut ids = Vec::with_capacity(r.fits(len.into(), 4)?);
        for _ in 0..len {
            let id = r.u32()?;
            if u64::from(id) >= node_count {
                return Err(ContainerError::Malformed(format!(
                    "node {id} out of bounds for {node_count} nodes"
                )));
            }
            ids.push(id);
        }
        communities.push(Community::from_raw(ids));
    }
    Ok((Cover::new(node_count as usize, communities), c))
}

/// Saves `cover` (detected with interaction strength `c`) to a file at
/// `path`, atomically: the bytes go to a temp file that is fsynced and
/// renamed over `path`, so a crash mid-save (even `SIGKILL`) leaves either
/// the previous complete cover or the new one — never a truncated file
/// that would fail its own checksum on warm start.
pub fn save_cover_path<P: AsRef<Path>>(path: P, cover: &Cover, c: f64) -> std::io::Result<()> {
    FRAME
        .write_path(path.as_ref(), |out| encode_body(out, cover, c))
        .map(drop)
}

/// Loads the cover file at `path`, returning the cover and its stored `c`.
/// When `expected_node_count` is given (the serving path — the graph is
/// already loaded), a file saved for a different graph size is rejected
/// with [`ContainerError::Mismatch`].
pub fn load_cover_path<P: AsRef<Path>>(
    path: P,
    expected_node_count: Option<usize>,
) -> Result<(Cover, f64), ContainerError> {
    FRAME.read_path(path.as_ref(), |r| decode_body(r, expected_node_count))
}

#[cfg(test)]
mod tests {
    use super::*;
    use oca_graph::{fnv1a, NodeId};
    use std::path::PathBuf;

    fn sample_cover() -> Cover {
        Cover::new(
            10,
            vec![
                Community::from_raw([0, 1, 2, 3]),
                Community::from_raw([3, 4, 5]),
                Community::from_raw([9]),
            ],
        )
    }

    fn save_to_vec(cover: &Cover, c: f64) -> Vec<u8> {
        FRAME.seal_with(|out| encode_body(out, cover, c))
    }

    fn load(bytes: &[u8], expected: Option<usize>) -> Result<(Cover, f64), ContainerError> {
        let mut r = Reader::new(FRAME.unseal(bytes)?);
        let loaded = decode_body(&mut r, expected)?;
        r.finish()?;
        Ok(loaded)
    }

    /// Recomputes the trailing checksum after a deliberate edit, so only
    /// the body checks can fire.
    fn reseal(bytes: &mut [u8]) {
        let at = bytes.len() - 8;
        let checksum = fnv1a(&bytes[..at]);
        bytes[at..].copy_from_slice(&checksum.to_le_bytes());
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("oca-serve-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn round_trip_preserves_everything() {
        let cover = sample_cover();
        let bytes = save_to_vec(&cover, 0.375);
        let (loaded, c) = load(&bytes, Some(10)).unwrap();
        assert_eq!(loaded, cover);
        assert_eq!(c, 0.375);
        assert!(loaded.communities()[0].contains(NodeId(2)));
    }

    #[test]
    fn empty_cover_round_trips() {
        let cover = Cover::empty(5);
        let bytes = save_to_vec(&cover, 0.5);
        let (loaded, _) = load(&bytes, None).unwrap();
        assert_eq!(loaded, cover);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = save_to_vec(&sample_cover(), 0.5);
        bytes[0] = b'X';
        assert!(matches!(
            load(&bytes, None),
            Err(ContainerError::BadMagic { .. })
        ));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = save_to_vec(&sample_cover(), 0.5);
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            load(&bytes, None),
            Err(ContainerError::UnsupportedVersion { found: 99, .. })
        ));
        // So is a file from before the shared container (version 1).
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            load(&bytes, None),
            Err(ContainerError::UnsupportedVersion { found: 1, .. })
        ));
    }

    #[test]
    fn flipped_bit_breaks_the_checksum() {
        let mut bytes = save_to_vec(&sample_cover(), 0.5);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            load(&bytes, None),
            Err(ContainerError::ChecksumMismatch)
        ));
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = save_to_vec(&sample_cover(), 0.5);
        for cut in [bytes.len() - 1, bytes.len() - 9, 20, 8, 1] {
            let err = load(&bytes[..cut], None).unwrap_err();
            assert!(
                matches!(err, ContainerError::Truncated { .. }),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn mismatched_graph_size_is_a_typed_error() {
        let bytes = save_to_vec(&sample_cover(), 0.5);
        match load(&bytes, Some(11)).unwrap_err() {
            ContainerError::Mismatch {
                what,
                recorded,
                current,
            } => {
                assert_eq!((what, recorded, current), ("node count", 10, 11));
            }
            other => panic!("expected Mismatch, got {other}"),
        }
    }

    #[test]
    fn out_of_bounds_member_is_rejected_even_with_valid_checksum() {
        // Forge a file whose declared node count (the first body field,
        // after the 20-byte frame header) is too small for its own
        // members: re-seal so only the bounds check can fire.
        let mut bytes = save_to_vec(&sample_cover(), 0.5);
        bytes[20..28].copy_from_slice(&4u64.to_le_bytes());
        reseal(&mut bytes);
        match load(&bytes, None).unwrap_err() {
            ContainerError::Malformed(message) => {
                assert!(message.contains("out of bounds"), "{message}");
            }
            other => panic!("expected Malformed, got {other}"),
        }
    }

    #[test]
    fn stored_c_outside_the_admissible_range_is_malformed() {
        for bad_c in [0.0, -0.5, 1.0, 2.0, f64::NAN, f64::INFINITY] {
            let bytes = save_to_vec(&sample_cover(), bad_c);
            assert!(
                matches!(load(&bytes, None), Err(ContainerError::Malformed(_))),
                "c = {bad_c} was accepted"
            );
        }
        assert!(load(&save_to_vec(&sample_cover(), MAX_C), None).is_ok());
    }

    #[test]
    fn forged_counts_are_malformed_not_allocated() {
        // The community count sits at body offset 8, i.e. file offset 28.
        for forged in [u64::MAX, 1 << 62, u64::from(u32::MAX)] {
            let mut bytes = save_to_vec(&sample_cover(), 0.5);
            bytes[28..36].copy_from_slice(&forged.to_le_bytes());
            reseal(&mut bytes);
            assert!(
                matches!(load(&bytes, None), Err(ContainerError::Malformed(_))),
                "count {forged} was accepted"
            );
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = tmpdir("persist");
        let path = dir.join("cover.bin");
        let cover = sample_cover();
        save_cover_path(&path, &cover, 0.25).unwrap();
        let (loaded, c) = load_cover_path(&path, Some(10)).unwrap();
        assert_eq!(loaded, cover);
        assert_eq!(c, 0.25);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_classification_separates_damage_from_mismatch() {
        let bytes = save_to_vec(&sample_cover(), 0.5);
        let truncated = load(&bytes[..bytes.len() - 1], Some(10)).unwrap_err();
        assert!(truncated.is_corruption());
        let mut rotted = bytes.clone();
        rotted[30] ^= 1;
        assert!(load(&rotted, Some(10)).unwrap_err().is_corruption());
        let mut foreign = bytes.clone();
        foreign[0] = b'X';
        assert!(!load(&foreign, Some(10)).unwrap_err().is_corruption());
        let mut future = bytes.clone();
        future[8] = 9;
        assert!(!load(&future, Some(10)).unwrap_err().is_corruption());
        assert!(!load(&bytes, Some(11)).unwrap_err().is_corruption());
        let missing = load_cover_path("/nonexistent/cover.bin", None).unwrap_err();
        assert!(matches!(missing, ContainerError::Io(_)));
        assert!(!missing.is_corruption());
    }

    #[test]
    fn save_leaves_no_temp_debris_and_replaces_atomically() {
        let dir = tmpdir("atomic");
        let path = dir.join("cover.bin");
        save_cover_path(&path, &sample_cover(), 0.5).unwrap();
        save_cover_path(&path, &Cover::empty(10), 0.5).unwrap();
        let (loaded, _) = load_cover_path(&path, Some(10)).unwrap();
        assert_eq!(loaded.len(), 0);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|name| name.contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp debris: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn errors_display_the_problem() {
        let bytes = save_to_vec(&sample_cover(), 0.5);
        let e = load(&bytes, Some(7)).unwrap_err().to_string();
        assert!(
            e.contains("node count") && e.contains("10") && e.contains('7'),
            "{e}"
        );
        let mut foreign = bytes.clone();
        foreign[0] = b'X';
        let e = load(&foreign, None).unwrap_err().to_string();
        assert!(e.contains("magic") && e.contains("OCACOVER"), "{e}");
    }
}
