//! The sealed binary container shared by the workspace's on-disk formats.
//!
//! Checkpoints (`.ockpt`) and binary covers are both one sealed [`Frame`]
//! around a format-specific body; `.ocg` graphs keep their own 64-byte
//! header (it must stay O(1) to open over an mmap with 4-byte aligned
//! sections) but share this module's hasher, preamble check and error
//! type. One error type means one integrity classification, which the
//! CLI maps to exit codes in one place.
//!
//! ## Frame layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//!      0     8  magic
//!      8     4  version
//!     12     8  body_len
//!     20     n  body (layout owned by the format)
//!   20+n     8  FNV-1a checksum of bytes [0, 20+n)
//! ```
//!
//! `body_len` is what lets a reader tell a file cut short ([`Truncated`])
//! from one whose bytes rotted in place ([`ChecksumMismatch`]). The
//! magic and version are checked before the length and checksum, so a
//! foreign or stale file reports as such rather than as damage.
//!
//! Writes go through [`atomic_write_path`], so a crash mid-write leaves
//! the previous complete file in place — never a torn one. A frame may
//! also open a longer file ([`Frame::unseal_prefix`]): the checkpoint
//! journal is one sealed base frame followed by appended records.
//!
//! [`Truncated`]: ContainerError::Truncated
//! [`ChecksumMismatch`]: ContainerError::ChecksumMismatch

use crate::atomic::atomic_write_path;
use std::fmt;
use std::path::Path;

/// Bytes before the body: magic, version, body length.
const FRAME_HEADER_LEN: usize = 20;
/// The trailing checksum.
const TRAILER_LEN: usize = 8;

/// Streaming FNV-1a hasher — fast, dependency-free, and plenty for
/// detecting truncation and bit rot (an integrity check, not
/// authentication).
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Feeds `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }

    /// The hash of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a of `bytes` in one call.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.update(bytes);
    h.finish()
}

/// The integrity-failure classes a binary file reader distinguishes.
///
/// Ops scripts branch on these (via distinct CLI exit codes): a checksum
/// mismatch or truncation means the file is damaged and should be rebuilt
/// or restored from backup, while a version mismatch means the file is
/// fine but this binary is the wrong vintage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntegrityClass {
    /// The stored checksum does not match the file contents.
    ChecksumMismatch,
    /// The file is shorter than its own header or length fields imply.
    Truncated,
    /// The file records a format version this build does not read.
    VersionMismatch,
}

impl IntegrityClass {
    /// A short stable label for logs and CLI output.
    pub fn label(self) -> &'static str {
        match self {
            IntegrityClass::ChecksumMismatch => "checksum-mismatch",
            IntegrityClass::Truncated => "truncation",
            IntegrityClass::VersionMismatch => "version-mismatch",
        }
    }
}

/// Why a sealed file could not be read, or does not apply to the caller.
///
/// The split matters operationally: [`is_corruption`](Self::is_corruption)
/// classes (a torn or rotted file) can safely be discarded and rebuilt,
/// while mismatch, magic and version errors signal operator error —
/// the wrong file, or the wrong build — and should abort.
#[derive(Debug)]
pub enum ContainerError {
    /// An underlying I/O failure (including file-not-found).
    Io(std::io::Error),
    /// The file does not start with the format's magic bytes.
    BadMagic {
        /// The magic the reader expected.
        expected: [u8; 8],
    },
    /// The file records a format version this build does not read.
    UnsupportedVersion {
        /// The version recorded in the file.
        found: u32,
        /// The version this build reads.
        supported: u32,
    },
    /// The file is shorter than its header and length field imply.
    Truncated {
        /// The file's length in bytes.
        len: u64,
        /// The length its header implies (at least the header itself).
        expected: u64,
    },
    /// The checksum does not match the contents, or bytes trail the
    /// checksum.
    ChecksumMismatch,
    /// A binding (config or graph checksum, node count) recorded in the
    /// file disagrees with the caller's.
    Mismatch {
        /// Which binding disagreed.
        what: &'static str,
        /// The value recorded in the file.
        recorded: u64,
        /// The caller's value.
        current: u64,
    },
    /// The body passed the checksum but is structurally impossible.
    Malformed(String),
}

impl ContainerError {
    /// True for damage classes (truncation, checksum failure): the file
    /// can be discarded and rebuilt. False for mismatches and
    /// version/magic surprises, which signal operator error instead.
    pub fn is_corruption(&self) -> bool {
        matches!(
            self,
            ContainerError::Truncated { .. } | ContainerError::ChecksumMismatch
        )
    }

    /// The integrity class behind this error, if it is one.
    pub fn integrity_class(&self) -> Option<IntegrityClass> {
        match self {
            ContainerError::ChecksumMismatch => Some(IntegrityClass::ChecksumMismatch),
            ContainerError::Truncated { .. } => Some(IntegrityClass::Truncated),
            ContainerError::UnsupportedVersion { .. } => Some(IntegrityClass::VersionMismatch),
            _ => None,
        }
    }
}

impl fmt::Display for ContainerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContainerError::Io(e) => write!(f, "i/o error: {e}"),
            ContainerError::BadMagic { expected } => {
                let name = String::from_utf8_lossy(expected);
                write!(
                    f,
                    "bad magic (not a {:?} file)",
                    name.trim_end_matches('\0')
                )
            }
            ContainerError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported version {found} (this build reads version {supported})"
            ),
            ContainerError::Truncated { len, expected } => write!(
                f,
                "truncated: file is {len} bytes but the header implies {expected}"
            ),
            ContainerError::ChecksumMismatch => write!(f, "checksum mismatch"),
            ContainerError::Mismatch {
                what,
                recorded,
                current,
            } => write!(
                f,
                "{what} mismatch: the file records {recorded}, expected {current}"
            ),
            ContainerError::Malformed(message) => write!(f, "malformed body: {message}"),
        }
    }
}

impl std::error::Error for ContainerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ContainerError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ContainerError {
    fn from(e: std::io::Error) -> Self {
        ContainerError::Io(e)
    }
}

/// Checks the 12-byte preamble every format shares — magic at 0, version
/// u32 at 8 — and that the file holds at least `header_len` bytes. A file
/// shorter than the magic whose bytes so far match it is a truncation; any
/// other disagreement with the magic is a foreign file.
pub(crate) fn check_preamble(
    bytes: &[u8],
    magic: [u8; 8],
    version: u32,
    header_len: usize,
) -> Result<(), ContainerError> {
    let have = bytes.len().min(magic.len());
    if bytes[..have] != magic[..have] {
        return Err(ContainerError::BadMagic { expected: magic });
    }
    let truncated = ContainerError::Truncated {
        len: bytes.len() as u64,
        expected: header_len as u64,
    };
    if bytes.len() < 12 {
        return Err(truncated);
    }
    let found = u32::from_le_bytes(bytes[8..12].try_into().expect("4-byte range"));
    if found != version {
        return Err(ContainerError::UnsupportedVersion {
            found,
            supported: version,
        });
    }
    if bytes.len() < header_len {
        return Err(truncated);
    }
    Ok(())
}

/// One sealed on-disk format: a magic and the version this build reads
/// and writes. See the [module docs](self) for the layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// Magic bytes at offset 0.
    pub magic: [u8; 8],
    /// The version this build reads and writes.
    pub version: u32,
}

impl Frame {
    /// Seals the body that `write_body` appends into a complete file image.
    pub fn seal_with(&self, write_body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut out = Vec::with_capacity(FRAME_HEADER_LEN + TRAILER_LEN);
        out.extend_from_slice(&self.magic);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&0u64.to_le_bytes());
        write_body(&mut out);
        let body_len = (out.len() - FRAME_HEADER_LEN) as u64;
        out[12..FRAME_HEADER_LEN].copy_from_slice(&body_len.to_le_bytes());
        let checksum = fnv1a(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Verifies a file image and returns its body.
    pub fn unseal<'a>(&self, bytes: &'a [u8]) -> Result<&'a [u8], ContainerError> {
        let (body, frame_len) = self.unseal_prefix(bytes)?;
        if frame_len < bytes.len() {
            // Bytes after the checksum: the atomic writer never produces
            // this, so it is damage, like any other change to the bytes.
            return Err(ContainerError::ChecksumMismatch);
        }
        Ok(body)
    }

    /// Verifies the frame at the start of `bytes`, which other bytes may
    /// follow (the records of an append-only journal), and returns its
    /// body and the frame's length.
    pub fn unseal_prefix<'a>(&self, bytes: &'a [u8]) -> Result<(&'a [u8], usize), ContainerError> {
        check_preamble(bytes, self.magic, self.version, FRAME_HEADER_LEN)?;
        let body_len = u64::from_le_bytes(
            bytes[12..FRAME_HEADER_LEN]
                .try_into()
                .expect("8-byte range"),
        );
        let expected = body_len.saturating_add((FRAME_HEADER_LEN + TRAILER_LEN) as u64);
        let len = bytes.len() as u64;
        if len < expected {
            return Err(ContainerError::Truncated { len, expected });
        }
        let (sealed, trailer) =
            bytes[..expected as usize].split_at(expected as usize - TRAILER_LEN);
        if fnv1a(sealed) != u64::from_le_bytes(trailer.try_into().expect("8-byte trailer")) {
            return Err(ContainerError::ChecksumMismatch);
        }
        Ok((&sealed[FRAME_HEADER_LEN..], expected as usize))
    }

    /// Seals the body that `write_body` appends and atomically writes it
    /// to `path` (temp file + fsync + rename), returning the bytes written.
    pub fn write_path(
        &self,
        path: &Path,
        write_body: impl FnOnce(&mut Vec<u8>),
    ) -> std::io::Result<u64> {
        let bytes = self.seal_with(write_body);
        atomic_write_path(path, |w| std::io::Write::write_all(w, &bytes))?;
        Ok(bytes.len() as u64)
    }

    /// Reads and unseals the file at `path`, then hands its body to
    /// `decode`, which must consume all of it.
    pub fn read_path<T>(
        &self,
        path: &Path,
        decode: impl FnOnce(&mut Reader<'_>) -> Result<T, ContainerError>,
    ) -> Result<T, ContainerError> {
        let bytes = std::fs::read(path)?;
        let mut reader = Reader::new(self.unseal(&bytes)?);
        let value = decode(&mut reader)?;
        reader.finish()?;
        Ok(value)
    }
}

/// A little-endian cursor over a body that has already passed its
/// checksum, so every short read or impossible count is
/// [`ContainerError::Malformed`]: a forged file or a writer bug, not disk
/// damage.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, at: 0 }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ContainerError> {
        if self.remaining() < n {
            return Err(ContainerError::Malformed(format!(
                "body ends {} bytes short",
                n - self.remaining()
            )));
        }
        let slice = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], ContainerError> {
        Ok(self
            .take(N)?
            .try_into()
            .expect("take returns exactly N bytes"))
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, ContainerError> {
        self.array().map(u32::from_le_bytes)
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, ContainerError> {
        self.array().map(u64::from_le_bytes)
    }

    /// The next little-endian `f64`.
    pub fn f64(&mut self) -> Result<f64, ContainerError> {
        self.array().map(f64::from_le_bytes)
    }

    /// Checks that `count` items of at least `min_each` bytes fit in what
    /// is left, so a forged count can never drive an allocation.
    pub fn fits(&self, count: u64, min_each: usize) -> Result<usize, ContainerError> {
        match count.checked_mul(min_each as u64) {
            Some(bytes) if bytes <= self.remaining() as u64 => Ok(count as usize),
            _ => Err(ContainerError::Malformed(format!(
                "count {count} of {min_each}-byte items overruns the {} bytes left",
                self.remaining()
            ))),
        }
    }

    /// Fails with [`ContainerError::Malformed`] unless every byte was read.
    pub fn finish(self) -> Result<(), ContainerError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(ContainerError::Malformed(format!(
                "{n} trailing body bytes"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    const FRAME: Frame = Frame {
        magic: *b"OCATEST\0",
        version: 3,
    };

    static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

    fn tmpdir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "oca_container_test_{}_{}",
            std::process::id(),
            DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_body(out: &mut Vec<u8>) {
        out.extend(0..=255u8);
    }

    fn sample() -> Vec<u8> {
        FRAME.seal_with(sample_body)
    }

    fn read_all(path: &Path) -> Result<Vec<u8>, ContainerError> {
        FRAME.read_path(path, |r| Ok(r.take(r.remaining())?.to_vec()))
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        let mut streamed = Fnv1a::default();
        streamed.update(b"foo");
        streamed.update(b"bar");
        assert_eq!(streamed.finish(), fnv1a(b"foobar"));
    }

    #[test]
    fn round_trips_through_disk() {
        let dir = tmpdir();
        let path = dir.join("run.bin");
        let written = FRAME.write_path(&path, sample_body).unwrap();
        assert_eq!(written, std::fs::metadata(&path).unwrap().len());
        assert_eq!(read_all(&path).unwrap(), (0..=255u8).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_body_round_trips() {
        let bytes = FRAME.seal_with(|_| {});
        assert_eq!(bytes.len(), FRAME_HEADER_LEN + TRAILER_LEN);
        assert_eq!(FRAME.unseal(&bytes).unwrap(), b"");
    }

    #[test]
    fn missing_file_is_io_not_corruption() {
        let err = read_all(Path::new("/nonexistent/nope.bin")).unwrap_err();
        assert!(matches!(err, ContainerError::Io(_)));
        assert!(!err.is_corruption());
        assert_eq!(err.integrity_class(), None);
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = sample();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                FRAME.unseal(&bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_at_every_length_is_typed() {
        let bytes = sample();
        for len in 0..bytes.len() {
            let err = FRAME.unseal(&bytes[..len]).unwrap_err();
            assert!(
                matches!(err, ContainerError::Truncated { .. }),
                "truncation to {len} bytes gave {err:?}"
            );
            assert!(err.is_corruption());
            assert_eq!(err.integrity_class(), Some(IntegrityClass::Truncated));
        }
        // A prefix that disagrees with the magic is foreign, not short.
        assert!(matches!(
            FRAME.unseal(b"OCX").unwrap_err(),
            ContainerError::BadMagic { .. }
        ));
    }

    #[test]
    fn trailing_garbage_is_damage() {
        let mut bytes = sample();
        bytes.extend_from_slice(b"junk");
        let err = FRAME.unseal(&bytes).unwrap_err();
        assert!(matches!(err, ContainerError::ChecksumMismatch), "{err:?}");
        assert_eq!(
            err.integrity_class(),
            Some(IntegrityClass::ChecksumMismatch)
        );
    }

    #[test]
    fn a_frame_prefix_unseals_with_its_length() {
        let mut bytes = sample();
        let frame_len = bytes.len();
        bytes.extend_from_slice(b"appended record");
        let (body, len) = FRAME.unseal_prefix(&bytes).unwrap();
        assert_eq!(len, frame_len);
        assert_eq!(body, (0..=255u8).collect::<Vec<_>>());
        // The frame itself is still checked in full.
        bytes[FRAME_HEADER_LEN] ^= 1;
        assert!(matches!(
            FRAME.unseal_prefix(&bytes).unwrap_err(),
            ContainerError::ChecksumMismatch
        ));
        assert!(matches!(
            FRAME.unseal_prefix(&bytes[..frame_len - 1]).unwrap_err(),
            ContainerError::Truncated { .. }
        ));
    }

    #[test]
    fn foreign_magic_and_version_are_not_corruption() {
        let mut bad = sample();
        bad[..8].copy_from_slice(b"OCACOVER");
        let err = FRAME.unseal(&bad).unwrap_err();
        assert!(matches!(err, ContainerError::BadMagic { .. }));
        assert!(!err.is_corruption());

        // Re-seal so only the version differs from a valid file.
        let mut future = sample();
        future[8..12].copy_from_slice(&99u32.to_le_bytes());
        let trailer_at = future.len() - TRAILER_LEN;
        let checksum = fnv1a(&future[..trailer_at]);
        future[trailer_at..].copy_from_slice(&checksum.to_le_bytes());
        let err = FRAME.unseal(&future).unwrap_err();
        assert!(matches!(
            err,
            ContainerError::UnsupportedVersion {
                found: 99,
                supported: 3
            }
        ));
        assert!(!err.is_corruption());
        assert_eq!(err.integrity_class(), Some(IntegrityClass::VersionMismatch));
    }

    #[test]
    fn display_messages_name_the_problem() {
        let truncated = ContainerError::Truncated {
            len: 10,
            expected: 20,
        };
        assert!(truncated.to_string().contains("header implies 20"));
        let magic = ContainerError::BadMagic {
            expected: *b"OCACKPT\0",
        };
        assert!(magic.to_string().contains("magic") && magic.to_string().contains("OCACKPT"));
        let version = ContainerError::UnsupportedVersion {
            found: 7,
            supported: 2,
        };
        assert!(version.to_string().contains("version 7"));
        let m = ContainerError::Mismatch {
            what: "graph checksum",
            recorded: 0xAB,
            current: 0xCD,
        }
        .to_string();
        assert!(
            m.contains("graph") && m.contains("171") && m.contains("205"),
            "{m}"
        );
        assert!(ContainerError::Malformed("bad length".into())
            .to_string()
            .contains("bad length"));
    }

    #[test]
    fn replacing_a_file_is_atomic_over_the_old_one() {
        let dir = tmpdir();
        let path = dir.join("run.bin");
        FRAME.write_path(&path, sample_body).unwrap();
        FRAME
            .write_path(&path, |out| out.extend_from_slice(&[9; 10_000]))
            .unwrap();
        assert_eq!(read_all(&path).unwrap(), vec![9; 10_000]);
        // No temp debris left behind.
        let debris: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(debris.is_empty(), "{debris:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reader_refuses_counts_that_overrun_the_body() {
        let body = [1u8, 0, 0, 0, 2, 0, 0, 0];
        let mut r = Reader::new(&body);
        assert_eq!(r.fits(2, 4).unwrap(), 2);
        assert!(matches!(r.fits(3, 4), Err(ContainerError::Malformed(_))));
        assert!(matches!(
            r.fits(u64::MAX, 16),
            Err(ContainerError::Malformed(_))
        ));
        assert_eq!(r.u32().unwrap(), 1);
        assert!(matches!(r.u64(), Err(ContainerError::Malformed(_))));
        // `finish` insists the body was consumed.
        assert!(matches!(r.finish(), Err(ContainerError::Malformed(_))));
    }
}
