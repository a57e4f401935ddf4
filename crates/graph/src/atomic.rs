//! Crash-safe file replacement: write to a temp file, fsync, rename.
//!
//! Every durable artifact this workspace produces (binary covers, `.ocg`
//! graphs) is replaced through [`atomic_write_path`], so a crash — a
//! `SIGKILL` mid-write, a full disk, a power cut between buffered writes —
//! can never leave a *named* file half-written: the target path either
//! still holds its previous complete contents or holds the new complete
//! contents. The sequence is the classic one:
//!
//! 1. write the new contents to a uniquely named temp file **in the same
//!    directory** (rename is only atomic within a filesystem),
//! 2. flush and `fsync` the temp file (data durable before the name moves),
//! 3. `rename(2)` it over the target (atomic replacement),
//! 4. `fsync` the directory so the rename itself survives a power cut
//!    (unix only; elsewhere the rename is still atomic, just not durable
//!    against power loss).
//!
//! A crash before step 3 leaves only a stray `.tmp` file next to the
//! target — debris, not corruption; readers validate checksums anyway and
//! never look at temp names.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Distinguishes temp files of concurrent writers in one process.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Write buffer: large enough that a multi-megabyte `.ocg` payload goes
/// out in few system calls.
const WRITE_BUF: usize = 1 << 18;

/// The temp path [`atomic_write_path`] writes before the rename: same
/// directory (rename is only atomic within a filesystem), a hidden name
/// with a process- and call-unique suffix.
fn temp_path_for(path: &Path) -> PathBuf {
    let n = TMP_COUNTER.fetch_add(1, Ordering::Relaxed);
    let file = path.file_name().map(|f| f.to_string_lossy().into_owned());
    let name = format!(
        ".{}.tmp.{}.{n}",
        file.as_deref().unwrap_or("file"),
        std::process::id()
    );
    path.with_file_name(name)
}

/// Atomically replaces the file at `path` with whatever `write` produces.
///
/// `write` receives a buffered writer over the temp file, and may seek it
/// (the `.ocg` writer patches its header last); when it returns `Ok`, the
/// data is flushed, fsynced, and renamed over `path` (see the
/// [module docs](self) for the crash-safety argument). On any error the
/// temp file is removed and `path` is left exactly as it was.
pub fn atomic_write_path<F, E>(path: &Path, write: F) -> Result<(), E>
where
    F: FnOnce(&mut BufWriter<File>) -> Result<(), E>,
    E: From<std::io::Error>,
{
    let tmp = temp_path_for(path);
    let result = (|| {
        let mut writer = BufWriter::with_capacity(WRITE_BUF, File::create(&tmp)?);
        write(&mut writer)?;
        writer.flush()?;
        writer.get_ref().sync_all()?;
        drop(writer);
        std::fs::rename(&tmp, path)?;
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
        return result;
    }
    sync_parent_dir(path);
    Ok(())
}

/// Best-effort fsync of `path`'s directory, making the rename durable. A
/// failure here (exotic filesystems refuse directory fsync) does not undo
/// an otherwise successful, atomic replacement, so it is not surfaced.
fn sync_parent_dir(path: &Path) {
    #[cfg(unix)]
    {
        let dir = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        if let Ok(handle) = File::open(dir) {
            let _ = handle.sync_all();
        }
    }
    #[cfg(not(unix))]
    {
        let _ = path;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "oca_atomic_test_{}_{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn writes_new_file_and_replaces_existing() {
        let dir = tmpdir();
        let path = dir.join("out.bin");
        atomic_write_path(&path, |w| w.write_all(b"first")).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write_path(&path, |w| w.write_all(b"second, longer")).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_write_leaves_old_contents_and_no_temp_debris() {
        let dir = tmpdir();
        let path = dir.join("out.bin");
        atomic_write_path(&path, |w| w.write_all(b"keep me")).unwrap();
        let err = atomic_write_path(&path, |w| {
            w.write_all(b"half-written garbage")?;
            Err(std::io::Error::other("simulated mid-write failure"))
        })
        .unwrap_err();
        assert!(err.to_string().contains("simulated"));
        assert_eq!(std::fs::read(&path).unwrap(), b"keep me");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|name| name.contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp debris: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_first_write_leaves_no_file_at_all() {
        let dir = tmpdir();
        let path = dir.join("never.bin");
        atomic_write_path(&path, |_| {
            Err::<(), _>(std::io::Error::other("boom")).map(|_| ())
        })
        .unwrap_err();
        assert!(!path.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn relative_path_without_parent_component_works() {
        let dir = tmpdir();
        let old = std::env::current_dir().unwrap();
        // Serialize against other tests that chdir (none today, but cheap).
        std::env::set_current_dir(&dir).unwrap();
        let result = atomic_write_path(Path::new("bare.bin"), |w| w.write_all(b"x"));
        let bytes = std::fs::read(dir.join("bare.bin"));
        std::env::set_current_dir(old).unwrap();
        result.unwrap();
        assert_eq!(bytes.unwrap(), b"x");
        std::fs::remove_dir_all(&dir).ok();
    }
}
