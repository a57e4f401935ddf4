//! Text serialization of covers (one community per line).
//!
//! Format: whitespace-separated node ids, one community per line, `#`
//! comments. This is the de-facto interchange format of community-detection
//! tools (CFinder, the LFR reference implementation and igraph all emit
//! variants of it), so results can be compared against external tooling.

use crate::community::{Community, Cover};
use crate::error::{GraphError, Result};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Writes a cover, one community per line.
pub fn write_cover<W: Write>(cover: &Cover, writer: W) -> Result<()> {
    let mut w = std::io::BufWriter::new(writer);
    write_lines(cover, &mut w)?;
    w.flush()?;
    Ok(())
}

fn write_lines<W: Write>(cover: &Cover, w: &mut W) -> std::io::Result<()> {
    writeln!(
        w,
        "# cover: {} communities over {} nodes",
        cover.len(),
        cover.node_count()
    )?;
    for c in cover.communities() {
        let ids: Vec<String> = c.members().iter().map(|v| v.raw().to_string()).collect();
        writeln!(w, "{}", ids.join(" "))?;
    }
    Ok(())
}

/// Reads a cover over `node_count` nodes.
pub fn read_cover<R: Read>(node_count: usize, reader: R) -> Result<Cover> {
    let mut buf = BufReader::new(reader);
    let mut line = String::new();
    let mut lineno = 0usize;
    let mut communities = Vec::new();
    loop {
        line.clear();
        if buf.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut ids = Vec::new();
        for token in trimmed.split_whitespace() {
            let id: u32 = token.parse().map_err(|e| GraphError::Parse {
                line: lineno,
                message: format!("bad node id {token:?}: {e}"),
            })?;
            if id as usize >= node_count {
                return Err(GraphError::NodeOutOfBounds {
                    node: id,
                    node_count: node_count as u32,
                });
            }
            ids.push(id);
        }
        communities.push(Community::from_raw(ids));
    }
    Ok(Cover::new(node_count, communities))
}

/// Writes a cover to a file path through a temp file and a rename
/// ([`crate::atomic_write_path`]), so an interruption or a failed write
/// never leaves a torn cover under `path`.
pub fn write_cover_path<P: AsRef<Path>>(cover: &Cover, path: P) -> Result<()> {
    crate::atomic::atomic_write_path(path.as_ref(), |w| write_lines(cover, w))?;
    Ok(())
}

/// Reads a cover from a file path.
pub fn read_cover_path<P: AsRef<Path>>(node_count: usize, path: P) -> Result<Cover> {
    read_cover(node_count, std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Cover {
        Cover::new(
            8,
            vec![
                Community::from_raw([0, 1, 2, 3]),
                Community::from_raw([3, 4, 5]),
                Community::from_raw([6]),
            ],
        )
    }

    #[test]
    fn round_trip() {
        let cover = sample();
        let mut buf = Vec::new();
        write_cover(&cover, &mut buf).unwrap();
        let back = read_cover(8, buf.as_slice()).unwrap();
        assert_eq!(cover, back);
    }

    #[test]
    fn skips_comments_and_blanks() {
        let text = "# header\n\n0 1 2\n# mid\n3 4\n";
        let cover = read_cover(5, text.as_bytes()).unwrap();
        assert_eq!(cover.len(), 2);
    }

    #[test]
    fn rejects_out_of_range_ids() {
        let err = read_cover(3, "0 1 7\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("out of bounds"));
    }

    #[test]
    fn rejects_garbage() {
        let err = read_cover(3, "0 x\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 1"));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("oca_cover_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cover.txt");
        let cover = sample();
        write_cover_path(&cover, &path).unwrap();
        assert_eq!(read_cover_path(8, &path).unwrap(), cover);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn writing_over_a_cover_replaces_it_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("oca_cover_io_over_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cover.txt");
        write_cover_path(&sample(), &path).unwrap();
        let other = Cover::new(8, vec![Community::from_raw([5, 6, 7])]);
        write_cover_path(&other, &path).unwrap();
        assert_eq!(read_cover_path(8, &path).unwrap(), other);
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(names, vec!["cover.txt".to_string()], "temp debris");
        std::fs::remove_dir_all(&dir).ok();
    }
}
