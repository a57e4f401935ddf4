//! `oca graph build --input /dev/stdin` reads a pipe through the path
//! reader, so a compressed edge list comes in as `zcat F | oca graph
//! build --input /dev/stdin`: the `.ocg` it writes is byte-identical to
//! the build from the file, in RAM and spilled. A file of gzip bytes is
//! refused with how to pipe it, and nothing is written.
#![cfg(unix)]

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

/// Runs `oca graph build --input input --output output extra…`, with
/// `stdin` written to its standard input when given.
fn build(input: &Path, output: &Path, extra: &[&str], stdin: Option<&[u8]>) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_oca"))
        .args(["graph", "build", "--input"])
        .arg(input)
        .arg("--output")
        .arg(output)
        .args(extra)
        .stdin(if stdin.is_some() {
            Stdio::piped()
        } else {
            Stdio::null()
        })
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    if let Some(bytes) = stdin {
        // The build reads all its input before it prints a line, so
        // writing it all first cannot block on a full stdout pipe.
        let mut pipe = child.stdin.take().unwrap();
        pipe.write_all(bytes).unwrap();
    }
    child.wait_with_output().unwrap()
}

/// About 3000 lines of untidy edge-list text over 1200 nodes: comments,
/// blank lines, CRLF, tabs, a third field, self-loops, duplicates in
/// both orientations, and no final newline.
fn messy_text() -> Vec<u8> {
    let mut x = 0x2545_f491u64;
    let mut next = |bound: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % bound
    };
    let mut text = String::from("# messy edge list\n% pajek-style comment\n\n");
    for _ in 0..3000 {
        let (u, v) = (next(1200), next(1200));
        match next(10) {
            0 => text.push_str(&format!("{u}\t{v}\r\n")),
            1 => text.push_str(&format!("  {u}  {v} 0.5\n")),
            2 => text.push_str(&format!("{u} {u}\n")),
            3 => text.push_str(&format!("{v} {u}\n{u} {v}\n")),
            4 => text.push_str("# a comment\n\n"),
            _ => text.push_str(&format!("{u} {v}\n")),
        }
    }
    text.push_str("7 8");
    text.into_bytes()
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("oca_cli_stdin_{}_{name}", std::process::id()))
}

#[test]
fn a_pipe_on_dev_stdin_builds_the_same_bytes_as_the_file() {
    let text = messy_text();
    let file = scratch("g.edges");
    std::fs::write(&file, &text).unwrap();
    let (from_file, from_pipe) = (scratch("file.ocg"), scratch("pipe.ocg"));
    // The default chunk builds in RAM; 1024 edges spill sorted runs.
    for (extra, spills) in [(&[][..], false), (&["--chunk-edges", "1024"][..], true)] {
        let file_run = build(&file, &from_file, extra, None);
        let pipe_run = build(Path::new("/dev/stdin"), &from_pipe, extra, Some(&text));
        for run in [&file_run, &pipe_run] {
            let stdout = String::from_utf8_lossy(&run.stdout);
            assert!(run.status.success(), "{extra:?}: {run:?}");
            assert_eq!(!stdout.contains(", 0 spill byte(s)"), spills, "{stdout}");
        }
        let bytes = std::fs::read(&from_file).unwrap();
        assert!(
            bytes == std::fs::read(&from_pipe).unwrap(),
            "{extra:?}: the pipe built other bytes"
        );
        std::fs::remove_file(&from_pipe).unwrap();
    }
    for path in [file, from_file] {
        std::fs::remove_file(path).unwrap();
    }
}

#[test]
fn gzip_bytes_are_refused_with_how_to_pipe_them() {
    // The first bytes of a gzip member.
    let gz = scratch("g.edges.gz");
    std::fs::write(&gz, b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x02\x03\x03\x00").unwrap();
    let output = scratch("never.ocg");
    let run = build(&gz, &output, &[], None);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(!run.status.success(), "{run:?}");
    assert!(stderr.contains("g.edges.gz"), "{stderr}");
    assert!(
        stderr.contains("gzip-compressed input is not read"),
        "{stderr}"
    );
    assert!(stderr.contains("zcat"), "{stderr}");
    assert!(!output.exists(), "a refused build wrote {output:?}");
    std::fs::remove_file(gz).unwrap();
}
