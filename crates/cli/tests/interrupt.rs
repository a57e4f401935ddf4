//! `oca detect` stopped by SIGTERM exits cleanly and writes the partial
//! cover to `--output`, the same file a completed run writes.
#![cfg(unix)]

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn oca() -> Command {
    Command::new(env!("CARGO_BIN_EXE_oca"))
}

#[test]
fn sigterm_writes_the_partial_cover_to_output() {
    let dir = std::env::temp_dir().join(format!("oca_cli_sigterm_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let graph = dir.join("g.edges");
    let cover = dir.join("partial.cover");
    let status = oca()
        .args(["generate", "--family", "lfr", "--nodes", "1000"])
        .args(["--mu", "0.2", "--output"])
        .arg(&graph)
        .stdout(Stdio::null())
        .status()
        .unwrap();
    assert!(status.success());

    // Every halting budget is out of reach, so the run goes on until it
    // is signalled.
    let mut child = oca()
        .arg("detect")
        .arg("--input")
        .arg(&graph)
        .args(["--threads", "1", "--max-seeds", "1000000000"])
        .args(["--target-coverage", "2", "--stagnation", "1000000000"])
        .args(["--stagnation-streak", "1000000000"])
        .args(["--seeds-per-covered", "0"])
        .arg("--progress")
        .arg("--output")
        .arg(&cover)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // The first progress tick comes from the running driver, so the
    // signal handler is installed by then.
    let mut stderr = child.stderr.take().unwrap();
    let mut byte = [0u8; 1];
    while byte[0] != b'[' {
        let read = stderr.read(&mut byte).unwrap();
        assert_eq!(read, 1, "detect ended before its first progress tick");
    }
    // Keep draining both pipes so the child never blocks on a full one.
    let drain_err = std::thread::spawn(move || std::io::copy(&mut stderr, &mut std::io::sink()));
    let mut stdout = child.stdout.take().unwrap();
    let read_out = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });

    let kill = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .unwrap();
    assert!(kill.success());
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if Instant::now() > deadline {
            child.kill().ok();
            panic!("detect did not stop within 60 s of SIGTERM");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    drain_err.join().unwrap().unwrap();
    let stdout = read_out.join().unwrap().unwrap();

    assert!(status.success(), "{status}: {stdout}");
    assert!(stdout.contains("interrupted by SIGTERM"), "{stdout}");
    assert!(stdout.contains("wrote partial cover to"), "{stdout}");
    let partial = oca_graph::read_cover_path(1000, &cover).unwrap();
    assert!(!partial.is_empty(), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}
