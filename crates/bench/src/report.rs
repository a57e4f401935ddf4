//! The one bench-report envelope: every `results/BENCH_*.json` is a
//! [`Value`] in the report layout of [`oca_graph::json`], the codec the
//! serve responses use too.
//!
//! Every report opens with `bench` (the binary), `mode` (`full` or
//! `smoke`) and `meta` (`git_commit`, `host_threads`, `date`, `graph`);
//! [`report`] puts them first.
//!
//! Full runs write to `results/`, where the reports listed in the root
//! `.gitignore` are committed. Smoke runs write to [`smoke_dir`]
//! (`target/bench-smoke/`), so running a CI gate locally never rewrites a
//! committed report.

use crate::harness::results_dir;
use oca_graph::json::Value;
use oca_graph::object;
use std::fmt;
use std::path::{Path, PathBuf};

/// Reads and parses a report file. Errors name the path; a parse failure
/// is an [`std::io::ErrorKind::InvalidData`] error.
pub fn read(path: impl AsRef<Path>) -> std::io::Result<Value> {
    let path = path.as_ref();
    let in_path =
        |kind, e: &dyn fmt::Display| std::io::Error::new(kind, format!("{}: {e}", path.display()));
    let text = std::fs::read_to_string(path).map_err(|e| in_path(e.kind(), &e))?;
    Value::parse(&text).map_err(|e| in_path(std::io::ErrorKind::InvalidData, &e))
}

/// A bench report: `bench`, `mode` and `meta` first, then the entries of
/// `fields` (an object) in order. `meta` holds the git commit the run
/// came from (`"unknown"` outside a checkout), the host's available
/// parallelism, the UTC date of the run (`YYYY-MM-DD`) and `graph`, a
/// free-form description of the input.
///
/// # Panics
/// Panics if `fields` is not an object.
pub fn report(bench: &str, smoke: bool, graph: &str, fields: Value) -> Value {
    let Value::Object(entries) = fields else {
        panic!("report fields must be an object");
    };
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|hash| !hash.is_empty() && hash.chars().all(|ch| ch.is_ascii_alphanumeric()))
        .unwrap_or_else(|| "unknown".to_string());
    let host_threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let date = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or_else(|_| "unknown".to_string(), |d| utc_date(d.as_secs()));
    let meta = object! {
        "git_commit": commit,
        "host_threads": host_threads,
        "date": date,
        "graph": graph,
    };
    let mode = if smoke { "smoke" } else { "full" };
    let mut out = object! { "bench": bench, "mode": mode, "meta": meta };
    for (key, value) in entries {
        out.push(&key, value);
    }
    out
}

/// The UTC calendar date, `YYYY-MM-DD`, of `secs` seconds after the Unix
/// epoch (the proleptic Gregorian calendar, by Hinnant's days-to-civil
/// conversion).
fn utc_date(secs: u64) -> String {
    let days = secs / 86_400;
    // Shift the epoch to 0000-03-01 so each 400-year era starts on a
    // March 1st and the leap day falls at the end of a year.
    let z = days + 719_468;
    let era = z / 146_097;
    let doe = z % 146_097;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + u64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

/// Where smoke-mode reports go: `target/bench-smoke/` under the workspace
/// root, beside the build output and out of version control.
pub fn smoke_dir() -> PathBuf {
    results_dir().with_file_name("target").join("bench-smoke")
}

/// Writes `value` to `<file_name>` in `results/`, or in [`smoke_dir`]
/// when the report's `mode` is `smoke`. See [`write_in`].
pub fn write(file_name: &str, value: &Value) -> std::io::Result<()> {
    let smoke = value.get("mode").and_then(Value::as_str) == Some("smoke");
    let dir = if smoke { smoke_dir() } else { results_dir() };
    write_in(&dir, file_name, value)
}

/// Writes `value` to `dir/<file_name>` whatever its mode, creating the
/// directory, and prints the path. The error names the path.
pub fn write_in(dir: &Path, file_name: &str, value: &Value) -> std::io::Result<()> {
    let path = dir.join(file_name);
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, format!("{value}\n")))
        .map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
    println!("wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Value {
        object! {
            "bench": "t",
            "big": u64::MAX,
            "neg": Value::Int(i64::MIN.into()),
            "ns": 123_456_789_012u128,
            "ratio": 0.1,
            "whole": 1000.0,
            "tiny": 1e-9,
            "flag": false,
            "text": "a \"quoted\" \\ line\n\u{1}é",
            "empty": Vec::<u32>::new(),
            "list": vec![1u32, 2, 3],
            "nested": object! { "inner": object! { "x": Value::Null } },
            "records": vec![object! { "a": 1u32 }, object! { "a": 2u32 }],
        }
    }

    #[test]
    fn written_reports_parse_back_to_the_same_value() {
        let value = sample();
        let text = value.to_string();
        assert_eq!(Value::parse(&text).unwrap(), value, "{text}");
        assert!(text.contains("\"big\": 18446744073709551615"), "{text}");
        assert!(text.contains("\"whole\": 1000.0"), "{text}");
        // Records of scalars sit one per line; the top level is indented.
        assert!(
            text.contains("\n    {\"a\": 1},\n    {\"a\": 2}\n"),
            "{text}"
        );
        assert!(text.contains("\"list\": [1, 2, 3]"), "{text}");
    }

    #[test]
    fn non_finite_floats_are_written_as_null() {
        for f in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let text = object! { "x": f }.to_string();
            assert!(text.contains("\"x\": null"), "{text}");
            let back = Value::parse(&text).unwrap();
            assert_eq!(back.get("x"), Some(&Value::Null));
        }
    }

    #[test]
    fn report_puts_bench_mode_and_meta_first() {
        let value = report(
            "demo",
            true,
            "lfr n=1000 \"quoted\"",
            object! { "rng_seed": 42u64 },
        );
        let Value::Object(entries) = &value else {
            panic!("not an object");
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["bench", "mode", "meta", "rng_seed"]);
        assert_eq!(value.get("mode").and_then(Value::as_str), Some("smoke"));
        let meta = value.get("meta").unwrap();
        assert!(meta.get("git_commit").and_then(Value::as_str).is_some());
        assert!(meta.get("host_threads").and_then(Value::as_u64).is_some());
        let date = meta.get("date").and_then(Value::as_str).unwrap();
        assert!(is_date(date), "{date}");
        // Quotes in the description survive the round trip intact.
        let back = Value::parse(&value.to_string()).unwrap();
        assert_eq!(
            back.get("meta").and_then(|m| m.get("graph")),
            Some(&Value::from("lfr n=1000 \"quoted\""))
        );
    }

    /// True for a `YYYY-MM-DD` string.
    fn is_date(text: &str) -> bool {
        let bytes = text.as_bytes();
        bytes.len() == 10
            && bytes.iter().enumerate().all(|(i, &b)| match i {
                4 | 7 => b == b'-',
                _ => b.is_ascii_digit(),
            })
    }

    #[test]
    fn utc_date_converts_epoch_seconds_to_the_calendar_date() {
        for (secs, date) in [
            (0, "1970-01-01"),
            (86_399, "1970-01-01"),
            (86_400, "1970-01-02"),
            (951_782_400, "2000-02-29"),
            (951_868_800, "2000-03-01"),
            (1_709_164_800, "2024-02-29"),
            (1_735_689_599, "2024-12-31"),
            (4_107_542_400, "2100-03-01"),
        ] {
            assert_eq!(utc_date(secs), date, "{secs}");
        }
    }

    /// A smoke report lands in `target/bench-smoke/`, never in the
    /// committed `results/`; a full one lands in `results/`.
    #[test]
    fn smoke_reports_stay_out_of_results() {
        let name = format!("BENCH_test_{}.json", std::process::id());
        let smoke = report("t", true, "g", object! {});
        write(&name, &smoke).unwrap();
        let path = smoke_dir().join(&name);
        assert_eq!(read(&path).unwrap(), smoke);
        assert!(!results_dir().join(&name).exists());
        assert!(smoke_dir().ends_with("target/bench-smoke"));
        std::fs::remove_file(&path).unwrap();

        let full = report("t", false, "g", object! {});
        write(&name, &full).unwrap();
        let path = results_dir().join(&name);
        assert_eq!(read(&path).unwrap(), full);
        std::fs::remove_file(&path).unwrap();
    }

    /// Every committed report (each `!/results/*.json` line of the root
    /// `.gitignore`) parses and carries the shared schema.
    #[test]
    fn committed_reports_parse_with_the_shared_schema() {
        let root = results_dir();
        let gitignore = std::fs::read_to_string(root.parent().unwrap().join(".gitignore")).unwrap();
        let names: Vec<&str> = gitignore
            .lines()
            .filter_map(|l| l.strip_prefix("!/results/"))
            .collect();
        assert!(names.len() >= 5, "{names:?}");
        for name in names {
            let value = read(root.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(
                value.get("bench").and_then(Value::as_str).is_some(),
                "{name}"
            );
            // The ascent-gate baseline is a smoke snapshot from before
            // `meta` existed; the parallel trajectory still holds a smoke
            // run until its full sweep is recorded.
            let (mode, has_meta) = match name {
                "BENCH_hotpath_baseline.json" => ("smoke", false),
                "BENCH_parallel.json" => ("smoke", true),
                _ => ("full", true),
            };
            assert_eq!(
                value.get("mode").and_then(Value::as_str),
                Some(mode),
                "{name}"
            );
            let meta = value.get("meta");
            assert_eq!(meta.is_some(), has_meta, "{name}");
            if let Some(meta) = meta {
                assert!(
                    meta.get("git_commit").and_then(Value::as_str).is_some(),
                    "{name}"
                );
                assert!(
                    meta.get("host_threads").and_then(Value::as_u64).is_some(),
                    "{name}"
                );
                // `date` joined `meta` later; reports recorded before it
                // have none.
                if let Some(date) = meta.get("date") {
                    assert!(date.as_str().is_some_and(is_date), "{name}");
                }
            }
        }
    }
}
