//! `oca-perfprobe`: the compiled half of the repository benchmark.
//!
//! `perfbench/run.py` drives the `oca` binary the way users do and calls
//! this helper for everything that needs the crates' public functions:
//!
//! ```text
//! cover-check   --nodes N --found C.cover [--reference T.cover]
//! trace-detect  --graph G.ocg --output C.cover --threads T --seed S
//!               [--checkpoint F.ockpt] --spans FILE --run ID
//! search-loop   --graph G.ocg --c C --seed S
//! trace-serve   --graph G.ocg --cover C.bin --seed S [--fixed-c C]
//!               --spans FILE --run ID
//! loadgen       --addr HOST:PORT --nodes N --cover C.bin --rate R --seconds D
//!               --threads T --seed S --p99-limit-us L [--search]
//!               [--spans FILE --run ID]
//! ```
//!
//! Every command prints one JSON object on stdout; `--spans FILE` writes
//! the command's trace spans as JSON lines when it ends, with span run
//! ids under `ID`.

mod detect;
mod json;
mod loadgen;
mod serve;
mod trace;

use std::collections::HashMap;
use std::str::FromStr;

/// `--key value` options after the subcommand; a `--key` followed by
/// another `--key` (or by nothing) is a flag.
pub struct Args {
    map: HashMap<String, Option<String>>,
}

impl Args {
    fn parse(argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut argv = argv.peekable();
        let mut map = HashMap::new();
        while let Some(arg) = argv.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --key, got {arg:?}"))?;
            let value = argv.next_if(|next| !next.starts_with("--"));
            map.insert(key.to_string(), value);
        }
        Ok(Args { map })
    }

    /// The raw value of `--key`, if given.
    pub fn opt(&self, key: &str) -> Option<&str> {
        self.map.get(key).and_then(|v| v.as_deref())
    }

    /// Whether the flag `--key` is given.
    pub fn flag(&self, key: &str) -> bool {
        self.map.contains_key(key)
    }

    /// The raw value of a required `--key`.
    pub fn req(&self, key: &str) -> Result<&str, String> {
        self.opt(key).ok_or_else(|| format!("missing --{key}"))
    }

    /// The value of a required `--key`, parsed.
    pub fn num<T: FromStr>(&self, key: &str) -> Result<T, String> {
        let v = self.req(key)?;
        v.parse()
            .map_err(|_| format!("invalid value for --{key}: {v:?}"))
    }
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_default();
    let result = Args::parse(argv).and_then(|args| match command.as_str() {
        "cover-check" => detect::cover_check(&args),
        "trace-detect" => detect::trace_detect(&args),
        "search-loop" => detect::search_loop(&args),
        "trace-serve" => serve::trace_serve(&args),
        "loadgen" => loadgen::run(&args),
        other => Err(format!(
            "unknown command {other:?}; expected cover-check, trace-detect, \
             search-loop, trace-serve or loadgen"
        )),
    });
    match result {
        Ok(out) => println!("{out}"),
        Err(e) => {
            eprintln!("oca-perfprobe {command}: {e}");
            std::process::exit(1);
        }
    }
}
