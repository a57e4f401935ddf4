//! The `oca` command-line tool: generate benchmark graphs, detect
//! overlapping communities (OCA and baselines), evaluate against ground
//! truth, serve covers, and build and check `.ocg` graphs and binary
//! covers. Run `oca help` for usage.

mod args;
mod commands;
mod signals;

fn main() {
    let cli = args::Cli::from_env();
    if let Err(err) = commands::run(&cli) {
        eprintln!("error: {}", err.message);
        std::process::exit(err.code);
    }
}
