//! Minimal `--key value` argument parsing (the sanctioned dependency set
//! has no CLI crate, so this is hand-rolled and well-tested).

use std::collections::HashMap;

/// Parsed command line: a subcommand plus `--key value` options.
#[derive(Debug, Clone, Default)]
pub struct Cli {
    /// The subcommand (first positional argument).
    pub command: Option<String>,
    /// Positional arguments after the subcommand (e.g. the `save` in
    /// `cover save`).
    positionals: Vec<String>,
    /// All `--key value` pairs (last occurrence wins).
    options: HashMap<String, String>,
    /// Bare `--flag`s with no value.
    flags: Vec<String>,
}

impl Cli {
    /// Parses an argument vector (excluding the program name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let args: Vec<String> = args.into_iter().collect();
        let mut cli = Cli::default();
        let mut i = 0usize;
        while i < args.len() {
            if let Some(key) = args[i].strip_prefix("--") {
                let next_is_value = args
                    .get(i + 1)
                    .map(|v| !v.starts_with("--"))
                    .unwrap_or(false);
                if next_is_value {
                    cli.options.insert(key.to_string(), args[i + 1].clone());
                    i += 2;
                } else {
                    cli.flags.push(key.to_string());
                    i += 1;
                }
            } else {
                if cli.command.is_none() {
                    cli.command = Some(args[i].clone());
                } else {
                    cli.positionals.push(args[i].clone());
                }
                i += 1;
            }
        }
        cli
    }

    /// Parses from the process environment.
    pub fn from_env() -> Self {
        Cli::parse(std::env::args().skip(1))
    }

    /// Typed option lookup with a default; malformed values are reported
    /// as errors rather than silently replaced by the default.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{key}: {v:?}")),
        }
    }

    /// String option lookup.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(|s| s.as_str())
    }

    /// Required string option.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get_str(key)
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    /// The `i`-th positional argument after the subcommand.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(|s| s.as_str())
    }

    /// True if `--flag` was given (with no value).
    pub fn has_flag(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }

    /// All `--key value` option keys that were given.
    pub fn option_keys(&self) -> impl Iterator<Item = &str> {
        self.options.keys().map(|k| k.as_str())
    }

    /// The value of every given option, by key.
    pub fn option_pairs(&self) -> impl Iterator<Item = (&str, &str)> {
        self.options.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Rejects options and flags the subcommand does not declare, so a
    /// typo like `--thread 4` is an error listing the valid set instead of
    /// being silently ignored.
    pub fn ensure_known(&self, options: &[&str], flags: &[&str]) -> Result<(), String> {
        let list = |keys: &[&str]| {
            keys.iter()
                .map(|k| format!("--{k}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let mut unknown_options: Vec<&str> = self
            .option_keys()
            .filter(|k| !options.contains(k))
            .collect();
        unknown_options.sort_unstable();
        if let Some(key) = unknown_options.first() {
            return Err(format!(
                "unknown option --{key}; valid options: {}",
                list(options)
            ));
        }
        let unknown_flag = self.flags.iter().find(|f| !flags.contains(&f.as_str()));
        if let Some(flag) = unknown_flag {
            return Err(if flags.is_empty() {
                format!("unknown flag --{flag}; this command takes no flags")
            } else {
                format!("unknown flag --{flag}; valid flags: {}", list(flags))
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Cli {
        Cli::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn subcommand_and_options() {
        let cli = parse("detect --input g.edges --algorithm oca --seed 7");
        assert_eq!(cli.command.as_deref(), Some("detect"));
        assert_eq!(cli.get_str("input"), Some("g.edges"));
        assert_eq!(cli.get::<u64>("seed", 0), Ok(7));
        assert_eq!(cli.get::<usize>("missing", 42), Ok(42));
    }

    #[test]
    fn flags_without_values() {
        let cli = parse("generate --family lfr --quiet --nodes 100");
        assert!(cli.has_flag("quiet"));
        assert!(!cli.has_flag("loud"));
        assert_eq!(cli.get::<usize>("nodes", 0), Ok(100));
    }

    #[test]
    fn trailing_flag() {
        let cli = parse("stats --verbose");
        assert!(cli.has_flag("verbose"));
        assert_eq!(cli.command.as_deref(), Some("stats"));
    }

    #[test]
    fn extra_positionals_are_kept_in_order() {
        let cli = parse("cover save --input g.edges extra");
        assert_eq!(cli.command.as_deref(), Some("cover"));
        assert_eq!(cli.positional(0), Some("save"));
        assert_eq!(cli.positional(1), Some("extra"));
        assert_eq!(cli.positional(2), None);
        assert_eq!(cli.get_str("input"), Some("g.edges"));
    }

    #[test]
    fn get_rejects_malformed_values() {
        let cli = parse("detect --threads eight --seed 7");
        assert_eq!(cli.get::<usize>("threads", 1).ok(), None);
        assert!(cli
            .get::<usize>("threads", 1)
            .unwrap_err()
            .contains("--threads"));
        assert_eq!(cli.get::<usize>("missing", 3), Ok(3));
        assert_eq!(cli.get::<u64>("seed", 0), Ok(7));
        // Negative numbers are not swallowed into the default either.
        let cli = parse("detect --threads -4");
        assert!(cli.get::<usize>("threads", 1).is_err());
    }

    #[test]
    fn last_option_wins() {
        let cli = parse("x --seed 1 --seed 2");
        assert_eq!(cli.get::<u64>("seed", 0), Ok(2));
    }

    #[test]
    fn require_reports_missing() {
        let cli = parse("detect");
        assert!(cli.require("input").is_err());
        assert!(cli.require("input").unwrap_err().contains("--input"));
    }

    #[test]
    fn empty_args() {
        let cli = parse("");
        assert!(cli.command.is_none());
    }

    #[test]
    fn ensure_known_accepts_declared_sets() {
        let cli = parse("detect --input g.edges --seed 7 --quiet");
        cli.ensure_known(&["input", "seed"], &["quiet"]).unwrap();
    }

    #[test]
    fn ensure_known_rejects_typo_options_listing_valid_ones() {
        let cli = parse("detect --input g.edges --thread 4");
        let err = cli.ensure_known(&["input", "threads"], &[]).unwrap_err();
        assert!(err.contains("--thread"), "{err}");
        assert!(err.contains("--threads"), "{err}");
        assert!(err.contains("--input"), "{err}");
    }

    #[test]
    fn ensure_known_rejects_unknown_flags() {
        let cli = parse("stats --input g.edges --verbos");
        let err = cli.ensure_known(&["input"], &["verbose"]).unwrap_err();
        assert!(
            err.contains("--verbos") && err.contains("--verbose"),
            "{err}"
        );
        let err = cli.ensure_known(&["input"], &[]).unwrap_err();
        assert!(err.contains("no flags"), "{err}");
    }
}
