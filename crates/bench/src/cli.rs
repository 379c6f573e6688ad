//! The shared command-line parser for the evaluation binaries.
//!
//! All four binaries speak the same dialect:
//!
//! ```text
//! --scale test|paper     evaluation scale        (default: paper)
//! --jobs N               harness worker threads  (default: 1)
//! --cache-dir DIR        content-addressed model-library cache (off by default)
//! --help                 print usage
//! ```
//!
//! Parsing is a pure function over the argument list — no
//! `process::exit` mid-parse — so error handling is testable and lives
//! in one place ([`BenchArgs::from_env`]) at the top of each `main`.
//!
//! Defaults are deliberate: `--jobs 1` keeps the *measured* software
//! wall-clock columns uncontended (parallelism is opt-in), and the cache
//! is opt-in because a cold characterization is itself a reported cost.

use pe_designs::suite::Scale;
use std::fmt;
use std::path::PathBuf;

/// Parsed arguments common to every evaluation binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchArgs {
    /// Evaluation scale (testbench lengths).
    pub scale: Scale,
    /// Worker threads for the `pe-harness` executor.
    pub jobs: usize,
    /// Root of the content-addressed model-library cache, if enabled.
    pub cache_dir: Option<PathBuf>,
}

impl Default for BenchArgs {
    fn default() -> Self {
        Self {
            scale: Scale::Paper,
            jobs: 1,
            cache_dir: None,
        }
    }
}

/// Why parsing stopped without producing [`BenchArgs`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--help` was requested; not an error.
    HelpRequested,
    /// A flag or value was unusable; the message names it.
    Invalid(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::HelpRequested => f.write_str("help requested"),
            CliError::Invalid(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for CliError {}

/// Renders the usage text for one binary.
pub fn usage(binary: &str) -> String {
    usage_with(binary, "")
}

/// Renders the usage text with extra per-binary option lines appended
/// (each line should match the built-in indentation, e.g.
/// `"\x20 --deny RULES         ...\n"`).
pub fn usage_with(binary: &str, extra: &str) -> String {
    format!(
        "usage: {binary} [--scale test|paper] [--jobs N] [--cache-dir DIR]\n\
         \n\
         options:\n\
         \x20 --scale test|paper   evaluation scale (default: paper)\n\
         \x20 --jobs N             worker threads, N >= 1 (default: 1)\n\
         \x20 --cache-dir DIR      reuse characterized model libraries across runs\n\
         {extra}\
         \x20 --help               print this message\n"
    )
}

/// Per-binary flags layered on the shared dialect. A binary that extends
/// the CLI implements this once and parses through
/// [`BenchArgs::from_env_with`]; the shared flags keep working unchanged.
pub trait FlagExt {
    /// Offered an unrecognized `flag` (with any `=value` already split
    /// off). Call `value` to consume the flag's value; return `Ok(true)`
    /// if the flag was handled, `Ok(false)` to reject it as unknown.
    fn flag(
        &mut self,
        flag: &str,
        value: &mut dyn FnMut(&str) -> Result<String, CliError>,
    ) -> Result<bool, CliError>;
}

/// The no-extension parser used by binaries on the plain dialect.
struct NoExt;

impl FlagExt for NoExt {
    fn flag(
        &mut self,
        _flag: &str,
        _value: &mut dyn FnMut(&str) -> Result<String, CliError>,
    ) -> Result<bool, CliError> {
        Ok(false)
    }
}

impl BenchArgs {
    /// Parses an argument list (without the program name). Accepts both
    /// `--flag value` and `--flag=value`.
    ///
    /// # Errors
    ///
    /// [`CliError::HelpRequested`] on `--help`; [`CliError::Invalid`]
    /// for unknown flags, bad values, or missing values.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, CliError> {
        Self::parse_with(args, &mut NoExt)
    }

    /// Like [`BenchArgs::parse`], but offers flags the shared dialect does
    /// not know to `ext` before rejecting them.
    ///
    /// # Errors
    ///
    /// Same as [`BenchArgs::parse`], plus whatever `ext` returns.
    pub fn parse_with(
        args: impl IntoIterator<Item = String>,
        ext: &mut dyn FlagExt,
    ) -> Result<Self, CliError> {
        let mut parsed = Self::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((f, v)) => (f.to_string(), Some(v.to_string())),
                None => (arg, None),
            };
            let mut value = |flag: &str| {
                inline
                    .clone()
                    .or_else(|| args.next())
                    .ok_or_else(|| CliError::Invalid(format!("{flag} requires a value")))
            };
            match flag.as_str() {
                "--help" | "-h" => return Err(CliError::HelpRequested),
                "--scale" => {
                    parsed.scale = match value("--scale")?.as_str() {
                        "test" => Scale::Test,
                        "paper" => Scale::Paper,
                        other => {
                            return Err(CliError::Invalid(format!(
                                "unknown --scale `{other}` (expected `test` or `paper`)"
                            )))
                        }
                    }
                }
                "--jobs" => {
                    let raw = value("--jobs")?;
                    parsed.jobs = raw.parse().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        CliError::Invalid(format!("--jobs `{raw}` is not a positive integer"))
                    })?;
                }
                "--cache-dir" => parsed.cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
                other => {
                    if !ext.flag(other, &mut value)? {
                        return Err(CliError::Invalid(format!(
                            "unknown argument `{other}` (see --help)"
                        )));
                    }
                }
            }
        }
        Ok(parsed)
    }

    /// Parses the process arguments; on `--help` prints usage and exits
    /// 0, on a parse error prints the error plus usage and exits 2. The
    /// only exit points of the CLI layer live here, not mid-parse.
    pub fn from_env(binary: &str) -> Self {
        Self::from_env_with(binary, &mut NoExt, "")
    }

    /// Like [`BenchArgs::from_env`] for binaries with extension flags:
    /// `ext` handles the extra flags, `extra_usage` documents them (see
    /// [`usage_with`]).
    pub fn from_env_with(binary: &str, ext: &mut dyn FlagExt, extra_usage: &str) -> Self {
        match Self::parse_with(std::env::args().skip(1), ext) {
            Ok(parsed) => parsed,
            Err(CliError::HelpRequested) => {
                print!("{}", usage_with(binary, extra_usage));
                std::process::exit(0);
            }
            Err(CliError::Invalid(msg)) => {
                eprint!("error: {msg}\n\n{}", usage_with(binary, extra_usage));
                std::process::exit(2);
            }
        }
    }

    /// Opens the model cache when `--cache-dir` was given; on failure,
    /// warns and runs uncached rather than aborting the evaluation.
    pub fn open_cache(&self) -> Option<pe_harness::ModelCache> {
        let dir = self.cache_dir.as_ref()?;
        match pe_harness::ModelCache::open(dir) {
            Ok(cache) => Some(cache),
            Err(e) => {
                eprintln!(
                    "warning: cannot open cache {}: {e}; running uncached",
                    dir.display()
                );
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<BenchArgs, CliError> {
        BenchArgs::parse(args.iter().map(ToString::to_string))
    }

    #[test]
    fn defaults_are_paper_scale_one_worker_no_cache() {
        assert_eq!(parse(&[]).unwrap(), BenchArgs::default());
    }

    #[test]
    fn all_flags_parse_in_both_spellings() {
        let spaced = parse(&["--scale", "test", "--jobs", "8", "--cache-dir", "/tmp/c"]).unwrap();
        let inline = parse(&["--scale=test", "--jobs=8", "--cache-dir=/tmp/c"]).unwrap();
        assert_eq!(spaced, inline);
        assert_eq!(spaced.scale, Scale::Test);
        assert_eq!(spaced.jobs, 8);
        assert_eq!(
            spaced.cache_dir.as_deref(),
            Some(std::path::Path::new("/tmp/c"))
        );
    }

    #[test]
    fn help_is_not_an_error_message() {
        assert_eq!(parse(&["--help"]).unwrap_err(), CliError::HelpRequested);
        assert_eq!(parse(&["-h"]).unwrap_err(), CliError::HelpRequested);
        assert!(usage("figure3").contains("--cache-dir"));
    }

    #[test]
    fn extension_flags_compose_with_the_shared_dialect() {
        struct DenyExt {
            deny: Option<String>,
            machine: bool,
        }
        impl FlagExt for DenyExt {
            fn flag(
                &mut self,
                flag: &str,
                value: &mut dyn FnMut(&str) -> Result<String, CliError>,
            ) -> Result<bool, CliError> {
                match flag {
                    "--deny" => self.deny = Some(value("--deny")?),
                    "--machine" => self.machine = true,
                    _ => return Ok(false),
                }
                Ok(true)
            }
        }
        let mut ext = DenyExt {
            deny: None,
            machine: false,
        };
        let args = ["--deny=all", "--jobs", "4", "--machine"];
        let parsed = BenchArgs::parse_with(args.iter().map(ToString::to_string), &mut ext).unwrap();
        assert_eq!(parsed.jobs, 4);
        assert_eq!(ext.deny.as_deref(), Some("all"));
        assert!(ext.machine);
        // Flags the extension rejects still fail like unknown flags.
        assert!(matches!(
            BenchArgs::parse_with(
                ["--frobnicate".to_string()].into_iter(),
                &mut DenyExt {
                    deny: None,
                    machine: false
                }
            ),
            Err(CliError::Invalid(_))
        ));
        assert!(usage_with("lint", "\x20 --deny RULES         x\n").contains("--deny RULES"));
    }

    #[test]
    fn common_flag_help_is_identical_across_binaries() {
        // Every binary renders its help through `usage_with`, so the
        // common-flag block (everything after the `usage:` line) must
        // be byte-identical no matter which binary asks.
        let strip = |u: String| u.lines().skip(1).collect::<Vec<_>>().join("\n");
        let reference = strip(usage("figure3"));
        for binary in ["accuracy", "overhead", "capacity", "wide", "trace"] {
            assert_eq!(strip(usage(binary)), reference);
        }
        // Extension lines append between the shared flags and --help,
        // leaving the shared lines untouched.
        let extended = usage_with("lint", "\x20 --deny RULES         x\n");
        for line in reference.lines().filter(|l| l.contains("--")) {
            assert!(extended.contains(line), "extension dropped `{line}`");
        }
    }

    #[test]
    fn bad_input_is_reported_not_exited() {
        for bad in [
            vec!["--scale", "huge"],
            vec!["--scale"],
            vec!["--jobs", "0"],
            vec!["--jobs", "many"],
            vec!["--cache-dir"],
            vec!["--frobnicate"],
        ] {
            assert!(
                matches!(parse(&bad), Err(CliError::Invalid(_))),
                "{bad:?} should be rejected"
            );
        }
    }
}
