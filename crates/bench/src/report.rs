//! Shared plumbing for the experiment binaries: output directory, tiny CLI
//! parsing, and file writing.

use mg_collection::{CollectionScale, CollectionSpec};
use std::io;
use std::path::PathBuf;

/// Command-line options of `run_all`.
///
/// Recognised flags (all optional):
/// `--scale smoke|default|large`, `--runs N`, `--threads N`, `--seed N`.
#[derive(Debug, Clone)]
pub struct CliOptions {
    /// Collection scale.
    pub scale: CollectionScale,
    /// Runs per (matrix, method).
    pub runs: u32,
    /// Worker threads (0 = all cores).
    pub threads: usize,
    /// Collection seed.
    pub seed: u64,
}

impl Default for CliOptions {
    fn default() -> Self {
        CliOptions {
            scale: CollectionScale::Default,
            runs: 3,
            threads: 0,
            seed: CollectionSpec::default().seed,
        }
    }
}

impl CliOptions {
    /// Parses the arguments after the program name; the error names the
    /// offending flag or value.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut opts = CliOptions::default();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            if !matches!(flag.as_str(), "--scale" | "--runs" | "--threads" | "--seed") {
                return Err(format!(
                    "unknown flag {flag:?}; expected --scale/--runs/--threads/--seed"
                ));
            }
            let value = args
                .next()
                .ok_or_else(|| format!("missing value after {flag}"))?;
            let not_an_integer = |_| format!("{flag} takes an integer, got {value:?}");
            match flag.as_str() {
                "--scale" => {
                    opts.scale = match value.as_str() {
                        "smoke" => CollectionScale::Smoke,
                        "default" => CollectionScale::Default,
                        "large" => CollectionScale::Large,
                        other => {
                            return Err(format!("unknown scale {other:?} (smoke|default|large)"))
                        }
                    }
                }
                "--runs" => opts.runs = value.parse().map_err(not_an_integer)?,
                "--threads" => opts.threads = value.parse().map_err(not_an_integer)?,
                _ => opts.seed = value.parse().map_err(not_an_integer)?,
            }
        }
        Ok(opts)
    }

    /// The collection spec these options select.
    pub fn collection(&self) -> CollectionSpec {
        CollectionSpec {
            seed: self.seed,
            scale: self.scale,
        }
    }
}

/// Directory for experiment artifacts: `$MG_RESULTS_DIR` or `./results`,
/// created if missing. The error names the directory.
pub fn results_dir() -> io::Result<PathBuf> {
    let dir = std::env::var_os("MG_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"));
    std::fs::create_dir_all(&dir).map_err(|e| {
        io::Error::new(e.kind(), format!("creating results directory {dir:?}: {e}"))
    })?;
    Ok(dir)
}

/// Writes an artifact into the results directory, returning its path. The
/// error names the file.
pub fn write_artifact(name: &str, content: &str) -> io::Result<PathBuf> {
    let path = results_dir()?.join(name);
    std::fs::write(&path, content)
        .map_err(|e| io::Error::new(e.kind(), format!("writing {path:?}: {e}")))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let o = CliOptions::default();
        assert_eq!(o.runs, 3);
        assert_eq!(o.scale, CollectionScale::Default);
    }

    #[test]
    fn artifacts_land_in_results_dir() {
        std::env::set_var(
            "MG_RESULTS_DIR",
            std::env::temp_dir().join("mg-test-results"),
        );
        let p = write_artifact("probe.txt", "hello").unwrap();
        assert!(p.exists());
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "hello");
        std::fs::remove_file(p).ok();
        std::env::remove_var("MG_RESULTS_DIR");
    }
}
