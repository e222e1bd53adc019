//! Minimal argument parsing for the CLI (no external dependencies):
//! positionals, `-f value` flags, and boolean `--switches`.

/// Parsed command-line arguments for one subcommand.
#[derive(Debug, Clone, Default)]
pub struct Parsed {
    positionals: Vec<String>,
    flags: Vec<(String, String)>,
    switches: Vec<String>,
}

/// Flags that take a value; everything else starting with `-` is a switch.
const VALUE_FLAGS: &[&str] = &[
    "-p",
    "-e",
    "-m",
    "-o",
    "--engine",
    "--backend",
    "--matrices",
    "--seed",
    "--scale",
    "--threads",
    "--runs",
    // serve / request (the service front end):
    "--listen",
    "--queue",
    "--cache",
    "--collection-scale",
    "--collection-seed",
    "--mtx",
    "--collection",
    "--id",
    "--op",
    "--shard-id",
    // route (the sharding front end):
    "--shards",
    "--window",
    "--heavy-cost",
    "--shard",
    "--replicas",
    "--probe-interval",
    "--read-deadline",
    // request:
    "--timeout",
    // bench (the wire-path benchmark harness):
    "--requests",
    "--validate",
    "--against",
    // observability (serve / route / metrics / trace):
    "--metrics-addr",
    "--log-level",
    "--schema",
    "--input",
    "--trace-slow-ms",
    "--out",
];

impl Parsed {
    /// Splits `argv` into positionals, valued flags and switches.
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut parsed = Parsed::default();
        let mut i = 0;
        while i < argv.len() {
            let token = &argv[i];
            if VALUE_FLAGS.contains(&token.as_str()) {
                let value = argv
                    .get(i + 1)
                    .ok_or_else(|| format!("flag {token} needs a value"))?;
                parsed.flags.push((token.clone(), value.clone()));
                i += 2;
            } else if token.starts_with('-') && token.len() > 1 {
                parsed.switches.push(token.clone());
                i += 1;
            } else {
                parsed.positionals.push(token.clone());
                i += 1;
            }
        }
        Ok(parsed)
    }

    /// The `index`-th positional argument, or an error naming what is
    /// missing.
    pub fn positional(&self, index: usize, what: &str) -> Result<&String, String> {
        self.positionals
            .get(index)
            .ok_or_else(|| format!("missing argument: {what}"))
    }

    /// A valued flag with a default.
    pub fn flag(&self, name: &str, default: &str) -> String {
        self.flag_opt(name).unwrap_or_else(|| default.to_string())
    }

    /// A valued flag, if present.
    pub fn flag_opt(&self, name: &str) -> Option<String> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.clone())
    }

    /// A valued flag parsed into any `FromStr` type, with a default.
    pub fn flag_parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.flag_opt(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|e| format!("bad value for {name}: {e}")),
        }
    }

    /// `true` if the boolean switch is present.
    pub fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn splits_positionals_flags_switches() {
        let p = Parsed::parse(&argv(&["a.mtx", "-p", "4", "--spy", "-e", "0.1"])).unwrap();
        assert_eq!(p.positional(0, "file").unwrap(), "a.mtx");
        assert_eq!(p.flag("-p", "2"), "4");
        assert_eq!(p.flag_parse("-e", 0.03).unwrap(), 0.1);
        assert!(p.has("--spy"));
        assert!(!p.has("--quiet"));
    }

    #[test]
    fn defaults_apply_when_absent() {
        let p = Parsed::parse(&argv(&["m.mtx"])).unwrap();
        assert_eq!(p.flag("-m", "mg-ir"), "mg-ir");
        assert_eq!(p.flag_parse("-p", 2u32).unwrap(), 2);
        assert!(p.flag_opt("-o").is_none());
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(Parsed::parse(&argv(&["-p"])).is_err());
    }

    #[test]
    fn missing_positional_is_an_error() {
        let p = Parsed::parse(&argv(&[])).unwrap();
        assert!(p.positional(0, "matrix file").is_err());
    }

    #[test]
    fn bad_parse_reports_flag_name() {
        let p = Parsed::parse(&argv(&["-p", "many"])).unwrap();
        let err = p.flag_parse("-p", 2u32).unwrap_err();
        assert!(err.contains("-p"));
    }

    #[test]
    fn last_occurrence_wins() {
        let p = Parsed::parse(&argv(&["-m", "lb", "-m", "fg"])).unwrap();
        assert_eq!(p.flag("-m", "mg"), "fg");
    }

    #[test]
    fn serve_and_request_flags_take_values() {
        let p = Parsed::parse(&argv(&[
            "--listen",
            "127.0.0.1:0",
            "--cache",
            "64",
            "--collection-scale",
            "smoke",
            "--op",
            "ping",
        ]))
        .unwrap();
        assert_eq!(p.flag("--listen", ""), "127.0.0.1:0");
        assert_eq!(p.flag_parse("--cache", 128usize).unwrap(), 64);
        assert_eq!(p.flag("--collection-scale", "default"), "smoke");
        assert_eq!(p.flag("--op", "partition"), "ping");
    }

    #[test]
    fn sweep_flags_take_values() {
        let p = Parsed::parse(&argv(&[
            "--scale",
            "smoke",
            "--threads",
            "4",
            "--runs",
            "2",
            "--backend",
            "geometric",
            "--matrices",
            "laplace",
            "--timing",
        ]))
        .unwrap();
        assert_eq!(p.flag("--scale", "default"), "smoke");
        assert_eq!(p.flag_parse("--threads", 0usize).unwrap(), 4);
        assert_eq!(p.flag_parse("--runs", 1u32).unwrap(), 2);
        assert_eq!(p.flag("--backend", "mondriaan"), "geometric");
        assert_eq!(p.flag("--matrices", ""), "laplace");
        assert!(p.has("--timing"));
    }
}
