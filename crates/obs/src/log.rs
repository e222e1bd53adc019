//! Leveled, structured diagnostics: one JSON object per line on
//! **stderr**. Stdout belongs to protocol responses and stays
//! byte-deterministic; everything here is a side channel.
//!
//! The level comes from `--log-level` (via [`set_level`]) or the
//! `MGPART_LOG` environment variable (via [`init_from_env`]); the
//! default is `info`.

use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Severity, most severe first. `--log-level error` shows only errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Unrecoverable or user-visible failures.
    Error = 1,
    /// Degraded but continuing (failover, probe flap).
    Warn = 2,
    /// Lifecycle milestones (listening, drained). The default.
    Info = 3,
    /// Per-request detail.
    Debug = 4,
    /// Firehose.
    Trace = 5,
}

impl Level {
    fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }
}

/// Parses a level name, case-insensitively.
pub fn parse_level(s: &str) -> Option<Level> {
    match s.to_ascii_lowercase().as_str() {
        "error" => Some(Level::Error),
        "warn" | "warning" => Some(Level::Warn),
        "info" => Some(Level::Info),
        "debug" => Some(Level::Debug),
        "trace" => Some(Level::Trace),
        _ => None,
    }
}

static LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);

/// Sets the global log level.
pub fn set_level(level: Level) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The current global log level.
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        1 => Level::Error,
        2 => Level::Warn,
        4 => Level::Debug,
        5 => Level::Trace,
        _ => Level::Info,
    }
}

/// Whether events at `at` would currently be emitted. Use to skip
/// building expensive field sets.
pub fn enabled(at: Level) -> bool {
    at <= level()
}

/// Applies `MGPART_LOG` if set and valid; silently keeps the default
/// otherwise.
pub fn init_from_env() {
    if let Ok(raw) = std::env::var("MGPART_LOG") {
        if let Some(l) = parse_level(&raw) {
            set_level(l);
        }
    }
}

/// A typed field value; `From` impls cover the common cases so call
/// sites read `("addr", addr.into())`.
#[derive(Debug, Clone)]
pub enum Value {
    /// A string (JSON-escaped on output).
    Str(String),
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float.
    F64(f64),
    /// A boolean.
    Bool(bool),
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::U64(u64::from(v))
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Renders one event as a JSON line (without trailing newline).
/// Exposed for tests; use [`event`] to emit.
pub fn render_event(level: Level, name: &str, fields: &[(&str, Value)]) -> String {
    let ts_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let mut line = String::with_capacity(64 + name.len());
    line.push_str("{\"ts_ms\":");
    line.push_str(&ts_ms.to_string());
    line.push_str(",\"level\":\"");
    line.push_str(level.as_str());
    line.push_str("\",\"event\":\"");
    escape_into(&mut line, name);
    line.push('"');
    for (key, value) in fields {
        line.push_str(",\"");
        escape_into(&mut line, key);
        line.push_str("\":");
        match value {
            Value::Str(s) => {
                line.push('"');
                escape_into(&mut line, s);
                line.push('"');
            }
            Value::U64(v) => line.push_str(&v.to_string()),
            Value::I64(v) => line.push_str(&v.to_string()),
            Value::F64(v) => {
                if v.is_finite() {
                    line.push_str(&format!("{v}"));
                } else {
                    line.push_str("null");
                }
            }
            Value::Bool(v) => line.push_str(if *v { "true" } else { "false" }),
        }
    }
    line.push('}');
    line
}

/// Emits one structured event on stderr if `level` is enabled.
pub fn event(level: Level, name: &str, fields: &[(&str, Value)]) {
    if !enabled(level) {
        return;
    }
    let mut line = render_event(level, name, fields);
    line.push('\n');
    // One write call per event keeps concurrent sessions' lines whole.
    let stderr = std::io::stderr();
    let _ = stderr.lock().write_all(line.as_bytes());
}

/// An `error`-level event.
pub fn error(name: &str, fields: &[(&str, Value)]) {
    event(Level::Error, name, fields);
}

/// A `warn`-level event.
pub fn warn(name: &str, fields: &[(&str, Value)]) {
    event(Level::Warn, name, fields);
}

/// An `info`-level event.
pub fn info(name: &str, fields: &[(&str, Value)]) {
    event(Level::Info, name, fields);
}

/// A `debug`-level event.
pub fn debug(name: &str, fields: &[(&str, Value)]) {
    event(Level::Debug, name, fields);
}

/// A `trace`-level event.
pub fn trace(name: &str, fields: &[(&str, Value)]) {
    event(Level::Trace, name, fields);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_parse() {
        assert!(Level::Error < Level::Trace);
        assert_eq!(parse_level("WARN"), Some(Level::Warn));
        assert_eq!(parse_level("warning"), Some(Level::Warn));
        assert_eq!(parse_level("nope"), None);
    }

    #[test]
    fn render_produces_one_json_object() {
        let line = render_event(
            Level::Info,
            "server_listening",
            &[
                ("addr", "127.0.0.1:7100".into()),
                ("threads", 4usize.into()),
                ("cached", true.into()),
                ("score", 0.5f64.into()),
            ],
        );
        assert!(line.starts_with("{\"ts_ms\":"));
        assert!(line.contains("\"level\":\"info\""));
        assert!(line.contains("\"event\":\"server_listening\""));
        assert!(line.contains("\"addr\":\"127.0.0.1:7100\""));
        assert!(line.contains("\"threads\":4"));
        assert!(line.contains("\"cached\":true"));
        assert!(line.contains("\"score\":0.5"));
        assert!(line.ends_with('}'));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn strings_are_escaped() {
        let line = render_event(Level::Error, "e", &[("msg", "a\"b\\c\nd".into())]);
        assert!(line.contains("\"msg\":\"a\\\"b\\\\c\\nd\""));
    }
}
