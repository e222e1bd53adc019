//! The bench binaries reject bad input the way `mgpart` does: one
//! structured `fatal` log line on stderr and exit code 1, never a panic.

use std::process::Command;

#[test]
fn bad_flags_are_a_fatal_log_line_and_exit_1() {
    for (args, message) in [
        (&["--runs", "x"][..], "--runs takes an integer"),
        (&["--bogus"][..], "unknown flag \\\"--bogus\\\""),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
            .args(args)
            .env(
                "MG_RESULTS_DIR",
                std::env::temp_dir().join("mg-run-all-cli"),
            )
            .output()
            .expect("run_all starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("\"level\":\"error\"") && stderr.contains("\"event\":\"fatal\""),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing runs");
    }
}

/// A results directory that cannot be created (its parent is a regular
/// file) is a fatal log line and exit 1 from both binaries, before any
/// experiment runs — not a panic after Fig 3.
#[test]
fn unusable_results_dir_is_a_fatal_log_line_and_exit_1() {
    let blocker = std::env::temp_dir().join(format!("mg-results-blocker-{}", std::process::id()));
    std::fs::write(&blocker, "a regular file").expect("temp file");
    for (exe, args) in [
        (env!("CARGO_BIN_EXE_run_all"), &["--scale", "smoke"][..]),
        (env!("CARGO_BIN_EXE_fig3_demo"), &[][..]),
    ] {
        let out = Command::new(exe)
            .args(args)
            .env("MG_RESULTS_DIR", blocker.join("results"))
            .output()
            .expect("binary starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{exe}: {stderr}");
        assert!(
            stderr.contains("\"level\":\"error\"") && stderr.contains("\"event\":\"fatal\""),
            "{exe}: {stderr}"
        );
        assert!(stderr.contains("results directory"), "{exe}: {stderr}");
        assert!(!stderr.contains("panicked"), "{exe}: {stderr}");
        assert!(out.stdout.is_empty(), "{exe}: nothing runs");
    }
    std::fs::remove_file(&blocker).ok();
}
