//! `run_all` rejects bad flags the way `mgpart` does: one structured
//! `fatal` log line on stderr and exit code 1, never a panic.

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
