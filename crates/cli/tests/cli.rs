//! End-to-end tests of the `mgpart` binary: backend selection on the
//! sweep path, the `--verify` recount, the typed empty-sweep failure
//! (nonzero exit), and the backend registry listing.

use std::process::{Command, Output};

fn mgpart(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mgpart"))
        .args(args)
        .output()
        .expect("spawning mgpart")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A small, fast sweep: one matrix (name filter), one cheap method.
fn narrow_sweep(extra: &[&str]) -> Vec<String> {
    let mut args = vec![
        "sweep",
        "--scale",
        "smoke",
        "--matrices",
        "laplace2d_00",
        "-m",
        "mg",
    ];
    args.extend_from_slice(extra);
    args.iter().map(|s| s.to_string()).collect()
}

fn run_narrow_sweep(extra: &[&str]) -> Output {
    let args = narrow_sweep(extra);
    let refs: Vec<&str> = args.iter().map(String::as_str).collect();
    mgpart(&refs)
}

#[test]
fn empty_sweeps_exit_nonzero_with_a_typed_error() {
    let out = run_narrow_sweep(&["--matrices", "no_such_matrix_anywhere"]);
    assert!(
        !out.status.success(),
        "an empty sweep must not exit 0 (stdout: {})",
        stdout(&out)
    );
    let err = stderr(&out);
    assert!(err.contains("empty sweep"), "stderr: {err}");
    assert!(
        stdout(&out).is_empty(),
        "an empty sweep must not emit records"
    );
}

#[test]
fn unknown_backends_exit_nonzero_and_list_the_registry() {
    let out = run_narrow_sweep(&["--backend", "hmetis"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("unknown backend"), "stderr: {err}");
    assert!(err.contains("patoh"), "stderr lists names: {err}");
}

#[test]
fn retired_backends_are_unknown_to_partition_and_sweep() {
    let dir = std::env::temp_dir().join(format!("mgpart-retired-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mtx = dir.join("two.mtx");
    std::fs::write(
        &mtx,
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 1.0\n",
    )
    .unwrap();
    let partition = ["partition", mtx.to_str().unwrap(), "--backend", "geometric"];
    // The retired 1D baseline's name; the lookup ignores case.
    let sweep = narrow_sweep(&["--backend", "Coarse-Grain"]);
    let sweep: Vec<&str> = sweep.iter().map(String::as_str).collect();
    for args in [&partition[..], &sweep[..]] {
        let out = mgpart(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = stderr(&out);
        assert!(
            err.contains("\"event\":\"fatal\"") && err.contains("expected one of mondriaan, patoh"),
            "{args:?} stderr: {err}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sweep_records_carry_the_selected_backend() {
    let out = run_narrow_sweep(&["--backend", "patoh"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let body = stdout(&out);
    assert!(!body.is_empty());
    for line in body.lines() {
        assert!(
            line.contains("\"backend\":\"patoh\""),
            "record missing backend: {line}"
        );
    }
}

#[test]
fn backend_sweeps_are_byte_identical_across_thread_counts() {
    let baseline = run_narrow_sweep(&["--backend", "patoh", "--threads", "1"]);
    assert!(baseline.status.success(), "stderr: {}", stderr(&baseline));
    let four = run_narrow_sweep(&["--backend", "patoh", "--threads", "4"]);
    assert_eq!(stdout(&baseline), stdout(&four));
}

#[test]
fn verify_recounts_volumes_without_perturbing_the_stream() {
    let sweep = ["sweep", "--scale", "smoke", "-m", "lb,mg-ir"];
    let plain = mgpart(&sweep);
    assert!(plain.status.success(), "stderr: {}", stderr(&plain));
    let verified = mgpart(&[&sweep[..], &["--verify"]].concat());
    assert!(verified.status.success(), "stderr: {}", stderr(&verified));
    assert!(!plain.stdout.is_empty());
    assert_eq!(plain.stdout, verified.stdout);
}

/// Both multilevel engines, all 10 methods, over the smoke collection:
/// any change to a partition, a seed or a record field shows here.
#[test]
fn multilevel_sweeps_match_their_goldens() {
    let goldens = [
        (
            "mondriaan",
            include_str!("data/sweep_golden_mondriaan.jsonl"),
        ),
        ("patoh", include_str!("data/sweep_golden_patoh.jsonl")),
    ];
    for (backend, golden) in goldens {
        let out = mgpart(&[
            "sweep",
            "--scale",
            "smoke",
            "--backend",
            backend,
            "-m",
            "rn,rn-ir,cn,cn-ir,lb,lb-ir,fg,fg-ir,mg,mg-ir",
            "--threads",
            "2",
        ]);
        assert!(out.status.success(), "stderr: {}", stderr(&out));
        assert!(
            stdout(&out) == golden,
            "{backend} sweep differs from tests/data/sweep_golden_{backend}.jsonl"
        );
    }
}

#[test]
fn negative_and_nan_epsilons_are_rejected_by_partition_and_request() {
    let dir = std::env::temp_dir().join(format!("mgpart-eps-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mtx = dir.join("two.mtx");
    std::fs::write(
        &mtx,
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 1.0\n",
    )
    .unwrap();
    let mtx = mtx.to_str().unwrap();
    let runs: [&[&str]; 3] = [
        &["partition", mtx, "-e", "-1"],
        &["partition", mtx, "-e", "nan"],
        &["request", "--print", "--collection", "grid_01", "-e", "nan"],
    ];
    for args in runs {
        let out = mgpart(args);
        assert!(!out.status.success(), "{args:?} must exit nonzero");
        let err = stderr(&out);
        assert!(
            err.contains("must be finite and non-negative"),
            "{args:?} stderr: {err}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn request_against_a_dead_endpoint_exits_nonzero_with_a_typed_error() {
    // Bind-and-drop an ephemeral port: plausibly real, certainly refused.
    let addr = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().to_string()
    };
    let out = mgpart(&["request", &addr, "--op", "ping"]);
    assert!(
        !out.status.success(),
        "a refused connection must not exit 0 (stdout: {})",
        stdout(&out)
    );
    assert_eq!(out.status.code(), Some(1));
    let body = stdout(&out);
    let line = body.lines().next().unwrap_or_default();
    assert!(
        line.starts_with("{\"id\":null,\"status\":\"error\",\"code\":\"connection_refused\""),
        "stdout carries the typed error line: {body}"
    );
    assert!(line.contains(&addr), "the address is named: {line}");
    let err = stderr(&out);
    assert!(
        err.contains("\"level\":\"error\"") && err.contains("\"event\":\"fatal\""),
        "stderr still explains, as a structured event: {err}"
    );
}

#[test]
fn request_timeout_exits_nonzero_with_a_typed_error() {
    // A listener that accepts the connection but never answers: without
    // --timeout this would hang forever; with it, the client emits a
    // typed request_timeout line and exits nonzero.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let silent = std::thread::spawn(move || {
        // Accept and hold the connection open without responding until
        // the client hangs up.
        let (stream, _) = listener.accept().unwrap();
        let mut sink = Vec::new();
        use std::io::Read as _;
        let _ = std::io::BufReader::new(stream).read_to_end(&mut sink);
    });
    let out = mgpart(&[
        "request",
        &addr,
        "--op",
        "ping",
        "--id",
        "42",
        "--timeout",
        "0.2",
    ]);
    silent.join().unwrap();
    assert!(
        !out.status.success(),
        "a timed-out request must not exit 0 (stdout: {})",
        stdout(&out)
    );
    assert_eq!(out.status.code(), Some(1));
    let body = stdout(&out);
    let line = body.lines().next().unwrap_or_default();
    assert!(
        line.starts_with("{\"id\":42,\"status\":\"error\",\"code\":\"request_timeout\""),
        "stdout carries the typed error line: {body}"
    );
    assert!(line.contains(&addr), "the address is named: {line}");
    assert!(stderr(&out).contains("timed out"), "stderr still explains");
}

#[test]
fn route_rejects_malformed_ports_with_a_typed_error() {
    for shards in ["a=127.0.0.1:1*0", "a=127.0.0.1:1*4000000000"] {
        let out = mgpart(&["route", "--shards", shards]);
        assert!(!out.status.success(), "{shards:?} must exit nonzero");
        let err = stderr(&out);
        assert!(
            err.contains("topology error") && err.contains("bad shard spec"),
            "{shards:?} stderr: {err}"
        );
    }
}

#[test]
fn serve_and_route_reject_options_they_do_not_take() {
    // Unlisted options and stray words fail first, naming the offender;
    // every option the USAGE sections list gets past the check and the
    // run fails later, on a value or on the empty topology.
    for (line, named) in [
        ("route --shards 127.0.0.1:1 --replica 2", "--replica"),
        ("route --shards 127.0.0.1:1 --cache 1", "--cache"),
        ("serve --thread 2 stray", "--thread"),
        ("serve stray", "stray"),
        ("serve --timing", "--timing"),
        (
            "serve --listen h:1 --queue 1 --cache 1 --seed 1 --backend patoh \
             --collection-scale smoke --collection-seed 1 \
             --shard-id s0 --metrics-addr h:2 --trace-slow-ms 1 --threads many",
            "bad value for --threads",
        ),
        (
            "route --listen h:1 --window 1 --replicas 2 --probe-interval 1 \
             --read-deadline 1 --metrics-addr h:2 --trace-slow-ms 1",
            "zero shards",
        ),
    ] {
        let args: Vec<&str> = line.split_whitespace().collect();
        let out = mgpart(&args);
        assert!(!out.status.success(), "{line:?} must exit nonzero");
        let err = stderr(&out);
        assert!(err.contains(named), "{line:?} stderr: {err}");
    }
}

#[test]
fn route_rejects_zero_replicas_with_a_typed_error() {
    let out = mgpart(&["route", "--shards", "127.0.0.1:1", "--replicas", "0"]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("replicas"),
        "stderr: {}",
        stderr(&out)
    );
}

#[test]
fn route_rejects_zero_shard_topologies_with_a_typed_error() {
    for args in [vec!["route"], vec!["route", "--shards", " , "]] {
        let out = mgpart(&args);
        assert!(!out.status.success(), "{args:?} must exit nonzero");
        let err = stderr(&out);
        assert!(
            err.contains("topology error") && err.contains("zero shards"),
            "{args:?} stderr: {err}"
        );
    }
}

#[test]
fn route_rejects_duplicate_shard_ids_with_a_typed_error() {
    let out = mgpart(&["route", "--shards", "a=127.0.0.1:1,a=127.0.0.1:2"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(
        err.contains("topology error") && err.contains("more than once"),
        "stderr: {err}"
    );
    let out = mgpart(&["route", "--shards", "x=127.0.0.1:1,y=127.0.0.1:1"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("address"), "duplicate addresses too");
}

#[test]
fn request_print_emits_shard_addressed_stats_lines() {
    let out = mgpart(&["request", "--op", "stats", "--shard", "s1", "--print"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert_eq!(stdout(&out).trim(), r#"{"op":"stats","shard":"s1"}"#);
    let bad = mgpart(&["request", "--op", "ping", "--shard", "s1", "--print"]);
    assert!(!bad.status.success(), "--shard is stats-only");
}

#[test]
fn log_level_flag_is_global_and_typo_checked() {
    // Legal before or after the subcommand.
    for args in [
        ["--log-level", "debug", "backends"],
        ["backends", "--log-level", "debug"],
    ] {
        let out = mgpart(&args);
        assert!(out.status.success(), "{args:?} stderr: {}", stderr(&out));
        assert!(stdout(&out).contains("mondriaan"), "{args:?} still runs");
    }
    // An unknown level is a fatal structured error, nonzero exit.
    let out = mgpart(&["--log-level", "nonsense", "backends"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(
        err.contains("unknown log level") && err.contains("\"event\":\"fatal\""),
        "stderr: {err}"
    );
}

#[test]
fn backends_listing_names_every_registered_backend() {
    let out = mgpart(&["backends"]);
    assert!(out.status.success());
    let body = stdout(&out);
    let (table, default) = body.split_once("\n\n").expect("table, then default");
    let names: Vec<&str> = table
        .lines()
        .skip(1)
        .filter_map(|line| line.split_whitespace().next())
        .collect();
    assert_eq!(names, ["mondriaan", "patoh"], "{body}");
    assert_eq!(default, "default: mondriaan\n");
}

/// Runs `line` and expects a nonzero exit whose fatal log line carries
/// `named` (JSON-escaped there).
fn fails_naming(line: &str, named: &str) {
    let args: Vec<&str> = line.split_whitespace().collect();
    let out = mgpart(&args);
    assert!(!out.status.success(), "{line:?} must exit nonzero");
    let err = stderr(&out);
    let escaped = named.replace('"', "\\\"");
    assert!(err.contains(&escaped), "{line:?} stderr: {err}");
}

// Each subcommand rejects an option its USAGE section does not list and
// a positional beyond its count, naming the offender; with every listed
// option the run gets past the check and fails later, on its input.

#[test]
fn partition_rejects_options_it_does_not_take() {
    fails_naming(
        "partition m.mtx --epslion 0.5 -m mg",
        "partition does not take \"--epslion\"",
    );
    fails_naming("partition m.mtx extra", "partition does not take \"extra\"");
    fails_naming(
        "partition m.mtx --engine patoh",
        "partition does not take \"--engine\"",
    );
    fails_naming(
        "partition /no/such.mtx -p 2 -e 0.1 -m mg -o o --backend patoh --seed 1 --spy",
        "No such file",
    );
}

#[test]
fn analyze_rejects_options_it_does_not_take() {
    fails_naming("analyze m.mtx --spy", "analyze does not take \"--spy\"");
    fails_naming("analyze m.mtx extra", "analyze does not take \"extra\"");
    fails_naming("analyze /no/such.mtx", "No such file");
}

#[test]
fn generate_rejects_options_it_does_not_take() {
    fails_naming(
        "generate laplace2d 4 --sed 1",
        "generate does not take \"--sed\"",
    );
    fails_naming(
        "generate laplace2d 4 extra",
        "generate does not take \"extra\"",
    );
    fails_naming("generate no_family 4 -o x.mtx --seed 1", "unknown family");
}

#[test]
fn volume_rejects_options_it_does_not_take() {
    fails_naming("volume d.mtx --verify", "volume does not take \"--verify\"");
    fails_naming("volume d.mtx extra", "volume does not take \"extra\"");
    fails_naming("volume /no/such.mtx", "No such file");
}

#[test]
fn backends_rejects_options_it_does_not_take() {
    fails_naming("backends --json", "backends does not take \"--json\"");
    fails_naming("backends extra", "backends does not take \"extra\"");
}

#[test]
fn sweep_rejects_options_it_does_not_take() {
    fails_naming(
        "sweep --bogus-flag --scale smoke -m mg --matrices laplace2d_00",
        "sweep does not take \"--bogus-flag\"",
    );
    fails_naming("sweep --help", "sweep does not take \"--help\"");
    fails_naming("sweep extra", "sweep does not take \"extra\"");
    fails_naming(
        "sweep --scale smoke --threads 1 --runs 1 -m mg -e 0.03 --backend mondriaan \
         --matrices no_such_matrix --seed 1 -o x.jsonl --timing --verify",
        "empty sweep",
    );
}

#[test]
fn request_rejects_options_it_does_not_take() {
    fails_naming(
        "request --op ping --print --include_partition",
        "request does not take \"--include_partition\"",
    );
    fails_naming(
        "request h:1 extra --print",
        "request does not take \"extra\"",
    );
    fails_naming(
        "request --op bogus --mtx m --collection c --inline -m mg --backend patoh \
         -e 0.1 --seed 1 --id 1 --shard s --include-partition --timeout 1 \
         --trace --print",
        "unknown op",
    );
}

#[test]
fn bench_rejects_options_it_does_not_take() {
    fails_naming("bench --quik", "bench does not take \"--quik\"");
    fails_naming("bench extra", "bench does not take \"extra\"");
    fails_naming(
        "bench --validate /no/such.json --against x --requests 1 --threads 1 --quick \
         --json -o x",
        "No such file",
    );
}

#[test]
fn metrics_rejects_options_it_does_not_take() {
    fails_naming(
        "metrics --input f --scheme s",
        "metrics does not take \"--scheme\"",
    );
    fails_naming("metrics h:1 extra", "metrics does not take \"extra\"");
    fails_naming("metrics --input /no/such --schema s", "No such file");
}

#[test]
fn trace_rejects_options_it_does_not_take() {
    fails_naming("trace h:1 --reprot", "trace does not take \"--reprot\"");
    fails_naming("trace 127.0.0.1:1 127.0.0.1:2 --out x --report", "scraping");
}
