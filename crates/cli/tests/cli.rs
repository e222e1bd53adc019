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
    assert!(err.contains("coarse-grain"), "stderr lists names: {err}");
}

#[test]
fn sweep_records_carry_the_selected_backend() {
    let out = run_narrow_sweep(&["--backend", "geometric"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let body = stdout(&out);
    assert!(!body.is_empty());
    for line in body.lines() {
        assert!(
            line.contains("\"backend\":\"geometric\""),
            "record missing backend: {line}"
        );
    }
}

#[test]
fn engine_flag_remains_an_alias_for_backend() {
    let with_engine = run_narrow_sweep(&["--engine", "patoh"]);
    let with_backend = run_narrow_sweep(&["--backend", "patoh"]);
    assert!(
        with_engine.status.success(),
        "stderr: {}",
        stderr(&with_engine)
    );
    assert_eq!(stdout(&with_engine), stdout(&with_backend));
    assert!(stdout(&with_engine).contains("\"backend\":\"patoh\""));
}

#[test]
fn backend_sweeps_are_byte_identical_across_thread_counts() {
    let baseline = run_narrow_sweep(&["--backend", "coarse-grain", "--threads", "1"]);
    assert!(baseline.status.success(), "stderr: {}", stderr(&baseline));
    let four = run_narrow_sweep(&["--backend", "coarse-grain", "--threads", "4"]);
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
        ("serve --thread 2 stray", "--thread"),
        ("serve stray", "stray"),
        (
            "serve --listen h:1 --queue 1 --cache 1 --seed 1 --backend patoh \
             --engine patoh --collection-scale smoke --collection-seed 1 --timing \
             --shard-id s0 --metrics-addr h:2 --trace-slow-ms 1 --threads many",
            "bad value for --threads",
        ),
        (
            "route --listen h:1 --cache 1 --window 1 --replicas 2 --probe-interval 1 \
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
    for name in ["mondriaan", "patoh", "coarse-grain", "geometric"] {
        assert!(body.contains(name), "missing {name}: {body}");
    }
    assert!(body.contains("default: mondriaan"));
}
