//! `mgpart` — command-line front end for the medium-grain
//! partitioning library (the role `Mondriaan` plays for the original C
//! implementation).
//!
//! ```text
//! mgpart partition <matrix.mtx> [-p N] [-e EPS] [-m METHOD] [-o out.mtx] [--seed S] [--spy]
//! mgpart analyze   <matrix.mtx>
//! mgpart generate  <family> [size] [-o out.mtx] [--seed S]
//! mgpart volume    <distributed.mtx>
//! mgpart sweep     [--scale S] [--threads N] [--runs N] [-m LIST] [-e LIST] [-o out.jsonl]
//! mgpart serve     [--listen ADDR] [--threads N] [--cache N] ...
//! mgpart request   [ADDR] [--mtx FILE | --collection NAME] [-m METHOD] ...
//! mgpart help
//! ```

use mg_bench::{run_batch_sweep, BatchSweepConfig};
use mg_collection::{CollectionScale, CollectionSpec};
use mg_core::service::ErrorCode;
use mg_core::{
    all_backends, parse_backend, recursive_bisection, Granularity, Method, PartitionBackend,
    DEFAULT_BACKEND,
};
use mg_router::{Router, RouterConfig, RouterTcpServer, Topology};
use mg_server::json::obj;
use mg_server::{error_response, Json, Service, ServiceConfig, TcpServer};
use mg_sparse::{
    bsp_cost, communication_volume, dist_io, gen, io, load_imbalance, spy, spy_partitioned,
    CommunicationReport, Coo, Idx, PatternStats,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

mod args;
mod bench;
use args::Parsed;

const USAGE: &str = "\
mgpart — 2D sparse matrix partitioning (Pelt & Bisseling, IPDPS 2014)

USAGE:
  mgpart partition <matrix.mtx> [options]   bipartition / p-way partition
  mgpart analyze   <matrix.mtx>             pattern statistics + spy plot
  mgpart generate  <family> [size]          write a synthetic matrix
  mgpart volume    <distributed.mtx>        metrics of a stored partition
  mgpart backends                           list registered partition backends
  mgpart sweep     [options]                batched collection sweep (JSON lines)
  mgpart serve     [options]                streaming partition service (JSON lines)
  mgpart route     --shards LIST [options]  sharding front end over mg-server shards
  mgpart request   [ADDR] [options]         build / send one service request
  mgpart bench     [options]                wire-path benchmark (BENCH trajectory)
  mgpart metrics   <ADDR> [--schema FILE]   scrape a --metrics-addr endpoint
  mgpart trace     <ADDR>... [options]      scrape /trace endpoints (Perfetto JSON)
  mgpart help

GLOBAL OPTIONS:
  --log-level L   error | warn | info | debug | trace  (default info; the
                  MGPART_LOG environment variable sets the same thing).
                  Diagnostics are structured JSON lines on stderr; stdout
                  carries only protocol responses and command output.

PARTITION OPTIONS:
  -p N          number of parts (default 2; >2 uses recursive bisection)
  -e EPS        load imbalance (default 0.03)
  -m METHOD     mg | mg-ir | lb | lb-ir | fg | fg-ir | rn | cn  (default mg-ir)
  -o FILE       write the distributed matrix (Mondriaan-style format)
  --backend B   mondriaan | patoh | coarse-grain | geometric  (default mondriaan;
                --engine is accepted as an alias)
  --seed S      RNG seed (default 2014)
  --spy         render a partition spy plot

SWEEP OPTIONS:
  --scale S     smoke | default | large  (default smoke)
  --threads N   worker threads, 0 = all cores  (default 0)
  --runs N      repetitions per (matrix, method, eps) cell  (default 1)
  -m LIST       comma-separated methods  (default lb,lb-ir,mg,mg-ir,fg,fg-ir)
  -e LIST       comma-separated epsilons  (default 0.03)
  --backend B   backend every cell runs on  (default mondriaan)
  --matrices L  comma-separated name substrings; keep matching matrices only.
                A filter that matches nothing is an error, not an empty sweep.
  --seed S      master seed; every cell derives its own stream  (default 2014)
  -o FILE       write JSON lines to FILE instead of stdout
  --timing      append mean wall-clock time to each line (non-deterministic)
  --verify      recount every volume from the per-row/column lambda scans
                and abort on any mismatch

  Results are bit-identical for any --threads value: each cell is seeded
  from a stable hash of its (backend, matrix, method, eps) key, not sweep
  order.

SERVE OPTIONS (protocol: crates/server/PROTOCOL.md):
  --listen ADDR TCP listen address (e.g. 127.0.0.1:7077; port 0 = ephemeral);
                omit for stdio pipe mode (requests on stdin, responses on stdout)
  --threads N   worker threads, each running one job at a time,
                0 = all cores  (default 0)
  --queue N     bounded submission queue; full = backpressure  (default 256)
  --cache N     LRU response-cache entries, 0 = off  (default 128)
  --seed S      master seed for requests without one  (default 2014)
  --backend B   default backend for requests without a \"backend\" field
                (default mondriaan)
  --engine B    alias of --backend
  --collection-scale S   collection served to {\"collection\": name} requests
                         (smoke | default | large, default smoke)
  --collection-seed S    seed of that collection  (default 11)
  --timing      append non-deterministic time_ms to computed responses
  --shard-id ID diagnostic shard tag added to stats/error responses
                (for shards behind mgpart route; omit to stay untagged)
  --metrics-addr HOST:PORT   serve a Prometheus-style text snapshot of the
                metrics registry on a side TCP port (out-of-band: never
                touches the protocol stream; scrape with `mgpart metrics`).
                The same endpoint serves collected spans on its /trace
                route (scrape with `mgpart trace`)
  --trace-slow-ms N   slow-request trace sampler: record a trace for every
                untraced partition request that takes at least N ms
                (0 = every request). Explicitly traced requests are
                always recorded; responses are byte-identical either way

ROUTE OPTIONS (semantics: crates/server/PROTOCOL.md, \"Routing\"):
  --shards LIST comma-separated shard specs [id=]host:port; ids default
                to s0,s1,... and feed the rendezvous placement. Zero
                shards, duplicate ids or addresses, and a missing host or
                non-numeric port are typed config errors.
  --listen ADDR TCP listen address; omit for stdio pipe mode
  --cache N     router-level LRU response cache entries, 0 = off  (default 128)
  --window N    max in-flight requests per shard connection  (default 64)
  --replicas R  replication factor: each key's top-R rendezvous ranks form
                its replica set; requests go to the best-ranked live
                replica and fail over down the ranking on shard death
                (default 1 = single-owner placement, prober disabled)
  --probe-interval S  seconds between background health probes (ping per
                      shard; only runs with --replicas > 1; default 0.5)
  --read-deadline S   seconds a forwarded request may stay unanswered
                      before its replica is declared dead and the request
                      fails over (default: wait forever)
  --metrics-addr HOST:PORT   same side-channel metrics endpoint as serve,
                      with the router families (dispatches, failovers,
                      probe transitions, replica liveness) always exposed
  --trace-slow-ms N   same slow-request trace sampler as serve; sampled
                      requests are forwarded with a propagated trace
                      context, so shard-side spans land in the shards'
                      own /trace collectors

REQUEST OPTIONS:
  ADDR          server address; omit with --print to just emit the JSON line
  --mtx FILE    matrix payload from a Matrix Market file
  --collection NAME      ask for a named collection matrix instead
  --inline      convert --mtx FILE to inline COO triplets (exercises the
                third payload kind)
  -m METHOD     method name  (default mg-ir)
  --backend B   request an explicit backend  (omitted = server default)
  -e EPS        load imbalance  (default 0.03)
  --seed S      request seed (optional)
  --id ID       correlation id echoed by the server
  --op OP       partition | ping | stats | shutdown  (default partition)
  --shard ID    address a stats request to one shard of a router topology
  --include-partition    ask for the full per-nonzero assignment
  --timeout S   read deadline in seconds; a server that accepts the
                connection but never answers yields a typed
                request_timeout error line and a nonzero exit
                (default: wait forever)
  --trace       stamp a fresh trace context onto a partition request (the
                trace id is logged to stderr); scrape the server's /trace
                route afterwards to collect the spans
  --print       print the request line instead of sending it

BENCH OPTIONS (schema: mgpart-bench/v1; trajectory files: BENCH_<n>.json):
  --requests N  base request count per workload  (default 96; --quick 24)
  --threads N   worker threads of each measured service, 0 = all cores
  --quick       smaller counts for CI smoke runs
  --json        print the machine-readable JSON document to stdout
  -o FILE       write the JSON document to FILE
  --validate F  schema-check a bench document and enforce the trajectory
                gates (binary beats JSON on request bytes for inline-COO
                workloads and on throughput for the decode-bound cached
                workload; compute workloads kernel-bound; ≥1.3× speedup
                on 2 of 3 hot phases when the document carries a compute
                improvement block); nonzero exit on violation
  --against F   with --validate: also compare the document's compute-phase
                shares to committed trajectory file F within a tolerance
                band (machine-speed independent regression gate)

METRICS OPTIONS (schema: crates/obs/metrics.schema):
  ADDR          a --metrics-addr endpoint to scrape; the snapshot is
                printed to stdout
  --input FILE  validate a saved exposition snapshot instead of scraping
  --schema FILE also validate the snapshot: every family and sample must
                match the declared names/kinds; nonzero exit on mismatch

TRACE OPTIONS:
  ADDR...       one or more --metrics-addr endpoints; their /trace routes
                are scraped and merged into one Chrome-trace-event
                document (each endpoint becomes its own pid/process
                track), printed to stdout. Load it at ui.perfetto.dev or
                chrome://tracing.
  --out FILE    write the merged document to FILE instead of stdout
  --report      also render a human-readable summary to stdout: the span
                tree per trace, request-latency p50/p99, and per-phase
                time shares (the paper's Fig. 5 breakdown)

GENERATE FAMILIES:
  laplace2d [k]   5-point Laplacian on a k×k grid      (default k = 64)
  laplace3d [k]   7-point Laplacian on a k×k×k grid    (default k = 16)
  rmat [scale]    RMAT power-law, 2^scale vertices     (default scale = 12)
  random [n]      square Erdős–Rényi with diagonal     (default n = 2000)
  gd97b           the paper's Fig 3 demonstration twin
";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            mg_obs::log::error("fatal", &[("message", message.as_str().into())]);
            ExitCode::FAILURE
        }
    }
}

/// Applies `MGPART_LOG`, then a `--log-level` flag anywhere on the
/// command line (the flag wins).
fn init_logging(argv: &[String]) -> Result<(), String> {
    mg_obs::log::init_from_env();
    if let Some(at) = argv.iter().position(|a| a == "--log-level") {
        let value = argv
            .get(at + 1)
            .ok_or("flag --log-level needs a value".to_string())?;
        let level = mg_obs::log::parse_level(value)
            .ok_or_else(|| format!("unknown log level {value:?} (error|warn|info|debug|trace)"))?;
        mg_obs::log::set_level(level);
    }
    Ok(())
}

fn run(argv: &[String]) -> Result<(), String> {
    init_logging(argv)?;
    // `--log-level` is global: legal before the subcommand too, so drop
    // the pair before dispatch (subcommand parsers tolerate it inline).
    let argv: Vec<String> = {
        let mut kept = Vec::with_capacity(argv.len());
        let mut skip = false;
        for arg in argv {
            if skip {
                skip = false;
            } else if arg == "--log-level" {
                skip = true;
            } else {
                kept.push(arg.clone());
            }
        }
        kept
    };
    let argv = &argv[..];
    let Some(command) = argv.first() else {
        print!("{USAGE}");
        return Ok(());
    };
    match command.as_str() {
        "partition" => partition(&Parsed::parse(&argv[1..])?),
        "analyze" => analyze(&Parsed::parse(&argv[1..])?),
        "generate" => generate(&Parsed::parse(&argv[1..])?),
        "volume" => volume(&Parsed::parse(&argv[1..])?),
        "backends" => backends(),
        "sweep" => sweep(&Parsed::parse(&argv[1..])?),
        "serve" => serve(&Parsed::parse(&argv[1..])?),
        "route" => route(&Parsed::parse(&argv[1..])?),
        "request" => request(&Parsed::parse(&argv[1..])?),
        "bench" => bench::bench(&Parsed::parse(&argv[1..])?),
        "metrics" => metrics(&Parsed::parse(&argv[1..])?),
        "trace" => trace_cmd(&Parsed::parse(&argv[1..])?),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}; try `mgpart help`")),
    }
}

fn scale_from_name(name: &str) -> Result<CollectionScale, String> {
    Ok(match name {
        "smoke" => CollectionScale::Smoke,
        "default" => CollectionScale::Default,
        "large" => CollectionScale::Large,
        other => return Err(format!("unknown scale {other:?} (smoke|default|large)")),
    })
}

/// Resolves the requested backend: `--backend` is the canonical flag,
/// `--engine` the historical alias (the two original backends *are* the
/// old engine presets, so every old invocation keeps working).
fn backend_from_flags(parsed: &Parsed) -> Result<&'static dyn PartitionBackend, String> {
    let name = parsed
        .flag_opt("--backend")
        .or_else(|| parsed.flag_opt("--engine"))
        .unwrap_or_else(|| DEFAULT_BACKEND.to_string());
    parse_backend(&name)
}

fn backends() -> Result<(), String> {
    println!(
        "{:<14} {:<12} {:<7} {:<6} {:<5} description",
        "name", "granularity", "model", "seed", "geom"
    );
    for backend in all_backends() {
        let caps = backend.capabilities();
        println!(
            "{:<14} {:<12} {:<7} {:<6} {:<5} {}",
            backend.name(),
            match caps.granularity {
                Granularity::Nonzero => "nonzero",
                Granularity::RowOrColumn => "row/column",
            },
            if caps.honors_model { "full" } else { "ir-only" },
            caps.seed_sensitive,
            caps.uses_geometry,
            backend.description()
        );
    }
    println!("\ndefault: {DEFAULT_BACKEND}");
    Ok(())
}

/// Parses one ε value: eqn (1) needs a finite, non-negative slack.
fn parse_epsilon(raw: &str) -> Result<f64, String> {
    let value = raw
        .parse::<f64>()
        .map_err(|err| format!("bad epsilon {raw:?}: {err}"))?;
    if !value.is_finite() || value < 0.0 {
        return Err(format!("epsilon {raw:?} must be finite and non-negative"));
    }
    Ok(value)
}

/// The single-valued `-e` flag (default 0.03), checked by [`parse_epsilon`].
fn epsilon_flag(parsed: &Parsed) -> Result<f64, String> {
    parsed
        .flag_opt("-e")
        .map_or(Ok(0.03), |raw| parse_epsilon(&raw))
}

fn partition(parsed: &Parsed) -> Result<(), String> {
    let path = parsed.positional(0, "matrix file")?;
    let a = io::read_matrix_market_file(path).map_err(|e| e.to_string())?;
    let p: Idx = parsed.flag_parse("-p", 2)?;
    let epsilon = epsilon_flag(parsed)?;
    let method = Method::parse_name(&parsed.flag("-m", "mg-ir"))?;
    let backend = backend_from_flags(parsed)?;
    let seed: u64 = parsed.flag_parse("--seed", 2014)?;
    if p < 1 {
        return Err("-p must be at least 1".into());
    }

    let start = std::time::Instant::now();
    let partition = if p == 2 {
        backend.bipartition(&a, method, epsilon, seed).partition
    } else {
        recursive_bisection(&a, p, epsilon, method, backend, seed).partition
    };
    let elapsed = start.elapsed().as_secs_f64();

    let report = CommunicationReport::compute(&a, &partition);
    let cost = bsp_cost(&a, &partition);
    println!(
        "{path}: {}x{}, {} nonzeros -> {p} parts with {} on {} in {elapsed:.3}s",
        a.rows(),
        a.cols(),
        a.nnz(),
        method.label(),
        backend.name()
    );
    println!("  {}", report.render());
    println!(
        "  imbalance {:.4} (eps {epsilon}), BSP cost {} (fan-out {} + fan-in {})",
        load_imbalance(&partition),
        cost.total(),
        cost.fanout_h,
        cost.fanin_h
    );
    if parsed.has("--spy") {
        println!("{}", spy_partitioned(&a, &partition, 72, 36));
    }
    if let Some(out) = parsed.flag_opt("-o") {
        dist_io::write_distributed_file(&a, &partition, &out).map_err(|e| e.to_string())?;
        println!("  written: {out}");
    }
    Ok(())
}

fn analyze(parsed: &Parsed) -> Result<(), String> {
    let path = parsed.positional(0, "matrix file")?;
    let a = io::read_matrix_market_file(path).map_err(|e| e.to_string())?;
    let s = PatternStats::compute(&a);
    println!("{path}:");
    println!("  size           {} x {}", s.rows, s.cols);
    println!("  nonzeros       {}", s.nnz);
    println!("  class          {}", s.class());
    println!("  symmetry       {:.3}", s.pattern_symmetry);
    println!("  density        {:.3e}", s.density());
    println!("  avg row nnz    {:.2}", s.avg_row_nnz);
    println!("  max row/col    {} / {}", s.max_row_nnz, s.max_col_nnz);
    println!("  empty rows     {}", s.empty_rows);
    println!("  empty cols     {}", s.empty_cols);
    println!("  diagonal nnz   {}", s.diagonal_nnz);
    println!("{}", spy(&a, 72, 36));
    Ok(())
}

fn generate(parsed: &Parsed) -> Result<(), String> {
    let family = parsed.positional(0, "generator family")?;
    let seed: u64 = parsed.flag_parse("--seed", 2014)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let size: Option<u64> = match parsed.positional(1, "") {
        Ok(v) => Some(v.parse::<u64>().map_err(|e| format!("bad size: {e}"))?),
        Err(_) => None,
    };
    let a: Coo = match family.as_str() {
        "laplace2d" => {
            let k = size.unwrap_or(64) as Idx;
            gen::laplacian_2d(k, k)
        }
        "laplace3d" => {
            let k = size.unwrap_or(16) as Idx;
            gen::laplacian_3d(k, k, k)
        }
        "rmat" => {
            let scale = size.unwrap_or(12) as u32;
            gen::rmat(scale, 8usize << scale, 0.57, 0.19, 0.19, &mut rng)
        }
        "random" => {
            let n = size.unwrap_or(2000) as Idx;
            gen::erdos_renyi_square(n, 8 * n as usize, &mut rng)
        }
        "gd97b" => mg_collection::gd97b_twin(),
        other => return Err(format!("unknown family {other:?}")),
    };
    let default_name = format!("{family}.mtx");
    let out = parsed.flag("-o", &default_name);
    io::write_matrix_market_file(&a, &out).map_err(|e| e.to_string())?;
    println!(
        "{out}: {}x{}, {} nonzeros ({})",
        a.rows(),
        a.cols(),
        a.nnz(),
        PatternStats::compute(&a).class()
    );
    Ok(())
}

fn sweep(parsed: &Parsed) -> Result<(), String> {
    let scale = scale_from_name(&parsed.flag("--scale", "smoke"))?;
    let threads: usize = parsed.flag_parse("--threads", 0)?;
    let runs: u32 = parsed.flag_parse("--runs", 1)?;
    let seed: u64 = parsed.flag_parse("--seed", 2014)?;
    let backend = backend_from_flags(parsed)?;
    let methods: Vec<Method> = match parsed.flag_opt("-m") {
        None => Method::paper_set().to_vec(),
        Some(list) => list
            .split(',')
            .map(Method::parse_name)
            .collect::<Result<_, _>>()?,
    };
    let epsilons: Vec<f64> = match parsed.flag_opt("-e") {
        None => vec![0.03],
        Some(list) => list
            .split(',')
            .map(parse_epsilon)
            .collect::<Result<_, _>>()?,
    };
    if methods.is_empty() || epsilons.is_empty() {
        return Err("sweep needs at least one method and one epsilon".into());
    }
    let matrices: Option<Vec<String>> = parsed.flag_opt("--matrices").map(|list| {
        list.split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect()
    });

    let mut config = BatchSweepConfig::paper(CollectionSpec { seed, scale }, backend.name(), runs);
    config.methods = methods;
    config.epsilons = epsilons;
    config.matrices = matrices;
    config.seed = seed;
    config.threads = threads;
    config.verify = parsed.has("--verify");

    let start = std::time::Instant::now();
    // A sweep that expands to zero jobs (e.g. a --matrices filter that
    // matches nothing) is a typed setup error and a nonzero exit — never
    // a silent empty success.
    let records = run_batch_sweep(&config).map_err(|e| e.to_string())?;
    let timing = parsed.has("--timing");
    let mut out = String::new();
    for record in &records {
        out.push_str(&if timing {
            record.json_line_with_timing()
        } else {
            record.json_line()
        });
        out.push('\n');
    }
    match parsed.flag_opt("-o") {
        Some(path) => {
            std::fs::write(&path, &out).map_err(|e| format!("writing {path}: {e}"))?;
            mg_obs::log::info(
                "sweep_done",
                &[
                    ("path", path.as_str().into()),
                    ("cells", records.len().into()),
                    (
                        "matrices",
                        records
                            .iter()
                            .map(|r| &r.matrix)
                            .collect::<std::collections::HashSet<_>>()
                            .len()
                            .into(),
                    ),
                    ("seconds", start.elapsed().as_secs_f64().into()),
                ],
            );
        }
        None => print!("{out}"),
    }
    Ok(())
}

/// Binds the out-of-band `--metrics-addr` exposition endpoint if asked.
/// The returned handle keeps the endpoint alive until it drops.
fn metrics_endpoint(parsed: &Parsed) -> Result<Option<mg_obs::MetricsServer>, String> {
    let Some(addr) = parsed.flag_opt("--metrics-addr") else {
        return Ok(None);
    };
    let server = mg_obs::MetricsServer::bind(&addr)
        .map_err(|e| format!("binding metrics endpoint {addr}: {e}"))?;
    mg_obs::log::info(
        "metrics_listening",
        &[("addr", server.local_addr.to_string().into())],
    );
    Ok(Some(server))
}

fn metrics(parsed: &Parsed) -> Result<(), String> {
    let from_file = parsed.flag_opt("--input");
    let text = match &from_file {
        Some(path) => std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?,
        None => {
            let addr = parsed.positional(0, "metrics address (HOST:PORT), or --input FILE")?;
            mg_obs::scrape(addr).map_err(|e| format!("scraping {addr}: {e}"))?
        }
    };
    if let Some(schema_path) = parsed.flag_opt("--schema") {
        let schema_text = std::fs::read_to_string(&schema_path)
            .map_err(|e| format!("reading {schema_path}: {e}"))?;
        let schema =
            mg_obs::parse_schema(&schema_text).map_err(|e| format!("schema {schema_path}: {e}"))?;
        let samples = mg_obs::validate_exposition(&text, &schema)
            .map_err(|e| format!("exposition does not match {schema_path}: {e}"))?;
        mg_obs::log::info(
            "metrics_validated",
            &[
                ("samples", samples.into()),
                ("schema", schema_path.as_str().into()),
            ],
        );
    }
    // A scrape prints the snapshot; --input only validates (the caller
    // already has the file).
    if from_file.is_none() {
        print!("{text}");
    }
    Ok(())
}

/// `mgpart trace`: scrapes one or more `/trace` routes and merges them
/// into a single Chrome-trace-event document — each endpoint becomes
/// its own pid, so one Perfetto timeline shows router and shard spans
/// of the same trace id side by side.
fn trace_cmd(parsed: &Parsed) -> Result<(), String> {
    let mut addrs: Vec<String> = Vec::new();
    while let Ok(addr) = parsed.positional(addrs.len(), "") {
        addrs.push(addr.clone());
    }
    if addrs.is_empty() {
        return Err("trace needs at least one --metrics-addr endpoint (HOST:PORT)".into());
    }
    let mut docs = Vec::new();
    for addr in &addrs {
        let text = mg_obs::scrape_trace(addr).map_err(|e| format!("scraping {addr}: {e}"))?;
        let doc =
            Json::parse(text.trim()).map_err(|e| format!("trace document from {addr}: {e}"))?;
        docs.push(doc);
    }
    let merged = merge_trace_docs(&docs)?;
    let mut rendered = String::new();
    merged.write(&mut rendered);
    rendered.push('\n');
    let report = parsed.has("--report");
    match parsed.flag_opt("--out") {
        Some(path) => {
            std::fs::write(&path, &rendered).map_err(|e| format!("writing {path}: {e}"))?;
            mg_obs::log::info(
                "trace_written",
                &[
                    ("path", path.as_str().into()),
                    ("endpoints", addrs.len().into()),
                ],
            );
        }
        // With --report the JSON goes to stdout only when asked for via
        // --out; the report is the primary output.
        None if !report => print!("{rendered}"),
        None => {}
    }
    if report {
        print!("{}", render_trace_report(&merged));
    }
    Ok(())
}

/// Concatenates scraped trace documents, remapping each source onto its
/// own pid (1-based, in address order) so process tracks stay distinct.
fn merge_trace_docs(docs: &[Json]) -> Result<Json, String> {
    let mut events: Vec<Json> = Vec::new();
    for (source, doc) in docs.iter().enumerate() {
        let pid = source as u64 + 1;
        let list = doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("endpoint #{} returned no traceEvents array", source + 1))?;
        for event in list {
            let Json::Obj(fields) = event else { continue };
            let mut fields = fields.clone();
            for (name, value) in &mut fields {
                if name == "pid" {
                    *value = Json::UInt(pid);
                }
            }
            events.push(Json::Obj(fields));
        }
    }
    Ok(obj(vec![
        ("displayTimeUnit", Json::Str("ms".into())),
        ("traceEvents", Json::Arr(events)),
    ]))
}

/// One complete (`ph:"X"`) span event of a merged trace document.
struct TraceEvent<'a> {
    name: &'a str,
    pid: u64,
    ts: u64,
    dur: u64,
    trace: &'a str,
    span: &'a str,
    parent: Option<&'a str>,
}

/// Renders the human-readable `--report` view: per-trace span trees
/// (process-tagged), request-latency quantiles, and the per-phase time
/// shares of the paper's Fig. 5 breakdown.
fn render_trace_report(doc: &Json) -> String {
    use std::collections::BTreeMap;
    let empty = [];
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .unwrap_or(&empty);
    // pid -> process name, from the metadata events.
    let mut processes: BTreeMap<u64, &str> = BTreeMap::new();
    let mut spans: Vec<TraceEvent> = Vec::new();
    for event in events {
        let name = event.get("name").and_then(Json::as_str).unwrap_or("");
        let pid = event.get("pid").and_then(Json::as_u64).unwrap_or(0);
        match event.get("ph").and_then(Json::as_str) {
            Some("M") if name == "process_name" => {
                if let Some(process) = event
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                {
                    processes.insert(pid, process);
                }
            }
            Some("X") => {
                let args = event.get("args");
                let field = |key| args.and_then(|a| a.get(key)).and_then(Json::as_str);
                let (Some(trace), Some(span)) = (field("trace"), field("span")) else {
                    continue;
                };
                spans.push(TraceEvent {
                    name,
                    pid,
                    ts: event.get("ts").and_then(Json::as_u64).unwrap_or(0),
                    dur: event.get("dur").and_then(Json::as_u64).unwrap_or(0),
                    trace,
                    span,
                    parent: field("parent"),
                });
            }
            _ => {}
        }
    }
    let mut by_trace: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (at, span) in spans.iter().enumerate() {
        by_trace.entry(span.trace).or_default().push(at);
    }
    let ms = |us: u64| us as f64 / 1000.0;
    let mut out = String::new();
    let mut request_durs: Vec<u64> = Vec::new();
    let mut phase_totals: BTreeMap<&str, u64> = BTreeMap::new();
    for (trace, members) in &by_trace {
        out.push_str(&format!("trace {trace} ({} spans)\n", members.len()));
        let ids: std::collections::BTreeSet<&str> =
            members.iter().map(|&at| spans[at].span).collect();
        // Roots: spans whose parent is outside this document (or absent).
        let mut children: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut roots: Vec<usize> = Vec::new();
        for &at in members {
            match spans[at].parent.filter(|p| ids.contains(p)) {
                Some(parent) => children.entry(parent).or_default().push(at),
                None => roots.push(at),
            }
        }
        let order = |list: &mut Vec<usize>| {
            list.sort_by_key(|&at| (spans[at].ts, spans[at].span.to_string()));
        };
        order(&mut roots);
        for list in children.values_mut() {
            order(list);
        }
        // Depth-first tree render with an explicit stack.
        let mut stack: Vec<(usize, usize)> = roots.iter().rev().map(|&at| (at, 1)).collect();
        while let Some((at, depth)) = stack.pop() {
            let span = &spans[at];
            let process = processes.get(&span.pid).copied().unwrap_or("?");
            out.push_str(&format!(
                "{}[{process}] {} {:.3}ms\n",
                "  ".repeat(depth),
                span.name,
                ms(span.dur),
            ));
            if let Some(kids) = children.get(span.span) {
                for &kid in kids.iter().rev() {
                    stack.push((kid, depth + 1));
                }
            }
            if span.name == "request" && span.parent.filter(|p| ids.contains(p)).is_none() {
                request_durs.push(span.dur);
            }
            if mg_obs::PHASES.contains(&span.name) {
                *phase_totals.entry(span.name).or_default() += span.dur;
            }
        }
    }
    if !request_durs.is_empty() {
        request_durs.sort_unstable();
        let quantile = |q: f64| {
            let at = ((request_durs.len() - 1) as f64 * q).round() as usize;
            ms(request_durs[at])
        };
        out.push_str(&format!(
            "requests: n={}, p50={:.3}ms, p99={:.3}ms\n",
            request_durs.len(),
            quantile(0.50),
            quantile(0.99),
        ));
    }
    let phase_sum: u64 = phase_totals.values().sum();
    if phase_sum > 0 {
        out.push_str("phase shares:");
        for phase in mg_obs::PHASES {
            let total = phase_totals.get(phase).copied().unwrap_or(0);
            out.push_str(&format!(
                " {phase} {:.1}%",
                total as f64 * 100.0 / phase_sum as f64
            ));
        }
        out.push('\n');
    }
    out
}

/// The options a USAGE section lists: the `--flag` opening each of its
/// lines, from the line starting with `heading` to the next blank line.
fn usage_flags(heading: &str) -> Vec<&'static str> {
    USAGE
        .lines()
        .skip_while(|line| !line.starts_with(heading))
        .skip(1)
        .take_while(|line| !line.is_empty())
        .filter(|line| line.starts_with("  --"))
        .filter_map(|line| line.split_whitespace().next())
        .collect()
}

fn serve(parsed: &Parsed) -> Result<(), String> {
    parsed.allow_only("serve", &usage_flags("SERVE OPTIONS"))?;
    let config = ServiceConfig {
        threads: parsed.flag_parse("--threads", 0usize)?,
        queue_capacity: parsed.flag_parse("--queue", 256usize)?,
        cache_capacity: parsed.flag_parse("--cache", 128usize)?,
        master_seed: parsed.flag_parse("--seed", 2014u64)?,
        default_backend: backend_from_flags(parsed)?.name(),
        collection: CollectionSpec {
            seed: parsed.flag_parse("--collection-seed", 11u64)?,
            scale: scale_from_name(&parsed.flag("--collection-scale", "smoke"))?,
        },
        timing: parsed.has("--timing"),
        shard_id: parsed.flag_opt("--shard-id"),
        trace_slow: trace_slow_flag(parsed)?,
    };
    // Name this process's track in exported traces: shards show up as
    // their topology id, a standalone server as "server".
    let process = match &config.shard_id {
        Some(id) => format!("shard:{id}"),
        None => "server".to_string(),
    };
    mg_obs::trace::collector().set_process(&process);
    // Bound before the protocol transport and held to the end of the
    // run: scrapes work from the first request to the post-drain state.
    let _metrics = metrics_endpoint(parsed)?;
    let service = Service::start(config);
    match parsed.flag_opt("--listen") {
        Some(addr) => {
            let server =
                TcpServer::bind(service, &addr).map_err(|e| format!("binding {addr}: {e}"))?;
            mg_obs::log::info(
                "server_listening",
                &[("addr", server.local_addr.to_string().into())],
            );
            // Blocks until a client sends the in-band shutdown op, then
            // drains every in-flight job before returning.
            server.join();
            mg_obs::log::info("server_stopped", &[("drained", true.into())]);
        }
        None => {
            let summary = service.run_session(std::io::stdin().lock(), std::io::stdout());
            service.shutdown_and_join();
            mg_obs::log::info(
                "session_done",
                &[
                    ("requests", summary.received.into()),
                    ("responses", summary.responses.into()),
                    ("cache_hits", summary.cache_hits.into()),
                    ("errors", summary.errors.into()),
                ],
            );
        }
    }
    Ok(())
}

/// Parses the `--trace-slow-ms` sampler threshold (milliseconds; 0 =
/// trace everything).
fn trace_slow_flag(parsed: &Parsed) -> Result<Option<std::time::Duration>, String> {
    Ok(parsed
        .flag_opt("--trace-slow-ms")
        .map(|raw| {
            raw.parse::<u64>()
                .map_err(|e| format!("bad value for --trace-slow-ms: {e}"))
        })
        .transpose()?
        .map(std::time::Duration::from_millis))
}

/// Parses a duration flag given in (fractional) seconds.
fn seconds_flag(parsed: &Parsed, name: &str) -> Result<Option<std::time::Duration>, String> {
    let Some(raw) = parsed.flag_opt(name) else {
        return Ok(None);
    };
    let seconds: f64 = raw
        .parse()
        .map_err(|e| format!("bad value for {name}: {e}"))?;
    if !seconds.is_finite() || seconds < 0.0 {
        return Err(format!("{name} must be a non-negative number of seconds"));
    }
    Ok(Some(std::time::Duration::from_secs_f64(seconds)))
}

fn route(parsed: &Parsed) -> Result<(), String> {
    parsed.allow_only("route", &usage_flags("ROUTE OPTIONS"))?;
    // A missing --shards list is the empty topology: same typed error,
    // nonzero exit.
    let topology = Topology::parse(&parsed.flag("--shards", ""))
        .map_err(|e| format!("topology error: {e}"))?;
    let probe_interval =
        seconds_flag(parsed, "--probe-interval")?.unwrap_or(RouterConfig::default().probe_interval);
    let config = RouterConfig {
        window: parsed.flag_parse("--window", 64usize)?,
        cache_capacity: parsed.flag_parse("--cache", 128usize)?,
        replicas: parsed.flag_parse("--replicas", 1usize)?,
        probe_interval,
        read_deadline: seconds_flag(parsed, "--read-deadline")?,
        trace_slow: trace_slow_flag(parsed)?,
        ..RouterConfig::default()
    };
    let shard_count = topology.len();
    mg_obs::trace::collector().set_process("router");
    let _metrics = metrics_endpoint(parsed)?;
    let router = Router::new(topology, config)?;
    // Startup barrier: a mistyped shard address fails here, not on the
    // first request.
    router.connect_all()?;
    match parsed.flag_opt("--listen") {
        Some(addr) => {
            let server = RouterTcpServer::bind(std::sync::Arc::new(router), &addr)
                .map_err(|e| format!("binding {addr}: {e}"))?;
            mg_obs::log::info(
                "router_listening",
                &[
                    ("addr", server.local_addr.to_string().into()),
                    ("shards", shard_count.into()),
                ],
            );
            server.join();
            mg_obs::log::info("router_stopped", &[]);
        }
        None => {
            let summary = router.run_session(std::io::stdin().lock(), std::io::stdout());
            mg_obs::log::info(
                "session_done",
                &[
                    ("requests", summary.received.into()),
                    ("responses", summary.responses.into()),
                    ("forwarded", summary.forwarded.into()),
                    ("cache_hits", summary.cache_hits.into()),
                    ("errors", summary.errors.into()),
                ],
            );
        }
    }
    Ok(())
}

fn request(parsed: &Parsed) -> Result<(), String> {
    let op = parsed.flag("--op", "partition");
    let mut fields: Vec<(&str, Json)> = Vec::new();
    if let Some(raw) = parsed.flag_opt("--id") {
        let id = match raw.parse::<u64>() {
            Ok(n) => Json::UInt(n),
            Err(_) => Json::Str(raw),
        };
        fields.push(("id", id));
    }
    match op.as_str() {
        "partition" => {
            let matrix = if let Some(name) = parsed.flag_opt("--collection") {
                obj(vec![("collection", Json::Str(name))])
            } else if let Some(path) = parsed.flag_opt("--mtx") {
                if parsed.has("--inline") {
                    let a = io::read_matrix_market_file(&path).map_err(|e| e.to_string())?;
                    obj(vec![
                        ("rows", Json::UInt(u64::from(a.rows()))),
                        ("cols", Json::UInt(u64::from(a.cols()))),
                        (
                            "entries",
                            Json::Arr(
                                a.iter()
                                    .map(|(i, j)| {
                                        Json::Arr(vec![
                                            Json::UInt(u64::from(i)),
                                            Json::UInt(u64::from(j)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                } else {
                    let text = std::fs::read_to_string(&path)
                        .map_err(|e| format!("reading {path}: {e}"))?;
                    obj(vec![("mtx", Json::Str(text))])
                }
            } else {
                return Err("partition requests need --mtx FILE or --collection NAME".into());
            };
            fields.push(("matrix", matrix));
            let method = Method::parse_name(&parsed.flag("-m", "mg-ir"))?;
            fields.push(("method", Json::Str(method.name().into())));
            if let Some(name) = parsed
                .flag_opt("--backend")
                .or_else(|| parsed.flag_opt("--engine"))
            {
                let backend = parse_backend(&name)?;
                fields.push(("backend", Json::Str(backend.name().into())));
            }
            fields.push(("epsilon", Json::Num(epsilon_flag(parsed)?)));
            if let Some(seed) = parsed.flag_opt("--seed") {
                let seed: u64 = seed.parse().map_err(|e| format!("bad seed: {e}"))?;
                fields.push(("seed", Json::UInt(seed)));
            }
            if parsed.has("--include-partition") {
                fields.push(("include_partition", Json::Bool(true)));
            }
            if parsed.has("--trace") {
                // A fresh root context: the receiving server (or router)
                // opens its `request` span as the trace's root. The id
                // goes to stderr so scripts can find the trace in a
                // later `/trace` scrape.
                let trace_id = mg_obs::trace::next_trace_id();
                let hex = mg_obs::trace::trace_id_hex(trace_id);
                fields.push(("trace", obj(vec![("id", Json::Str(hex.clone()))])));
                mg_obs::log::info("trace_stamped", &[("trace", hex.as_str().into())]);
            }
        }
        "ping" | "stats" | "shutdown" => {
            fields.push(("op", Json::Str(op.clone())));
            if let Some(shard) = parsed.flag_opt("--shard") {
                if op != "stats" {
                    return Err("--shard only applies to --op stats".into());
                }
                fields.push(("shard", Json::Str(shard)));
            }
        }
        other => {
            return Err(format!(
                "unknown op {other:?} (partition|ping|stats|shutdown)"
            ))
        }
    }
    let request_id = fields
        .iter()
        .find(|(name, _)| *name == "id")
        .map(|(_, id)| id.clone())
        .unwrap_or(Json::Null);
    let line = obj(fields).to_string();
    if parsed.has("--print") {
        println!("{line}");
        return Ok(());
    }
    let timeout = seconds_flag(parsed, "--timeout")?.filter(|t| !t.is_zero());

    let addr = parsed.positional(0, "server address (or use --print)")?;
    // An unreachable endpoint is a *typed* protocol-shaped error line on
    // stdout (code `connection_refused`) plus a nonzero exit — scripts
    // parse one JSON line per request whether or not a server was there.
    let mut stream = std::net::TcpStream::connect(addr.as_str()).map_err(|e| {
        println!(
            "{}",
            error_response(
                &Json::Null,
                ErrorCode::ConnectionRefused,
                &format!("connecting to {addr}: {e}"),
                None,
            )
        );
        format!("connecting to {addr}: {e}")
    })?;
    {
        use std::io::Write as _;
        stream
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|()| stream.flush())
            .map_err(|e| format!("sending request: {e}"))?;
    }
    // --timeout: a server that accepts the connection but never answers
    // must not hang the client forever — surface a *typed* error line
    // (code `request_timeout`, echoing the request id) plus a nonzero
    // exit, exactly like `connection_refused` above.
    if let Some(timeout) = timeout {
        stream
            .set_read_timeout(Some(timeout))
            .map_err(|e| format!("setting --timeout: {e}"))?;
    }
    let mut reader = std::io::BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("cloning stream: {e}"))?,
    );
    let mut response = String::new();
    {
        use std::io::BufRead as _;
        reader.read_line(&mut response).map_err(|e| {
            let timed_out = timeout.filter(|_| {
                matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                )
            });
            if let Some(t) = timed_out {
                let secs = t.as_secs_f64();
                println!(
                    "{}",
                    error_response(
                        &request_id,
                        ErrorCode::RequestTimeout,
                        &format!("no response from {addr} within {secs:.3}s"),
                        None,
                    )
                );
                format!("request timed out after {secs:.3}s")
            } else {
                format!("reading response: {e}")
            }
        })?;
    }
    if response.is_empty() {
        return Err("server closed the connection without a response".into());
    }
    print!("{response}");
    Ok(())
}

fn volume(parsed: &Parsed) -> Result<(), String> {
    let path = parsed.positional(0, "distributed matrix file")?;
    let (a, partition) = dist_io::read_distributed_file(path).map_err(|e| e.to_string())?;
    let report = CommunicationReport::compute(&a, &partition);
    let cost = bsp_cost(&a, &partition);
    println!(
        "{path}: {}x{}, {} nonzeros, {} parts",
        a.rows(),
        a.cols(),
        a.nnz(),
        partition.num_parts()
    );
    println!("  {}", report.render());
    println!("  volume check: {}", communication_volume(&a, &partition));
    println!(
        "  imbalance {:.4}, BSP cost {}",
        load_imbalance(&partition),
        cost.total()
    );
    Ok(())
}
