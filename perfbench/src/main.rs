//! `perfbench` — one end-to-end benchmark of the RDF-Analytics click loop
//! against the real `rdfa-server` binary, split by layer.
//!
//! ```text
//! bash perfbench/run.sh --workload explore|curate|explore_seg --seed N --seconds S --trace 0|1
//! ```
//!
//! A run generates the products KG from the seed, starts `rdfa-server` on
//! it as a child process (several times, reporting the median time to the
//! first `200` as `setup_s`), warms it, and drives it for `--seconds` with
//! closed-loop keep-alive clients: the analyst replays the click mix, and
//! in `curate` a curator inserts and deletes laptop batches. Every answer is
//! checked against an in-process oracle built from the same file. The last
//! stdout line is the JSON result: end-to-end metrics with `--trace 0`,
//! per-layer metrics with `--trace 1`. The line before it is the run's
//! header (git rev, profile, parallelism, triples, seed, clients, fsync
//! policy, per-percentile sample counts). The traced run also writes its
//! spans to `perfbench/traces/`.

mod drive;
mod http;
mod json;
mod oracle;
mod proc;
mod replay;
mod stats;
mod trace;
mod workload;

use drive::{Checker, ClientLog, OpRecord, Sent};
use http::Client;
use json::Json;
use oracle::Fingerprint;
use proc::{Launch, ServerProc};
use rdfa_datagen::ProductsGenerator;
use rdfa_sparql::Engine;
use rdfa_store::{LoadOptions, PersistConfig, PersistentStore, Store};
use stats::Samples;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workload::{Batch, Kind, Request};

/// Laptops in the generated KG (about 160k triples).
const PRODUCTS: usize = 20_000;
/// Server starts per run; `setup_s` is their median.
const SETUP_RUNS: usize = 7;
/// Updates in the post-window probe of the read-only workloads: enough
/// for ten samples beyond the 80th percentile.
const PROBE_UPDATES: usize = 50;
/// Tail percentile per op kind: the highest that keeps ten samples beyond
/// it on every workload in a 24 s window (at the slowest, `curate` sends
/// about 145 queries and 110 facet panels; the probe sends 50 updates).
const QUERY_TAIL: f64 = 90.0;
const FACETS_TAIL: f64 = 80.0;
const UPDATE_TAIL: f64 = 80.0;
/// Layers that self time is reported for (span name prefixes).
const LAYERS: [&str; 9] = [
    "http", "server", "sparql", "exec", "facets", "views", "store", "persist", "segment",
];
const WORK_DIR: &str = "perfbench/work";
const TRACE_DIR: &str = "perfbench/traces";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// Read-only, in-memory server, one analyst.
    Explore,
    /// Durable server with auto-views, an analyst plus a curator.
    Curate,
    /// `explore` against a durable server restarted on segment files.
    ExploreSeg,
}

impl Workload {
    fn parse(s: &str) -> Result<Workload, String> {
        match s {
            "explore" => Ok(Workload::Explore),
            "curate" => Ok(Workload::Curate),
            "explore_seg" => Ok(Workload::ExploreSeg),
            other => Err(format!(
                "unknown workload {other:?} (explore|curate|explore_seg)"
            )),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Explore => "explore",
            Workload::Curate => "curate",
            Workload::ExploreSeg => "explore_seg",
        }
    }

    fn clients(self) -> usize {
        if self == Workload::Curate {
            2
        } else {
            1
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    server: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut map: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(key.to_owned(), value);
    }
    let get = |k: &str| map.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    let num = |k: &str| {
        get(k)?
            .parse::<u64>()
            .map_err(|_| format!("--{k} must be a whole number"))
    };
    let seconds = num("seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(Args {
        workload: Workload::parse(&get("workload")?)?,
        seed: num("seed")?,
        seconds,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
        server: PathBuf::from(get("server")?),
    })
}

fn main() {
    match parse_args().and_then(|args| run(&args)) {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn io<T>(what: &str, r: std::io::Result<T>) -> Result<T, String> {
    r.map_err(|e| format!("{what}: {e}"))
}

/// Write a durable store directory from the generated file and checkpoint
/// it, so that server start-up times recovery rather than ingest.
fn prepare_store_dir(dir: &Path, kg: &Path, segments: bool) -> Result<(), String> {
    let config = PersistConfig {
        segments,
        ..PersistConfig::default()
    };
    let mut store = PersistentStore::open(dir, config).map_err(|e| e.to_string())?;
    store
        .load_ntriples_path(kg, LoadOptions::default())
        .map_err(|e| e.to_string())?;
    store.checkpoint_fold().map_err(|e| e.to_string())?;
    Ok(())
}

/// Counters from the server's stats routes.
struct ServerStats {
    healthz: Json,
    facets: Json,
    views: Json,
}

impl ServerStats {
    fn fetch(addr: SocketAddr) -> Result<ServerStats, String> {
        let mut client = Client::new(addr);
        let mut get = |path: &str| -> Result<Json, String> {
            let (resp, _) = client.request("GET", path, b"")?;
            if resp.status != 200 {
                return Err(format!("{path}: status {}", resp.status));
            }
            json::parse(&resp.text())
        };
        Ok(ServerStats {
            healthz: get("/healthz")?,
            facets: get("/v1/facets/stats")?,
            views: get("/v1/views/stats")?,
        })
    }
}

/// Expected fingerprints of every request of `mix` against `store`.
fn expectations(store: &Store, requests: &[Request]) -> Result<Vec<Fingerprint>, String> {
    let engine = Engine::builder(store).build();
    requests
        .iter()
        .map(|r| match r.kind {
            Kind::Facets => oracle::expected_facets(store, r.class.as_deref()),
            _ => oracle::expected_query(&engine, &r.body),
        })
        .collect()
}

/// Send each request once, in order, checking it exactly.
fn oracle_pass(addr: SocketAddr, requests: &[Request], expected: &[Fingerprint]) -> Vec<OpRecord> {
    let mut client = Client::new(addr);
    let mut checker = Checker::new(Some(expected));
    requests
        .iter()
        .enumerate()
        .map(|(i, req)| {
            let (timing, error) = drive::exchange(&mut client, req, |r| checker.check(i, req, r));
            OpRecord {
                id: 0,
                kind: req.kind,
                sent: Sent::Request(req.clone()),
                timing,
                error,
                traced: false,
            }
        })
        .collect()
}

/// The post-window write probe of the read-only workloads: insert and
/// delete probe batches alternately, so the KG ends as it started.
fn update_probe(addr: SocketAddr, seed: u64, n_companies: usize) -> Vec<OpRecord> {
    let mut client = Client::new(addr);
    (0..PROBE_UPDATES)
        .map(|n| {
            let batch = Batch::new(seed, "probe", n / 2, n_companies);
            let insert = n % 2 == 0;
            let req = Request::update(if insert {
                batch.insert()
            } else {
                batch.delete()
            });
            let counts = if insert {
                (batch.triples(), 0)
            } else {
                (0, batch.triples())
            };
            let (timing, error) = drive::exchange(&mut client, &req, |r| {
                drive::expect_counts(r, counts.0, counts.1)
            });
            OpRecord {
                id: 3 << 32 | n as u64,
                kind: Kind::Update,
                sent: Sent::Request(req),
                timing,
                error,
                traced: true,
            }
        })
        .collect()
}

/// A fingerprint of the source tree, for checkouts that are not git
/// repositories.
fn source_rev() -> String {
    if let Ok(out) = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
    {
        let rev = String::from_utf8_lossy(&out.stdout).trim().to_owned();
        if out.status.success() && !rev.is_empty() {
            return rev;
        }
    }
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p
                .extension()
                .is_some_and(|x| x == "rs" || x == "toml" || x == "lock")
            {
                files.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("src"), &mut files);
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    format!("tree-{:016x}", oracle::hash64(&bytes))
}

/// Everything the run measured, before it is printed.
struct Outcome {
    metrics: BTreeMap<String, (f64, &'static str)>,
    correct: bool,
    attempted: usize,
    failed: usize,
    header: String,
}

fn run(args: &Args) -> Result<Vec<String>, String> {
    let epoch = Instant::now();
    let work = PathBuf::from(WORK_DIR);
    if work.exists() {
        io("clear work dir", std::fs::remove_dir_all(&work))?;
    }
    io("create work dir", std::fs::create_dir_all(&work))?;
    let outcome = measure(args, &work, epoch);
    // the work dir holds multi-megabyte stores; the trace stays
    let _ = std::fs::remove_dir_all(&work);
    let o = outcome?;
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(k, (v, unit))| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::quote(k),
                json::num(*v),
                json::quote(unit)
            )
        })
        .collect();
    Ok(vec![
        o.header,
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            o.correct,
            o.attempted,
            o.failed,
            metrics.join(",")
        ),
    ])
}

fn measure(args: &Args, work: &Path, epoch: Instant) -> Result<Outcome, String> {
    let wl = args.workload;
    // 1. inputs from the seed
    progress(epoch, "inputs from the seed");
    let generator = ProductsGenerator::new(PRODUCTS, args.seed);
    let n_companies = generator.n_companies;
    let graph = generator.generate();
    let triples = graph.len();
    let kg = work.join("kg.nt");
    io(
        "write KG",
        std::fs::write(&kg, rdfa_model::ntriples::serialize(&graph)),
    )?;
    drop(graph);

    // 2. the in-process oracle, loaded from the same file
    progress(epoch, "the in-process oracle, loaded from the same file");
    let t = Instant::now();
    let mut oracle_store = Store::new();
    oracle_store
        .load_ntriples_path(&kg, LoadOptions::default())
        .map_err(|e| e.to_string())?;
    let load_s = t.elapsed().as_secs_f64();
    let mix = workload::click_mix(&oracle_store)?;
    let expected = expectations(&oracle_store, &mix.requests)?;

    // 3. untimed preparation of the server's directory
    progress(epoch, "untimed preparation of the server's directory");
    let db = work.join("db");
    let replay_db = work.join("replay-db");
    let mut launch = Launch {
        binary: args.server.clone(),
        args: Vec::new(),
        env: Vec::new(),
        log: work.join("server.log"),
    };
    let durable = wl != Workload::Explore;
    match wl {
        Workload::Explore => launch.args.push(kg.display().to_string()),
        Workload::Curate | Workload::ExploreSeg => {
            let segments = wl == Workload::ExploreSeg;
            prepare_store_dir(&db, &kg, segments)?;
            if args.trace {
                prepare_store_dir(&replay_db, &kg, segments)?;
            }
            launch
                .args
                .extend(["--persist".to_owned(), db.display().to_string()]);
            launch
                .env
                .push(("RDFA_FSYNC".to_owned(), "always".to_owned()));
            if segments {
                launch
                    .env
                    .push(("RDFA_SEGMENTS".to_owned(), "1".to_owned()));
            } else {
                launch.args.push("--auto-views".to_owned());
            }
        }
    }

    // 4. set-up time: spawn to first 200, several times
    progress(epoch, "set-up time");
    let mut setups = Vec::new();
    let mut server = None;
    for i in 0..SETUP_RUNS {
        let (p, secs) = ServerProc::start(&launch)?;
        setups.push(secs);
        if i + 1 < SETUP_RUNS {
            p.kill();
        } else {
            server = Some(p);
        }
    }
    let server = server.expect("SETUP_RUNS > 0");
    let addr = server.addr;

    // 5. warm-up: every distinct request once, so caches fill; with views
    //    on, the selector then materializes the shapes it saw
    progress(epoch, "warm-up");
    let mut checks = oracle_pass(addr, &mix.requests, &expected);
    if wl == Workload::Curate {
        let (resp, _) = Client::new(addr).request("POST", "/v1/views/refresh", b"")?;
        if resp.status != 200 {
            return Err(format!("views refresh: status {}", resp.status));
        }
    }

    // 6. the timed window
    progress(epoch, "the timed window");
    let mut tracer = trace::Tracer::new(epoch);
    let t = Instant::now();
    let before = ServerStats::fetch(addr)?;
    tracer.record(None, 0, "server.stats", t, Instant::now());
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let window_start = Instant::now();
    let content = (wl != Workload::Curate).then_some(expected.as_slice());
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let analyst = s.spawn(|| drive::analyst(1, addr, &mix, content, deadline, args.trace));
        let curator = (wl == Workload::Curate).then(|| {
            s.spawn(|| drive::curator(2, addr, args.seed, n_companies, deadline, args.trace))
        });
        let mut logs = vec![analyst.join().expect("analyst thread panicked")];
        if let Some(c) = curator {
            logs.push(c.join().expect("curator thread panicked"));
        }
        logs
    });
    let window_end = logs
        .iter()
        .flat_map(|l| l.ops.iter().filter_map(|o| o.timing.map(|t| t.last_byte)))
        .max()
        .unwrap_or_else(Instant::now);
    let t = Instant::now();
    let after = ServerStats::fetch(addr)?;
    tracer.record(None, 0, "server.stats", t, Instant::now());

    // 7. after the window: the full oracle set against the final state
    progress(epoch, "after the window");
    let mut check_requests = mix.requests.clone();
    let acked: Vec<String> = logs.iter().flat_map(|l| l.acked.iter().cloned()).collect();
    if wl == Workload::Curate {
        check_requests.push(Request::query(
            Kind::Query,
            format!(
                "PREFIX ex: <{}>\nSELECT ?x ?m ?p WHERE {{ ?x a ex:Laptop . ?x ex:manufacturer ?m . ?x ex:price ?p . }}",
                rdfa_datagen::EX
            ),
        ));
        // one request of `;`-chained operations, applied in ack order
        if !acked.is_empty() {
            rdfa_sparql::execute_update(&mut oracle_store, &acked.join(" ;\n"))
                .map_err(|e| e.message())?;
        }
    }
    let final_expected = if wl == Workload::Curate {
        expectations(&oracle_store, &check_requests)?
    } else {
        expected.clone()
    };
    checks.extend(oracle_pass(addr, &check_requests, &final_expected));

    // 8. resources after the window
    progress(epoch, "resources after the window");
    let rss_mib = server.peak_rss_mib()?;
    let disk_bytes = if durable {
        proc::dir_bytes(&db)
    } else {
        io("stat KG", std::fs::metadata(&kg))?.len()
    };
    let after_health = ServerStats::fetch(addr)?.healthz;

    // 9. writes: the curator's window, or the probe of the read-only ones
    progress(epoch, "writes");
    let probe = if wl == Workload::Curate {
        Vec::new()
    } else {
        update_probe(addr, args.seed, n_companies)
    };

    // 10. durability: kill -9, restart on the directory, and read every
    //     laptop back: each acked insert present, each acked delete absent
    progress(epoch, "durability");
    let mut replay_s = 0.0;
    let server = if wl == Workload::Curate {
        server.kill();
        let (restarted, secs) = ServerProc::start(&launch)?;
        replay_s = secs;
        let all_laptops = check_requests.len() - 1;
        checks.extend(oracle_pass(
            restarted.addr,
            &check_requests[all_laptops..],
            &final_expected[all_laptops..],
        ));
        restarted
    } else {
        server
    };

    // 11. traced run: replay the same ops in-process, layer by layer
    progress(epoch, "traced run");
    let window_ops: Vec<&OpRecord> = logs.iter().flat_map(|l| l.ops.iter()).collect();
    let mut layer_metrics: BTreeMap<String, f64> = BTreeMap::new();
    if args.trace {
        let mut recover_s = 0.0;
        let mut replica = if durable {
            let config = PersistConfig {
                segments: wl == Workload::ExploreSeg,
                ..PersistConfig::default()
            };
            let t = Instant::now();
            let opened = PersistentStore::open(&replay_db, config).map_err(|e| e.to_string())?;
            recover_s = t.elapsed().as_secs_f64();
            // a segment generation is mapped, a snapshot decoded and replayed
            let name = if wl == Workload::ExploreSeg {
                "segment.open"
            } else {
                "persist.recover"
            };
            tracer.record(None, 0, name, t, Instant::now());
            let (store, journal, _) = opened.into_parts();
            replay::Replica::new(
                store,
                Some((journal, replay_db.clone())),
                wl == Workload::Curate,
            )
        } else {
            let t = Instant::now();
            let mut store = Store::new();
            store
                .load_ntriples_path(&kg, LoadOptions::default())
                .map_err(|e| e.to_string())?;
            tracer.record(None, 0, "store.load", t, Instant::now());
            replay::Replica::new(store, None, false)
        };
        // HTTP phase spans of the traced passes
        for op in window_ops.iter().filter(|o| o.traced) {
            let Some(t) = op.timing else { continue };
            let root = tracer.record(None, op.id, "op", t.start, t.last_byte);
            let send_from = match t.connected {
                Some(c) => {
                    tracer.record(Some(root), op.id, "http.connect", t.start, c);
                    c
                }
                None => t.start,
            };
            tracer.record(Some(root), op.id, "http.send", send_from, t.sent);
            tracer.record(Some(root), op.id, "http.wait", t.sent, t.first_byte);
            tracer.record(
                Some(root),
                op.id,
                "http.transfer",
                t.first_byte,
                t.last_byte,
            );
        }
        let mut ordered: Vec<&OpRecord> = window_ops.iter().copied().filter(|o| o.ok()).collect();
        ordered.extend(probe.iter().filter(|o| o.ok()));
        ordered.sort_by_key(|o| o.timing.map(|t| t.start));
        let mut layers = replay::Layers::default();
        let replayed = replay::replay_run(
            &mut replica,
            &mut tracer,
            &mut layers,
            &mix,
            &ordered,
            Duration::from_secs(args.seconds),
        )?;
        replica.cold_markers(&mix, &mut layers)?;
        layers.metrics(&ordered, &mut layer_metrics);
        layer_metrics.insert("persist.recover_s".into(), recover_s);
        let traced_requests = window_ops.iter().filter(|o| o.traced).count() + replayed;
        let self_ms = trace::self_time_ms(tracer.spans());
        for layer in LAYERS {
            let total = self_ms.get(layer).copied().unwrap_or(0.0);
            layer_metrics.insert(
                format!("self_ms.{layer}"),
                total / traced_requests.max(1) as f64,
            );
        }
        let lat = |traced: bool| {
            let v: Vec<f64> = window_ops
                .iter()
                .filter(|o| o.kind == Kind::Query && o.traced == traced)
                .filter_map(|o| o.latency_ms())
                .collect();
            stats::median(&v).unwrap_or(0.0)
        };
        layer_metrics.insert("trace.overhead_ms".into(), lat(true) - lat(false));
    }
    server.kill();

    // 12. end-to-end metrics
    progress(epoch, "end-to-end metrics");
    let mut samples: BTreeMap<&'static str, Samples> = BTreeMap::new();
    for op in window_ops.iter().copied().chain(probe.iter()) {
        if let Some(ms) = op.latency_ms().filter(|_| op.ok()) {
            samples.entry(op.kind.name()).or_default().push(ms);
        }
    }
    let window_s = window_end
        .saturating_duration_since(window_start)
        .as_secs_f64();
    let completed = window_ops.iter().filter(|o| o.ok()).count();
    let s = |k: &str| samples.get(k).cloned().unwrap_or_default();
    let mut metrics: BTreeMap<String, (f64, &'static str)> = BTreeMap::new();
    let mut e2e = |name: &str, v: f64, unit: &'static str| {
        metrics.insert(name.to_owned(), (v, unit));
    };
    e2e("setup_s", stats::median(&setups).unwrap_or(0.0), "s");
    let percentiles = [
        ("query", 50.0),
        ("query", QUERY_TAIL),
        ("facets", 50.0),
        ("facets", FACETS_TAIL),
        ("update", 50.0),
        ("update", UPDATE_TAIL),
    ];
    for (kind, p) in percentiles {
        e2e(&format!("{kind}_p{p}_ms"), s(kind).pct(p), "ms");
    }
    e2e(
        "throughput_ops_s",
        completed as f64 / window_s.max(1e-9),
        "1/s",
    );
    e2e("server_rss_mib", rss_mib, "MiB");
    e2e(
        "disk_bytes_per_triple",
        disk_bytes as f64 / triples as f64,
        "B",
    );

    let all_ops = window_ops
        .iter()
        .copied()
        .chain(probe.iter())
        .chain(checks.iter());
    let attempted = all_ops.clone().count();
    let failed = all_ops.clone().filter(|o| !o.ok()).count();
    let errors: Vec<String> = all_ops
        .filter_map(|o| o.error.clone())
        .take(5)
        .map(|e| json::quote(&e))
        .collect();
    for e in &errors {
        eprintln!("perfbench: failed op: {e}");
    }
    let window_attempted = window_ops.len();
    let failed_share = failed as f64 / attempted.max(1) as f64;

    if args.trace {
        let delta = |a: &Json, b: &Json, k: &str| b.num(k) - a.num(k);
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let fh = delta(&before.facets, &after.facets, "hits");
        let fm = delta(&before.facets, &after.facets, "misses");
        let vh = delta(&before.views, &after.views, "hits");
        let vm = delta(&before.views, &after.views, "misses");
        let maint = delta(&before.views, &after.views, "incremental_maintenance")
            + delta(&before.views, &after.views, "rebuilds");
        let m = &mut layer_metrics;
        m.insert("facets.cache_hit_ratio".into(), ratio(fh, fh + fm));
        m.insert("views.hit_ratio".into(), ratio(vh, vh + vm));
        m.insert(
            "views.rebuilds".into(),
            delta(&before.views, &after.views, "rebuilds"),
        );
        m.insert(
            "views.maintain_server_ms".into(),
            ratio(
                delta(&before.views, &after.views, "maintain_micros") / 1e3,
                maint,
            ),
        );
        m.insert(
            "server.shed".into(),
            delta(&before.healthz, &after.healthz, "shed"),
        );
        m.insert(
            "server.reconnects".into(),
            logs.iter().map(|l| l.reconnects as f64).sum(),
        );
        m.insert(
            "segment.resident_mib".into(),
            after_health.num("resident_bytes") / 1048576.0,
        );
        m.insert("segment.bytes".into(), after_health.num("segment_bytes"));
        m.insert("store.load_s".into(), load_s);
        m.insert("store.load_triples_per_s".into(), triples as f64 / load_s);
        m.insert("persist.replay_s".into(), replay_s);
        m.insert("failed_share".into(), failed_share);
        metrics.clear();
        for (k, v) in layer_metrics {
            let unit = unit_of(&k);
            metrics.insert(k, (v, unit));
        }
    }

    let support: Vec<String> = percentiles
        .iter()
        .map(|&(kind, p)| {
            let n = s(kind).len();
            let beyond = stats::samples_beyond(n, p);
            format!(
                "\"{kind}_p{p}_ms\":{{\"samples\":{n},\"beyond\":{beyond},\"supported\":{}}}",
                beyond >= 10
            )
        })
        .collect();
    let header = format!(
        "{{\"header\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"git_rev\":{},\"build_profile\":{},\"available_parallelism\":{},\"products\":{PRODUCTS},\"triples\":{triples},\"clients\":{},\"load\":\"closed loop, keep-alive\",\"wal_fsync\":{},\"segments\":{},\"setup_runs_s\":[{}],\"window_s\":{},\"window_attempted\":{window_attempted},\"failed_share\":{},\"percentiles\":{{{}}},\"update_source\":{},\"errors\":[{}]}}}}",
        json::quote(wl.name()),
        args.seed,
        args.seconds,
        args.trace,
        json::quote(&source_rev()),
        json::quote(if cfg!(debug_assertions) { "debug" } else { "release" }),
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        wl.clients(),
        json::quote(if durable { "always" } else { "none (in-memory)" }),
        wl == Workload::ExploreSeg,
        setups.iter().map(|v| json::num(*v)).collect::<Vec<_>>().join(","),
        json::num(window_s),
        json::num(failed_share),
        support.join(","),
        json::quote(if wl == Workload::Curate {
            "curator, during the window"
        } else {
            "post-window probe, one client"
        }),
        errors.join(","),
    );
    if args.trace {
        io("create trace dir", std::fs::create_dir_all(TRACE_DIR))?;
        let path = Path::new(TRACE_DIR).join(format!("{}-seed{}.json", wl.name(), args.seed));
        io(
            "write trace",
            std::fs::write(&path, tracer.to_json(&header)),
        )?;
    }
    Ok(Outcome {
        metrics,
        correct: failed == 0,
        attempted,
        failed,
        header,
    })
}

/// Phase progress on stderr, so a slow phase shows where the run spends.
fn progress(epoch: Instant, phase: &str) {
    eprintln!(
        "perfbench: {:7.2} s  {phase}",
        epoch.elapsed().as_secs_f64()
    );
}

fn unit_of(metric: &str) -> &'static str {
    if metric.ends_with("_ms") || metric.starts_with("self_ms.") {
        "ms"
    } else if metric.ends_with("_per_s") {
        "1/s"
    } else if metric.ends_with("_s") {
        "s"
    } else if metric.ends_with("_mib") {
        "MiB"
    } else if metric.ends_with("bytes") || metric.ends_with("_per_update") {
        "B"
    } else if metric.ends_with("ratio") || metric.ends_with("share") {
        "ratio"
    } else {
        "count"
    }
}
