//! The `serve-ingest-query` workload: `kcenter serve` with two
//! closed-loop clients, each feeding its own session in batches and
//! querying after every 8th batch and after the last.
//!
//! Each client replays its whole stream per pass, into a fresh session;
//! the previous pass's session is evicted first, so the server holds two
//! sessions however many passes fit in the measured time. Pass `p` starts
//! the stream at rotation `p mod ROTATIONS`: query cost follows the
//! coreset's state, and one order per stream would tie a run's latency to
//! that order. Every reply is checked: `processed=` equals the points
//! sent so far, a query answers at most k centers with `uncovered ≤ z`, and
//! passes over the same rotation end on the same final answer.

use std::fs::File;
use std::path::PathBuf;
use std::process::{Child, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use kcenter_core::sequential::{sequential_kcenter_outliers, SequentialOutliersConfig};
use kcenter_core::solution::radius_with_outliers;
use kcenter_data::csv::load_csv;
use kcenter_data::shuffled;
use kcenter_metric::{Euclidean, Point};
use kcenter_serve::server::reply_field;
use kcenter_serve::{RegistryConfig, ServeClient, SessionRegistry};
use kcenter_store::ArtifactStore;

use crate::child::{self, Exit};
use crate::spans::{counter_deltas, delta_of, finish_trace, Tracer};
use crate::{stats, Ctx, Outcome, Scale, Workload};

/// Concurrent clients, one connection each.
const CLIENTS: usize = 2;

/// Set-ups per measured run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Distinct starting offsets a client cycles its stream through.
const ROTATIONS: usize = 12;

struct Spec {
    n: usize,
    outliers: usize,
    batch: usize,
    query_every: usize,
    k: usize,
    z: u64,
    eps: f64,
    tau: usize,
    snapshot_every: u64,
}

fn spec(scale: Scale) -> Spec {
    match scale {
        Scale::Full => Spec {
            n: 100_000,
            outliers: 50,
            batch: 256,
            query_every: 8,
            k: 10,
            z: 50,
            eps: 0.1,
            tau: 512,
            snapshot_every: 4096,
        },
        Scale::Tiny => Spec {
            n: 3_000,
            outliers: 10,
            batch: 64,
            query_every: 8,
            k: 5,
            z: 10,
            eps: 0.1,
            tau: 64,
            snapshot_every: 512,
        },
    }
}

/// One client's stream and its sequential reference.
struct Stream {
    points: Vec<Point>,
    /// `sequential_kcenter_outliers` on the whole stream at the query's
    /// k, z and ε, with µ = ⌊τ/(k+z)⌋ so its coreset is no larger than a
    /// session's.
    reference: f64,
}

/// Generates client `c`'s stream with `kcenter generate` and shuffles it.
fn make_stream(ctx: &Ctx, spec: &Spec, c: usize) -> Result<Stream, String> {
    let seed = ctx.seed.wrapping_mul(CLIENTS as u64).wrapping_add(c as u64);
    let csv = ctx.path(&format!("stream-{c}.csv"));
    let csv_arg = csv.to_string_lossy().into_owned();
    let (n, outliers, seed_arg) = (
        spec.n.to_string(),
        spec.outliers.to_string(),
        seed.to_string(),
    );
    child::run_ok(&mut ctx.kcenter(&[
        "generate",
        "--dataset",
        "higgs",
        "--n",
        &n,
        "--outliers",
        &outliers,
        "--seed",
        &seed_arg,
        "--output",
        &csv_arg,
    ]))?;
    let raw = load_csv(&csv).map_err(|e| format!("cannot load {}: {e}", csv.display()))?;
    // Planted outliers are appended; a stream sees them spread out.
    let points = shuffled(&raw, seed);
    let mut config = SequentialOutliersConfig::new(
        spec.k,
        spec.z as usize,
        spec.tau / (spec.k + spec.z as usize),
    );
    config.eps_hat = spec.eps;
    let reference = sequential_kcenter_outliers(&points, &Euclidean, &config)
        .map_err(|e| format!("reference solve failed: {e}"))?
        .clustering
        .radius;
    Ok(Stream { points, reference })
}

/// A running `kcenter serve`; killed and reaped on drop unless shut down.
struct Server {
    child: Option<Child>,
    socket: PathBuf,
}

impl Server {
    /// Starts `kcenter serve` on a fresh socket and store, and waits
    /// until it answers `hello` with the expected τ.
    fn start(ctx: &Ctx, spec: &Spec, name: &str) -> Result<Server, String> {
        let socket = ctx.path(&format!("{name}.sock"));
        let store = ctx.path(&format!("{name}-store"));
        let log = File::create(ctx.path(&format!("{name}.log"))).map_err(|e| e.to_string())?;
        let (tau, every) = (spec.tau.to_string(), spec.snapshot_every.to_string());
        let mut cmd = ctx.kcenter(&[
            "serve",
            "--socket",
            &socket.to_string_lossy(),
            "--tau",
            &tau,
            "--snapshot-every",
            &every,
            "--cache-dir",
            &store.to_string_lossy(),
        ]);
        cmd.stdin(Stdio::null()).stdout(Stdio::null()).stderr(log);
        let server = Server {
            child: Some(child::spawn(&mut cmd).map_err(|e| format!("cannot start serve: {e}"))?),
            socket,
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Ok(mut client) = server.connect() {
                client
                    .hello(Some(spec.tau as u64))
                    .map_err(|e| format!("serve rejected hello: {e}"))?;
                return Ok(server);
            }
            if Instant::now() > deadline {
                return Err("kcenter serve did not come up within 10s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn connect(&self) -> std::io::Result<ServeClient> {
        ServeClient::connect(&self.socket)
    }

    /// Asks the server to stop and reaps it.
    fn shutdown(mut self) -> Result<Exit, String> {
        let asked = self.connect().and_then(|mut c| c.shutdown());
        let child = self.child.take().expect("server not yet reaped");
        let exit = child::reap(child).map_err(|e| format!("cannot reap serve: {e}"))?;
        asked.map_err(|e| format!("serve shutdown failed: {e}"))?;
        if !exit.success() {
            return Err(format!("kcenter serve exited with {:?}", exit.code));
        }
        Ok(exit)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child::reap(child);
        }
    }
}

/// What one client thread saw.
#[derive(Default)]
struct ClientLog {
    attempted: u64,
    failures: Vec<String>,
    /// `(round trip ms, points acknowledged)` per good ingest.
    ingests: Vec<(f64, u64)>,
    /// Round trip ms per good query.
    queries: Vec<f64>,
    /// Rotation and final query reply of each pass.
    finals: Vec<(usize, Vec<String>)>,
    /// `(name, start, end)` of every request, for the traced run.
    calls: Vec<(&'static str, Instant, Instant)>,
}

impl ClientLog {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
        ok
    }
}

/// Checks a query reply; returns the centers on success.
///
/// A reply may hold fewer than k centers: `OutliersCluster` stops early
/// once nothing is left uncovered, which early coresets allow.
fn check_query(
    log: &mut ClientLog,
    spec: &Spec,
    reply: &[String],
    sent: u64,
) -> Option<Vec<String>> {
    let centers: Vec<String> = reply
        .iter()
        .skip_while(|p| !p.starts_with("centers="))
        .skip(1)
        .cloned()
        .collect();
    let field = |key| reply_field(reply, key).and_then(|v| v.parse::<u64>().ok());
    let ok = field("centers") == Some(centers.len() as u64)
        && (1..=spec.k).contains(&centers.len())
        && field("uncovered").is_some_and(|u| u <= spec.z)
        && field("processed") == Some(sent);
    log.check(ok, || {
        format!("bad query reply after {sent} points: {reply:?}")
    })
    .then_some(centers)
}

/// One client: whole cycles of [`ROTATIONS`] passes over its stream.
///
/// The first client to finish a cycle fixes, in `cycles`, how many cycles
/// fit in `budget` at that pace (at least one); both clients then run that
/// many, so every run measures the same mix of stream orders.
fn client_loop(
    server: &Server,
    spec: &Spec,
    c: usize,
    stream: &[Point],
    budget: Duration,
    cycles: &OnceLock<usize>,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut client = match server.connect() {
        Ok(client) => client,
        Err(e) => {
            log.check(false, || format!("client {c} cannot connect: {e}"));
            return log;
        }
    };
    let tenant = format!("client{c}");
    let n = stream.len();
    let batches = n.div_ceil(spec.batch);
    let started = Instant::now();
    let mut pass = 0;
    loop {
        if pass > 0 && pass % ROTATIONS == 0 {
            let done = pass / ROTATIONS;
            let planned = *cycles.get_or_init(|| {
                let per_cycle = started.elapsed().as_secs_f64() / done as f64;
                ((budget.as_secs_f64() / per_cycle) as usize).max(1)
            });
            if done >= planned {
                break;
            }
        }
        if pass > 0 {
            let previous = format!("pass{}", pass - 1);
            let evicted = client.evict(&tenant, &previous);
            log.check(matches!(evicted, Ok(true)), || {
                format!("evict {tenant}/{previous}: {evicted:?}")
            });
        }
        let session = format!("pass{pass}");
        let rotation = pass % ROTATIONS;
        let offset = rotation * n / ROTATIONS;
        let mut sent = 0u64;
        let mut last = None;
        for i in 0..batches {
            let batch: Vec<Point> = (i * spec.batch..((i + 1) * spec.batch).min(n))
                .map(|j| stream[(offset + j) % n].clone())
                .collect();
            let start = Instant::now();
            let reply = client.ingest(&tenant, &session, &batch);
            let end = Instant::now();
            log.calls.push(("serve.socket.ingest", start, end));
            sent += batch.len() as u64;
            match reply {
                Ok(reply) => {
                    let processed = reply_field(&reply, "processed");
                    if log.check(processed == Some(sent.to_string().as_str()), || {
                        format!("ingest reply {reply:?} after sending {sent}")
                    }) {
                        let ms = (end - start).as_secs_f64() * 1e3;
                        log.ingests.push((ms, batch.len() as u64));
                    }
                }
                Err(e) => {
                    log.check(false, || format!("ingest {tenant}/{session}: {e}"));
                }
            }
            if (i + 1) % spec.query_every == 0 || i + 1 == batches {
                let start = Instant::now();
                let reply = client.query(&tenant, &session, spec.k, spec.z, spec.eps);
                let end = Instant::now();
                log.calls.push(("serve.socket.query", start, end));
                match reply {
                    Ok(reply) => {
                        if let Some(centers) = check_query(&mut log, spec, &reply, sent) {
                            log.queries.push((end - start).as_secs_f64() * 1e3);
                            last = Some(centers);
                        }
                    }
                    Err(e) => {
                        log.check(false, || format!("query {tenant}/{session}: {e}"));
                    }
                }
            }
        }
        if let Some(centers) = last {
            log.finals.push((rotation, centers));
        }
        pass += 1;
    }
    log
}

/// Runs the clients concurrently for about `budget` (at least one
/// cycle); returns their logs and the client-observed run time.
fn run_clients(
    server: &Server,
    spec: &Spec,
    streams: &[Stream],
    budget: Duration,
) -> (Vec<ClientLog>, Duration) {
    let cycles = OnceLock::new();
    let cycles = &cycles;
    let start = Instant::now();
    let logs = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(c, stream)| {
                s.spawn(move || client_loop(server, spec, c, &stream.points, budget, cycles))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (logs, start.elapsed())
}

/// Parses a wire point (`x,y,…`).
fn parse_point(s: &str) -> Option<Point> {
    let coords: Result<Vec<f64>, _> = s.split(',').map(str::parse).collect();
    coords.ok().and_then(|c| Point::try_new(c).ok())
}

/// Folds the client logs into `out`; checks that passes over the same
/// rotation ended on the same answer, and returns the worst radius ratio
/// of the first pass's final answers against each stream's reference.
fn fold_logs(logs: &[ClientLog], streams: &[Stream], spec: &Spec, out: &mut Outcome) -> f64 {
    let mut worst = f64::NAN;
    for (c, (log, stream)) in logs.iter().zip(streams).enumerate() {
        out.attempted += log.attempted;
        out.failed += log.failures.len() as u64;
        for failure in &log.failures {
            eprintln!("perfbench: FAILED: client {c}: {failure}");
        }
        let Some((_, last)) = log.finals.first() else {
            out.check(false, || format!("client {c} got no final answer"));
            continue;
        };
        for (rotation, answer) in &log.finals {
            let first = log.finals.iter().find(|(r, _)| r == rotation);
            out.check(first.map(|(_, a)| a) == Some(answer), || {
                format!("client {c}: passes over rotation {rotation} ended on different answers")
            });
        }
        let centers: Option<Vec<Point>> = last.iter().map(|s| parse_point(s)).collect();
        let Some(centers) = centers else {
            out.check(false, || format!("client {c}: unparsable centers {last:?}"));
            continue;
        };
        let ratio = radius_with_outliers(&stream.points, &centers, spec.z as usize, &Euclidean)
            / stream.reference;
        // `f64::max` ignores the NaN start value.
        worst = worst.max(ratio);
    }
    worst
}

/// The untraced run.
pub fn measure(ctx: &Ctx) -> Result<Outcome, String> {
    let spec = spec(ctx.scale);
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut streams: Vec<Stream> = Vec::new();
    let mut server = None;
    for rep in 0..SETUP_REPS {
        if let Some(previous) = server.take() {
            Server::shutdown(previous)?;
        }
        let start = Instant::now();
        let next = (0..CLIENTS)
            .map(|c| make_stream(ctx, &spec, c))
            .collect::<Result<Vec<_>, _>>()?;
        server = Some(Server::start(ctx, &spec, &format!("serve{rep}"))?);
        setup_s.push(start.elapsed().as_secs_f64());
        if !streams.is_empty() {
            let same = streams
                .iter()
                .zip(&next)
                .all(|(a, b)| a.reference.to_bits() == b.reference.to_bits());
            out.check(same, || "reference radii moved between set-ups".to_string());
        }
        streams = next;
    }
    let server = server.expect("at least one set-up");

    let (logs, elapsed) = run_clients(&server, &spec, &streams, ctx.seconds);
    let elapsed = elapsed.as_secs_f64();
    let exit = server.shutdown();
    let worst = fold_logs(&logs, &streams, &spec, &mut out);
    let peak_rss_mb = out
        .op("serve shutdown", exit)
        .map_or(f64::NAN, |e| e.peak_rss_mb);

    let ingest_ms: Vec<f64> = logs.iter().flat_map(|l| &l.ingests).map(|i| i.0).collect();
    let acked: u64 = logs.iter().flat_map(|l| &l.ingests).map(|i| i.1).sum();
    let query_ms: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.queries.iter().copied())
        .collect();
    let passes: usize = logs.iter().map(|l| l.finals.len()).sum();
    eprintln!(
        "perfbench: serve-ingest-query: ingest {}; query {}; {:.0} points/s over {elapsed:.2}s, {passes} passes; setup {}",
        stats::describe(&ingest_ms, "ms"),
        stats::describe(&query_ms, "ms"),
        acked as f64 / elapsed,
        stats::describe(&setup_s, "s"),
    );
    out.end_to_end(&[
        ("answer_p50_ms", stats::median(&query_ms)),
        ("points_per_s", acked as f64 / elapsed),
        ("radius_ratio", worst),
        ("peak_rss_mb", peak_rss_mb),
        ("setup_s", stats::median(&setup_s)),
    ]);
    for (key, samples) in [("ingest_ms", &ingest_ms), ("query_ms", &query_ms)] {
        let tail = stats::tail(samples).map_or("null".to_string(), |(p, v)| {
            format!("{{\"percentile\":{p},\"value\":{v}}}")
        });
        out.provenance(
            key,
            format!(
                "{{\"p50\":{},\"tail\":{tail},\"samples\":{}}}",
                stats::median(samples),
                samples.len()
            ),
        );
    }
    out.provenance("passes", passes.to_string());
    let references: Vec<String> = streams.iter().map(|s| s.reference.to_string()).collect();
    out.provenance("reference_radius", format!("[{}]", references.join(",")));
    Ok(out)
}

/// The traced run: the same two-client sequence through an in-process
/// `SessionRegistry`, then one pass over the socket scraped with the
/// `metrics` verb before and after.
pub fn trace(ctx: &Ctx) -> Result<Outcome, String> {
    let spec = spec(ctx.scale);
    let mut out = Outcome::default();
    let streams = (0..CLIENTS)
        .map(|c| make_stream(ctx, &spec, c))
        .collect::<Result<Vec<_>, _>>()?;
    let mut tracer = Tracer::new();
    let mut layers: Vec<(&str, f64)> = Vec::new();

    let before = kcenter_obs::counter_values();
    let (in_process, mut roots) =
        trace_registry(ctx, &spec, &streams, &mut tracer, &mut layers, &mut out)?;
    let deltas = counter_deltas(&before, &kcenter_obs::counter_values());
    layers.push((
        "metric.matrix_builds",
        delta_of(&deltas, "metric.matrix.builds") as f64,
    ));

    let server = Server::start(ctx, &spec, "serve")?;
    let scrape = |out: &mut Outcome| {
        let body = server.connect().and_then(|mut c| c.metrics(Some("json")));
        out.op("metrics scrape", body)
            .and_then(|b| kcenter_obs::json::parse(&b).ok())
    };
    let first = scrape(&mut out);
    // One cycle: the per-layer figures cover the same mix of stream
    // orders as the measured run.
    let (logs, _) = run_clients(&server, &spec, &streams, Duration::ZERO);
    let last = scrape(&mut out);
    let exit = server.shutdown();
    out.op("serve shutdown", exit);
    fold_logs(&logs, &streams, &spec, &mut out);

    // The socket answers must be the in-process answers, bit for bit.
    for (c, log) in logs.iter().enumerate() {
        out.check(
            log.finals.first().map(|(_, a)| a) == Some(&in_process[c]),
            || format!("client {c}: socket and in-process final answers differ"),
        );
    }
    for (c, log) in logs.iter().enumerate() {
        let trace = 11 + c as u64;
        if let (Some(first), Some(end)) = (log.calls.first(), log.calls.iter().map(|c| c.2).max()) {
            let root = tracer.record(trace, &format!("socket.client{c}"), None, first.1, end);
            roots.push(root);
            for &(name, s, e) in &log.calls {
                tracer.record(trace, name, Some(root), s, e);
            }
        }
    }
    let coverage = roots
        .iter()
        .map(|&r| 1.0 - tracer.self_time(r).as_secs_f64() / tracer.get(r).dur().as_secs_f64())
        .fold(f64::INFINITY, f64::min);
    layers.push(("trace.layer_coverage_pct", coverage * 100.0));

    if let (Some(first), Some(last)) = (first, last) {
        let metric = |json: &kcenter_obs::json::Json, name: &str, key: &str| {
            json.get("metrics")
                .and_then(|m| m.as_array())
                .and_then(|ms| {
                    ms.iter()
                        .find(|m| m.get("name").and_then(|n| n.as_str()) == Some(name))
                })
                .and_then(|m| m.get(key))
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0)
        };
        let delta = |name: &str, key: &str| metric(&last, name, key) - metric(&first, name, key);
        let per_call_ms = |name: &str| delta(name, "sum_micros") / delta(name, "count") / 1e3;
        let ingest_process = per_call_ms("serve.ingest.micros");
        let query_solve = per_call_ms("serve.query.solve.micros");
        let ingest_ms: Vec<f64> = logs.iter().flat_map(|l| &l.ingests).map(|i| i.0).collect();
        let query_ms: Vec<f64> = logs
            .iter()
            .flat_map(|l| l.queries.iter().copied())
            .collect();
        layers.extend([
            ("serve.ingest_process_ms", ingest_process),
            ("serve.query_solve_ms", query_solve),
            (
                "serve.wire_ingest_ms",
                stats::mean(&ingest_ms) - ingest_process,
            ),
            ("serve.wire_query_ms", stats::mean(&query_ms) - query_solve),
            (
                "serve.query_cached_ratio",
                delta("serve.queries.cached", "value") / delta("serve.queries", "value"),
            ),
            (
                "serve.resident_points",
                metric(&last, "serve.points.resident", "value"),
            ),
            ("serve.snapshots", delta("serve.snapshots", "value")),
        ]);
    }

    finish_trace(ctx, Workload::ServeIngestQuery, &tracer, &deltas, &mut out)?;
    out.per_layer(&layers);
    Ok(out)
}

/// Feeds both streams through an in-process registry from two threads;
/// returns each client's final answer in wire format and the ids of the
/// per-client root spans.
fn trace_registry(
    ctx: &Ctx,
    spec: &Spec,
    streams: &[Stream],
    tracer: &mut Tracer,
    layers: &mut Vec<(&str, f64)>,
    out: &mut Outcome,
) -> Result<(Vec<Vec<String>>, Vec<u64>), String> {
    let store = ArtifactStore::open(ctx.path("registry-store")).map_err(|e| e.to_string())?;
    let config = RegistryConfig {
        tau: spec.tau,
        snapshot_every: spec.snapshot_every,
        ..RegistryConfig::default()
    };
    let registry =
        SessionRegistry::new(Euclidean, config, Some(store)).map_err(|e| e.to_string())?;

    let results: Vec<RegistryRun> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(c, stream)| {
                let registry = &registry;
                s.spawn(move || registry_client(registry, spec, c, &stream.points))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("registry client panicked"))
            .collect()
    });

    let mut finals = Vec::new();
    let (mut overhead_ms, mut snapshot_ms, mut plain_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut predicted_snapshots = 0u64;
    let mut roots = Vec::new();
    for (c, RegistryRun { calls, last }) in results.into_iter().enumerate() {
        let trace = 1 + c as u64;
        if let (Some(first), Some(end)) = (calls.first(), calls.iter().map(|c| c.2).max()) {
            let root = tracer.record(trace, &format!("registry.client{c}"), None, first.1, end);
            roots.push(root);
            for &(name, s, e, process, snapshot) in &calls {
                tracer.record(trace, name, Some(root), s, e);
                if name == "serve.registry.ingest" {
                    let ms = (e - s).as_secs_f64() * 1e3;
                    overhead_ms.push(ms - process.as_secs_f64() * 1e3);
                    if snapshot {
                        predicted_snapshots += 1;
                        snapshot_ms.push(ms);
                    } else {
                        plain_ms.push(ms);
                    }
                }
            }
        }
        let calls_made = calls.len() as u64;
        out.attempted += calls_made;
        finals.push(
            out.op(&format!("in-process client {c}"), last)
                .unwrap_or_default(),
        );
    }
    let snapshots = registry.stats().snapshots;
    out.check(snapshots == predicted_snapshots, || {
        format!("registry persisted {snapshots} snapshots, expected {predicted_snapshots}")
    });
    layers.extend([
        ("stream.channel_overhead_ms", stats::median(&overhead_ms)),
        ("store.snapshot_ingest_ms", stats::median(&snapshot_ms)),
        ("store.plain_ingest_ms", stats::median(&plain_ms)),
    ]);
    Ok((finals, roots))
}

/// One in-process client's calls and final answer.
struct RegistryRun {
    /// Name, start, end, time inside `process`, and whether the call
    /// persisted a snapshot.
    calls: Vec<(&'static str, Instant, Instant, Duration, bool)>,
    /// The final answer in wire format, or the first error.
    last: Result<Vec<String>, String>,
}

/// Client `c`'s pass over its stream through `registry` directly.
fn registry_client(
    registry: &SessionRegistry<Euclidean>,
    spec: &Spec,
    c: usize,
    stream: &[Point],
) -> RegistryRun {
    let tenant = format!("client{c}");
    let mut calls = Vec::new();
    let mut last = Vec::new();
    let mut persisted = 0u64;
    let batches: Vec<&[Point]> = stream.chunks(spec.batch).collect();
    for (i, batch) in batches.iter().enumerate() {
        let batch = batch.to_vec();
        let start = Instant::now();
        let report = registry.ingest(&tenant, "pass0", batch);
        let end = Instant::now();
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                let last = Err(format!("ingest: {e}"));
                return RegistryRun { calls, last };
            }
        };
        // The registry persists once `snapshot_every` items have
        // accumulated since the last persist.
        let snapshot = report.processed - persisted >= spec.snapshot_every;
        if snapshot {
            persisted = report.processed;
        }
        calls.push((
            "serve.registry.ingest",
            start,
            end,
            report.ingest_time,
            snapshot,
        ));
        if (i + 1) % spec.query_every == 0 || i + 1 == batches.len() {
            let start = Instant::now();
            let answer = registry.query(&tenant, "pass0", spec.k, spec.z, spec.eps);
            let end = Instant::now();
            match answer {
                Ok(a) => last = a.centers.iter().map(wire_point).collect(),
                Err(e) => {
                    let last = Err(format!("query: {e}"));
                    return RegistryRun { calls, last };
                }
            }
            calls.push(("serve.registry.query", start, end, Duration::ZERO, false));
        }
    }
    RegistryRun {
        calls,
        last: Ok(last),
    }
}

/// A point as the serve protocol writes it: shortest round-trip
/// coordinates, comma-separated.
fn wire_point(p: &Point) -> String {
    let coords: Vec<String> = p.coords().iter().map(f64::to_string).collect();
    coords.join(",")
}
