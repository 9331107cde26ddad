//! `perfbench` — the repository benchmark.
//!
//! Drives the real `kcenter` binary the way users run it (`kcenter
//! cluster` as a subprocess, `kcenter serve` over its unix socket), checks
//! every output, and prints one JSON result line. With `--trace 1` it
//! instead replays each workload's call sequence in-process through the
//! crates' public functions and reports per-layer numbers. See
//! `README.md` for the workloads, metrics and the layer map.
//!
//! ```text
//! perfbench --kcenter PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```

mod child;
mod cluster;
mod serve;
mod spans;
mod stats;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Every run must finish well inside the 180 s a run is allowed; past
/// this the benchmark kills its children and fails.
const RUN_DEADLINE: Duration = Duration::from_secs(170);

/// The workloads, by the names `BENCHMARK.json` lists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `kcenter cluster --algo mr` on the in-process MapReduce engine.
    MrKCenterInproc,
    /// `kcenter cluster --algo mr-outliers --procs 2`.
    MrOutliersProcs2,
    /// `kcenter serve`, two clients ingesting and querying.
    ServeIngestQuery,
}

impl Workload {
    fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "mr-kcenter-inproc" => Ok(Workload::MrKCenterInproc),
            "mr-outliers-procs2" => Ok(Workload::MrOutliersProcs2),
            "serve-ingest-query" => Ok(Workload::ServeIngestQuery),
            other => Err(format!("unknown workload {other:?}")),
        }
    }

    /// The workload's name as `BENCHMARK.json` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MrKCenterInproc => "mr-kcenter-inproc",
            Workload::MrOutliersProcs2 => "mr-outliers-procs2",
            Workload::ServeIngestQuery => "serve-ingest-query",
        }
    }
}

/// Input sizes: `full` is the benchmark, `tiny` is for the smoke test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `README.md` documents.
    Full,
    /// Small inputs that run in a second or two.
    Tiny,
}

/// Everything a workload needs to run.
pub struct Ctx {
    /// The `kcenter` binary under test.
    pub kcenter: PathBuf,
    /// Workload seed: the same seed generates the same inputs.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: Duration,
    /// Input sizes.
    pub scale: Scale,
    /// Scratch directory of this run (inputs, outputs, sockets); removed
    /// when the run ends.
    pub dir: PathBuf,
    /// Where spans of a traced run are written; kept after the run.
    pub out_dir: PathBuf,
}

impl Ctx {
    /// A `kcenter` command; children inherit the cleaned environment.
    pub fn kcenter(&self, args: &[&str]) -> std::process::Command {
        let mut cmd = std::process::Command::new(&self.kcenter);
        cmd.args(args);
        cmd
    }

    /// A path inside this run's scratch directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

/// What a workload reports: operation counts, named metrics with units,
/// and provenance.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (invocations, requests, output checks).
    pub attempted: u64,
    /// Operations that failed: non-zero exit, `err` reply, I/O error, or
    /// a failed output check.
    pub failed: u64,
    /// `(name, value, unit)` in output order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// `(key, JSON value)` pairs printed on the provenance line.
    pub provenance: Vec<(String, String)>,
}

impl Outcome {
    /// Counts one operation; a failure is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED: {}", what());
        }
        ok
    }

    /// Counts one fallible operation, returning its value on success.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        match result {
            Ok(value) => {
                self.attempted += 1;
                Some(value)
            }
            Err(err) => {
                self.check(false, || format!("{what}: {err}"));
                None
            }
        }
    }

    /// Emits every end-to-end metric, in [`END_TO_END`] order.
    ///
    /// # Panics
    ///
    /// On a name missing from `values` or not in the table: every
    /// workload reports every end-to-end metric.
    pub fn end_to_end(&mut self, values: &[(&str, f64)]) {
        assert_eq!(values.len(), END_TO_END.len(), "one value per metric");
        for &(name, unit) in &END_TO_END {
            let value = lookup(values, name).unwrap_or_else(|| panic!("no value for {name}"));
            self.metrics.push((name, value, unit));
        }
    }

    /// Emits every per-layer metric, in [`PER_LAYER`] order; a layer the
    /// workload does not load reads 0.
    ///
    /// # Panics
    ///
    /// On a name not in the table.
    pub fn per_layer(&mut self, values: &[(&str, f64)]) {
        for (name, _) in values {
            assert!(
                PER_LAYER.iter().any(|(n, _)| n == name),
                "unknown layer metric {name}"
            );
        }
        for &(name, unit) in &PER_LAYER {
            self.metrics
                .push((name, lookup(values, name).unwrap_or(0.0), unit));
        }
    }

    /// Adds a provenance entry whose value is already JSON.
    pub fn provenance(&mut self, key: &str, json: impl Into<String>) {
        self.provenance.push((key.to_string(), json.into()));
    }
}

fn lookup(values: &[(&str, f64)], name: &str) -> Option<f64> {
    values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
}

/// End-to-end metrics (`--trace 0`) with their units; every workload
/// reports each. See `README.md` for what each means per workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("answer_p50_ms", "ms"),
    ("points_per_s", "points/s"),
    ("radius_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`--trace 1`) with their units.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("data.load_csv_s", "s"),
    ("data.normalize_s", "s"),
    ("mapreduce.round1_s", "s"),
    ("mapreduce.round2_s", "s"),
    ("mapreduce.objective_s", "s"),
    ("mapreduce.pool_threads", "count"),
    ("mapreduce.union_size", "count"),
    ("core.round1_ns_per_distance", "ns"),
    ("core.search_evaluations", "count"),
    ("core.objective_s", "s"),
    ("metric.matrix_builds", "count"),
    ("exec.round1_s", "s"),
    ("exec.round2_s", "s"),
    ("exec.worker_build_max_s", "s"),
    ("exec.dispatch_s", "s"),
    ("exec.workers_spawned", "count"),
    ("exec.shard_writes", "count"),
    ("exec.merge_jobs", "count"),
    ("exec.retries", "count"),
    ("store.shard_write_s", "s"),
    ("store.shard_read_s", "s"),
    ("store.shard_bytes", "bytes"),
    ("store.snapshot_ingest_ms", "ms"),
    ("store.plain_ingest_ms", "ms"),
    ("stream.channel_overhead_ms", "ms"),
    ("serve.ingest_process_ms", "ms"),
    ("serve.query_solve_ms", "ms"),
    ("serve.wire_ingest_ms", "ms"),
    ("serve.wire_query_ms", "ms"),
    ("serve.query_cached_ratio", "ratio"),
    ("serve.resident_points", "count"),
    ("serve.snapshots", "count"),
    ("obs.trace_overhead_pct", "%"),
    ("trace.layer_coverage_pct", "%"),
];

/// Relative difference `|a − b| / max(|a|, |b|)` (0 when both are 0).
pub fn rel_diff(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs());
    if scale == 0.0 {
        0.0
    } else {
        (a - b).abs() / scale
    }
}

struct Args {
    kcenter: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
}

const USAGE: &str = "usage: perfbench --kcenter PATH --workload NAME --seed N --seconds S \
                     --trace 0|1 [--scale full|tiny]";

fn parse_args() -> Result<Args, String> {
    let mut kcenter = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Full;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = |what: &str| format!("{flag} got invalid {what} {value:?}");
        match flag.as_str() {
            "--kcenter" => kcenter = Some(PathBuf::from(&value)),
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
            "--seconds" => match value.parse() {
                Ok(s) if s > 0 => seconds = Some(s),
                _ => return Err(bad("duration")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad("trace flag")),
            },
            "--scale" => match value.as_str() {
                "full" => scale = Scale::Full,
                "tiny" => scale = Scale::Tiny,
                _ => return Err(bad("scale")),
            },
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let missing = |flag: &str| format!("{flag} is required");
    Ok(Args {
        kcenter: kcenter.ok_or_else(|| missing("--kcenter"))?,
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        scale,
    })
}

/// The repository this benchmark was built from (its parent directory).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package lives inside the repository")
        .to_path_buf()
}

/// `[workspace.package] version` of the repository's `Cargo.toml`.
fn kcenter_version(root: &Path) -> String {
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).unwrap_or_default();
    manifest
        .lines()
        .skip_while(|l| l.trim() != "[workspace.package]")
        .find_map(|l| l.trim().strip_prefix("version = "))
        .map(|v| v.trim_matches('"').to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `git rev-parse HEAD` when the checkout is a git repository.
fn git_commit(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", kcenter_obs::json::escape(s))
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
fn result_line(outcome: &Outcome) -> String {
    let mut line = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed
    );
    for (i, (name, value, unit)) in outcome.metrics.iter().enumerate() {
        // A failed run may leave a metric undefined; JSON has no NaN.
        let value = if value.is_finite() { *value } else { 0.0 };
        if i > 0 {
            line.push(',');
        }
        let _ = write!(line, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
    }
    line.push_str("}}");
    line
}

fn run(args: Args) -> Result<Outcome, String> {
    let cwd = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    if !args.kcenter.is_file() {
        return Err(format!(
            "kcenter binary {} not found",
            args.kcenter.display()
        ));
    }
    let out_dir = cwd.join(".perfbench").join("out");
    // Relative to the working directory: the serve socket path must stay
    // short, whatever the checkout's absolute path.
    let dir = PathBuf::from(".perfbench").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let tmp = cwd.join(&dir).join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    // Measure the default configuration, and keep every file the program
    // writes (executor work directories included) inside the checkout.
    for (key, _) in std::env::vars_os() {
        let key = key.to_string_lossy().into_owned();
        if key.starts_with("KCENTER_") || key == "RAYON_NUM_THREADS" {
            std::env::remove_var(&key);
        }
    }
    std::env::set_var("TMPDIR", &tmp);
    child::arm_deadline(RUN_DEADLINE);

    let ctx = Ctx {
        kcenter: args.kcenter.clone(),
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        scale: args.scale,
        dir: dir.clone(),
        out_dir,
    };
    let result = match (args.workload, args.trace) {
        (Workload::ServeIngestQuery, false) => serve::measure(&ctx),
        (Workload::ServeIngestQuery, true) => serve::trace(&ctx),
        (w, false) => cluster::measure(&ctx, w),
        (w, true) => cluster::trace(&ctx, w),
    };
    let _ = std::fs::remove_dir_all(&dir);
    let mut outcome = result?;

    let root = repo_root();
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let isa = format!("{:?}", kcenter_metric::kernels::active_isa());
    let mut head = vec![
        ("workload".to_string(), json_str(args.workload.name())),
        ("seed".to_string(), args.seed.to_string()),
        ("trace".to_string(), args.trace.to_string()),
        ("machine_threads".to_string(), threads.to_string()),
        ("simd_isa".to_string(), json_str(&isa)),
        (
            "kcenter_version".to_string(),
            json_str(&kcenter_version(&root)),
        ),
        ("git_commit".to_string(), json_str(&git_commit(&root))),
    ];
    head.append(&mut outcome.provenance);
    outcome.provenance = head;
    Ok(outcome)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(args) {
        Ok(outcome) => {
            let fields: Vec<String> = outcome
                .provenance
                .iter()
                .map(|(k, v)| format!("{}:{v}", json_str(k)))
                .collect();
            println!("{{\"provenance\":{{{}}}}}", fields.join(","));
            println!("{}", result_line(&outcome));
            if outcome.failed > 0 || outcome.attempted == 0 {
                std::process::exit(1);
            }
        }
        Err(err) => {
            eprintln!("perfbench: error: {err}");
            std::process::exit(2);
        }
    }
}
