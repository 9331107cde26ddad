//! The two `kcenter cluster` workloads.
//!
//! * `mr-kcenter-inproc`: `--algo mr --k 20` on power-like data, the
//!   in-process MapReduce engine at the default (auto) ℓ.
//! * `mr-outliers-procs2`: `--algo mr-outliers --k 20 --z 200 --procs 2`
//!   on higgs-like data with planted outliers, two worker processes.
//!
//! Every invocation is checked: exit code 0, exactly k centers written,
//! and the objective recomputed here from the input and the written
//! centers matches the reported radius to 1e-9 relative.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use kcenter_core::coreset::CoresetSpec;
use kcenter_core::gmm::gmm_select;
use kcenter_core::mapreduce_kcenter::{mr_kcenter, MrKCenterConfig};
use kcenter_core::mapreduce_outliers::MrOutliersConfig;
use kcenter_core::sequential::{sequential_kcenter_outliers, SequentialOutliersConfig};
use kcenter_core::solution::{radius, radius_with_outliers};
use kcenter_core::tuning;
use kcenter_data::csv::load_csv;
use kcenter_data::Normalization;
use kcenter_exec::{ExecConfig, MetricKind, WorkerCommand};
use kcenter_mapreduce::{partition_dataset, Chunked};
use kcenter_metric::{Euclidean, Point};

use crate::spans::{counter_deltas, delta_of, finish_trace, Tracer};
use crate::{child, rel_diff, stats, Ctx, Outcome, Scale, Workload};

/// Set-ups per measured run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// `kcenter cluster`'s default coreset multiplier µ.
const MU: usize = 4;

/// One cluster workload's inputs and flags.
struct Spec {
    dataset: &'static str,
    n: usize,
    outliers: usize,
    k: usize,
    z: usize,
    /// Worker processes; 0 runs the in-process engine.
    procs: usize,
}

fn spec(workload: Workload, scale: Scale) -> Spec {
    match (workload, scale) {
        (Workload::MrKCenterInproc, Scale::Full) => Spec {
            dataset: "power",
            n: 100_000,
            outliers: 0,
            k: 20,
            z: 0,
            procs: 0,
        },
        (Workload::MrKCenterInproc, Scale::Tiny) => Spec {
            dataset: "power",
            n: 3_000,
            outliers: 0,
            k: 5,
            z: 0,
            procs: 0,
        },
        (_, Scale::Full) => Spec {
            dataset: "higgs",
            n: 200_000,
            outliers: 200,
            k: 20,
            z: 200,
            procs: 2,
        },
        (_, Scale::Tiny) => Spec {
            dataset: "higgs",
            n: 4_000,
            outliers: 20,
            k: 5,
            z: 20,
            procs: 2,
        },
    }
}

impl Spec {
    fn points(&self) -> usize {
        self.n + self.outliers
    }

    /// What `kcenter cluster --algo mr-outliers --procs N` runs.
    fn outliers_config(&self) -> MrOutliersConfig {
        let coreset = CoresetSpec::Multiplier { mu: MU };
        MrOutliersConfig::deterministic(self.k, self.z, self.procs, coreset)
    }

    /// The objective the CLI reports: plain radius for z = 0, the
    /// z-outlier radius otherwise.
    fn objective(&self, points: &[Point], centers: &[Point]) -> f64 {
        if self.z == 0 {
            radius(points, centers, &Euclidean)
        } else {
            radius_with_outliers(points, centers, self.z, &Euclidean)
        }
    }
}

/// A generated input, as the CLI will solve it.
struct Input {
    csv: PathBuf,
    /// z-score normalized, the CLI's default.
    points: Vec<Point>,
    norm: Normalization,
    /// Sequential reference objective on `points`: GMM for z = 0,
    /// `sequential_kcenter_outliers` at the same k, z and µ otherwise.
    reference: f64,
}

/// Generates the input with `kcenter generate`, loads it, and computes
/// the reference objective.
fn setup(ctx: &Ctx, spec: &Spec) -> Result<Input, String> {
    let csv = ctx.path("input.csv");
    let (n, outliers, seed) = (
        spec.n.to_string(),
        spec.outliers.to_string(),
        ctx.seed.to_string(),
    );
    let csv_arg = csv.to_string_lossy().into_owned();
    child::run_ok(&mut ctx.kcenter(&[
        "generate",
        "--dataset",
        spec.dataset,
        "--n",
        &n,
        "--outliers",
        &outliers,
        "--seed",
        &seed,
        "--output",
        &csv_arg,
    ]))?;
    let raw = load_csv(&csv).map_err(|e| format!("cannot load {}: {e}", csv.display()))?;
    if raw.len() != spec.points() {
        return Err(format!(
            "generated {} points, expected {}",
            raw.len(),
            spec.points()
        ));
    }
    let norm = Normalization::zscore(&raw);
    let points = norm.apply_all(&raw);
    let reference = if spec.z == 0 {
        gmm_select(&points, &Euclidean, spec.k, 0).radius
    } else {
        sequential_kcenter_outliers(
            &points,
            &Euclidean,
            &SequentialOutliersConfig::new(spec.k, spec.z, MU),
        )
        .map_err(|e| format!("reference solve failed: {e}"))?
        .clustering
        .radius
    };
    Ok(Input {
        csv,
        points,
        norm,
        reference,
    })
}

/// One checked `kcenter cluster` invocation.
struct Invocation {
    wall: Duration,
    peak_rss_mb: f64,
    radius: f64,
    ell: usize,
    /// Union size the executor reports on stderr (`--procs` only).
    union: Option<usize>,
}

fn cluster_args(spec: &Spec, input: &Path, output: &Path) -> Vec<String> {
    let mut args: Vec<String> = vec![
        "cluster".into(),
        "--input".into(),
        input.to_string_lossy().into_owned(),
        "--algo".into(),
        if spec.z == 0 { "mr" } else { "mr-outliers" }.into(),
        "--k".into(),
        spec.k.to_string(),
    ];
    if spec.z > 0 {
        args.extend(["--z".into(), spec.z.to_string()]);
    }
    if spec.procs > 0 {
        args.extend(["--procs".into(), spec.procs.to_string()]);
    }
    args.extend([
        // The JSON report carries the radius with every digit.
        "--report".into(),
        "json".into(),
        "--output".into(),
        output.to_string_lossy().into_owned(),
    ]);
    args
}

/// Runs `kcenter cluster` once (plus `extra` flags) and checks its
/// output; failures are counted in `out` and yield `None`.
fn invoke(
    ctx: &Ctx,
    spec: &Spec,
    input: &Input,
    extra: &[&str],
    out: &mut Outcome,
) -> Option<Invocation> {
    let centers_csv = ctx.path("centers.csv");
    let _ = std::fs::remove_file(&centers_csv);
    let mut args = cluster_args(spec, &input.csv, &centers_csv);
    args.extend(extra.iter().map(|s| s.to_string()));
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let run = out.op("kcenter cluster", child::run(&mut ctx.kcenter(&args)))?;
    if !out.check(run.exit.success(), || {
        format!(
            "kcenter cluster exited with {:?}: {}",
            run.exit.code,
            run.stderr.trim()
        )
    }) {
        return None;
    }
    let report = run
        .stdout
        .lines()
        .find(|l| l.contains("\"kcenter-report/v1\""))
        .and_then(|l| kcenter_obs::json::parse(l).ok());
    let field = |key: &str| {
        report
            .as_ref()
            .and_then(|r| r.get(key))
            .and_then(|v| v.as_f64())
    };
    let (Some(reported), Some(ell)) = (field("radius"), field("ell")) else {
        out.check(false, || {
            format!("no JSON run report in: {}", run.stdout.trim())
        });
        return None;
    };
    let centers = match load_csv(&centers_csv) {
        Ok(c) => c,
        Err(e) => {
            out.check(false, || format!("cannot read centers: {e}"));
            return None;
        }
    };
    // GMM always selects k centers from an input this size;
    // `OutliersCluster` may stop early once nothing is left uncovered.
    let count_ok = if spec.z == 0 {
        centers.len() == spec.k
    } else {
        (1..=spec.k).contains(&centers.len())
    };
    if !out.check(count_ok, || {
        format!("wrote {} centers for k = {}", centers.len(), spec.k)
    }) {
        return None;
    }
    let normalized: Vec<Point> = centers.iter().map(|c| input.norm.apply(c)).collect();
    let recomputed = spec.objective(&input.points, &normalized);
    if !out.check(rel_diff(recomputed, reported) <= 1e-9, || {
        format!("reported radius {reported} but the written centers give {recomputed}")
    }) {
        return None;
    }
    let union = run
        .stderr
        .lines()
        .find_map(|l| l.strip_prefix("executor: union = "))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok());
    Some(Invocation {
        wall: run.wall,
        peak_rss_mb: run.exit.peak_rss_mb,
        radius: reported,
        ell: ell as usize,
        union,
    })
}

/// The untraced run: set up [`SETUP_REPS`] times, then invoke `kcenter
/// cluster` back to back for the measured time.
pub fn measure(ctx: &Ctx, workload: Workload) -> Result<Outcome, String> {
    let spec = spec(workload, ctx.scale);
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut input: Option<Input> = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let next = setup(ctx, &spec)?;
        setup_s.push(start.elapsed().as_secs_f64());
        if let Some(prev) = &input {
            out.check(prev.reference.to_bits() == next.reference.to_bits(), || {
                format!(
                    "reference radius moved: {} then {}",
                    prev.reference, next.reference
                )
            });
        }
        input = Some(next);
    }
    let input = input.expect("at least one set-up");

    let mut runs: Vec<Invocation> = Vec::new();
    let start = Instant::now();
    let mut attempts = 0;
    while attempts == 0 || start.elapsed() < ctx.seconds {
        attempts += 1;
        if let Some(run) = invoke(ctx, &spec, &input, &[], &mut out) {
            if let Some(first) = runs.first() {
                out.check(first.radius.to_bits() == run.radius.to_bits(), || {
                    format!(
                        "radius moved between runs: {} then {}",
                        first.radius, run.radius
                    )
                });
            }
            runs.push(run);
        }
    }

    let walls: Vec<f64> = runs.iter().map(|r| r.wall.as_secs_f64()).collect();
    let total_wall: f64 = walls.iter().sum();
    let radius = runs.first().map_or(f64::NAN, |r| r.radius);
    eprintln!(
        "perfbench: {}: cluster wall {}, {} setups {}",
        workload.name(),
        stats::describe(&walls, "s"),
        setup_s.len(),
        stats::describe(&setup_s, "s"),
    );
    out.end_to_end(&[
        ("answer_p50_ms", stats::median(&walls) * 1e3),
        (
            "points_per_s",
            (spec.points() * runs.len()) as f64 / total_wall,
        ),
        ("radius_ratio", radius / input.reference),
        (
            "peak_rss_mb",
            stats::median(&runs.iter().map(|r| r.peak_rss_mb).collect::<Vec<_>>()),
        ),
        ("setup_s", stats::median(&setup_s)),
    ]);
    let listed: Vec<String> = walls.iter().map(f64::to_string).collect();
    out.provenance("wall_s", format!("[{}]", listed.join(",")));
    if let Some(run) = runs.first() {
        out.provenance("ell", run.ell.to_string());
        if let Some(union) = run.union {
            out.provenance("union_size", union.to_string());
        }
    }
    out.provenance("radius", format!("{radius}"));
    out.provenance("reference_radius", format!("{}", input.reference));
    Ok(out)
}

/// The traced run: the CLI's call sequence replayed in-process, with a
/// span around each layer call, then one CLI invocation with `--trace`
/// against one without.
pub fn trace(ctx: &Ctx, workload: Workload) -> Result<Outcome, String> {
    let spec = spec(workload, ctx.scale);
    let mut out = Outcome::default();
    let input = setup(ctx, &spec)?;
    let mut tracer = Tracer::new();
    let mut layers: Vec<(&str, f64)> = Vec::new();
    let before = kcenter_obs::counter_values();

    let root = tracer.open(1, "cluster.invocation", None);
    let (raw, load) = tracer.time(1, "data.load_csv", Some(root), || load_csv(&input.csv));
    let raw = out
        .op("load_csv", raw)
        .ok_or("the traced run cannot load its input")?;
    let (points, normalize) = tracer.time(1, "data.normalize", Some(root), || {
        Normalization::zscore(&raw).apply_all(&raw)
    });
    layers.push(("data.load_csv_s", tracer.get(load).dur().as_secs_f64()));
    layers.push((
        "data.normalize_s",
        tracer.get(normalize).dur().as_secs_f64(),
    ));

    let (centers, in_process_radius) = if spec.procs == 0 {
        trace_mapreduce(&spec, &points, &mut tracer, root, &mut layers, &mut out)?
    } else {
        trace_exec(
            ctx,
            &spec,
            &points,
            &mut tracer,
            root,
            &mut layers,
            &mut out,
        )?
    };
    let (objective, objective_span) = tracer.time(1, "core.objective", Some(root), || {
        spec.objective(&points, &centers)
    });
    tracer.close(root);
    layers.push((
        "core.objective_s",
        tracer.get(objective_span).dur().as_secs_f64(),
    ));
    out.check(objective.to_bits() == in_process_radius.to_bits(), || {
        format!("objective {objective} differs from the solver's {in_process_radius}")
    });
    let deltas = counter_deltas(&before, &kcenter_obs::counter_values());
    layers.push((
        "metric.matrix_builds",
        delta_of(&deltas, "metric.matrix.builds") as f64,
    ));
    if spec.procs > 0 {
        trace_shards(ctx, &spec, &points, &mut tracer, &mut layers, &mut out);
    }
    let root_span = tracer.get(root);
    let coverage = 1.0 - tracer.self_time(root).as_secs_f64() / root_span.dur().as_secs_f64();
    layers.push(("trace.layer_coverage_pct", coverage * 100.0));

    // The CLI, untraced then traced: the overhead of `--trace`, and the
    // in-process replay must reproduce the CLI's radius bit for bit.
    let trace_file = ctx.path("cli-trace.jsonl");
    let trace_arg = trace_file.to_string_lossy().into_owned();
    let plain = invoke(ctx, &spec, &input, &[], &mut out);
    let traced = invoke(ctx, &spec, &input, &["--trace", &trace_arg], &mut out);
    if let (Some(plain), Some(traced)) = (&plain, &traced) {
        layers.push((
            "obs.trace_overhead_pct",
            (traced.wall.as_secs_f64() / plain.wall.as_secs_f64() - 1.0) * 100.0,
        ));
        out.check(
            plain.radius.to_bits() == in_process_radius.to_bits()
                && traced.radius.to_bits() == plain.radius.to_bits(),
            || {
                format!(
                    "radius differs: in-process {in_process_radius}, CLI {}, CLI traced {}",
                    plain.radius, traced.radius
                )
            },
        );
        out.provenance("radius", format!("{}", plain.radius));
    }

    finish_trace(ctx, workload, &tracer, &deltas, &mut out)?;
    out.provenance("reference_radius", format!("{}", input.reference));
    out.provenance("layer_coverage_pct", format!("{}", coverage * 100.0));
    out.per_layer(&layers);
    Ok(out)
}

/// `mr_kcenter` with its rounds as derived child spans; returns the
/// centers and the reported radius.
fn trace_mapreduce(
    spec: &Spec,
    points: &[Point],
    tracer: &mut Tracer,
    root: u64,
    layers: &mut Vec<(&str, f64)>,
    out: &mut Outcome,
) -> Result<(Vec<Point>, f64), String> {
    let ell = tuning::ell_for_kcenter(points.len(), spec.k);
    let config = MrKCenterConfig {
        k: spec.k,
        ell,
        coreset: CoresetSpec::Multiplier { mu: MU },
        seed: 0,
    };
    let (result, mr) = tracer.time(1, "mapreduce.mr_kcenter", Some(root), || {
        mr_kcenter(points, &Euclidean, &config)
    });
    let result = out
        .op("mr_kcenter", result)
        .ok_or("the traced mr_kcenter failed")?;
    let total = tracer.get(mr).dur();
    let start = tracer.start_of(mr);
    let (r1, r2) = (result.round1_time, result.round2_time);
    let objective = total.saturating_sub(r1 + r2);
    tracer.derived(1, "mapreduce.round1", Some(mr), start, r1);
    tracer.derived(1, "mapreduce.round2", Some(mr), start + r1, r2);
    tracer.derived(
        1,
        "mapreduce.objective",
        Some(mr),
        start + r1 + r2,
        objective,
    );

    // Round 1 runs GMM for τ_i centers over each partition P_i: about
    // Σ |P_i|·τ_i distance evaluations.
    let indices: Vec<usize> = (0..points.len()).collect();
    let sizes: Vec<usize> = partition_dataset(&indices, ell, &Chunked)
        .iter()
        .map(Vec::len)
        .filter(|&len| len > 0)
        .collect();
    let distances: usize = sizes
        .iter()
        .zip(&result.coreset_sizes)
        .map(|(m, tau)| m * tau)
        .sum();
    layers.extend([
        ("mapreduce.round1_s", r1.as_secs_f64()),
        ("mapreduce.round2_s", r2.as_secs_f64()),
        ("mapreduce.objective_s", objective.as_secs_f64()),
        ("mapreduce.pool_threads", ell as f64),
        ("mapreduce.union_size", result.union_size as f64),
        (
            "core.round1_ns_per_distance",
            r1.as_secs_f64() * 1e9 / distances as f64,
        ),
    ]);
    out.provenance("ell", ell.to_string());
    out.provenance("union_size", result.union_size.to_string());
    Ok((result.clustering.centers, result.clustering.radius))
}

/// `exec_mr_outliers` on worker processes of the binary under test, with
/// its rounds and workers as derived child spans.
fn trace_exec(
    ctx: &Ctx,
    spec: &Spec,
    points: &[Point],
    tracer: &mut Tracer,
    root: u64,
    layers: &mut Vec<(&str, f64)>,
    out: &mut Outcome,
) -> Result<(Vec<Point>, f64), String> {
    let config = spec.outliers_config();
    let mut exec = ExecConfig::new(WorkerCommand::new(&ctx.kcenter, &["worker"]));
    exec.work_dir = Some(ctx.path("exec"));
    let (result, call) = tracer.time(1, "exec.mr_outliers", Some(root), || {
        kcenter_exec::exec_mr_outliers(points, MetricKind::Euclidean, &config, &exec)
    });
    let result = out
        .op("exec_mr_outliers", result)
        .ok_or("the traced exec_mr_outliers failed")?;
    let report = &result.report;
    let start = tracer.start_of(call);
    let round1 = tracer.derived(1, "exec.round1", Some(call), start, report.round1_time);
    for worker in &report.workers {
        tracer.derived(1, "exec.worker", Some(round1), start, worker.wall);
    }
    tracer.derived(
        1,
        "exec.round2",
        Some(call),
        start + report.round1_time,
        report.round2_time,
    );

    let slowest_wall = report
        .workers
        .iter()
        .map(|w| w.wall)
        .max()
        .unwrap_or_default();
    let build_max = report
        .workers
        .iter()
        .map(|w| w.build)
        .max()
        .unwrap_or_default();
    let build_total: f64 = report.workers.iter().map(|w| w.build.as_secs_f64()).sum();
    let distances: usize = report
        .workers
        .iter()
        .map(|w| w.shard_points * w.coreset_size)
        .sum();
    layers.extend([
        ("exec.round1_s", report.round1_time.as_secs_f64()),
        ("exec.round2_s", report.round2_time.as_secs_f64()),
        ("exec.worker_build_max_s", build_max.as_secs_f64()),
        (
            "exec.dispatch_s",
            report
                .round1_time
                .saturating_sub(slowest_wall)
                .as_secs_f64(),
        ),
        ("exec.workers_spawned", report.workers_spawned as f64),
        ("exec.shard_writes", report.shard_writes as f64),
        ("exec.merge_jobs", report.merge_jobs as f64),
        (
            "exec.retries",
            (report.worker_respawns + report.reconnects) as f64,
        ),
        ("core.search_evaluations", result.search_evaluations as f64),
        (
            "core.round1_ns_per_distance",
            build_total * 1e9 / distances as f64,
        ),
    ]);
    out.check(report.worker_respawns + report.reconnects == 0, || {
        format!(
            "executor retried: {} respawns, {} reconnects",
            report.worker_respawns, report.reconnects
        )
    });
    out.provenance("ell", spec.procs.to_string());
    out.provenance("union_size", report.union_size.to_string());
    Ok((result.clustering.centers, result.clustering.radius))
}

/// The executor's shard codec on this workload's partitions:
/// `write_shard` then `read_shard_set`, each timed.
fn trace_shards(
    ctx: &Ctx,
    spec: &Spec,
    points: &[Point],
    tracer: &mut Tracer,
    layers: &mut Vec<(&str, f64)>,
    out: &mut Outcome,
) {
    let config = spec.outliers_config();
    let partitions = partition_dataset(points, spec.procs, config.partitioner().as_ref());
    let probe = tracer.open(2, "store.shard_probe", None);
    let (mut write_s, mut read_s, mut bytes) = (0.0, 0.0, 0u64);
    for (i, members) in partitions.iter().enumerate() {
        let path = ctx.path(&format!("probe-shard-{i}.kca"));
        let (written, w) = tracer.time(2, "store.write_shard", Some(probe), || {
            kcenter_exec::shard::write_shard(&path, members)
        });
        if out.op("write_shard", written).is_none() {
            continue;
        }
        bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
        let (read, r) = tracer.time(2, "store.read_shard_set", Some(probe), || {
            kcenter_exec::shard::read_shard_set(&path)
        });
        if let Some(set) = out.op("read_shard_set", read) {
            out.check(set.len() == members.len(), || {
                format!(
                    "shard {i} read back {} of {} points",
                    set.len(),
                    members.len()
                )
            });
        }
        write_s += tracer.get(w).dur().as_secs_f64();
        read_s += tracer.get(r).dur().as_secs_f64();
    }
    tracer.close(probe);
    layers.extend([
        ("store.shard_write_s", write_s),
        ("store.shard_read_s", read_s),
        ("store.shard_bytes", bytes as f64),
    ]);
}
