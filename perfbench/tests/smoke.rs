//! Smoke test: every workload at tiny sizes, untraced and traced.
//!
//! Asserts that every metric `BENCHMARK.json` names is printed with its
//! unit for each workload, that no end-to-end value is 0, and that the
//! traced run's spans nest with resolving parents.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use kcenter_obs::json::{parse, Json};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf()
}

/// Builds the `kcenter` binary into a target directory of the test's
/// own, so it never waits on the lock of the build running this test.
fn build_kcenter() -> PathBuf {
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("kcenter-build");
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "kcenter",
        ])
        .arg("--manifest-path")
        .arg(repo_root().join("Cargo.toml"))
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building kcenter failed");
    target.join("release").join("kcenter")
}

/// `name -> unit` of one metric list in `BENCHMARK.json`.
fn declared(spec: &Json, list: &str) -> BTreeMap<String, String> {
    spec.get(list)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn object(json: &Json) -> &[(String, Json)] {
    match json {
        Json::Obj(fields) => fields,
        other => panic!("expected an object, got {other:?}"),
    }
}

/// Checks the spans file a traced run wrote.
fn check_spans(path: &str) {
    let text = std::fs::read_to_string(path).expect("spans file exists");
    let mut spans: BTreeMap<u64, (u64, Option<u64>, u64, u64)> = BTreeMap::new();
    for line in text.lines() {
        let record = parse(line).expect("every line is JSON");
        if record.get("type").and_then(Json::as_str) != Some("span") {
            continue;
        }
        let num = |k| {
            record
                .get(k)
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("{k} in {line}"))
        };
        let parent = record.get("parent").and_then(Json::as_u64);
        let start = num("start_us");
        spans.insert(
            num("id"),
            (num("trace"), parent, start, start + num("dur_us")),
        );
    }
    assert!(!spans.is_empty(), "no spans in {path}");
    for (id, (trace, parent, start, end)) in &spans {
        let Some(parent) = parent else { continue };
        let (p_trace, _, p_start, p_end) = spans
            .get(parent)
            .unwrap_or_else(|| panic!("span {id} has unresolved parent {parent}"));
        assert_eq!(trace, p_trace, "span {id} crosses traces");
        // Offsets are rounded to whole microseconds.
        assert!(
            start + 1 >= *p_start && *end <= p_end + 1,
            "span {id} lies outside its parent {parent}"
        );
    }
}

#[test]
fn every_workload_prints_every_declared_metric() {
    let spec_text =
        std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = parse(&spec_text).expect("BENCHMARK.json parses");
    let end_to_end = declared(&spec, "end_to_end");
    let per_layer = declared(&spec, "per_layer");
    let kcenter = build_kcenter();
    let workloads = spec
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads");

    for workload in workloads {
        let name = workload
            .get("name")
            .and_then(Json::as_str)
            .expect("workload name");
        for (trace, wanted) in [("0", &end_to_end), ("1", &per_layer)] {
            let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{name}-{trace}"));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("scratch dir");
            let run = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .current_dir(&dir)
                .arg("--kcenter")
                .arg(&kcenter)
                .args(["--workload", name, "--seed", "7", "--seconds", "1"])
                .args(["--trace", trace, "--scale", "tiny"])
                .output()
                .expect("perfbench runs");
            let stdout = String::from_utf8_lossy(&run.stdout);
            assert!(
                run.status.success(),
                "{name} trace={trace} failed: {stdout}\n{}",
                String::from_utf8_lossy(&run.stderr)
            );
            let lines: Vec<&str> = stdout.lines().collect();
            let result = parse(lines.last().expect("a result line")).expect("result is JSON");
            let keys: Vec<&str> = object(&result).iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Json::as_u64) >= Some(1));
            let metrics = object(result.get("metrics").expect("metrics"));
            let printed: BTreeMap<String, String> = metrics
                .iter()
                .map(|(k, m)| {
                    let value = m.get("value").and_then(Json::as_f64).expect("value");
                    assert!(
                        trace == "1" || value != 0.0,
                        "{name}: end-to-end metric {k} is 0"
                    );
                    let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                    (k.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(
                &printed, wanted,
                "{name} trace={trace}: metrics differ from BENCHMARK.json"
            );

            if trace == "1" {
                let provenance = parse(lines[lines.len() - 2]).expect("provenance is JSON");
                let spans = provenance
                    .get("provenance")
                    .and_then(|p| p.get("spans_file"))
                    .and_then(Json::as_str)
                    .expect("a spans file");
                check_spans(spans);
            }
        }
    }
}

#[test]
fn missing_arguments_fail_without_a_result() {
    let run = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "mr-kcenter-inproc"])
        .output()
        .expect("perfbench runs");
    assert_eq!(run.status.code(), Some(2));
    assert!(run.stdout.is_empty());
}
