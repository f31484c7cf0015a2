//! Smoke test of the benchmark itself: every workload runs at a tiny size
//! and prints every metric `BENCHMARK.json` names, with its unit, in
//! both the untraced and the traced run; a planted fingerprint mismatch
//! fails the correctness check on every workload.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use std::process::Command;

use json::Json;

const WORKLOADS: [&str; 3] = ["signoff-i5", "eco-session-i3", "serve-tenants-i1"];

/// Report-only figures each workload must print by name.
const REPORTED: [(&str, &[&str]); 3] = [
    ("signoff-i5", &["signoff_s", "addition_gain_ps", "elimination_gain_ps", "failed_frac"]),
    ("eco-session-i3", &["whatif_p50_ms", "whatif_p90_ms", "commit_p50_ms", "failed_frac"]),
    ("serve-tenants-i1", &["failed_frac", "fingerprint_mismatches"]),
];

fn spec() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// Runs one tiny workload; returns (exit success, stdout, result line).
fn run(workload: &str, trace: bool, extra: &[&str]) -> (bool, String, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace"])
        .arg(if trace { "1" } else { "0" })
        .arg("--tiny")
        .args(extra)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    let last = stdout.lines().last().unwrap_or_default().to_owned();
    let result =
        json::parse(&last).unwrap_or_else(|e| panic!("{workload}: bad result line {last:?}: {e}"));
    (out.status.success(), stdout, result)
}

fn check_metrics(workload: &str, result: &Json, declared: &Json) {
    let metrics = result.get("metrics").expect("metrics object");
    let Json::Object(map) = metrics else { panic!("metrics is not an object") };
    assert_eq!(map.len(), declared.as_array().len(), "{workload}: metric count");
    for m in declared.as_array() {
        let name = m.get("name").and_then(Json::as_str).expect("metric name");
        let unit = m.get("unit").and_then(Json::as_str).expect("metric unit");
        let got = metrics.get(name).unwrap_or_else(|| panic!("{workload}: no metric {name}"));
        assert_eq!(got.get("unit").and_then(Json::as_str), Some(unit), "{workload}: {name} unit");
        let value = got.get("value").and_then(Json::as_f64).expect("numeric value");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
    }
}

#[test]
fn every_workload_prints_every_metric_and_is_correct() {
    let spec = spec();
    for workload in WORKLOADS {
        for trace in [false, true] {
            let (ok, stdout, result) = run(workload, trace, &[]);
            assert!(ok, "{workload} trace={trace} failed:\n{stdout}");
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0);
            let key = if trace { "per_layer" } else { "end_to_end" };
            check_metrics(workload, &result, spec.get(key).expect("metric list"));
            if !trace {
                let (_, names) = REPORTED.iter().find(|r| r.0 == workload).expect("listed");
                for name in *names {
                    assert!(stdout.contains(name), "{workload}: report lacks {name}:\n{stdout}");
                }
            }
        }
    }
}

#[test]
fn a_planted_fingerprint_mismatch_fails_the_run() {
    for workload in WORKLOADS {
        let (ok, stdout, result) = run(workload, false, &["--plant-mismatch"]);
        assert!(!ok, "{workload}: planted mismatch went unnoticed:\n{stdout}");
        assert_eq!(result.get("correct").and_then(Json::as_bool), Some(false));
        assert!(result.get("failed").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0);
    }
}

#[test]
fn the_declared_workloads_are_the_ones_the_binary_runs() {
    let spec = spec();
    let names: Vec<&str> = spec
        .get("workloads")
        .expect("workloads")
        .as_array()
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(names, WORKLOADS);
}
