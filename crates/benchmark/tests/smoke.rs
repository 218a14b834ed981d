//! Runs every workload for one second on tiny operands against the real
//! `tsg-serve`, untraced and traced, and checks that no request failed and
//! that every metric `BENCHMARK.json` names is reported as a number.

use std::path::PathBuf;
use std::process::Command;

use tsg_engine::json::{parse, Value};

/// Builds `tsg-serve` in this test's profile and returns its path, which is
/// next to the benchmark binary.
fn server() -> PathBuf {
    let mut build = Command::new(env!("CARGO"));
    build.args(["build", "-q", "-p", "tsg-serve", "--bin", "tsg-serve"]);
    if !cfg!(debug_assertions) {
        build.arg("--release");
    }
    assert!(
        build.status().expect("running cargo").success(),
        "building tsg-serve failed"
    );
    PathBuf::from(env!("CARGO_BIN_EXE_tsg-benchmark"))
        .with_file_name(format!("tsg-serve{}", std::env::consts::EXE_SUFFIX))
}

/// The metric names of one `BENCHMARK.json` list.
fn names(spec: &Value, list: &str) -> Vec<String> {
    spec.get(list)
        .and_then(Value::as_arr)
        .expect("BENCHMARK.json lists metrics")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("named")
                .to_string()
        })
        .collect()
}

#[test]
fn every_workload_runs_clean_and_reports_every_metric() {
    let spec_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let spec = parse(&std::fs::read_to_string(spec_path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json is JSON");
    let server = server();
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("BENCHMARK.json lists workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("named")
                .to_string()
        })
        .collect();
    for workload in &workloads {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_tsg-benchmark"))
                .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
                .args(["--trace", trace, "--scale", "tiny", "--server"])
                .arg(&server)
                .output()
                .expect("running tsg-benchmark");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let what = format!(
                "{workload} --trace {trace}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(out.status.success(), "{what}");
            let result = parse(stdout.lines().last().expect("a result line")).expect("JSON result");
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{what}");
            assert_eq!(
                result.get("failed").and_then(Value::as_u64),
                Some(0),
                "{what}"
            );
            assert!(
                result.get("attempted").and_then(Value::as_u64) > Some(0),
                "{what}"
            );
            let metrics = result.get("metrics").expect("metrics");
            for name in names(&spec, list) {
                let value = metrics.get(&name).and_then(|m| m.get("value"));
                assert!(
                    value.and_then(Value::as_f64).is_some(),
                    "{workload} --trace {trace}: {name} is {value:?}"
                );
            }
        }
    }
}
