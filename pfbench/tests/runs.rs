//! Tiny-duration runs of the real binary: every workload prints exactly
//! the metrics `BENCHMARK.json` names and passes its gates, and a
//! planted wrong reference fails the run.
//!
//! Run with `cargo test --release --manifest-path pfbench/Cargo.toml`:
//! the serve workloads drive a daemon at a fixed rate, which an
//! unoptimized build may not sustain.

use pitchfork_service::json::{self, Json};
use std::process::Command;
use std::sync::Mutex;

/// One run at a time: the workloads time themselves, and the serve
/// workloads hold a daemon.
static SERIAL: Mutex<()> = Mutex::new(());

fn names(group: &str) -> Vec<String> {
    let spec = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    spec.get(group)
        .and_then(Json::as_array)
        .expect("a metric list")
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).expect("a name").to_string())
        .collect()
}

/// Run pfbench; returns the exit code and the parsed last stdout line.
fn pfbench(args: &[&str]) -> (i32, Json) {
    let _one = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let out =
        Command::new(env!("CARGO_BIN_EXE_pfbench")).args(args).output().expect("pfbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result = json::parse(last).unwrap_or_else(|e| {
        panic!("last line is not JSON ({e}): {last}\n{}", String::from_utf8_lossy(&out.stderr))
    });
    (out.status.code().unwrap_or(-1), result)
}

fn check_run(workload: &str, trace: &str, group: &str) {
    let (code, r) =
        pfbench(&["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace]);
    assert_eq!(code, 0, "{workload}: {}", r.render());
    assert_eq!(r.get("correct").and_then(Json::as_bool), Some(true), "{}", r.render());
    assert_eq!(r.get("failed").and_then(Json::as_int), Some(0));
    assert!(r.get("attempted").and_then(Json::as_int).unwrap_or(0) >= 1);
    let keys: Vec<String> =
        r.as_object().expect("an object").iter().map(|(k, _)| k.clone()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let metrics = r.get("metrics").and_then(Json::as_object).expect("metrics");
    let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(got, names(group), "{workload}");
    for (name, m) in metrics {
        assert!(matches!(m.get("value"), Some(Json::Float(_))), "{name}");
        assert!(m.get("unit").and_then(Json::as_str).is_some(), "{name}");
    }
}

#[test]
fn compile_figure_runs() {
    check_run("compile-figure", "0", "end_to_end");
}

#[test]
fn compile_unrolled_runs() {
    check_run("compile-unrolled", "0", "end_to_end");
}

#[test]
fn exec_images_runs() {
    check_run("exec-images", "0", "end_to_end");
}

#[test]
fn serve_hot_runs() {
    check_run("serve-hot", "0", "end_to_end");
}

#[test]
fn serve_mixed_runs() {
    check_run("serve-mixed", "0", "end_to_end");
}

#[test]
fn a_traced_run_reports_every_layer() {
    check_run("exec-images", "1", "per_layer");
}

#[test]
fn a_corrupted_reference_fails_the_run() {
    for workload in ["compile-figure", "exec-images"] {
        let args = ["--workload", workload, "--seed", "3", "--seconds", "1", "--plant-failure"];
        let (code, r) = pfbench(&args);
        assert_eq!(code, 1, "{workload}");
        assert_eq!(r.get("correct").and_then(Json::as_bool), Some(false));
        assert!(r.get("failed").and_then(Json::as_int).unwrap_or(0) >= 1);
    }
}

#[test]
fn a_result_file_compares_clean_against_itself() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("pfbench-self.json");
    let file = path.to_str().expect("a UTF-8 path");
    let (code, _) =
        pfbench(&["--workload", "compile-figure", "--seed", "4", "--seconds", "1", "--out", file]);
    assert_eq!(code, 0);
    let compare = Command::new(env!("CARGO_BIN_EXE_pfbench"))
        .args(["compare", file, file])
        .output()
        .expect("compare runs");
    let _ = std::fs::remove_file(&path);
    assert!(compare.status.success(), "{}", String::from_utf8_lossy(&compare.stdout));
}
