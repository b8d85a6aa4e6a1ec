//! The deterministic figures and tables equal their committed outputs
//! in `docs/results/` byte for byte, so EXPERIMENTS.md cannot drift from
//! the code. When a change is meant to alter one, regenerate it with
//! `cargo run --release -p fpir-bench --bin <name> > docs/results/<name>.txt`
//! and say why.

use fpir_bench::figures;
use std::path::Path;

fn assert_matches_committed(name: &str, got: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/results").join(name);
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    if got != want {
        let line = got.lines().zip(want.lines()).position(|(g, w)| g != w);
        panic!(
            "{name} differs from docs/results/{name} (first differing line: {:?}; {} vs {} \
             lines)\n--- got ---\n{got}",
            line.map(|l| l + 1),
            got.lines().count(),
            want.lines().count()
        );
    }
}

#[test]
fn fig3_matches_docs_results() {
    assert_matches_committed("fig3.txt", &figures::fig3());
}

#[test]
fn fig5_matches_docs_results() {
    assert_matches_committed("fig5.txt", &figures::fig5(true));
}

#[test]
fn fig7_matches_docs_results() {
    assert_matches_committed("fig7.txt", &figures::fig7());
}

#[test]
fn rules_match_docs_results() {
    assert_matches_committed("rules.txt", &figures::rules());
}

#[test]
fn table1_matches_docs_results() {
    assert_matches_committed("table1.txt", &figures::table1());
}
