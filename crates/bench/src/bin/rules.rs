//! Print the complete rule catalog — the expanded version of the paper's
//! Figure 4 — with classes, predicates and provenance. `rulecheck` (in
//! `pitchfork-lint`) checks every rule in it.
//!
//! Usage: `cargo run --release -p fpir-bench --bin rules`

fn main() {
    print!("{}", fpir_bench::figures::rules());
}
