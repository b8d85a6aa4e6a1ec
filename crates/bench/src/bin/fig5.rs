//! Figure 5: runtime speedups over LLVM instruction selection.
//!
//! Prints, per benchmark and per registered target, the cycle-model
//! speedup of Pitchfork (leave-one-out rule set, as in §5) and Rake
//! (ARM and HVX only — Rake has no other backends) over the LLVM-like
//! baseline, plus the per-target geometric means. For the paper's three
//! targets the headline numbers are annotated (x86 1.31x, ARM 1.82x,
//! HVX 2.44x); post-paper targets such as RVV get a column with no
//! paper reference. Every compiled program is differentially validated
//! against the reference interpreter before being timed.
//!
//! Usage: `cargo run --release -p fpir-bench --bin fig5 [--no-validate]`

fn main() {
    let no_validate = std::env::args().any(|a| a == "--no-validate");
    print!("{}", fpir_bench::figures::fig5(!no_validate));
}
