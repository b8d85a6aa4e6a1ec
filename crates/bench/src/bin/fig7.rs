//! Figure 7: ablation — speedup of the full rule set over hand-written
//! rules alone, per registered target (§5.3).
//!
//! The paper reports geomean gains of 1.09x (ARM) and 1.14x (HVX) from
//! the synthesized rules, with the largest single effect on average_pool
//! for HVX (4.99x) — the branch-free average idioms only the synthesized
//! lifting rules recognise — and one *regression* on gaussian7x7/HVX from
//! a synthesized reordering interacting badly with swizzles. Targets the
//! paper did not evaluate (x86, RVV) run the same ablation without a
//! paper reference; their synthesized lowering rules (e.g. RVV's
//! `vwmacc`-from-shift) are ablated exactly like ARM's and HVX's.
//!
//! Usage: `cargo run --release -p fpir-bench --bin fig7`

fn main() {
    print!("{}", fpir_bench::figures::fig7());
}
