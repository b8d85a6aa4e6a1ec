//! Table 1: the FPIR instruction set and its semantics.
//!
//! Prints every FPIR instruction alongside its compositional definition
//! (generated from the very expansions the interpreter is verified
//! against), reproducing the paper's Table 1.
//!
//! Usage: `cargo run -p fpir-bench --bin table1`

fn main() {
    print!("{}", fpir_bench::figures::table1());
}
