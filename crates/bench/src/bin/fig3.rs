//! Figure 3: instruction-selection comparison on the three key Sobel
//! sub-expressions, per target.
//!
//! Prints Pitchfork's and the baseline's machine code for
//!
//!   (a) `u16(a_u8) + u16(b_u8) * 2 + u16(c_u8)` — the widening
//!       multiply-accumulate kernel;
//!   (b) `absd(x_u16, y_u16)` written as the select idiom;
//!   (c) `u8(min(z_u16, 255))` where `z` is the bounded kernel sum —
//!       the bounds-predicated saturating narrow;
//!
//! and the per-expression cycle comparison, mirroring the listings in the
//! paper's Figure 3.
//!
//! Usage: `cargo run --release -p fpir-bench --bin fig3`

fn main() {
    print!("{}", fpir_bench::figures::fig3());
}
