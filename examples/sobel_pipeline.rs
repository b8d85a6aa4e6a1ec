//! The Figure 2 walkthrough: run the Sobel filter over a real image.
//!
//! Shows all three stages of the paper's motivating example — the
//! portable vector expression (Fig. 2b), the lifted FPIR (Fig. 2c), and
//! the per-target machine code (Fig. 3) — then executes the compiled
//! kernel strip-by-strip over an image and checks it against the
//! reference interpreter.
//!
//!     cargo run --release -p fpir-bench --example sobel_pipeline

use fpir::Isa;
use fpir_halide::Image;
use fpir_isa::target;
use fpir_sim::{cycle_cost, emit, execute};
use fpir_workloads::workload;
use pitchfork::Pitchfork;
use std::collections::BTreeMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sobel = workload("sobel3x3").expect("sobel3x3 is in the suite");
    println!("Figure 2(b) — the vector expression Halide hands to Pitchfork:");
    println!("  {}\n", sobel.pipeline.expr);

    let pf = Pitchfork::new(Isa::ArmNeon);
    let (lifted, stats) = pf.lift(&sobel.pipeline.expr);
    println!("Figure 2(c) — lifted to FPIR ({} rule firings):", stats.applications);
    println!("  {lifted}\n");
    println!("lifting rules that fired: {:?}\n", stats.fired_rules());

    // A synthetic "photo": a bright diagonal edge on a dark field.
    let (w, h) = (256usize, 64usize);
    let mut img = Image::filled(fpir::ScalarType::U8, w, h, 20);
    for y in 0..h {
        for x in 0..w {
            if x + y > 150 {
                img.set(x, y, 230);
            }
        }
    }
    let mut inputs = BTreeMap::new();
    inputs.insert("in".to_string(), img);
    let reference = sobel.pipeline.run_reference(&inputs)?;

    for isa in [Isa::X86Avx2, Isa::ArmNeon, Isa::HexagonHvx] {
        let tgt = target(isa);
        let out = Pitchfork::new(isa).compile(&sobel.pipeline.expr)?;
        let program = emit(&out.lowered, tgt)?;
        println!(
            "[{isa}] {} machine ops, {} cycles/vector",
            program.op_count(),
            cycle_cost(&program, tgt)
        );

        // Execute the compiled kernel over the image, strip by strip, and
        // compare every pixel with the reference.
        let lanes = sobel.pipeline.lanes() as usize;
        let mut mismatches = 0usize;
        for y in 0..h {
            let mut x0 = 0usize;
            while x0 < w {
                let env = sobel.pipeline.env_at(&inputs, x0 as i64, y as i64)?;
                let v = execute(&program, &env, tgt)?;
                for i in 0..lanes.min(w - x0) {
                    if v.lane(i) != reference.get_clamped((x0 + i) as i64, y as i64) {
                        mismatches += 1;
                    }
                }
                x0 += lanes;
            }
        }
        assert_eq!(mismatches, 0, "{isa} disagreed with the reference");
        println!("       every output pixel matches the reference interpreter");
    }

    // A glimpse of the result: edge magnitudes along one row.
    let y = 40;
    // The diagonal crosses row 40 at x = 110.
    let row: Vec<i128> = (106..116).map(|x| reference.get_clamped(x, y as i64)).collect();
    println!("\nedge response near the diagonal (row {y}, cols 106..116): {row:?}");
    Ok(())
}
