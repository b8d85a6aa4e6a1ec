//! `exec-bench` — whole-image *execution* benchmark.
//!
//! Compiles every workload for every target with every selector flow
//! (LLVM-like baseline, Rake, Pitchfork), then executes each compiled
//! program over whole images with three engines:
//!
//! * REFERENCE — [`fpir_halide::run_program_reference`]: a string-keyed
//!   environment rebuilt per vector strip, interpreted by the table-lookup
//!   VM (`fpir_sim::vm::execute`);
//! * LINKED — [`fpir_halide::run_tiled_exe`] over a plain
//!   [`fpir_sim::Executable`] (slot-resolved inputs, direct semantics
//!   dispatch, shared constants, recycled register file) — the engine as
//!   it stood before fusion;
//! * FUSED — the same program through the FAST link
//!   ([`fpir_sim::ExecConfig::FAST`]): def-use chains collapsed into one
//!   lane loop per chain, intermediates in scalars.
//!
//! Equality gate, fatal (exit 1): on every workload × target × compiler
//! the reference image, the linked image, the fused image at 1 worker and
//! the fused image at `--jobs` workers must be bit-identical.
//!
//! Writes `BENCH_exec.json` with per-row timings, cycle-model cost,
//! dispatch counts and peak physical register counts before/after fusion,
//! fused-superinstruction counts, and the geomean wall-clock speedups
//! (linked vs reference, fused vs linked, fused tiled at `--jobs`).
//!
//! Usage: `cargo run --release -p fpir-bench --bin exec-bench --
//!         [--smoke] [--out PATH] [--jobs N]`
//!
//! `--smoke` cuts workloads, image size and repetitions for CI.
//! `--jobs` (default: `PITCHFORK_JOBS` or the machine's parallelism) sets
//! the tiled runner's worker count.

use fpir::Isa;
use fpir_bench::{geomean, run, Compiler};
use fpir_halide::{run_program_reference, run_tiled_exe};
use fpir_isa::target;
use fpir_sim::{ExecConfig, Executable};
use fpir_workloads::{all_workloads, extra_workloads, unrolled_workloads};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// One workload × target × compiler measurement.
struct Row {
    workload: String,
    isa: Isa,
    compiler: &'static str,
    cycles: u64,
    /// Per-strip dispatches before fusion (plain linked op count).
    ops_linked: usize,
    /// Per-strip dispatches after fusion (fused executable op count).
    ops_fused: usize,
    /// Fused superinstructions in the optimized executable.
    fused_kernels: usize,
    /// Physical register file size before fusion.
    peak_regs_linked: usize,
    /// Physical register file size after fusion.
    peak_regs_fused: usize,
    reference_ns: u128,
    linked1_ns: u128,
    fused1_ns: u128,
    fusedn_ns: u128,
}

fn main() -> ExitCode {
    let mut smoke = false;
    let mut out_path = String::from("BENCH_exec.json");
    let mut jobs = fpir_pool::default_jobs();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => match args.next() {
                Some(p) => out_path = p,
                None => {
                    eprintln!("exec-bench: `--out` expects a path");
                    return ExitCode::from(2);
                }
            },
            "--jobs" => match args.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n >= 1 => jobs = n,
                _ => {
                    eprintln!("exec-bench: `--jobs` expects a positive integer");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: exec-bench [--smoke] [--out PATH] [--jobs N]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("exec-bench: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let reps = if smoke { 1 } else { 3 };
    let (img_w, img_h) = if smoke { (128, 16) } else { (256, 64) };
    let mut workloads = all_workloads();
    if smoke {
        workloads.truncate(3);
    } else {
        workloads.extend(extra_workloads());
        workloads.extend(unrolled_workloads());
    }
    let isas = fpir::machine::ALL_ISAS;
    let compilers: [(&'static str, Compiler); 3] =
        [("llvm", Compiler::Llvm), ("rake", Compiler::Rake), ("pitchfork", Compiler::Pitchfork)];

    let mut rows: Vec<Row> = Vec::new();
    let mut diverged = false;

    for wl in &workloads {
        let inputs = wl.random_inputs(img_w, img_h, 0xE7EC);
        for isa in isas {
            let tgt = target(isa);
            for (tag, compiler) in &compilers {
                // The Rake reproduction models the paper's ARM/HVX
                // backends only.
                if *compiler == Compiler::Rake && !fpir_bench::rake_supports(isa) {
                    continue;
                }
                // `run` finishes the compilation through the shared
                // `pitchfork::Artifact` pipeline: program, cycle price,
                // and linked (fused) executable arrive together.
                let result = match run(wl, isa, compiler) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("exec-bench: {}/{isa}/{tag} failed to compile: {e}", wl.name());
                        return ExitCode::FAILURE;
                    }
                };
                let program = &result.artifact.program;
                // The artifact's executable is fused by default; relink
                // plain for the pre-fusion baseline.
                let fused = &result.artifact.exe;
                let linked = match Executable::link_with(program, tgt, &ExecConfig::REFERENCE) {
                    Ok(e) => e,
                    Err(e) => {
                        eprintln!("exec-bench: {}/{isa}/{tag} failed to link: {e}", wl.name());
                        return ExitCode::FAILURE;
                    }
                };

                let time = |f: &dyn Fn() -> fpir_halide::Image| -> (fpir_halide::Image, u128) {
                    let img = f(); // warm-up; also the gated output
                    let ns = (0..reps)
                        .map(|_| {
                            let t0 = Instant::now();
                            let _ = f();
                            t0.elapsed().as_nanos()
                        })
                        .min()
                        .unwrap();
                    (img, ns)
                };
                let (ref_img, reference_ns) = time(&|| {
                    run_program_reference(&wl.pipeline, program, tgt, &inputs).expect("runs")
                });
                let (linked1_img, linked1_ns) =
                    time(&|| run_tiled_exe(&wl.pipeline, &linked, &inputs, 1).expect("runs"));
                let (fused1_img, fused1_ns) =
                    time(&|| run_tiled_exe(&wl.pipeline, fused, &inputs, 1).expect("runs"));
                let (fusedn_img, fusedn_ns) =
                    time(&|| run_tiled_exe(&wl.pipeline, fused, &inputs, jobs).expect("runs"));

                // The equality gate: one program, four execution paths,
                // one image. Fused==reference is the fusion soundness
                // gate and is fatal.
                if linked1_img != ref_img || fused1_img != ref_img || fusedn_img != ref_img {
                    eprintln!(
                        "DIVERGENCE {}/{isa}/{tag}: engines disagree \
                         (linked=={}, fused(1)=={}, fused({jobs})=={})",
                        wl.name(),
                        linked1_img == ref_img,
                        fused1_img == ref_img,
                        fusedn_img == ref_img,
                    );
                    diverged = true;
                }

                rows.push(Row {
                    workload: wl.name().to_string(),
                    isa,
                    compiler: tag,
                    cycles: result.artifact.cycles,
                    ops_linked: linked.op_count(),
                    ops_fused: fused.op_count(),
                    fused_kernels: fused.fused_count(),
                    peak_regs_linked: linked.peak_regs(),
                    peak_regs_fused: fused.peak_regs(),
                    reference_ns,
                    linked1_ns,
                    fused1_ns,
                    fusedn_ns,
                });
            }
        }
    }

    let speedups1: Vec<f64> =
        rows.iter().map(|r| r.reference_ns as f64 / r.linked1_ns.max(1) as f64).collect();
    let speedups_fused: Vec<f64> =
        rows.iter().map(|r| r.linked1_ns as f64 / r.fused1_ns.max(1) as f64).collect();
    let speedups_n: Vec<f64> =
        rows.iter().map(|r| r.reference_ns as f64 / r.fusedn_ns.max(1) as f64).collect();
    let (geo1, geo_fused, geo_n) =
        (geomean(&speedups1), geomean(&speedups_fused), geomean(&speedups_n));

    println!(
        "{:<18} {:>4} {:>10} {:>9} {:>9} {:>10} {:>10} {:>10} {:>10} {:>7} {:>7}",
        "workload",
        "isa",
        "compiler",
        "ops l>f",
        "regs l>f",
        "reference",
        "linked(1)",
        "fused(1)",
        "fused(n)",
        "xlink",
        "xfuse"
    );
    for r in &rows {
        println!(
            "{:<18} {:>4} {:>10} {:>4}>{:<4} {:>4}>{:<4} {:>8}us {:>8}us {:>8}us {:>8}us {:>6.1}x {:>6.2}x",
            r.workload,
            r.isa.slug(),
            r.compiler,
            r.ops_linked,
            r.ops_fused,
            r.peak_regs_linked,
            r.peak_regs_fused,
            r.reference_ns / 1_000,
            r.linked1_ns / 1_000,
            r.fused1_ns / 1_000,
            r.fusedn_ns / 1_000,
            r.reference_ns as f64 / r.linked1_ns.max(1) as f64,
            r.linked1_ns as f64 / r.fused1_ns.max(1) as f64,
        );
    }
    println!("\ngeomean speedup, linked engine (1 worker) vs reference runner: {geo1:.2}x");
    println!("geomean speedup, fused engine (1 worker) vs linked engine:     {geo_fused:.2}x");
    println!("geomean speedup, fused tiled ({jobs} workers) vs reference:    {geo_n:.2}x");

    let json = render_json(&rows, geo1, geo_fused, geo_n, smoke, reps, jobs, img_w, img_h);
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("exec-bench: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");

    if diverged {
        eprintln!("exec-bench: FAILED — execution engines diverged (see above)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Hand-built JSON (the environment has no serde; the shape is flat).
#[allow(clippy::too_many_arguments)]
fn render_json(
    rows: &[Row],
    geo1: f64,
    geo_fused: f64,
    geo_n: f64,
    smoke: bool,
    reps: usize,
    jobs: usize,
    img_w: usize,
    img_h: usize,
) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"schema\": \"pitchfork-exec-bench/v2\",");
    let _ = writeln!(s, "  \"smoke\": {smoke},");
    let _ = writeln!(s, "  \"reps\": {reps},");
    let _ = writeln!(s, "  \"jobs\": {jobs},");
    let _ = writeln!(s, "  \"image\": [{img_w}, {img_h}],");
    let _ = writeln!(s, "  \"geomean_speedup_linked_vs_reference\": {geo1:.4},");
    let _ = writeln!(s, "  \"geomean_speedup_fused_vs_linked\": {geo_fused:.4},");
    let _ = writeln!(s, "  \"geomean_speedup_tiled_vs_reference\": {geo_n:.4},");
    let _ = writeln!(s, "  \"results\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"workload\": \"{}\",", r.workload);
        let _ = writeln!(s, "      \"isa\": \"{}\",", r.isa.slug());
        let _ = writeln!(s, "      \"compiler\": \"{}\",", r.compiler);
        let _ = writeln!(s, "      \"cycles\": {},", r.cycles);
        let _ = writeln!(s, "      \"dispatches_linked\": {},", r.ops_linked);
        let _ = writeln!(s, "      \"dispatches_fused\": {},", r.ops_fused);
        let _ = writeln!(s, "      \"fused_kernels\": {},", r.fused_kernels);
        let _ = writeln!(s, "      \"peak_regs_linked\": {},", r.peak_regs_linked);
        let _ = writeln!(s, "      \"peak_regs_fused\": {},", r.peak_regs_fused);
        let _ = writeln!(s, "      \"reference_ns\": {},", r.reference_ns);
        let _ = writeln!(s, "      \"linked1_ns\": {},", r.linked1_ns);
        let _ = writeln!(s, "      \"fused1_ns\": {},", r.fused1_ns);
        let _ = writeln!(s, "      \"fusedn_ns\": {},", r.fusedn_ns);
        let _ = writeln!(
            s,
            "      \"speedup_linked\": {:.4},",
            r.reference_ns as f64 / r.linked1_ns.max(1) as f64
        );
        let _ = writeln!(
            s,
            "      \"speedup_fused_vs_linked\": {:.4},",
            r.linked1_ns as f64 / r.fused1_ns.max(1) as f64
        );
        let _ = writeln!(
            s,
            "      \"speedup_tiled\": {:.4}",
            r.reference_ns as f64 / r.fusedn_ns.max(1) as f64
        );
        let _ = writeln!(s, "    }}{}", if i + 1 < rows.len() { "," } else { "" });
    }
    s.push_str("  ]\n}\n");
    s
}
