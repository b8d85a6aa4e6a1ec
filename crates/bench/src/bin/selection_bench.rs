//! `selection-bench` — instruction-selection *compile-time* benchmark.
//!
//! Compiles every workload for every target with every selector flow
//! (LLVM-like baseline, Pitchfork, Rake) using `std::time::Instant` and
//! writes `BENCH_selection.json`.
//! For Pitchfork it times both rewrite engines — the fast engine (DAG
//! memoization + root-operator rule index + cost cache) and the reference
//! linear-scan tree-walker — and reports the per-run speedup plus the
//! geometric mean the speedup gate is measured on.
//!
//! Correctness gates, both fatal (exit 1):
//! * the fast engine's machine code must be byte-identical to the
//!   reference engine's on every workload × target;
//! * Pitchfork's output must agree with the reference interpreter on
//!   boundary-biased random inputs.
//!
//! Usage: `cargo run --release -p fpir-bench --bin selection-bench --
//!         [--smoke] [--out PATH] [--jobs N]`
//!
//! `--smoke` cuts workloads, repetitions and validation rounds for CI.
//! `--jobs` (default: `PITCHFORK_JOBS` or the machine's parallelism) fans
//! the gate-2 simulator validation out over a worker pool; the timing
//! loops always run sequentially on the main thread.

use fpir::expr::Expr;
use fpir::Isa;
use fpir_bench::{geomean, run, Compiler};
use fpir_sim::check_program;
use fpir_workloads::{all_workloads, unrolled_workloads};
use pitchfork::{Config, EngineConfig, Pitchfork};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// One Pitchfork engine-vs-engine measurement.
struct PitchforkRow {
    fast_ns: u128,
    reference_ns: u128,
    passes: usize,
    applications: usize,
    nodes_visited: usize,
    memo_hits: usize,
    cost_cache_hits: usize,
    cost_cache_misses: usize,
    bounds_cache_hits: u64,
    bounds_cache_misses: u64,
}

/// One workload × target measurement.
struct Row {
    workload: String,
    isa: Isa,
    unique_nodes: usize,
    tree_nodes: usize,
    pitchfork: PitchforkRow,
    llvm_ns: u128,
    rake_ns: Option<u128>,
}

fn main() -> ExitCode {
    let mut smoke = false;
    let mut out_path = String::from("BENCH_selection.json");
    let mut jobs = fpir_pool::default_jobs();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => match args.next() {
                Some(p) => out_path = p,
                None => {
                    eprintln!("selection-bench: `--out` expects a path");
                    return ExitCode::from(2);
                }
            },
            "--jobs" => match args.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n >= 1 => jobs = n,
                _ => {
                    eprintln!("selection-bench: `--jobs` expects a positive integer");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: selection-bench [--smoke] [--out PATH] [--jobs N]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("selection-bench: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let reps = if smoke { 2 } else { 5 };
    // Engine-vs-engine timing gets more repetitions (plus a warm-up
    // compile) than the context baselines: the quantity under test is
    // µs-scale, and a cold first run carries one-time costs (rule-index
    // build, branch warm-up) that min-of-few does not reliably shed.
    let engine_reps = if smoke { 3 } else { 25 };
    let validate_rounds = if smoke { 2 } else { 6 };
    // The figure suite plus the unrolled stencil variants — the latter are
    // the DAG-shaped inputs a vectorize-and-unroll schedule produces, where
    // selection linear in unique nodes separates from tree-walking.
    let mut workloads = all_workloads();
    if smoke {
        workloads.truncate(3);
        workloads.extend(unrolled_workloads().into_iter().take(1));
    } else {
        workloads.extend(unrolled_workloads());
    }
    let isas = fpir::machine::ALL_ISAS;

    let mut rows: Vec<Row> = Vec::new();
    let mut diverged = false;
    // Gate-2 validation work, deferred and fanned out after the (strictly
    // sequential) timing loop: (workload, isa, source expr, machine code).
    let mut validations: Vec<(String, Isa, fpir::RcExpr, fpir::RcExpr)> = Vec::new();

    for wl in &workloads {
        for isa in isas {
            let expr = &wl.pipeline.expr;

            // Pitchfork, fast engine: warmed up, timed over `engine_reps`
            // runs (min), then one instrumented run for the statistics.
            let fast = Pitchfork::with_config(Config::new(isa));
            let _ = fast.compile(expr).expect("pitchfork must compile every workload");
            let fast_ns = (0..engine_reps)
                .map(|_| {
                    let t0 = Instant::now();
                    let _ = fast.compile(expr).expect("pitchfork must compile every workload");
                    t0.elapsed().as_nanos()
                })
                .min()
                .unwrap();
            let fast_out = fast.compile(expr).expect("pitchfork must compile every workload");
            let mut stats = fast_out.lift_stats.clone();
            stats.merge(&fast_out.lower_stats);

            // Pitchfork, reference engine (the pre-index, pre-memo
            // tree-walker).
            let reference =
                Pitchfork::with_config(Config::new(isa).with_engine(EngineConfig::REFERENCE));
            let _ = reference.compile(expr).expect("reference engine must compile too");
            let reference_ns = (0..engine_reps)
                .map(|_| {
                    let t0 = Instant::now();
                    let _ = reference.compile(expr).expect("reference engine must compile too");
                    t0.elapsed().as_nanos()
                })
                .min()
                .unwrap();
            let reference_out = reference.compile(expr).expect("reference engine must compile too");

            // Gate 1: engines must agree exactly.
            if fast_out.lowered != reference_out.lowered {
                eprintln!(
                    "DIVERGENCE {}/{isa}: fast engine selected\n  {}\nreference selected\n  {}",
                    wl.name(),
                    fast_out.lowered,
                    reference_out.lowered
                );
                diverged = true;
            }

            // Gate 2: output must match the reference interpreter —
            // queued for the parallel validation pass below.
            validations.push((wl.name().to_string(), isa, expr.clone(), fast_out.lowered.clone()));

            // Baselines (their own engines; timed for context).
            let llvm_ns = (0..reps)
                .map(|_| {
                    run(wl, isa, &Compiler::Llvm)
                        .expect("llvm baseline must compile")
                        .compile_time
                        .as_nanos()
                })
                .min()
                .unwrap();
            let rake_ns = fpir_bench::rake_supports(isa).then(|| {
                (0..reps)
                    .map(|_| {
                        run(wl, isa, &Compiler::Rake)
                            .expect("rake must compile")
                            .compile_time
                            .as_nanos()
                    })
                    .min()
                    .unwrap()
            });

            rows.push(Row {
                workload: wl.name().to_string(),
                isa,
                unique_nodes: Expr::unique_count(expr),
                tree_nodes: expr.size(),
                pitchfork: PitchforkRow {
                    fast_ns,
                    reference_ns,
                    passes: stats.passes,
                    applications: stats.applications,
                    nodes_visited: stats.nodes_visited,
                    memo_hits: stats.memo_hits,
                    cost_cache_hits: stats.cost_cache_hits,
                    cost_cache_misses: stats.cost_cache_misses,
                    bounds_cache_hits: stats.bounds_cache_hits,
                    bounds_cache_misses: stats.bounds_cache_misses,
                },
                llvm_ns,
                rake_ns,
            });
        }
    }

    // Gate 2, fanned out: each item seeds its own RNG (0x5E1E, as the
    // sequential loop did), so the verdicts are identical at any --jobs.
    let failures = fpir_pool::Pool::new(jobs).map(&validations, |(name, isa, expr, lowered)| {
        let tgt = fpir_isa::target(*isa);
        let art = pitchfork::Artifact::from_lowered(lowered.clone(), *isa).expect("emit");
        let mut rng = StdRng::seed_from_u64(0x5E1E);
        check_program(expr, &art.program, tgt, &mut rng, validate_rounds)
            .err()
            .map(|c| format!("MISCOMPILE {name}/{isa}: {c}"))
    });
    for f in failures.into_iter().flatten() {
        eprintln!("{f}");
        diverged = true;
    }

    let speedups: Vec<f64> = rows
        .iter()
        .map(|r| r.pitchfork.reference_ns as f64 / r.pitchfork.fast_ns.max(1) as f64)
        .collect();
    let geo = geomean(&speedups);

    println!(
        "{:<18} {:>4} {:>6} {:>11} {:>11} {:>8} {:>10}",
        "workload", "isa", "nodes", "fast", "reference", "speedup", "nodes/s"
    );
    for r in &rows {
        let speedup = r.pitchfork.reference_ns as f64 / r.pitchfork.fast_ns.max(1) as f64;
        println!(
            "{:<18} {:>4} {:>6} {:>9}us {:>9}us {:>7.1}x {:>10.0}",
            r.workload,
            r.isa.slug(),
            r.unique_nodes,
            r.pitchfork.fast_ns / 1_000,
            r.pitchfork.reference_ns / 1_000,
            speedup,
            nodes_per_sec(r),
        );
    }
    println!("\ngeomean speedup, fast engine vs reference engine: {geo:.2}x");

    let json = render_json(&rows, geo, smoke, reps, engine_reps);
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("selection-bench: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");

    if diverged {
        eprintln!("selection-bench: FAILED — fast engine diverged (see above)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Unique input nodes selected per second by the fast engine.
fn nodes_per_sec(r: &Row) -> f64 {
    r.unique_nodes as f64 / (r.pitchfork.fast_ns.max(1) as f64 / 1e9)
}

/// Hand-built JSON (the environment has no serde; the shape is flat).
fn render_json(rows: &[Row], geo: f64, smoke: bool, reps: usize, engine_reps: usize) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"schema\": \"pitchfork-selection-bench/v1\",");
    let _ = writeln!(s, "  \"smoke\": {smoke},");
    let _ = writeln!(s, "  \"reps\": {reps},");
    let _ = writeln!(s, "  \"engine_reps\": {engine_reps},");
    let _ = writeln!(s, "  \"geomean_speedup_fast_vs_reference\": {geo:.4},");
    let _ = writeln!(s, "  \"results\": [");
    for (i, r) in rows.iter().enumerate() {
        let p = &r.pitchfork;
        let speedup = p.reference_ns as f64 / p.fast_ns.max(1) as f64;
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"workload\": \"{}\",", r.workload);
        let _ = writeln!(s, "      \"isa\": \"{}\",", r.isa.slug());
        let _ = writeln!(s, "      \"unique_nodes\": {},", r.unique_nodes);
        let _ = writeln!(s, "      \"tree_nodes\": {},", r.tree_nodes);
        let _ = writeln!(s, "      \"pitchfork_fast_ns\": {},", p.fast_ns);
        let _ = writeln!(s, "      \"pitchfork_reference_ns\": {},", p.reference_ns);
        let _ = writeln!(s, "      \"speedup_fast_vs_reference\": {speedup:.4},");
        let _ = writeln!(s, "      \"nodes_per_sec\": {:.0},", nodes_per_sec(r));
        let _ = writeln!(s, "      \"passes\": {},", p.passes);
        let _ = writeln!(s, "      \"rule_applications\": {},", p.applications);
        let _ = writeln!(s, "      \"nodes_visited\": {},", p.nodes_visited);
        let _ = writeln!(s, "      \"memo_hits\": {},", p.memo_hits);
        let _ = writeln!(s, "      \"cost_cache_hits\": {},", p.cost_cache_hits);
        let _ = writeln!(s, "      \"cost_cache_misses\": {},", p.cost_cache_misses);
        let _ = writeln!(s, "      \"bounds_cache_hits\": {},", p.bounds_cache_hits);
        let _ = writeln!(s, "      \"bounds_cache_misses\": {},", p.bounds_cache_misses);
        let _ = writeln!(s, "      \"llvm_ns\": {},", r.llvm_ns);
        match r.rake_ns {
            Some(ns) => {
                let _ = writeln!(s, "      \"rake_ns\": {ns}");
            }
            None => {
                let _ = writeln!(s, "      \"rake_ns\": null");
            }
        }
        let _ = writeln!(s, "    }}{}", if i + 1 < rows.len() { "," } else { "" });
    }
    s.push_str("  ]\n}\n");
    s
}
