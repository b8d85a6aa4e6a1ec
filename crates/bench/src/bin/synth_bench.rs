//! `synth-bench` — offline rule-synthesis *throughput* benchmark.
//!
//! Times every phase of the offline pipeline (§4) — corpus harvesting,
//! lift synthesis, generalization, lowering-pair generation against the
//! Rake oracle, and shipped-rule-set verification — under three
//! configurations:
//!
//! * `reference` — the pre-optimization whole-tree enumerator, sequential
//!   (the pre-PR baseline);
//! * `fast@1` — the signature-incremental enumerator on one worker
//!   (isolates the algorithmic win: single root-op evaluation per
//!   candidate, no re-enumeration of old candidate pairs);
//! * `fast@2` / `fast@N` — the same enumerator with corpus entries fanned
//!   out over the worker pool (`N` from `--jobs`).
//!
//! Correctness gates, all fatal (exit 1):
//! * the fast enumerator's result must equal the reference enumerator's
//!   on every corpus entry (same right-hand side or same absence);
//! * every parallel phase must be bit-identical to its `--jobs 1` run —
//!   rules (name, lhs, rhs, predicate), lowering pairs and costs,
//!   verification failure lists;
//! * the shipped rule sets must verify clean.
//!
//! Writes `BENCH_synth.json`. Usage:
//! `cargo run --release -p fpir-bench --bin synth-bench --
//!  [--smoke] [--out PATH] [--jobs N]`

use fpir::RcExpr;
use fpir_pool::Pool;
use fpir_synth::{
    generalize_pair, generate_lower_pairs, harvest_corpus, synthesize_lift,
    synthesize_lift_reference, verify_rule_set, LowerPair, SynthBudget, VerifyOptions,
};
use fpir_trs::rule::RuleClass;
use fpir_workloads::all_workloads;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// Wall-clock nanoseconds of every phase for one configuration.
#[derive(Clone, Copy, Default)]
struct PhaseTimes {
    lift_ns: u128,
    generalize_ns: u128,
    lower_ns: u128,
    verify_ns: u128,
}

impl PhaseTimes {
    fn total(&self) -> u128 {
        self.lift_ns + self.generalize_ns + self.lower_ns + self.verify_ns
    }
}

fn main() -> ExitCode {
    let mut smoke = false;
    let mut out_path = String::from("BENCH_synth.json");
    let mut jobs = fpir_pool::default_jobs();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => match args.next() {
                Some(p) => out_path = p,
                None => {
                    eprintln!("synth-bench: `--out` expects a path");
                    return ExitCode::from(2);
                }
            },
            "--jobs" => match args.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n >= 1 => jobs = n,
                _ => {
                    eprintln!("synth-bench: `--jobs` expects a positive integer");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: synth-bench [--smoke] [--out PATH] [--jobs N]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("synth-bench: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let cap = if smoke { 32 } else { 120 };
    let budget = SynthBudget::default();
    let verify_opts = if smoke {
        VerifyOptions { samples: 8, lanes: 64, exhaustive_points: 512 }
    } else {
        VerifyOptions { samples: 12, lanes: 128, exhaustive_points: 1 << 16 }
    };
    let gen_opts = VerifyOptions { samples: 10, lanes: 64, exhaustive_points: 0 };

    // ---- Corpus (shared by every configuration). ----
    let workloads = all_workloads();
    let named: Vec<(String, RcExpr)> =
        workloads.iter().map(|w| (w.name().to_string(), w.pipeline.expr.clone())).collect();
    let t0 = Instant::now();
    let corpus = harvest_corpus(named.iter().map(|(n, e)| (n.as_str(), e)));
    let corpus_ns = t0.elapsed().as_nanos();
    let n_entries = cap.min(corpus.len());
    println!("corpus: {} entries ({} used) in {}us", corpus.len(), n_entries, corpus_ns / 1_000);

    // ---- Lift synthesis: reference, fast@1, fast@2, fast@N. ----
    let lift = |fast: bool, pool: &Pool| -> (Vec<Option<RcExpr>>, u128) {
        let idx: Vec<usize> = (0..n_entries).collect();
        let t0 = Instant::now();
        let rhs = pool.map(&idx, |&i| {
            let sub = &corpus[i].0;
            if sub.contains_fpir() {
                return None;
            }
            if fast {
                synthesize_lift(sub, &budget, &Pool::sequential())
            } else {
                synthesize_lift_reference(sub, &budget)
            }
        });
        (rhs, t0.elapsed().as_nanos())
    };
    // Warm-up (untimed): run both enumerators over a few entries so the
    // first timed configuration does not absorb one-time costs (allocator
    // growth, code paging) the later ones dodge.
    for (sub, _) in corpus.iter().take(n_entries.min(4)) {
        if !sub.contains_fpir() {
            let _ = synthesize_lift(sub, &budget, &Pool::sequential());
            let _ = synthesize_lift_reference(sub, &budget);
        }
    }
    let (rhs_ref, lift_ref_ns) = lift(false, &Pool::sequential());
    let (rhs_fast1, lift_fast1_ns) = lift(true, &Pool::sequential());
    let (rhs_fast2, lift_fast2_ns) = lift(true, &Pool::new(2));
    let (rhs_fastn, lift_fastn_ns) = lift(true, &Pool::new(jobs));

    let mut failed = false;
    let render_rhs =
        |v: &[Option<RcExpr>]| -> Vec<String> { v.iter().map(|r| format!("{r:?}")).collect() };
    if render_rhs(&rhs_fast1) != render_rhs(&rhs_ref) {
        eprintln!("GATE FAILED: fast@1 lift results differ from the reference enumerator");
        for (i, (f, r)) in rhs_fast1.iter().zip(&rhs_ref).enumerate() {
            if format!("{f:?}") != format!("{r:?}") {
                eprintln!("  entry {i}: fast {f:?} vs reference {r:?}");
            }
        }
        failed = true;
    }
    for (tag, v) in [("fast@2", &rhs_fast2), ("fast@N", &rhs_fastn)] {
        if render_rhs(v) != render_rhs(&rhs_fast1) {
            eprintln!("GATE FAILED: {tag} lift results differ from fast@1");
            failed = true;
        }
    }
    let found = rhs_fast1.iter().flatten().count();
    println!(
        "lift: {found}/{n_entries} entries synthesized — reference {}ms, fast@1 {}ms, fast@2 {}ms, fast@{jobs} {}ms",
        lift_ref_ns / 1_000_000,
        lift_fast1_ns / 1_000_000,
        lift_fast2_ns / 1_000_000,
        lift_fastn_ns / 1_000_000,
    );

    // ---- Generalization over the synthesized pairs. ----
    let pairs: Vec<(usize, RcExpr, RcExpr)> = rhs_fast1
        .iter()
        .enumerate()
        .filter_map(|(i, r)| {
            r.as_ref().map(|rhs| {
                (i, fpir_synth::lift_synth::retarget_lanes(&corpus[i].0, 64), rhs.clone())
            })
        })
        .collect();
    let generalize = |pool: &Pool| -> (Vec<String>, u128) {
        let t0 = Instant::now();
        let rules: Vec<String> = pool
            .map(&pairs, |(i, lhs, rhs)| {
                generalize_pair(&format!("synth-{i}"), RuleClass::Lift, lhs, rhs, &gen_opts)
                    .ok()
                    .map(|rule| format!("{}|{}|{}|{}", rule.name, lhs, rhs, rule.pred))
            })
            .into_iter()
            .flatten()
            .collect();
        (rules, t0.elapsed().as_nanos())
    };
    let (rules_seq, gen_seq_ns) = generalize(&Pool::sequential());
    let (rules_par, gen_par_ns) = generalize(&Pool::new(jobs));
    if rules_par != rules_seq {
        eprintln!("GATE FAILED: parallel generalization differs from sequential");
        failed = true;
    }
    println!(
        "generalize: {} verified rules — @1 {}ms, @{jobs} {}ms",
        rules_seq.len(),
        gen_seq_ns / 1_000_000,
        gen_par_ns / 1_000_000,
    );

    // ---- Lowering pairs against the Rake oracle. ----
    let render_pairs = |v: &[LowerPair]| -> Vec<String> {
        v.iter()
            .map(|p| {
                format!("{}|{}|{}|{}|{}", p.isa, p.lhs, p.rhs, p.improvement.0, p.improvement.1)
            })
            .collect()
    };
    let lower = |pool: &Pool| -> (Vec<String>, u128) {
        let t0 = Instant::now();
        let mut pairs = Vec::new();
        for isa in [fpir::Isa::ArmNeon, fpir::Isa::HexagonHvx] {
            for wl in workloads.iter().filter(|w| ["add", "sobel3x3"].contains(&w.name())) {
                pairs.extend(generate_lower_pairs(&wl.pipeline.expr, isa, 7, pool));
            }
        }
        (render_pairs(&pairs), t0.elapsed().as_nanos())
    };
    let (pairs_seq, lower_seq_ns) = lower(&Pool::sequential());
    let (pairs_par, lower_par_ns) = lower(&Pool::new(jobs));
    if pairs_par != pairs_seq {
        eprintln!("GATE FAILED: parallel lowering-pair generation differs from sequential");
        failed = true;
    }
    println!(
        "lower: {} improving pairs — @1 {}ms, @{jobs} {}ms",
        pairs_seq.len(),
        lower_seq_ns / 1_000_000,
        lower_par_ns / 1_000_000,
    );

    // ---- Shipped-rule-set verification. ----
    let verify = |pool: &Pool| -> (Vec<String>, u128) {
        let t0 = Instant::now();
        let mut failures: Vec<String> =
            verify_rule_set(&pitchfork::lift_rules(), &verify_opts, pool)
                .iter()
                .map(ToString::to_string)
                .collect();
        for isa in fpir::machine::ALL_ISAS {
            failures.extend(
                verify_rule_set(&pitchfork::lower_rules(isa), &verify_opts, pool)
                    .iter()
                    .map(|e| format!("{isa}: {e}")),
            );
        }
        (failures, t0.elapsed().as_nanos())
    };
    let (fail_seq, verify_seq_ns) = verify(&Pool::sequential());
    let (fail_par, verify_par_ns) = verify(&Pool::new(jobs));
    if fail_par != fail_seq {
        eprintln!("GATE FAILED: parallel verification differs from sequential");
        failed = true;
    }
    if !fail_seq.is_empty() {
        eprintln!("GATE FAILED: shipped rule sets do not verify:");
        for f in &fail_seq {
            eprintln!("  {f}");
        }
        failed = true;
    }
    println!(
        "verify: shipped rule sets clean — @1 {}ms, @{jobs} {}ms",
        verify_seq_ns / 1_000_000,
        verify_par_ns / 1_000_000,
    );

    // ---- End-to-end totals and the headline speedups. ----
    let reference = PhaseTimes {
        lift_ns: lift_ref_ns,
        generalize_ns: gen_seq_ns,
        lower_ns: lower_seq_ns,
        verify_ns: verify_seq_ns,
    };
    let fast1 = PhaseTimes {
        lift_ns: lift_fast1_ns,
        generalize_ns: gen_seq_ns,
        lower_ns: lower_seq_ns,
        verify_ns: verify_seq_ns,
    };
    let fastn = PhaseTimes {
        lift_ns: lift_fastn_ns,
        generalize_ns: gen_par_ns,
        lower_ns: lower_par_ns,
        verify_ns: verify_par_ns,
    };
    let speedup_fast1 = reference.total() as f64 / fast1.total().max(1) as f64;
    let speedup_fastn = reference.total() as f64 / fastn.total().max(1) as f64;
    let lift_speedup_fast1 = lift_ref_ns as f64 / lift_fast1_ns.max(1) as f64;
    println!(
        "\nend-to-end: reference {}ms, fast@1 {}ms ({speedup_fast1:.2}x), fast@{jobs} {}ms ({speedup_fastn:.2}x)",
        reference.total() / 1_000_000,
        fast1.total() / 1_000_000,
        fastn.total() / 1_000_000,
    );
    println!("lift-phase speedup, incremental signatures alone (fast@1): {lift_speedup_fast1:.2}x");

    let json = render_json(&RenderInput {
        smoke,
        jobs,
        cap: n_entries,
        corpus_ns,
        lift_ref_ns,
        lift_fast1_ns,
        lift_fast2_ns,
        lift_fastn_ns,
        rules: rules_seq.len(),
        lower_pairs: pairs_seq.len(),
        reference,
        fast1,
        fastn,
        speedup_fast1,
        speedup_fastn,
        lift_speedup_fast1,
        gates_passed: !failed,
    });
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("synth-bench: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");

    if failed {
        eprintln!("synth-bench: FAILED — a correctness gate tripped (see above)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

struct RenderInput {
    smoke: bool,
    jobs: usize,
    cap: usize,
    corpus_ns: u128,
    lift_ref_ns: u128,
    lift_fast1_ns: u128,
    lift_fast2_ns: u128,
    lift_fastn_ns: u128,
    rules: usize,
    lower_pairs: usize,
    reference: PhaseTimes,
    fast1: PhaseTimes,
    fastn: PhaseTimes,
    speedup_fast1: f64,
    speedup_fastn: f64,
    lift_speedup_fast1: f64,
    gates_passed: bool,
}

/// Hand-built JSON (the environment has no serde; the shape is flat).
fn render_json(r: &RenderInput) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"schema\": \"pitchfork-synth-bench/v1\",");
    let _ = writeln!(s, "  \"smoke\": {},", r.smoke);
    let _ = writeln!(s, "  \"jobs\": {},", r.jobs);
    let _ = writeln!(s, "  \"corpus_entries\": {},", r.cap);
    let _ = writeln!(s, "  \"corpus_ns\": {},", r.corpus_ns);
    let _ = writeln!(s, "  \"rules_synthesized\": {},", r.rules);
    let _ = writeln!(s, "  \"lower_pairs\": {},", r.lower_pairs);
    let _ = writeln!(s, "  \"lift_reference_ns\": {},", r.lift_ref_ns);
    let _ = writeln!(s, "  \"lift_fast_1_ns\": {},", r.lift_fast1_ns);
    let _ = writeln!(s, "  \"lift_fast_2_ns\": {},", r.lift_fast2_ns);
    let _ = writeln!(s, "  \"lift_fast_n_ns\": {},", r.lift_fastn_ns);
    for (tag, p) in [("reference", &r.reference), ("fast_1", &r.fast1), ("fast_n", &r.fastn)] {
        let _ = writeln!(s, "  \"{tag}_generalize_ns\": {},", p.generalize_ns);
        let _ = writeln!(s, "  \"{tag}_lower_ns\": {},", p.lower_ns);
        let _ = writeln!(s, "  \"{tag}_verify_ns\": {},", p.verify_ns);
        let _ = writeln!(s, "  \"{tag}_total_ns\": {},", p.total());
    }
    let _ = writeln!(s, "  \"speedup_fast_1_vs_reference\": {:.4},", r.speedup_fast1);
    let _ = writeln!(s, "  \"speedup_fast_n_vs_reference\": {:.4},", r.speedup_fastn);
    let _ = writeln!(s, "  \"lift_speedup_fast_1_vs_reference\": {:.4},", r.lift_speedup_fast1);
    let _ = writeln!(s, "  \"gates_passed\": {}", r.gates_passed);
    s.push_str("}\n");
    s
}
