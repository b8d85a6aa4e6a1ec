//! The offline synthesis pipeline (§4): harvest the corpus from the
//! benchmark suite, synthesize lifting rewrite pairs, generalize them into
//! verified rules, and generate lowering pairs against the Rake oracle.
//!
//! Usage: `cargo run --release -p fpir-bench --bin synthesize [max-exprs]`
//!
//! Corpus entries (and Rake-oracle candidates) are fanned out over a
//! worker pool sized by `PITCHFORK_JOBS` / the machine's parallelism; the
//! output is identical for any worker count.

use fpir_pool::Pool;
use fpir_synth::{
    generate_lower_pairs, harvest_corpus, synthesize_corpus_rules, PipelineConfig, MAX_LHS_NODES,
};
use fpir_workloads::all_workloads;

fn main() {
    let cap: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(120);
    let pool = Pool::with_default_jobs();
    let workloads = all_workloads();
    let named: Vec<(String, fpir::RcExpr)> =
        workloads.iter().map(|w| (w.name().to_string(), w.pipeline.expr.clone())).collect();
    let corpus = harvest_corpus(named.iter().map(|(n, e)| (n.as_str(), e)));
    println!(
        "corpus: {} distinct sub-expressions (≤ {MAX_LHS_NODES} nodes) from {} benchmarks\n",
        corpus.len(),
        workloads.len()
    );

    // ---- Lifting-rule synthesis (§4.1) + generalization (§4.3). ----
    // Generalization attempts that fail verification are dropped inside
    // the pipeline, as §4.3 specifies.
    let cfg = PipelineConfig { cap, ..PipelineConfig::default() };
    println!("== synthesized lifting rules ==");
    let rules = synthesize_corpus_rules(&corpus, &cfg, &pool);
    for (n, r) in rules.iter().enumerate() {
        println!(
            "  [{}] {}  ->  {}   [{}]   (from: {})",
            n + 1,
            r.lhs,
            r.rhs,
            r.rule.pred,
            r.sources.join(", ")
        );
    }
    println!("  {} generalized, verified lifting rules\n", rules.len());

    // ---- Lowering-pair generation against the Rake oracle (§4.2). ----
    println!("== lowering pairs found by the Rake oracle (ARM, HVX) ==");
    for isa in [fpir::Isa::ArmNeon, fpir::Isa::HexagonHvx] {
        let mut n = 0usize;
        for wl in workloads.iter().filter(|w| ["add", "sobel3x3"].contains(&w.name())) {
            for pair in generate_lower_pairs(&wl.pipeline.expr, isa, 7, &pool) {
                n += 1;
                if n <= 6 {
                    println!(
                        "  {isa}: {}  ->  {}   ({} -> {} cycles)",
                        pair.lhs, pair.rhs, pair.improvement.0, pair.improvement.1
                    );
                }
            }
        }
        println!("  {isa}: {n} improving pairs (x86 has no oracle, as in the paper)");
    }
}
