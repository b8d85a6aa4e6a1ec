//! The determinism contract: every synthesis entry point must be
//! **bit-identical** at four workers and at one, and the fast
//! signature-incremental enumerator must reproduce the reference
//! enumerator exactly — same right-hand sides, same costs, same
//! observational signatures.

use fpir::build::*;
use fpir::types::{ScalarType as S, VectorType as V};
use fpir::RcExpr;
use fpir_pool::Pool;
use fpir_synth::lift_synth::{sample_envs, signature};
use fpir_synth::{
    generate_lower_pairs, harvest_corpus, synthesize_corpus_rules, synthesize_lift,
    synthesize_lift_reference, verify_rule_set, PipelineConfig, SynthBudget, VerifyOptions,
};
use fpir_trs::cost::{AgnosticCost, CostModel};

/// A corpus with the shapes the lifting TRS targets: averages, widening
/// shifts and multiplies, saturating casts, absolute differences — plus
/// entries nothing improves.
fn corpus() -> Vec<(RcExpr, Vec<String>)> {
    let t = V::new(S::U8, 64);
    let w = V::new(S::U16, 64);
    let exprs: Vec<RcExpr> = vec![
        {
            let (a, b) = (var("a", t), var("b", t));
            let sum = add(widen(a), widen(b));
            cast(S::U8, shr(add(sum.clone(), splat(1, &sum)), splat(1, &sum)))
        },
        shl(cast(S::I16, var("x", t)), constant(6, V::new(S::I16, 64))),
        mul(widen(var("x", t)), constant(4, w)),
        cast(S::U8, min(var("x", w), splat(255, &var("x", w)))),
        add(var("a", t), var("b", t)),
        sub(widen(var("a", t)), widen(var("b", t))),
    ];
    harvest_corpus(exprs.iter().map(|e| ("test", e)))
}

fn small_budget() -> SynthBudget {
    SynthBudget { max_nodes: 3, sample_envs: 4, lanes: 16, max_bank: 96 }
}

/// Reference enumerator == fast enumerator at one worker == fast at four
/// workers, per corpus entry — compared on expression text, cost under
/// the target-agnostic model, and the full observational signature.
#[test]
fn lift_enumerators_agree_bit_for_bit() {
    let budget = small_budget();
    let cost = AgnosticCost;
    let mut synthesized = 0usize;
    for (i, (sub, _)) in corpus().iter().enumerate() {
        let describe = |rhs: &Option<RcExpr>| {
            rhs.as_ref().map(|e| {
                let envs = sample_envs(&e.free_vars(), &budget);
                (e.to_string(), cost.cost(e), signature(e, &envs))
            })
        };
        let reference = describe(&synthesize_lift_reference(sub, &budget));
        let fast1 = describe(&synthesize_lift(sub, &budget, &Pool::sequential()));
        let fast4 = describe(&synthesize_lift(sub, &budget, &Pool::new(4)));
        assert_eq!(fast1, reference, "entry {i}: fast@1 vs reference on {sub}");
        assert_eq!(fast4, fast1, "entry {i}: fast@4 vs fast@1 on {sub}");
        synthesized += usize::from(reference.is_some());
    }
    assert!(synthesized >= 3, "corpus must exercise the synthesizer ({synthesized} hits)");
}

/// The corpus-wide pipeline is invariant in worker count: same rules,
/// same names, same predicates, same provenance. (Per-entry agreement
/// with the reference enumerator is `lift_enumerators_agree_bit_for_bit`.)
#[test]
fn pipeline_is_deterministic_across_workers() {
    let cfg = PipelineConfig {
        budget: small_budget(),
        verify: VerifyOptions { samples: 4, lanes: 16, exhaustive_points: 0 },
        cap: 64,
    };
    let corpus = corpus();
    let render = |rules: &[fpir_synth::SynthesizedRule]| -> Vec<String> {
        rules
            .iter()
            .map(|r| {
                format!(
                    "{}|{}|{}|{}|{}",
                    r.rule.name,
                    r.lhs,
                    r.rhs,
                    r.rule.pred,
                    r.sources.join("+")
                )
            })
            .collect()
    };
    let seq = synthesize_corpus_rules(&corpus, &cfg, &Pool::new(1));
    assert!(!seq.is_empty());
    let par = synthesize_corpus_rules(&corpus, &cfg, &Pool::new(4));
    assert_eq!(render(&par), render(&seq), "pipeline @4 vs @1");
}

/// Rule-set verification at four workers reports exactly what it
/// reports at one, in the same order.
#[test]
fn verify_rule_set_jobs_matches_sequential() {
    let opts = VerifyOptions { samples: 6, lanes: 32, exhaustive_points: 0 };
    for set in [pitchfork::lift_rules(), pitchfork::lower_rules(fpir::Isa::ArmNeon)] {
        let seq: Vec<String> = verify_rule_set(&set, &opts, &Pool::sequential())
            .iter()
            .map(ToString::to_string)
            .collect();
        let par: Vec<String> =
            verify_rule_set(&set, &opts, &Pool::new(4)).iter().map(ToString::to_string).collect();
        assert_eq!(par, seq);
    }
}

/// Lowering-pair generation at four workers finds the same pairs with
/// the same improvements, in the same order, as at one.
#[test]
fn lower_pairs_jobs_matches_sequential() {
    let t = V::new(S::U8, 64);
    let e = add(var("x", V::new(S::U16, 64)), widening_shl(var("y", t), constant(1, t)));
    let render = |pairs: &[fpir_synth::LowerPair]| -> Vec<String> {
        pairs.iter().map(|p| format!("{}|{}|{:?}", p.lhs, p.rhs, p.improvement)).collect()
    };
    for isa in [fpir::Isa::ArmNeon, fpir::Isa::HexagonHvx] {
        let seq = generate_lower_pairs(&e, isa, 7, &Pool::sequential());
        let par = generate_lower_pairs(&e, isa, 7, &Pool::new(4));
        assert_eq!(render(&par), render(&seq), "{isa}");
    }
}
