//! The corpus-wide synthesis driver: the loop the `synthesize` binary
//! used to carry inline, factored out so it can be fanned out over a
//! worker pool and benchmarked.
//!
//! Parallelism lives at the **corpus-entry** level: each entry runs the
//! full lift-synthesize → generalize → verify chain sequentially, and the
//! pool maps over entries. Entries are independent (the enumerator's
//! sample environments depend only on the entry's own variables, from a
//! fixed seed), and [`fpir_pool::Pool::map`] preserves input order, so
//! the rule list — names, predicates, costs — is identical for any
//! worker count. Rule names are `synth-{i}` with `i` the entry's *corpus
//! index*, not a counter over successes, so dropping or reordering work
//! can never silently renumber rules.

use crate::corpus::MAX_LHS_NODES;
use crate::generalize::generalize_pair;
use crate::lift_synth::{retarget_lanes, synthesize_lift, SynthBudget};
use crate::verify::VerifyOptions;
use fpir::expr::RcExpr;
use fpir_pool::Pool;
use fpir_trs::rule::{Rule, RuleClass};

/// Corpus-wide synthesis configuration.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Per-entry enumeration budget.
    pub budget: SynthBudget,
    /// Verification effort for generalization.
    pub verify: VerifyOptions,
    /// Process at most this many corpus entries.
    pub cap: usize,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig {
            budget: SynthBudget::default(),
            verify: VerifyOptions { samples: 10, lanes: 64, exhaustive_points: 512 },
            cap: 120,
        }
    }
}

/// A lifting rule synthesized from one corpus entry.
#[derive(Debug, Clone)]
pub struct SynthesizedRule {
    /// The entry's index in the corpus (also the rule-name suffix).
    pub index: usize,
    /// The concrete left-hand side (at the canonical 64-lane width).
    pub lhs: RcExpr,
    /// The synthesized FPIR right-hand side.
    pub rhs: RcExpr,
    /// The generalized, verified rule.
    pub rule: Rule,
    /// Benchmarks the entry was harvested from.
    pub sources: Vec<String>,
}

/// Run lift synthesis + generalization over a corpus, fanning entries out
/// over `pool`. Returns the verified rules in corpus order — identical
/// for any worker count.
pub fn synthesize_corpus_rules(
    corpus: &[(RcExpr, Vec<String>)],
    cfg: &PipelineConfig,
    pool: &Pool,
) -> Vec<SynthesizedRule> {
    let n = cfg.cap.min(corpus.len());
    let indexed: Vec<usize> = (0..n).collect();
    pool.map(&indexed, |&i| {
        let (sub, sources) = &corpus[i];
        if sub.contains_fpir() {
            return None; // already fixed-point
        }
        // Inner synthesis stays sequential: the outer map is the fan-out.
        let rhs = synthesize_lift(sub, &cfg.budget, &Pool::sequential())?;
        let lhs = retarget_lanes(sub, 64);
        let rule = generalize_pair(&format!("synth-{i}"), RuleClass::Lift, &lhs, &rhs, &cfg.verify)
            .ok()?;
        Some(SynthesizedRule { index: i, lhs, rhs, rule, sources: sources.clone() })
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Harvest the corpus for [`synthesize_corpus_rules`] from named
/// benchmark expressions (a thin convenience over
/// [`crate::corpus::build_corpus`] at the paper's node limit).
pub fn harvest_corpus<'a>(
    named_exprs: impl IntoIterator<Item = (&'a str, &'a RcExpr)>,
) -> Vec<(RcExpr, Vec<String>)> {
    crate::corpus::build_corpus(named_exprs, MAX_LHS_NODES)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpir::build::*;
    use fpir::types::{ScalarType as S, VectorType as V};

    fn tiny_corpus() -> Vec<(RcExpr, Vec<String>)> {
        let t = V::new(S::U8, 64);
        let w = V::new(S::U16, 64);
        let avg = {
            let (a, b) = (var("a", t), var("b", t));
            let sum = add(widen(a), widen(b));
            cast(S::U8, shr(add(sum.clone(), splat(1, &sum)), splat(1, &sum)))
        };
        let shl6 = shl(cast(S::I16, var("x", t)), constant(6, V::new(S::I16, 64)));
        let mul4 = mul(widen(var("x", t)), constant(4, w));
        let plain = add(var("a", t), var("b", t));
        [avg, shl6, mul4, plain].into_iter().map(|e| (e, vec!["test".to_string()])).collect()
    }

    fn small_cfg() -> PipelineConfig {
        PipelineConfig {
            budget: SynthBudget { max_nodes: 3, sample_envs: 4, lanes: 16, max_bank: 96 },
            verify: VerifyOptions { samples: 4, lanes: 16, exhaustive_points: 0 },
            cap: 16,
        }
    }

    #[test]
    fn pipeline_finds_rules_and_names_by_corpus_index() {
        let corpus = tiny_corpus();
        let rules = synthesize_corpus_rules(&corpus, &small_cfg(), &Pool::new(1));
        assert!(!rules.is_empty());
        for r in &rules {
            assert_eq!(r.rule.name, format!("synth-{}", r.index));
        }
        // The bare add (last entry) must not produce a rule.
        assert!(rules.iter().all(|r| r.index != corpus.len() - 1));
    }

    #[test]
    fn pipeline_is_worker_count_invariant() {
        let corpus = tiny_corpus();
        let render = |rules: &[SynthesizedRule]| -> Vec<String> {
            rules
                .iter()
                .map(|r| format!("{}|{}|{}|{}", r.index, r.lhs, r.rhs, r.rule.pred))
                .collect()
        };
        let seq = synthesize_corpus_rules(&corpus, &small_cfg(), &Pool::new(1));
        let par = synthesize_corpus_rules(&corpus, &small_cfg(), &Pool::new(4));
        assert_eq!(render(&par), render(&seq));
    }
}
