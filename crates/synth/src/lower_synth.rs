//! Lowering-rule generation with Rake as the oracle (§4.2).
//!
//! Corpus expressions are lifted with the shared lifting TRS; small
//! sub-expressions of the lifted form become candidate left-hand sides,
//! and the Rake-like search selector provides the optimal right-hand side.
//! A pair is kept only when Rake's selection beats Pitchfork's greedy
//! lowering under the target cost model — i.e. when the rule would
//! actually close a gap.

use crate::corpus::subexpressions;
use fpir::expr::RcExpr;
use fpir::Isa;
use fpir_baseline::Rake;
use fpir_isa::TargetCost;
use fpir_trs::cost::CostModel;
use pitchfork::Pitchfork;

/// A discovered lowering rewrite pair.
#[derive(Debug, Clone)]
pub struct LowerPair {
    /// Target the pair applies to.
    pub isa: Isa,
    /// Lifted left-hand side.
    pub lhs: RcExpr,
    /// Rake's machine right-hand side.
    pub rhs: RcExpr,
    /// Greedy cost before / oracle cost after (cycle estimate).
    pub improvement: (u64, u64),
}

/// Generate lowering pairs for `isa` from a source-level expression.
///
/// Rake has no x86 backend in the paper, and the same restriction is
/// modelled here: x86 requests return no pairs.
///
/// The candidate left-hand sides are compiled (greedy and oracle) over
/// `pool`. One compiler, oracle and cost model are built and shared by
/// every worker; the pool's map preserves candidate order, so the pair
/// list is identical for any worker count.
pub fn generate_lower_pairs(
    expr: &RcExpr,
    isa: Isa,
    max_lhs_nodes: usize,
    pool: &fpir_pool::Pool,
) -> Vec<LowerPair> {
    if isa == Isa::X86Avx2 {
        return Vec::new();
    }
    // The greedy side uses the hand-written rules only: pairs are mined
    // relative to the rule set *before* augmentation, as §4.2 describes.
    let pf = Pitchfork::with_config(pitchfork::Config::new(isa).hand_written_only());
    let rake = Rake::new(isa);
    let cost = TargetCost::new(isa);
    let (lifted, _) = pf.lift(expr);
    // Search cost is dominated by Rake's per-candidate verification; the
    // synthesis lane width need not match the source pipeline's.
    let lifted = crate::lift_synth::retarget_lanes(&lifted, 32);
    let subs: Vec<RcExpr> = subexpressions(&lifted, max_lhs_nodes).into_iter().take(24).collect();
    pool.map(&subs, |sub| {
        let greedy = pf.compile(sub).ok()?;
        let oracle = rake.compile(sub).ok()?;
        let before = cost.cost(&greedy.lowered).width_sum;
        let after = cost.cost(&oracle.lowered).width_sum;
        (after < before).then(|| LowerPair {
            isa,
            lhs: sub.clone(),
            rhs: oracle.lowered,
            improvement: (before, after),
        })
    })
    .into_iter()
    .flatten()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpir::build::*;
    use fpir::types::{ScalarType as S, VectorType as V};

    #[test]
    fn x86_has_no_oracle() {
        let t = V::new(S::U8, 64);
        let e = add(build_acc(), widening_shl(var("y", t), constant(1, t)));
        assert!(
            generate_lower_pairs(&e, Isa::X86Avx2, 10, &fpir_pool::Pool::sequential()).is_empty()
        );
    }

    fn build_acc() -> fpir::RcExpr {
        var("x", V::new(S::U16, 64))
    }

    #[test]
    fn oracle_rediscovers_the_umlal_pair() {
        // x_u16 + widening_shl(y_u8, 1): greedy Pitchfork *without* the
        // synthesized umlal-shl rule produces ushll + add; Rake (full
        // rules) finds umlal — the §4.2 worked example.
        let t = V::new(S::U8, 64);
        let e = add(build_acc(), widening_shl(var("y", t), constant(1, t)));
        // Remove the synthesized rule from the greedy side to recreate the
        // pre-synthesis world.
        let cfg = pitchfork::Config::new(Isa::ArmNeon).hand_written_only();
        let pf = Pitchfork::with_config(cfg);
        let rake = Rake::new(Isa::ArmNeon);
        let cost = TargetCost::new(Isa::ArmNeon);
        let greedy = pf.compile(&e).unwrap();
        let oracle = rake.compile(&e).unwrap();
        assert!(oracle.lowered.to_string().contains("umlal"), "{}", oracle.lowered);
        assert!(
            cost.cost(&oracle.lowered) < cost.cost(&greedy.lowered),
            "oracle {} not better than greedy {}",
            oracle.lowered,
            greedy.lowered
        );
    }
}
