//! Rule verification — the role Rosette + Z3 played for the authors
//! (§2.4).
//!
//! A rewrite rule is *verified* by instantiating its left-hand side over
//! type assignments and predicate-satisfying constants, applying the rule,
//! and checking that both sides agree on concrete inputs: exhaustively
//! over all 8-bit operand combinations when the rule has at most two
//! value wildcards, and on boundary-biased random samples otherwise and
//! at wider types. The paper reports that exactly this exercise "unearthed
//! a handful of subtle bugs that had escaped detection through testing
//! and code-reviews"; the test suite plants such bugs (a missing constant
//! predicate) and checks the verifier rejects them.

use fpir::bounds::{BoundsCtx, Interval};
use fpir::interp::{eval_with, Env, Value};
use fpir::rand_expr::rand_lane;
use fpir::RcExpr;
use fpir_isa::MachEvaluator;
use fpir_trs::rule::{instantiate_lhs_with, Rule};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::fmt;

/// A verification failure.
#[derive(Debug, Clone)]
pub struct VerifyError {
    /// The offending rule.
    pub rule: String,
    /// What went wrong (with a concrete counterexample where available).
    pub detail: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rule `{}` failed verification: {}", self.rule, self.detail)
    }
}

impl std::error::Error for VerifyError {}

/// Verification effort.
#[derive(Debug, Clone, Copy)]
pub struct VerifyOptions {
    /// Lanes per sampled environment (one environment checks this many
    /// input tuples at once).
    pub lanes: u32,
    /// Random environments per instantiation.
    pub samples: usize,
    /// Enumerate *every* point of the instantiated input space when it
    /// has at most this many points (the `exhausted` verdict in
    /// [`crate::soundness`]). `0` disables enumeration.
    pub exhaustive_points: u64,
}

impl Default for VerifyOptions {
    fn default() -> VerifyOptions {
        VerifyOptions { lanes: 256, samples: 24, exhaustive_points: 1 << 16 }
    }
}

impl VerifyOptions {
    /// The effort the shipped-rule test suites and `rulecheck` use: debug
    /// builds sample (plus small-space enumeration) so the suite stays
    /// fast under an interpreted engine; release builds (and CI's bench
    /// smoke jobs) run the full exhaustive sweep.
    pub fn shipped() -> VerifyOptions {
        if cfg!(debug_assertions) {
            VerifyOptions { samples: 8, lanes: 64, exhaustive_points: 512 }
        } else {
            VerifyOptions { samples: 12, lanes: 128, exhaustive_points: 1 << 16 }
        }
    }
}

/// Verify one rule.
///
/// # Errors
///
/// Returns the first counterexample found, or a report that the rule
/// could not be instantiated at all.
pub fn verify_rule(rule: &Rule, opts: &VerifyOptions) -> Result<(), VerifyError> {
    verify_rule_at(rule, opts, &BTreeMap::new())
}

/// Verify one rule at specific constant bindings (used by the
/// binary-search generalizer).
///
/// # Errors
///
/// As [`verify_rule`].
pub fn verify_rule_at(
    rule: &Rule,
    opts: &VerifyOptions,
    const_overrides: &BTreeMap<u8, i128>,
) -> Result<(), VerifyError> {
    let inst =
        instantiate_lhs_with(rule, opts.lanes, const_overrides).ok_or_else(|| VerifyError {
            rule: rule.name.clone(),
            detail: "could not instantiate the left-hand side".into(),
        })?;
    // Bounds-predicated rules are sound *given* their bounds; verify them
    // under input ranges that satisfy the predicate ([0, 1] per variable,
    // the same region instantiation used). The checking core is shared
    // with the verdict API in [`crate::soundness`]: prove, else
    // enumerate, else sample.
    crate::soundness::check_instantiation(rule, &inst, opts).map(|_| ())
}

pub(crate) fn bound_ctx_for(vars: &[(String, fpir::VectorType)], rule: &Rule) -> BoundsCtx {
    let mut ctx = BoundsCtx::new();
    if rule.pred.restricts_domain() {
        for (name, _) in vars {
            ctx.set_var_bound(name.clone(), Interval::new(0, 1));
        }
    }
    ctx
}

fn env_for(vars: &[(String, fpir::VectorType)], restrict_01: bool, rng: &mut StdRng) -> Env {
    vars.iter()
        .map(|(name, ty)| {
            let lanes = (0..ty.lanes)
                .map(|_| {
                    if restrict_01 {
                        rand_lane(rng, ty.elem).rem_euclid(2)
                    } else {
                        rand_lane(rng, ty.elem)
                    }
                })
                .collect();
            (name.clone(), Value::new(*ty, lanes))
        })
        .collect()
}

pub(crate) fn agree(rule: &Rule, lhs: &RcExpr, rhs: &RcExpr, env: &Env) -> Result<(), VerifyError> {
    let evaluator = MachEvaluator;
    let a = eval_with(lhs, env, Some(&evaluator)).map_err(|e| VerifyError {
        rule: rule.name.clone(),
        detail: format!("LHS evaluation failed: {e}"),
    })?;
    let b = eval_with(rhs, env, Some(&evaluator)).map_err(|e| VerifyError {
        rule: rule.name.clone(),
        detail: format!("RHS evaluation failed: {e}"),
    })?;
    if a != b {
        let lane = (0..a.ty().lanes as usize).find(|&i| a.lane(i) != b.lane(i)).unwrap_or(0);
        return Err(VerifyError {
            rule: rule.name.clone(),
            detail: format!(
                "counterexample at lane {lane}: LHS {} != RHS {} for\n  {lhs}\n  -> {rhs}",
                a.lane(lane),
                b.lane(lane)
            ),
        });
    }
    Ok(())
}

pub(crate) fn sampled_check(
    rule: &Rule,
    lhs: &RcExpr,
    rhs: &RcExpr,
    opts: &VerifyOptions,
) -> Result<(), VerifyError> {
    let vars = lhs.free_vars();
    let restrict = rule.pred.restricts_domain();
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for _ in 0..opts.samples {
        let env = env_for(&vars, restrict, &mut rng);
        agree(rule, lhs, rhs, &env)?;
    }
    Ok(())
}

/// Verify every rule in a set, fanned out over `pool`, returning all
/// failures in rule order: rules are independent, and the pool's map
/// preserves input order, so the list is identical for any worker count.
pub fn verify_rule_set(
    rules: &fpir_trs::rule::RuleSet,
    opts: &VerifyOptions,
    pool: &fpir_pool::Pool,
) -> Vec<VerifyError> {
    pool.map(rules.rules(), |r| verify_rule(r, opts).err()).into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpir::FpirOp;
    use fpir_trs::dsl::*;
    use fpir_trs::pattern::TypePat;
    use fpir_trs::rule::{Rule, RuleClass};
    use fpir_trs::template::{CFn, Template, TyRef};

    #[test]
    fn correct_rule_passes() {
        // u16(x) + u16(y) -> widening_add(x, y).
        let rule = Rule::new(
            "ok",
            RuleClass::Lift,
            pat_add(
                widen_cast(0),
                fpir_trs::pattern::Pat::Cast(
                    TypePat::WidenOf(0),
                    Box::new(wild_t(1, TypePat::Var(0))),
                ),
            ),
            tfpir2(FpirOp::WideningAdd, tw(0), tw(1)),
        );
        verify_rule(&rule, &VerifyOptions::default()).unwrap();
    }

    #[test]
    fn missing_predicate_is_caught() {
        // The paper's bug class: u16(x) * c0 -> widening_shl(x, log2-ish
        // constant) *without* the is_pow2 predicate — claim c0/2 as the
        // shift, which is wrong for any non-power-of-two (and for most
        // powers of two as well).
        let rule = Rule::new(
            "buggy-shift",
            RuleClass::Lift,
            pat_mul(widen_cast(0), cwild_t(1, TypePat::WidenOf(0))),
            tfpir2(
                FpirOp::WideningShl,
                tw(0),
                Template::Const { f: CFn::Id, of: 1, ty: TyRef::OfWild(0) },
            ),
        );
        let err = verify_rule(&rule, &VerifyOptions::default()).unwrap_err();
        assert!(err.detail.contains("counterexample"), "{err}");
    }

    #[test]
    fn wrong_rounding_is_caught() {
        // Claiming a floor average is the rounding average: off by one on
        // odd sums — exhaustive 8-bit checking must find it.
        let rule = Rule::new(
            "buggy-average",
            RuleClass::Lift,
            pat_fpir2(FpirOp::RoundingHalvingAdd, wild_v(0), wild_t(1, TypePat::Var(0))),
            tfpir2(FpirOp::HalvingAdd, tw(0), tw(1)),
        );
        let err = verify_rule(&rule, &VerifyOptions::default()).unwrap_err();
        assert!(err.detail.contains("counterexample"), "{err}");
    }

    #[test]
    fn predicate_out_of_range_constant_is_caught() {
        // The paper's §4.1 example needs 0 <= c0; a rule claiming validity
        // for *negative* shifts too must fail.
        let rule = Rule::new(
            "buggy-range",
            RuleClass::Lift,
            pat_shl(
                fpir_trs::pattern::Pat::Cast(
                    TypePat::WidenSignedOf(0),
                    Box::new(wild_t(0, TypePat::AnyUnsigned(0))),
                ),
                cwild_t(1, TypePat::WidenSignedOf(0)),
            ),
            Template::Reinterpret(
                TyRef::WidenSignedOfWild(0),
                Box::new(tfpir2(
                    FpirOp::WideningShl,
                    tw(0),
                    Template::Const { f: CFn::Id, of: 1, ty: TyRef::OfWild(0) },
                )),
            ),
        );
        // At c = -1 the LHS shifts right but widening_shl's narrow count
        // (u8) cannot even represent -1 — substitution fails, surfacing as
        // non-application; at c = -1 on signed counts it diverges.
        let mut overrides = BTreeMap::new();
        overrides.insert(1u8, -1i128);
        assert!(verify_rule_at(&rule, &VerifyOptions::default(), &overrides).is_err());
    }
}
