//! The Pitchfork compiler driver: lift, lower, legalize.
//!
//! Mirrors Figure 1 of the paper: an input vector expression (primitive
//! integer arithmetic, possibly mixed with user-written FPIR) is first
//! *lifted* into FPIR by the shared target-agnostic TRS, then *lowered* by
//! the target's TRS (fused / compound / predicated / specific-constant
//! rules), and finally finished by the `fpir-isa` legalizer, which holds
//! the per-target direct mappings and the generic fallback.

use crate::lift::lift_rules;
use crate::lower::lower_rules;
use fpir::expr::RcExpr;
use fpir::Isa;
use fpir_isa::{legalize, legalize_uncached, target, LowerError, TargetCost};
use fpir_trs::cost::AgnosticCost;
use fpir_trs::rewrite::{rewrite_reference, RewriteStats, Rewriter};
use fpir_trs::rule::{RuleClass, RuleSet};

/// Compiler configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Target ISA.
    pub isa: Isa,
    /// Include the offline-synthesized rules (§5.3's ablation disables
    /// them).
    pub synthesized_rules: bool,
    /// Exclude rules synthesized from this benchmark (the leave-one-out
    /// protocol of §5).
    pub leave_out: Option<String>,
}

impl Config {
    /// Default configuration for a target: full rule set.
    pub fn new(isa: Isa) -> Config {
        Config { isa, synthesized_rules: true, leave_out: None }
    }

    /// Disable synthesized rules (hand-written only).
    pub fn hand_written_only(mut self) -> Config {
        self.synthesized_rules = false;
        self
    }

    /// Apply leave-one-out for `benchmark`.
    pub fn leaving_out(mut self, benchmark: impl Into<String>) -> Config {
        self.leave_out = Some(benchmark.into());
        self
    }
}

/// The result of one compilation.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The expression after lifting to FPIR (Figure 2c's stage).
    pub lifted: RcExpr,
    /// The fully-lowered machine expression.
    pub lowered: RcExpr,
    /// Lifting-phase statistics (which rules fired).
    pub lift_stats: RewriteStats,
    /// Lowering-phase statistics.
    pub lower_stats: RewriteStats,
}

/// One phase of the selection pipeline, in execution order — the
/// granularity at which a served compilation checks its deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompilePhase {
    /// Target-agnostic lifting into FPIR.
    Lift,
    /// Lowering, bounds-predicated rules (pristine-FPIR interval queries).
    LowerPredicated,
    /// Lowering, the full rule set.
    Lower,
    /// The `fpir-isa` legalizer (direct mappings + generic fallback).
    Legalize,
}

impl std::fmt::Display for CompilePhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CompilePhase::Lift => "lift",
            CompilePhase::LowerPredicated => "lower-predicated",
            CompilePhase::Lower => "lower",
            CompilePhase::Legalize => "legalize",
        };
        f.write_str(s)
    }
}

/// Why [`Pitchfork::compile_phased`] stopped.
#[derive(Debug, Clone)]
pub enum CompileInterrupt {
    /// The target genuinely cannot implement the expression.
    Lower(LowerError),
    /// The cancellation hook said stop before this phase started.
    Cancelled(CompilePhase),
}

impl From<LowerError> for CompileInterrupt {
    fn from(e: LowerError) -> CompileInterrupt {
        CompileInterrupt::Lower(e)
    }
}

impl std::fmt::Display for CompileInterrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileInterrupt::Lower(e) => e.fmt(f),
            CompileInterrupt::Cancelled(p) => write!(f, "cancelled before the {p} phase"),
        }
    }
}

impl std::error::Error for CompileInterrupt {}

/// The Pitchfork instruction selector for one target.
#[derive(Debug)]
pub struct Pitchfork {
    config: Config,
    lift: RuleSet,
    lower: RuleSet,
    /// The bounds-predicated subset of `lower`, precomputed — phase one of
    /// every `compile` uses it, and filtering per call would clone the
    /// rules each time.
    predicated: RuleSet,
}

impl Pitchfork {
    /// A selector with the full rule set for `isa`.
    pub fn new(isa: Isa) -> Pitchfork {
        Pitchfork::with_config(Config::new(isa))
    }

    /// A selector with an explicit configuration.
    pub fn with_config(config: Config) -> Pitchfork {
        let mut lift = lift_rules();
        let mut lower = lower_rules(config.isa);
        if !config.synthesized_rules {
            lift = lift.hand_written_only();
            lower = lower.hand_written_only();
        }
        if let Some(bench) = &config.leave_out {
            lift = lift.leaving_out(bench);
            lower = lower.leaving_out(bench);
        }
        let predicated = lower.of_class(RuleClass::Predicated);
        Pitchfork { config, lift, lower, predicated }
    }

    /// The configuration in use.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// The active lifting rule set.
    pub fn lift_rule_set(&self) -> &RuleSet {
        &self.lift
    }

    /// The active lowering rule set.
    pub fn lower_rule_set(&self) -> &RuleSet {
        &self.lower
    }

    /// Lift only (the target-agnostic phase — Figure 2b to Figure 2c).
    pub fn lift(&self, expr: &RcExpr) -> (RcExpr, RewriteStats) {
        let mut rw = Rewriter::new(&self.lift, AgnosticCost);
        let lifted = rw.run(expr);
        (lifted, rw.stats)
    }

    /// Full instruction selection: lift, lower, legalize.
    ///
    /// Lowering runs in two phases: bounds-*predicated* rules first, while
    /// the expression is still pristine FPIR and interval analysis is
    /// precise (§3.3's queries are posed against the pre-selection IR),
    /// then the full rule set.
    ///
    /// # Errors
    ///
    /// Fails when the target cannot implement the expression at all —
    /// e.g. 64-bit lanes on Hexagon HVX (§5.1).
    pub fn compile(&self, expr: &RcExpr) -> Result<Compiled, LowerError> {
        match self.compile_phased(expr, &mut |_| true) {
            Ok(out) => Ok(out),
            Err(CompileInterrupt::Lower(e)) => Err(e),
            Err(CompileInterrupt::Cancelled(_)) => {
                unreachable!("the always-true checker never cancels")
            }
        }
    }

    /// [`Pitchfork::compile`] with a cancellation hook.
    ///
    /// `keep_going` is consulted **between** pipeline phases (before
    /// lifting, each lowering half, and legalization); returning `false`
    /// aborts the compilation with [`CompileInterrupt::Cancelled`] naming
    /// the phase that was about to start. A served compile uses this to
    /// enforce a per-request deadline without a hang mid-pipeline; the
    /// plain [`Pitchfork::compile`] passes an always-true checker, so the
    /// two paths run the identical phase sequence.
    ///
    /// # Errors
    ///
    /// [`CompileInterrupt::Lower`] exactly as [`Pitchfork::compile`];
    /// [`CompileInterrupt::Cancelled`] when `keep_going` said stop.
    pub fn compile_phased(
        &self,
        expr: &RcExpr,
        keep_going: &mut dyn FnMut(CompilePhase) -> bool,
    ) -> Result<Compiled, CompileInterrupt> {
        if !keep_going(CompilePhase::Lift) {
            return Err(CompileInterrupt::Cancelled(CompilePhase::Lift));
        }
        let mut rw0 = Rewriter::new(&self.lift, AgnosticCost);
        let lifted = rw0.run(expr);
        let lift_stats = rw0.stats.clone();
        if !keep_going(CompilePhase::LowerPredicated) {
            return Err(CompileInterrupt::Cancelled(CompilePhase::LowerPredicated));
        }
        let mut rw1 = Rewriter::new(&self.predicated, TargetCost::new(self.config.isa));
        // Bounds inference is a pure per-node analysis and the phases
        // share `Arc` identities (lifting preserves converged subtrees), so
        // one §3.3 query cache is threaded through all three rewriting
        // phases.
        rw1.bounds = std::mem::take(&mut rw0.bounds);
        let after_predicated = rw1.run(&lifted);
        if !keep_going(CompilePhase::Lower) {
            return Err(CompileInterrupt::Cancelled(CompilePhase::Lower));
        }
        let mut rw = Rewriter::new(&self.lower, TargetCost::new(self.config.isa));
        rw.bounds = std::mem::take(&mut rw1.bounds);
        let partially_lowered = rw.run(&after_predicated);
        let mut lower_stats = rw1.stats.clone();
        lower_stats.merge(&rw.stats);
        if !keep_going(CompilePhase::Legalize) {
            return Err(CompileInterrupt::Cancelled(CompilePhase::Legalize));
        }
        let lowered = legalize(&partially_lowered, target(self.config.isa))?;
        Ok(Compiled { lifted, lowered, lift_stats, lower_stats })
    }

    /// The differential oracle for [`Pitchfork::compile`]: the same
    /// phases with every cache off. Lift, predicated lowering and full
    /// lowering each run through [`rewrite_reference`] (a fresh bounds
    /// context per phase; the predicated subset filtered again here),
    /// and [`legalize_uncached`] finishes. Its stats carry only what the
    /// reference rewriter counts.
    ///
    /// # Errors
    ///
    /// As [`Pitchfork::compile`].
    pub fn compile_reference(&self, expr: &RcExpr) -> Result<Compiled, LowerError> {
        let cost = TargetCost::new(self.config.isa);
        let (lifted, lift_stats) = rewrite_reference(&self.lift, &AgnosticCost, expr);
        let predicated = self.lower.of_class(RuleClass::Predicated);
        let (after_predicated, mut lower_stats) = rewrite_reference(&predicated, &cost, &lifted);
        let (partially_lowered, full) = rewrite_reference(&self.lower, &cost, &after_predicated);
        lower_stats.merge(&full);
        let lowered = legalize_uncached(&partially_lowered, target(self.config.isa))?;
        Ok(Compiled { lifted, lowered, lift_stats, lower_stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpir::build;
    use fpir::interp::{eval, eval_with};
    use fpir::types::{ScalarType as S, VectorType as V};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The Figure 2b Sobel expression.
    fn sobel_expr(lanes: u32) -> fpir::RcExpr {
        let t = V::new(S::U8, lanes);
        let k = |a: &str, b: &str, c: &str| {
            let w = |n: &str| build::widen(build::var(n, t));
            build::add(
                build::add(w(a), build::mul(w(b), build::constant(2, V::new(S::U16, lanes)))),
                w(c),
            )
        };
        let sx = build::absd(k("a", "b", "c"), k("d", "e", "f"));
        let sy = build::absd(k("g", "h", "i"), k("j", "k", "l"));
        let sum = build::add(sx, sy);
        build::cast(S::U8, build::min(sum.clone(), build::splat(255, &sum)))
    }

    #[test]
    fn sobel_lifts_to_figure_2c() {
        let pf = Pitchfork::new(Isa::ArmNeon);
        let (lifted, _) = pf.lift(&sobel_expr(16));
        let printed = lifted.to_string();
        assert!(printed.starts_with("saturating_cast<u8>("), "{printed}");
        assert!(printed.contains("widening_add(a_u8, c_u8)"), "{printed}");
        assert!(printed.contains("widening_shl(b_u8, 1)"), "{printed}");
        assert!(printed.contains("absd("), "{printed}");
    }

    #[test]
    fn sobel_compiles_and_agrees_on_all_targets() {
        let mut rng = StdRng::seed_from_u64(9);
        let evaluator = fpir_isa::MachEvaluator;
        for isa in fpir::machine::ALL_ISAS {
            let e = sobel_expr(16);
            let pf = Pitchfork::new(isa);
            let out = pf.compile(&e).unwrap();
            assert!(!out.lowered.contains_fpir(), "{isa}: {}", out.lowered);
            for _ in 0..25 {
                let env = fpir::rand_expr::random_env(&mut rng, &e);
                assert_eq!(
                    eval(&e, &env).unwrap(),
                    eval_with(&out.lowered, &env, Some(&evaluator)).unwrap(),
                    "{isa} miscompiled sobel"
                );
            }
        }
    }

    #[test]
    fn hvx_rejects_64_bit_requirements() {
        let t = V::new(S::I64, 4);
        let e = build::add(build::var("a", t), build::var("b", t));
        let pf = Pitchfork::new(Isa::HexagonHvx);
        assert!(pf.compile(&e).is_err());
        assert!(Pitchfork::new(Isa::ArmNeon).compile(&e).is_ok());
    }

    #[test]
    fn ablation_config_changes_output() {
        // i16(x_u8) << 6 lifts (and then lowers well) only with the
        // synthesized rule set.
        let t = V::new(S::U8, 16);
        let e = build::shl(
            build::cast(S::I16, build::var("x", t)),
            build::constant(6, V::new(S::I16, 16)),
        );
        let full = Pitchfork::new(Isa::ArmNeon);
        let hand = Pitchfork::with_config(Config::new(Isa::ArmNeon).hand_written_only());
        let (l_full, _) = full.lift(&e);
        let (l_hand, _) = hand.lift(&e);
        assert_ne!(l_full.to_string(), l_hand.to_string());
    }

    #[test]
    fn leave_one_out_is_wired_through() {
        let cfg = Config::new(Isa::ArmNeon).leaving_out("matmul");
        let pf = Pitchfork::with_config(cfg);
        // A rule synthesized solely from matmul's corpus disappears...
        assert!(pf.lift_rule_set().rules().iter().all(|r| r.name != "lift-rounding-mul-shr"));
        // ...while a rule other benchmarks' corpora also produce survives
        // (it would have been re-synthesized without matmul).
        assert!(pf.lower_rule_set().rules().iter().any(|r| r.name == "arm-udot"));
    }

    #[test]
    fn user_written_fpir_compiles_directly() {
        // Experts can write FPIR directly (§2.3): no lifting needed, still
        // selects the fixed-point instruction.
        let t = V::new(S::U8, 16);
        let e = build::rounding_halving_add(build::var("a", t), build::var("b", t));
        for (isa, inst) in [
            (Isa::X86Avx2, "vpavg"),
            (Isa::ArmNeon, "urhadd"),
            (Isa::HexagonHvx, "vavg:rnd"),
            (Isa::Rvv, "vaadd"),
        ] {
            let out = Pitchfork::new(isa).compile(&e).unwrap();
            assert!(out.lowered.to_string().contains(inst), "{isa}: {}", out.lowered);
        }
    }
}
