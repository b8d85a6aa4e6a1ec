//! # fpir-bench — harness support for regenerating the paper's figures
//!
//! One [`run`] entry point compiles a workload with a chosen
//! [`Compiler`], prices it with the cycle model, validates it against the
//! reference interpreter, and reports compile time — everything the
//! `fig3`/`fig5`/`fig6`/`fig7` binaries and the speed benches share.
//! [`figures`] builds the text of the deterministic figures and tables,
//! which their binaries print.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod figures;
pub mod geomean;

use fpir::expr::{Expr, ExprKind, RcExpr};
use fpir::Isa;
use fpir_baseline::{LlvmBaseline, Rake};
use fpir_isa::target;
use fpir_workloads::Workload;
use pitchfork::{Artifact, Config, Pitchfork};
use rand::SeedableRng;
use std::time::{Duration, Instant};

pub use geomean::geomean;

/// Which instruction-selection flow to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Compiler {
    /// The LLVM-like baseline.
    Llvm,
    /// Pitchfork with the full rule set, leave-one-out applied per
    /// workload (the paper's evaluation protocol).
    Pitchfork,
    /// Pitchfork without leave-one-out (all synthesized rules active).
    PitchforkFull,
    /// Pitchfork with hand-written rules only (the §5.3 ablation).
    PitchforkHandWritten,
    /// The Rake-like search-based selector.
    Rake,
}

impl std::fmt::Display for Compiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Compiler::Llvm => "LLVM",
            Compiler::Pitchfork => "Pitchfork",
            Compiler::PitchforkFull => "Pitchfork (full rules)",
            Compiler::PitchforkHandWritten => "Pitchfork (hand-written)",
            Compiler::Rake => "Rake",
        };
        f.write_str(s)
    }
}

/// Whether the Rake-like baseline models this target. The paper's Rake
/// evaluation covers ARM and HVX only; a positive capability list keeps
/// newly registered backends out of the Rake columns by default.
pub fn rake_supports(isa: Isa) -> bool {
    matches!(isa, Isa::ArmNeon | Isa::HexagonHvx)
}

/// Outcome of compiling one workload for one target.
#[derive(Debug)]
pub struct RunResult {
    /// The finished compilation — lowered expression, emitted program,
    /// cycle-model cost, and linked executable — produced through the
    /// same `pitchfork::Artifact` pipeline the service serves from.
    pub artifact: Artifact,
    /// Wall-clock instruction-selection time.
    pub compile_time: Duration,
    /// True when the baseline could not compile the expression itself and
    /// Pitchfork's lowering of `rounding_mul_shr` was substituted (the
    /// §5.1 accommodation for `depthwise_conv`, `matmul`, `mul` on HVX).
    pub used_rmulshr_fallback: bool,
}

/// Compile `workload` for `isa` with `compiler`.
///
/// # Errors
///
/// Returns a message when the flow genuinely cannot compile the workload
/// (after the §5.1 fallback has been attempted for the baseline).
pub fn run(workload: &Workload, isa: Isa, compiler: &Compiler) -> Result<RunResult, String> {
    let expr = &workload.pipeline.expr;
    let start = Instant::now();
    let (lowered, fallback) = match compiler {
        Compiler::Llvm => {
            let bl = LlvmBaseline::new(isa);
            match bl.compile(expr) {
                Ok(out) => (out.lowered, false),
                Err(_) => {
                    // §5.1: give LLVM Pitchfork's lowering of
                    // rounding_mul_shr so the comparison can proceed.
                    let patched = substitute_rmulshr(expr, isa);
                    let out = bl.compile(&patched).map_err(|e| e.to_string())?;
                    (out.lowered, true)
                }
            }
        }
        Compiler::Pitchfork => {
            let cfg = Config::new(isa).leaving_out(workload.name());
            let pf = Pitchfork::with_config(cfg);
            (pf.compile(expr).map_err(|e| e.to_string())?.lowered, false)
        }
        Compiler::PitchforkFull => {
            let pf = Pitchfork::new(isa);
            (pf.compile(expr).map_err(|e| e.to_string())?.lowered, false)
        }
        Compiler::PitchforkHandWritten => {
            let cfg = Config::new(isa).hand_written_only();
            let pf = Pitchfork::with_config(cfg);
            (pf.compile(expr).map_err(|e| e.to_string())?.lowered, false)
        }
        Compiler::Rake => {
            let rk = Rake::new(isa);
            (rk.compile(expr).map_err(|e| e.to_string())?.lowered, false)
        }
    };
    let compile_time = start.elapsed();
    let artifact = Artifact::from_lowered(lowered, isa).map_err(|e| e.to_string())?;
    Ok(RunResult { artifact, compile_time, used_rmulshr_fallback: fallback })
}

/// Replace FPIR nodes whose primitive expansion needs lanes wider than
/// the target supports (`rounding_mul_shr` and rounding shifts at 32 bits
/// on HVX) with Pitchfork's machine lowering, leaving everything else for
/// the baseline to compile — the paper's §5.1 accommodation.
fn substitute_rmulshr(expr: &RcExpr, isa: Isa) -> RcExpr {
    let children: Vec<RcExpr> =
        expr.children().into_iter().map(|c| substitute_rmulshr(c, isa)).collect();
    let node = expr.with_children(children);
    if !matches!(node.kind(), ExprKind::Fpir(fpir::FpirOp::RoundingMulShr, _))
        || !node_too_wide(&node, isa)
    {
        return node;
    }
    // Try every Pitchfork lowering rule at this node, accepting the first
    // whose result no longer needs unsupported lanes anywhere.
    let rules = pitchfork::lower_rules(isa);
    let mut bounds = fpir::bounds::BoundsCtx::new();
    for rule in rules.rules() {
        if let Some(out) = rule.apply(&node, &mut bounds) {
            let out = substitute_rmulshr(&out, isa);
            if !node_too_wide(&out, isa) {
                return out;
            }
        }
    }
    node
}

/// Whether any FPIR node in `e` would expand through lanes wider than the
/// target supports.
fn node_too_wide(e: &RcExpr, isa: Isa) -> bool {
    if e.children().iter().any(|c| node_too_wide(c, isa)) {
        return true;
    }
    if !matches!(e.kind(), ExprKind::Fpir(..)) {
        return false;
    }
    match fpir::semantics::expand_fully(e) {
        Ok(expanded) => {
            let mut too_wide = false;
            expanded.visit(&mut |n: &Expr| {
                too_wide |= n.elem().bits() > fpir_isa::target(isa).max_lane_bits();
            });
            too_wide
        }
        Err(_) => true,
    }
}

/// Differentially validate a compiled program against the reference
/// interpreter on boundary-biased random inputs.
///
/// # Errors
///
/// Returns the counterexample report on disagreement.
pub fn validate(
    workload: &Workload,
    isa: Isa,
    result: &RunResult,
    rounds: usize,
) -> Result<(), String> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xF1D0);
    fpir_sim::check_program(
        &workload.pipeline.expr,
        &result.artifact.program,
        target(isa),
        &mut rng,
        rounds,
    )
    .map_err(|c| format!("{}: {c}", workload.name()))
}
