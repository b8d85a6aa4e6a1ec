//! The consolidated compile→emit→link pipeline.
//!
//! Every consumer of the compiler used to re-assemble the same plumbing
//! by hand: `Pitchfork::compile` (or a baseline), then `fpir_sim::emit`,
//! then `cycle_cost`, then `Executable::link_with`. [`compile_to_executable`]
//! is the single source of truth for that sequence — the benchmark bins,
//! the examples, and the `pitchfork-service` daemon all go through it,
//! so "what the compiler produces for this expression" has exactly one
//! definition to cache, gate, and serve.
//!
//! The pipeline is *phase-cancellable*: [`compile_to_executable_with`]
//! consults a `keep_going` hook between phases ([`Phase`]), which is how
//! a served request enforces its deadline without hanging mid-compile.

use crate::compiler::{CompileInterrupt, CompilePhase, Compiled, Pitchfork};
use fpir::expr::RcExpr;
use fpir::Isa;
use fpir_isa::target;
use fpir_sim::{cycle_cost, emit, ExecConfig, Executable, Program};

/// One phase of the full compile→emit→link pipeline: the four selection
/// phases of [`CompilePhase`] followed by program emission and linking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// An instruction-selection phase.
    Select(CompilePhase),
    /// Emission of the lowered expression into a register program.
    Emit,
    /// Linking the program for repeated execution.
    Link,
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Phase::Select(p) => p.fmt(f),
            Phase::Emit => f.write_str("emit"),
            Phase::Link => f.write_str("link"),
        }
    }
}

/// Why the pipeline stopped short of an [`Artifact`].
#[derive(Debug, Clone)]
pub enum DriverError {
    /// Instruction selection failed (the target cannot implement the
    /// expression).
    Select(fpir_isa::LowerError),
    /// The lowered expression would not emit.
    Emit(String),
    /// The emitted program would not link.
    Link(String),
    /// The cancellation hook said stop before this phase started.
    Cancelled(Phase),
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::Select(e) => write!(f, "selection failed: {e}"),
            DriverError::Emit(e) => write!(f, "emission failed: {e}"),
            DriverError::Link(e) => write!(f, "linking failed: {e}"),
            DriverError::Cancelled(p) => write!(f, "cancelled before the {p} phase"),
        }
    }
}

impl std::error::Error for DriverError {}

/// Everything one compilation produces, ready to run: the selected
/// expression, the emitted program, its cycle-model price, and the
/// linked executable.
///
/// An `Artifact` is immutable and self-contained (`Send + Sync`), so a
/// cache can hand `Arc<Artifact>`s to concurrent workers that execute
/// [`Artifact::exe`] with per-thread contexts.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// The target the artifact was compiled for.
    pub isa: Isa,
    /// The fully-lowered machine expression.
    pub lowered: RcExpr,
    /// The emitted register program.
    pub program: Program,
    /// Cycle-model cost of one vector of output.
    pub cycles: u64,
    /// The program linked for repeated execution.
    pub exe: Executable,
}

impl Artifact {
    /// Finish a lowering (from any selector — Pitchfork or a baseline)
    /// into a runnable artifact: emit, price, link — through the FAST
    /// link (superinstruction fusion), so every consumer of the driver
    /// runs fused by default.
    ///
    /// # Errors
    ///
    /// [`DriverError::Emit`] or [`DriverError::Link`].
    pub fn from_lowered(lowered: RcExpr, isa: Isa) -> Result<Artifact, DriverError> {
        finish(lowered, isa, &mut |_| true)
    }

    /// A deterministic estimate of the artifact's resident size in
    /// bytes — the quantity a byte-bounded cache charges against its
    /// budget. Counts the dominant owned buffers (program instructions,
    /// linked code, constant-pool lanes, the lowered expression's unique
    /// nodes) at fixed per-item weights, so equal artifacts always weigh
    /// the same.
    pub fn approx_bytes(&self) -> usize {
        // Per-item weights: a PInst and a linked kernel are a few machine
        // words plus an operand box; a constant-pool lane is an i128; a unique
        // expression node is an Rc'd Expr. Exact heap accounting is not
        // the point — stable, monotone-in-size charging is.
        const INST: usize = 96;
        const LANE: usize = 16;
        const NODE: usize = 112;
        let consts: usize = self.exe.const_count() * LANE * self.program_lanes();
        self.program.insts().len() * INST
            + self.exe.op_count() * INST
            + consts
            + fpir::expr::Expr::unique_count(&self.lowered) * NODE
    }

    fn program_lanes(&self) -> usize {
        self.program.insts().first().map(|i| i.ty.lanes as usize).unwrap_or(1)
    }
}

/// Compile `expr` with `pf` and finish it into an [`Artifact`]:
/// lift → lower (predicated, then full) → legalize → emit → link.
///
/// # Errors
///
/// [`DriverError::Select`], [`DriverError::Emit`], or
/// [`DriverError::Link`].
pub fn compile_to_executable(pf: &Pitchfork, expr: &RcExpr) -> Result<Artifact, DriverError> {
    compile_to_executable_with(pf, expr, &mut |_| true).map(|(a, _)| a)
}

/// [`compile_to_executable`] with a cancellation hook consulted between
/// phases, also returning the selection-phase [`Compiled`] (stats and
/// the lifted form).
///
/// # Errors
///
/// As [`compile_to_executable`], plus [`DriverError::Cancelled`] when
/// `keep_going` returned `false`.
pub fn compile_to_executable_with(
    pf: &Pitchfork,
    expr: &RcExpr,
    keep_going: &mut dyn FnMut(Phase) -> bool,
) -> Result<(Artifact, Compiled), DriverError> {
    let compiled =
        pf.compile_phased(expr, &mut |p| keep_going(Phase::Select(p))).map_err(|e| match e {
            CompileInterrupt::Lower(e) => DriverError::Select(e),
            CompileInterrupt::Cancelled(p) => DriverError::Cancelled(Phase::Select(p)),
        })?;
    let art = finish(compiled.lowered.clone(), pf.config().isa, keep_going)?;
    Ok((art, compiled))
}

/// The tail every artifact shares, whichever selector lowered it: emit,
/// price, then link through the FAST link (superinstruction fusion),
/// consulting `keep_going` before emission and before linking.
fn finish(
    lowered: RcExpr,
    isa: Isa,
    keep_going: &mut dyn FnMut(Phase) -> bool,
) -> Result<Artifact, DriverError> {
    if !keep_going(Phase::Emit) {
        return Err(DriverError::Cancelled(Phase::Emit));
    }
    let t = target(isa);
    let program = emit(&lowered, t).map_err(|e| DriverError::Emit(e.to_string()))?;
    let cycles = cycle_cost(&program, t);
    if !keep_going(Phase::Link) {
        return Err(DriverError::Cancelled(Phase::Link));
    }
    let exe = Executable::link_with(&program, t, &ExecConfig::FAST)
        .map_err(|e| DriverError::Link(e.to_string()))?;
    Ok(Artifact { isa, lowered, program, cycles, exe })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpir::build;
    use fpir::types::{ScalarType as S, VectorType as V};

    fn sat_add(lanes: u32) -> RcExpr {
        let t = V::new(S::U8, lanes);
        let sum = build::add(build::widen(build::var("a", t)), build::widen(build::var("b", t)));
        build::cast(S::U8, build::min(sum.clone(), build::splat(255, &sum)))
    }

    #[test]
    fn artifact_matches_manual_plumbing() {
        for isa in fpir::machine::ALL_ISAS {
            let pf = Pitchfork::new(isa);
            let e = sat_add(16);
            let art = compile_to_executable(&pf, &e).unwrap();
            let compiled = pf.compile(&e).unwrap();
            let t = target(isa);
            let program = emit(&compiled.lowered, t).unwrap();
            assert_eq!(art.lowered, compiled.lowered, "{isa}");
            assert_eq!(art.program.render(), program.render(), "{isa}");
            assert_eq!(art.cycles, cycle_cost(&program, t), "{isa}");
            assert_eq!(
                art.exe.render(),
                Executable::link_with(&program, t, &ExecConfig::FAST).unwrap().render(),
                "{isa}"
            );
            // The artifact ships the FAST (fused) link; the REFERENCE
            // link stays available for differential baselines.
            let plain = Executable::link_with(&program, t, &ExecConfig::REFERENCE).unwrap();
            assert!(plain.fused_count() == 0, "{isa}");
            assert!(art.exe.op_count() <= plain.op_count(), "{isa}");
        }
    }

    #[test]
    fn cancellation_stops_before_each_phase() {
        let pf = Pitchfork::new(fpir::Isa::ArmNeon);
        let e = sat_add(16);
        // Enumerate the phases one full run visits, in order.
        let mut phases: Vec<Phase> = Vec::new();
        let (_, _) = compile_to_executable_with(&pf, &e, &mut |p| {
            phases.push(p);
            true
        })
        .unwrap();
        assert_eq!(
            phases,
            vec![
                Phase::Select(CompilePhase::Lift),
                Phase::Select(CompilePhase::LowerPredicated),
                Phase::Select(CompilePhase::Lower),
                Phase::Select(CompilePhase::Legalize),
                Phase::Emit,
                Phase::Link,
            ]
        );
        // Cancelling at the k-th checkpoint aborts naming that phase.
        for (k, want) in phases.iter().enumerate() {
            let mut seen = 0usize;
            let err = compile_to_executable_with(&pf, &e, &mut |_| {
                seen += 1;
                seen <= k
            })
            .unwrap_err();
            match err {
                DriverError::Cancelled(p) => assert_eq!(p, *want, "checkpoint {k}"),
                other => panic!("checkpoint {k}: wrong error {other}"),
            }
        }
    }

    #[test]
    fn selection_failure_is_reported() {
        let t = V::new(S::I64, 4);
        let e = build::add(build::var("a", t), build::var("b", t));
        let pf = Pitchfork::new(fpir::Isa::HexagonHvx);
        assert!(matches!(compile_to_executable(&pf, &e), Err(DriverError::Select(_))));
    }

    #[test]
    fn approx_bytes_is_deterministic_and_positive() {
        let pf = Pitchfork::new(fpir::Isa::X86Avx2);
        let e = sat_add(32);
        let a = compile_to_executable(&pf, &e).unwrap();
        let b = compile_to_executable(&pf, &e).unwrap();
        assert_eq!(a.approx_bytes(), b.approx_bytes());
        assert!(a.approx_bytes() > 0);
    }

    #[test]
    fn reference_engine_artifact_is_identical() {
        let e = sat_add(16);
        let pf = Pitchfork::new(fpir::Isa::ArmNeon);
        let a = compile_to_executable(&pf, &e).unwrap();
        let reference = pf.compile_reference(&e).unwrap();
        let b = Artifact::from_lowered(reference.lowered, fpir::Isa::ArmNeon).unwrap();
        assert_eq!(a.program.render(), b.program.render());
        assert_eq!(a.exe.render(), b.exe.render());
    }
}
