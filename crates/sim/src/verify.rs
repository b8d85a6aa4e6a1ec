//! Static verification of linked [`Executable`]s — an independent audit
//! of what [`Executable::link_with`] produced, without running anything.
//!
//! The linked engine trades the reference VM's per-step checks for raw
//! speed: operands are raw indices, dispatch is direct, and the hot loop
//! `expect`s invariants the linker is supposed to have established. A
//! linker bug therefore shows up as a panic deep in the hot loop (or,
//! worse, as silently wrong lanes when a recycled register is read). The
//! verifier re-derives those invariants from the artifact alone:
//!
//! * **`def-before-use`** — every physical-register read is dominated by
//!   a live (non-recycled) write in program order, and every input-slot
//!   read happens after the slot's load position; the final output
//!   location is defined;
//! * **`dst-aliasing`** — no instruction's destination register is also
//!   one of its own register operands (the engine reclaims the
//!   destination's buffer *before* reading operands);
//! * **`operand-index`** — register / input-slot / constant-pool indices
//!   are in range, including the output location, and each
//!   instruction's operand list lies inside the executable's operand
//!   array;
//! * **`slot-order`** — input slots are in strictly increasing first-load
//!   program order and instruction positions strictly increase, so blame
//!   reports (`pos`, `reg`) point at real, ordered program points;
//! * **`const-pool`** — every pool entry is a genuine splat (all lanes
//!   equal), matching what linking is allowed to materialize;
//! * **`sem-table`** — each kernel step's resolved [`fpir_isa::MachSem`]
//!   agrees with what the ISA's table currently maps its opcode to;
//! * **`sem-signature`** — every external operand has the result's lane
//!   count, and each step's operands pass [`fpir_isa::check_shape`]:
//!   one per the semantics' arity, all at the step's lane count, and the
//!   widening accumulator shapes hold (`WideningMulAcc` 2×, `DotAcc4`
//!   4×) — the rule the linker applies to every instruction, so
//!   no compiled step kernel sees operands its semantics reject;
//! * **`fused-shape`** — a kernel's audit trail holds together: its
//!   1..=32 steps and their sources lie inside the executable's flat
//!   arrays, temp references point at *earlier* steps, external-operand
//!   indices are in range with element types matching the recorded
//!   per-step types, every step has the kernel's lane count, step
//!   positions strictly increase, every external operand is read, a
//!   step's captured operand is a source that reads a pool constant, and
//!   the final step is the instruction's own op/type/position — so the
//!   compiled step kernels, built from the same lane table as
//!   [`fpir_isa::eval_sem_into`], run exactly the program instructions
//!   they stand for.
//!
//! The linker runs this in debug builds on everything it produces, in
//! both configurations, [`crate::difftest`] runs it
//! on every artifact it tests, and `pitchforkd` audits every artifact
//! entering its cache in debug builds — so a linker regression is caught
//! at the artifact boundary, with a named check and a program position,
//! not as a scrambled image three layers up.

use crate::exec::{lanes_ty, Executable, FSrc, LInst, Operand, OutLoc, MAX_OPERANDS, MAX_STEPS};
use fpir::types::VectorType;
use fpir_isa::Target;
use std::collections::HashSet;
use std::fmt;

/// Which artifact invariant a violation broke. [`ArtifactCheck::name`]
/// is the stable identifier fixtures and reports key on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactCheck {
    /// A register or input slot read before it is written/loaded.
    DefBeforeUse,
    /// An instruction's destination aliases one of its own operands.
    DstAliasing,
    /// A register, input-slot, or constant-pool index out of range.
    OperandIndex,
    /// Input slots or instruction positions out of program order.
    SlotOrder,
    /// A constant-pool entry that is not a splat.
    ConstPool,
    /// An instruction's semantics disagree with the ISA table.
    SemTable,
    /// Operand shape the semantics would reject at run time.
    SemSignature,
    /// A fused superinstruction whose step chain is malformed.
    FusedShape,
}

impl ArtifactCheck {
    /// Stable check name (used in reports and fixture assertions).
    pub fn name(self) -> &'static str {
        match self {
            ArtifactCheck::DefBeforeUse => "def-before-use",
            ArtifactCheck::DstAliasing => "dst-aliasing",
            ArtifactCheck::OperandIndex => "operand-index",
            ArtifactCheck::SlotOrder => "slot-order",
            ArtifactCheck::ConstPool => "const-pool",
            ArtifactCheck::SemTable => "sem-table",
            ArtifactCheck::SemSignature => "sem-signature",
            ArtifactCheck::FusedShape => "fused-shape",
        }
    }
}

impl fmt::Display for ArtifactCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A broken artifact invariant.
#[derive(Debug, Clone)]
pub struct ArtifactError {
    /// Which invariant.
    pub check: ArtifactCheck,
    /// Source-program position of the offending instruction, when the
    /// violation is instruction-specific.
    pub pos: Option<usize>,
    /// Human-readable description.
    pub detail: String,
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "artifact check `{}` failed", self.check)?;
        if let Some(p) = self.pos {
            write!(f, " at #{p}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

fn err(check: ArtifactCheck, pos: Option<usize>, detail: String) -> ArtifactError {
    ArtifactError { check, pos, detail }
}

/// Verify every artifact invariant of a linked executable.
///
/// Pure and read-only: no instruction is executed, so the cost is linear
/// in the artifact size and safe to run on untrusted/corrupted artifacts.
///
/// # Errors
///
/// The first violation in check-then-program order.
pub fn verify_executable(exe: &Executable) -> Result<(), ArtifactError> {
    use ArtifactCheck as C;

    // Constant pool: splats only (that is all linking materializes, and
    // the cycle model prices them as loop-invariant and free).
    for (i, c) in exe.consts.iter().enumerate() {
        if c.is_empty() || (0..c.len()).any(|k| c.get(k) != c.get(0)) {
            return Err(err(C::ConstPool, None, format!("constant c{i} is not a splat: {c:?}")));
        }
    }

    // Slot/blame order: inputs in strictly increasing first-load
    // position, no duplicate names, instructions in strictly increasing
    // program position.
    for w in exe.inputs.windows(2) {
        if w[1].pos <= w[0].pos {
            return Err(err(
                C::SlotOrder,
                Some(w[1].pos),
                format!(
                    "input slots out of first-load order: `{}` at #{} after `{}` at #{}",
                    w[1].name, w[1].pos, w[0].name, w[0].pos
                ),
            ));
        }
    }
    let mut names = HashSet::with_capacity(exe.inputs.len());
    for s in &exe.inputs {
        if !names.insert(s.name.as_str()) {
            return Err(err(
                C::SlotOrder,
                Some(s.pos),
                format!("input `{}` has two slots", s.name),
            ));
        }
    }
    for w in exe.code.windows(2) {
        if w[1].pos <= w[0].pos {
            return Err(err(
                C::SlotOrder,
                Some(w[1].pos as usize),
                format!("instruction positions out of order: #{} after #{}", w[1].pos, w[0].pos),
            ));
        }
    }

    // Per-instruction checks, simulating definedness in program order.
    // `defined[r]` is the type of the live value in physical register
    // `r`, or `None` when it was never written or its last write was
    // immediately recycled (`dst_dead`) — exactly the states in which
    // the engine's `regs[r].as_ref().expect(..)` would panic.
    let table = fpir_isa::target(exe.isa);
    let mut defined = vec![None; exe.phys_regs];
    let mut operand_tys = Vec::new();
    for inst in &exe.code {
        let pos = inst.pos as usize;
        let args = exe.operands.get(inst.args.range()).ok_or_else(|| {
            err(
                C::OperandIndex,
                Some(pos),
                format!(
                    "operand list {:?} outside the operand array of {}",
                    inst.args.range(),
                    exe.operands.len()
                ),
            )
        })?;

        if (inst.dst as usize) >= exe.phys_regs {
            return Err(err(
                C::OperandIndex,
                Some(pos),
                format!("destination r{} outside the register file of {}", inst.dst, exe.phys_regs),
            ));
        }
        operand_tys.clear();
        for a in args {
            let ty = match *a {
                Operand::Reg(r) => {
                    if (r as usize) >= exe.phys_regs {
                        return Err(err(
                            C::OperandIndex,
                            Some(pos),
                            format!("operand r{r} outside the register file of {}", exe.phys_regs),
                        ));
                    }
                    if r == inst.dst {
                        return Err(err(
                            C::DstAliasing,
                            Some(pos),
                            format!(
                                "{} reads r{r} while also writing it; the engine reclaims the \
                                 destination before reading operands",
                                inst.op
                            ),
                        ));
                    }
                    match defined[r as usize] {
                        Some(ty) => ty,
                        None => {
                            return Err(err(
                                C::DefBeforeUse,
                                Some(pos),
                                format!("r{r} read by {} before any live write", inst.op),
                            ));
                        }
                    }
                }
                Operand::In(s) => {
                    let slot = exe.inputs.get(s as usize).ok_or_else(|| {
                        err(
                            C::OperandIndex,
                            Some(pos),
                            format!("input slot s{s} out of range ({} slots)", exe.inputs.len()),
                        )
                    })?;
                    if slot.pos >= pos {
                        return Err(err(
                            C::DefBeforeUse,
                            Some(pos),
                            format!(
                                "slot s{s} (`{}`) loads at #{}, after its use",
                                slot.name, slot.pos
                            ),
                        ));
                    }
                    slot.ty
                }
                Operand::Const(c) => exe
                    .consts
                    .get(c as usize)
                    .ok_or_else(|| {
                        err(
                            C::OperandIndex,
                            Some(pos),
                            format!("constant c{c} out of range ({} entries)", exe.consts.len()),
                        )
                    })
                    .map(|c| lanes_ty(&c.as_slice()))?,
            };
            operand_tys.push(ty);
        }

        // Every operand must have the result's lane count: the kernel is
        // lane-wise, so a run walks the same `n` lanes (the run's width,
        // whatever the declared one) of every external source and of its
        // result.
        for (k, ty) in operand_tys.iter().enumerate() {
            if ty.lanes != inst.ty.lanes {
                return Err(err(
                    C::SemSignature,
                    Some(pos),
                    format!(
                        "operand {k} has {} lanes, result type {} has {}",
                        ty.lanes, inst.ty, inst.ty.lanes
                    ),
                ));
            }
        }

        verify_kernel(exe, inst, args, &operand_tys, table)?;

        defined[inst.dst as usize] = if inst.dst_dead { None } else { Some(inst.ty) };
    }

    // The output location must be defined at the end of the program.
    match exe.output {
        OutLoc::Reg(r) => {
            if (r as usize) >= exe.phys_regs {
                return Err(err(
                    C::OperandIndex,
                    None,
                    format!("output r{r} outside the register file of {}", exe.phys_regs),
                ));
            }
            if defined[r as usize].is_none() {
                return Err(err(
                    C::DefBeforeUse,
                    None,
                    format!("output register r{r} holds no live value at the end of the program"),
                ));
            }
        }
        OutLoc::In(s) => {
            if (s as usize) >= exe.inputs.len() {
                return Err(err(
                    C::OperandIndex,
                    None,
                    format!("output slot s{s} out of range ({} slots)", exe.inputs.len()),
                ));
            }
        }
        OutLoc::Const(c) => {
            if (c as usize) >= exe.consts.len() {
                return Err(err(
                    C::OperandIndex,
                    None,
                    format!("output constant c{c} out of range ({} entries)", exe.consts.len()),
                ));
            }
        }
    }
    Ok(())
}

/// The per-kernel audit: a kernel carries the program instructions it
/// stands for (op, sem, type, position, register per step), and this
/// check re-proves everything the link relied on — so the compiled step
/// kernels, sinks over the same lane table as
/// [`fpir_isa::eval_sem_into`], run exactly those instructions.
fn verify_kernel(
    exe: &Executable,
    inst: &LInst,
    args: &[Operand],
    operand_tys: &[VectorType],
    table: &Target,
) -> Result<(), ArtifactError> {
    use ArtifactCheck as C;
    let pos = inst.pos as usize;
    let fail = |detail: String| err(C::FusedShape, Some(pos), detail);
    // Every span must lie inside its array, and a source span inside
    // both parallel arrays, before anything is read through it.
    let steps = exe.steps.get(inst.steps.range()).ok_or_else(|| {
        fail(format!(
            "steps {:?} outside the step array of {}",
            inst.steps.range(),
            exe.steps.len()
        ))
    })?;

    if steps.is_empty() || steps.len() > MAX_STEPS {
        return Err(fail(format!("kernel has {} steps (1..={MAX_STEPS} allowed)", steps.len())));
    }
    let n_args = operand_tys.len();
    if n_args > MAX_OPERANDS {
        return Err(fail(format!(
            "kernel reads {n_args} external operands ({MAX_OPERANDS} allowed)"
        )));
    }
    let mut arg_read = [false; MAX_OPERANDS];
    for (j, step) in steps.iter().enumerate() {
        // The semantics the table resolves the opcode to today must be
        // the semantics baked into the step at link time.
        match table.def(step.op) {
            Some(def) if def.sem == step.sem => {}
            Some(def) => {
                return Err(err(
                    C::SemTable,
                    Some(step.pos as usize),
                    format!(
                        "step {} linked as {:?} but the {} table says {:?}",
                        step.op, step.sem, exe.isa, def.sem
                    ),
                ));
            }
            None => {
                return Err(err(
                    C::SemTable,
                    Some(step.pos as usize),
                    format!("step {} is not in the {} table", step.op, exe.isa),
                ));
            }
        }
        let range = step.srcs.range();
        let (Some(srcs), Some(tys)) = (exe.srcs.get(range.clone()), exe.tys.get(range.clone()))
        else {
            return Err(fail(format!(
                "step {j} sources {range:?} outside the source arrays ({} sources, {} types)",
                exe.srcs.len(),
                exe.tys.len()
            )));
        };
        if step.ty.lanes != inst.ty.lanes {
            return Err(fail(format!(
                "step {j} has {} lanes, the kernel walks {}",
                step.ty.lanes, inst.ty.lanes
            )));
        }
        for (k, (&src, &ty)) in srcs.iter().zip(tys).enumerate() {
            match src {
                FSrc::Arg(a) => {
                    let a = a as usize;
                    if a >= n_args {
                        return Err(fail(format!(
                            "step {j} source {k} reads external operand {a} of {n_args}"
                        )));
                    }
                    arg_read[a] = true;
                    if operand_tys[a].elem != ty {
                        return Err(fail(format!(
                            "step {j} source {k} records type {ty} for operand {a} of type {}",
                            operand_tys[a].elem
                        )));
                    }
                }
                FSrc::Tmp(t) => {
                    let t = t as usize;
                    if t >= j {
                        return Err(fail(format!(
                            "step {j} source {k} reads temp {t}, defined at or after it"
                        )));
                    }
                    if steps[t].ty.elem != ty {
                        return Err(fail(format!(
                            "step {j} source {k} records type {ty} for temp {t} of type {}",
                            steps[t].ty.elem
                        )));
                    }
                }
            }
        }
        // A captured operand must be a pool constant: the compiled loop
        // holds its splat scalar and never reads the operand.
        if let Some(k) = step.captured {
            let reads_const = match srcs.get(k as usize) {
                Some(&FSrc::Arg(a)) => matches!(args[a as usize], Operand::Const(_)),
                _ => false,
            };
            if !reads_const {
                return Err(fail(format!(
                    "step {j} captures source {k}, which reads no pool constant"
                )));
            }
        }
        let operand = |src: &FSrc| match *src {
            FSrc::Arg(a) => operand_tys[a as usize],
            FSrc::Tmp(t) => steps[t as usize].ty,
        };
        fpir_isa::check_shape(step.sem, srcs.iter().map(operand), step.ty).map_err(|what| {
            err(C::SemSignature, Some(step.pos as usize), format!("{} (step {j}): {what}", step.op))
        })?;
        if j > 0 && step.pos <= steps[j - 1].pos {
            return Err(fail(format!(
                "step positions out of order: #{} after #{}",
                step.pos,
                steps[j - 1].pos
            )));
        }
    }
    let last = steps.last().expect("non-empty");
    if last.op != inst.op || last.ty != inst.ty || last.pos != inst.pos || last.reg != inst.reg {
        return Err(fail(format!(
            "the final step ({} {} #{}) is not the instruction's own root ({} {} #{})",
            last.op, last.ty, last.pos, inst.op, inst.ty, inst.pos
        )));
    }
    if let Some(a) = arg_read[..n_args].iter().position(|&r| !r) {
        return Err(fail(format!("external operand {a} is never read by any step")));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Span;
    use crate::fuse::ExecConfig;
    use crate::program::emit;
    use fpir::build;
    use fpir::types::{ScalarType as S, VectorType as V};
    use fpir::Isa;
    use fpir_isa::{legalize, target};

    fn linked(e: &fpir::RcExpr, isa: Isa) -> Executable {
        let t = target(isa);
        let p = emit(&legalize(e, t).unwrap(), t).unwrap();
        Executable::link_with(&p, t, &ExecConfig::REFERENCE).unwrap()
    }

    fn sample() -> Executable {
        let t = V::new(S::U8, 16);
        let e = build::saturating_cast(
            S::U8,
            build::widening_add(
                build::rounding_halving_add(build::var("a", t), build::var("b", t)),
                build::constant(3, t),
            ),
        );
        linked(&e, Isa::ArmNeon)
    }

    #[test]
    fn linked_workload_style_artifacts_verify_clean() {
        let t = V::new(S::U8, 16);
        let exprs = [
            build::rounding_halving_add(build::var("a", t), build::var("b", t)),
            build::saturating_cast(
                S::U8,
                build::widening_add(build::var("a", t), build::var("b", t)),
            ),
            build::var("a", t),
            build::constant(7, t),
        ];
        for e in &exprs {
            for isa in fpir::machine::ALL_ISAS {
                let exe = linked(e, isa);
                verify_executable(&exe).unwrap_or_else(|v| panic!("{isa}: {v}\n{exe}"));
            }
        }
    }

    // One hand-corrupted executable per artifact check, each flagged by
    // the check's stable name: the planted-defect suite for the verifier
    // itself.

    fn assert_flags(exe: &Executable, name: &str) {
        let e = verify_executable(exe).expect_err("corruption must be flagged");
        assert_eq!(e.check.name(), name, "{e}");
        // The rendered report names the check too.
        assert!(e.to_string().contains(name), "{e}");
    }

    #[test]
    fn corrupt_register_read_fails_def_before_use() {
        let mut exe = sample();
        // Point the first instruction's first register operand (if any)
        // at a register nothing has written yet; otherwise retarget an
        // input operand to a fresh register.
        let grow = exe.phys_regs as u16;
        exe.phys_regs += 1;
        let k = exe.code[0].args.start as usize;
        exe.operands[k] = Operand::Reg(grow);
        assert_flags(&exe, "def-before-use");
    }

    #[test]
    fn corrupt_dead_destination_fails_def_before_use() {
        let mut exe = sample();
        // Mark an intermediate destination dead: the engine recycles the
        // value immediately, so the later consumer reads a vacant slot.
        // Pick a write whose register is read again before being
        // rewritten, so the corruption is observable.
        let victim = (0..exe.code.len())
            .find(|&i| {
                let r = exe.code[i].dst;
                exe.code[i + 1..]
                    .iter()
                    .take_while(|j| j.dst != r)
                    .any(|j| exe.operands[j.args.range()].contains(&Operand::Reg(r)))
            })
            .expect("some intermediate value is consumed");
        exe.code[victim].dst_dead = true;
        assert_flags(&exe, "def-before-use");
    }

    #[test]
    fn corrupt_self_referential_destination_fails_dst_aliasing() {
        let mut exe = sample();
        let (pos, r) = exe
            .code
            .iter()
            .enumerate()
            .find_map(|(i, inst)| {
                exe.operands[inst.args.range()].iter().find_map(|a| match *a {
                    Operand::Reg(r) => Some((i, r)),
                    _ => None,
                })
            })
            .expect("some instruction reads a register");
        exe.code[pos].dst = r;
        assert_flags(&exe, "dst-aliasing");
    }

    #[test]
    fn corrupt_constant_index_fails_operand_index() {
        let mut exe = sample();
        let k = exe
            .code
            .iter()
            .flat_map(|i| i.args.range())
            .find(|&k| matches!(exe.operands[k], Operand::Const(_)))
            .expect("some instruction reads the pool");
        exe.operands[k] = Operand::Const(u16::MAX);
        assert_flags(&exe, "operand-index");
    }

    #[test]
    fn corrupt_slot_positions_fail_slot_order() {
        let mut exe = sample();
        assert!(exe.inputs.len() >= 2, "need two input slots");
        exe.inputs.swap(0, 1);
        // Swapping breaks first-load order but leaves indices valid.
        assert_flags(&exe, "slot-order");
    }

    #[test]
    fn corrupt_pool_entry_fails_const_pool() {
        let mut exe = sample();
        assert!(!exe.consts.is_empty(), "sample has a splat constant");
        let c = &mut exe.consts[0];
        let v = c.get(0);
        c.set(0, v.wrapping_add(1) & 0x7f);
        assert_flags(&exe, "const-pool");
    }

    /// Claim a step computes something other than what the table says
    /// its opcode means.
    fn corrupt_sem(exe: &mut Executable, step: usize) {
        let step = &mut exe.steps[step];
        step.sem = if step.sem == fpir_isa::MachSem::Select {
            fpir_isa::MachSem::SatCastTo
        } else {
            fpir_isa::MachSem::Select
        };
    }

    #[test]
    fn corrupt_semantics_fail_sem_table() {
        let mut exe = sample();
        let step = exe.code[0].steps.start as usize;
        corrupt_sem(&mut exe, step);
        assert_flags(&exe, "sem-table");
    }

    /// Give `step` one more source, a repeat of its first: the opcode and
    /// sem are untouched, so sem-table still matches, but the arity no
    /// longer does.
    fn add_source(exe: &mut Executable, step: usize) {
        let range = exe.steps[step].srcs.range();
        let first = (exe.srcs[range.start], exe.tys[range.start]);
        let srcs: Vec<_> = range.map(|k| (exe.srcs[k], exe.tys[k])).chain([first]).collect();
        let span = Span::push(&mut exe.srcs, srcs.iter().map(|s| s.0));
        Span::push(&mut exe.tys, srcs.iter().map(|s| s.1));
        exe.steps[step].srcs = span;
    }

    #[test]
    fn corrupt_operand_count_fails_sem_signature() {
        let mut exe = sample();
        let step = exe.code[0].steps.start as usize;
        add_source(&mut exe, step);
        assert_flags(&exe, "sem-signature");
    }

    #[test]
    fn plain_link_corrupt_widening_fails_sem_signature() {
        // A widening multiply-accumulate whose accumulator is recorded at
        // the operand's width: the link would have rejected it.
        let t = V::new(S::U8, 16);
        let e = build::add(
            build::var("acc", V::new(S::U16, 16)),
            build::widening_mul(build::var("a", t), build::var("b", t)),
        );
        let tgt = target(Isa::ArmNeon);
        let lowered = pitchfork::Pitchfork::new(Isa::ArmNeon).compile(&e).unwrap().lowered;
        let p = emit(&lowered, tgt).unwrap();
        let mut exe = Executable::link_with(&p, tgt, &ExecConfig::REFERENCE).unwrap();
        let step = exe
            .steps
            .iter()
            .position(|s| s.sem == fpir_isa::MachSem::WideningMulAcc)
            .expect("umlal is selected");
        let acc = exe.steps[step].srcs.start as usize;
        exe.tys[acc] = S::U8;
        let FSrc::Arg(a) = exe.srcs[acc] else { panic!("a plain step reads operands") };
        let k = exe.code.iter().find(|i| i.steps.start as usize == step).unwrap().args.start;
        match exe.operands[k as usize + a as usize] {
            Operand::In(s) => exe.inputs[s as usize].ty = t,
            other => panic!("the accumulator is an input, not {other:?}"),
        }
        assert_flags(&exe, "sem-signature");
    }

    #[test]
    fn corrupt_lane_count_fails_sem_signature() {
        let mut exe = sample();
        // Halve the result lane count of the first instruction; its
        // operands keep the full vector width.
        let ty = exe.code[0].ty;
        exe.code[0].ty = V::new(ty.elem, ty.lanes / 2);
        assert_flags(&exe, "sem-signature");
    }

    #[test]
    fn corrupt_captured_register_fails_fused_shape() {
        let mut exe = sample();
        // Claim a step's kernel captured an operand read from a register:
        // only a pool constant has a splat scalar to capture.
        let (step, k) = exe
            .code
            .iter()
            .find_map(|inst| {
                let step = inst.steps.start as usize;
                let srcs = &exe.srcs[exe.steps[step].srcs.range()];
                srcs.iter()
                    .position(|s| match *s {
                        FSrc::Arg(a) => {
                            matches!(
                                exe.operands[inst.args.start as usize + a as usize],
                                Operand::Reg(_)
                            )
                        }
                        FSrc::Tmp(_) => false,
                    })
                    .map(|k| (step, k))
            })
            .expect("some step reads a register");
        exe.steps[step].captured = Some(k as u8);
        assert_flags(&exe, "fused-shape");
    }

    #[test]
    fn corrupt_output_register_is_flagged() {
        let mut exe = sample();
        exe.output = OutLoc::Reg(u16::MAX);
        assert_flags(&exe, "operand-index");
    }

    // Fused-artifact fixtures: a fused sample must verify clean, and
    // hand-corrupting the step chain must be flagged by `fused-shape`
    // (or `sem-table` for a step whose opcode no longer means its sem,
    // and `sem-signature` for a step whose operands its sem rejects).

    fn fused_sample() -> Executable {
        let t = V::new(S::U8, 16);
        let e = build::saturating_cast(
            S::U8,
            build::widening_add(
                build::rounding_halving_add(build::var("a", t), build::var("b", t)),
                build::constant(3, t),
            ),
        );
        let tgt = target(Isa::ArmNeon);
        let p = emit(&legalize(&e, tgt).unwrap(), tgt).unwrap();
        let exe = Executable::link_with(&p, tgt, &ExecConfig::FAST).unwrap();
        assert!(exe.fused_count() >= 1, "the sample chain must fuse:\n{exe}");
        exe
    }

    /// The first fused instruction, and its steps.
    fn first_fused(exe: &Executable) -> (usize, std::ops::Range<usize>) {
        exe.code
            .iter()
            .enumerate()
            .find_map(|(i, inst)| (inst.steps.len() >= 2).then(|| (i, inst.steps.range())))
            .expect("a fused instruction")
    }

    #[test]
    fn fused_sample_verifies_clean() {
        let exe = fused_sample();
        verify_executable(&exe).unwrap_or_else(|v| panic!("{v}\n{exe}"));
    }

    #[test]
    fn corrupt_fused_temp_order_fails_fused_shape() {
        let mut exe = fused_sample();
        let (_, steps) = first_fused(&exe);
        // Point some step's temp reference at itself (a temp defined at
        // or after its use can never have been computed).
        let (j, k) = steps
            .enumerate()
            .find_map(|(j, s)| {
                let srcs = exe.steps[s].srcs.range();
                srcs.clone().find(|&k| matches!(exe.srcs[k], FSrc::Tmp(_))).map(|k| (j, k))
            })
            .expect("a step reads a temp");
        exe.srcs[k] = FSrc::Tmp(j as u16);
        assert_flags(&exe, "fused-shape");
    }

    #[test]
    fn corrupt_fused_step_sem_fails_sem_table() {
        let mut exe = fused_sample();
        let (_, steps) = first_fused(&exe);
        corrupt_sem(&mut exe, steps.start);
        assert_flags(&exe, "sem-table");
    }

    #[test]
    fn corrupt_fused_step_arity_fails_sem_signature() {
        let mut exe = fused_sample();
        let (_, steps) = first_fused(&exe);
        add_source(&mut exe, steps.start);
        assert_flags(&exe, "sem-signature");
    }

    #[test]
    fn corrupt_fused_root_mismatch_fails_fused_shape() {
        let mut exe = fused_sample();
        let (i, _) = first_fused(&exe);
        // Drop the final step: the kernel no longer ends in the
        // instruction's own root.
        exe.code[i].steps.len -= 1;
        assert_flags(&exe, "fused-shape");
    }

    #[test]
    fn corrupt_fused_operand_type_fails_fused_shape() {
        let mut exe = fused_sample();
        let (_, steps) = first_fused(&exe);
        // Mis-record an external operand's element type: the step's
        // claimed type must match the linked operand it reads.
        let k = steps
            .flat_map(|s| exe.steps[s].srcs.range())
            .find(|&k| matches!(exe.srcs[k], FSrc::Arg(_)))
            .expect("a step reads an external operand");
        exe.tys[k] = if exe.tys[k] == S::I64 { S::U8 } else { S::I64 };
        assert_flags(&exe, "fused-shape");
    }

    #[test]
    fn verifier_rejects_instructions_reordered_by_position() {
        let mut exe = sample();
        assert!(exe.code.len() >= 2);
        let p0 = exe.code[0].pos;
        exe.code[0].pos = exe.code[1].pos;
        exe.code[1].pos = p0;
        assert_flags(&exe, "slot-order");
    }
}
