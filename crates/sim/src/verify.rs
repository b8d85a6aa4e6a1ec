//! Static verification of linked [`Executable`]s — an independent audit
//! of what [`Executable::link`] produced, without running anything.
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
//!   are in range, including the output location;
//! * **`slot-order`** — input slots are in strictly increasing first-load
//!   program order and instruction positions strictly increase, so blame
//!   reports (`pos`, `reg`) point at real, ordered program points;
//! * **`const-pool`** — every pool entry is a genuine splat (all lanes
//!   equal), matching what linking is allowed to materialize;
//! * **`sem-table`** — each instruction's resolved [`MachSem`] agrees
//!   with what the ISA's table currently maps its opcode to;
//! * **`sem-signature`** — operand count matches the semantics' arity,
//!   every operand has the result's lane count, and the widening
//!   accumulator shapes hold (`WideningMulAcc` 2×, `DotAcc4` 4×), so
//!   [`fpir_isa::eval_sem_into`] cannot reject the instruction at run
//!   time;
//! * **`fused-shape`** — a fused superinstruction's audit trail holds
//!   together: each absorbed step's operand count matches its
//!   semantics' arity, temp references point at *earlier* steps,
//!   external-operand indices are in range with element types matching
//!   the recorded per-step types, baked immediates are canonical at
//!   their recorded type, every step has the kernel's lane count, the
//!   widening shapes hold per step, step positions strictly increase,
//!   every external operand is read, and the final step is the
//!   instruction's own op/type/position — so the compiled step kernels,
//!   built from the same lane table as [`fpir_isa::eval_sem_into`], run
//!   exactly the per-instruction dispatches they replaced. (Each step's
//!   opcode→semantics agreement is reported
//!   under `sem-table`, same as unfused instructions.)
//!
//! [`Executable::link`] runs this in debug builds on everything it
//! produces, [`crate::difftest`] runs it on every artifact it tests, and
//! `pitchforkd` audits every artifact entering its cache — so a linker
//! regression is caught at the artifact boundary, with a named check and
//! a program position, not as a scrambled image three layers up.

use crate::exec::{
    Executable, FSrc, FusedKernel, Kernel, LInst, Operand, OutLoc, MAX_OPERANDS, MAX_STEPS,
};
use fpir::types::VectorType;
use fpir_isa::{MachSem, Target};
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
        let lanes = c.lanes();
        if lanes.is_empty() || lanes.iter().any(|&x| x != lanes[0]) {
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
    for (i, s) in exe.inputs.iter().enumerate() {
        if exe.inputs[..i].iter().any(|t| t.name == s.name) {
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
    for inst in &exe.code {
        let pos = inst.pos as usize;

        if (inst.dst as usize) >= exe.phys_regs {
            return Err(err(
                C::OperandIndex,
                Some(pos),
                format!("destination r{} outside the register file of {}", inst.dst, exe.phys_regs),
            ));
        }
        let mut operand_tys = Vec::with_capacity(inst.args.len());
        for a in inst.args.iter() {
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
                    })?
                    .ty(),
            };
            operand_tys.push(ty);
        }

        // Every operand — of a plain instruction or a fused kernel —
        // must have the result's lane count: both engines walk exactly
        // `inst.ty.lanes` lanes of every external source.
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

        match &inst.kernel {
            Kernel::Op(sem) => {
                verify_op_shape(exe, inst, *sem, &operand_tys, table)?;
            }
            Kernel::Fused(f) => {
                verify_fused_shape(exe, inst, f, &operand_tys, table)?;
            }
        }

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

/// The table-agreement and shape checks for a plain (unfused)
/// instruction — everything [`fpir_isa::eval_sem_into`] would reject at
/// dispatch time, proven statically.
fn verify_op_shape(
    exe: &Executable,
    inst: &LInst,
    sem: MachSem,
    operand_tys: &[VectorType],
    table: &Target,
) -> Result<(), ArtifactError> {
    use ArtifactCheck as C;
    let pos = inst.pos as usize;

    // The semantics the table resolves the opcode to today must be the
    // semantics baked into the instruction at link time.
    match table.def(inst.op) {
        Some(def) if def.sem == sem => {}
        Some(def) => {
            return Err(err(
                C::SemTable,
                Some(pos),
                format!(
                    "{} linked as {:?} but the {} table says {:?}",
                    inst.op, sem, exe.isa, def.sem
                ),
            ));
        }
        None => {
            return Err(err(
                C::SemTable,
                Some(pos),
                format!("{} is not in the {} table", inst.op, exe.isa),
            ));
        }
    }

    if inst.args.len() != sem.arity() {
        return Err(err(
            C::SemSignature,
            Some(pos),
            format!("{sem:?} takes {} operands, instruction has {}", sem.arity(), inst.args.len()),
        ));
    }
    verify_widening_widths(
        sem,
        &[operand_tys[0].elem, operand_tys[1.min(operand_tys.len() - 1)].elem],
    )
    .map_err(|detail| err(C::SemSignature, Some(pos), detail))
}

/// The widening-accumulator width constraints shared by plain and fused
/// shape checks; `elems[0]`/`elems[1]` are the first two operand element
/// types.
fn verify_widening_widths(sem: MachSem, elems: &[fpir::types::ScalarType]) -> Result<(), String> {
    match sem {
        MachSem::WideningMulAcc => {
            let (aw, ow) = (elems[0].bits(), elems[1].bits());
            if aw != ow * 2 {
                return Err(format!(
                    "widening mul-acc accumulator is {aw}-bit over {ow}-bit operands"
                ));
            }
        }
        MachSem::DotAcc4 => {
            let (aw, ow) = (elems[0].bits(), elems[1].bits());
            if aw != ow * 4 {
                return Err(format!("dot-product accumulator is {aw}-bit over {ow}-bit operands"));
            }
        }
        _ => {}
    }
    Ok(())
}

/// The `fused-shape` audit: a fused superinstruction carries the
/// original chain (op, sem, type, position, register per step), and this
/// check re-proves everything the fuser relied on — so the compiled step
/// kernels, sinks over the same lane table as
/// [`fpir_isa::eval_sem_into`], run exactly the sequence of
/// per-instruction dispatches they replaced.
fn verify_fused_shape(
    exe: &Executable,
    inst: &LInst,
    f: &FusedKernel,
    operand_tys: &[VectorType],
    table: &Target,
) -> Result<(), ArtifactError> {
    use ArtifactCheck as C;
    let pos = inst.pos as usize;
    let fail = |detail: String| err(C::FusedShape, Some(pos), detail);

    if f.steps.is_empty() || f.steps.len() > MAX_STEPS {
        return Err(fail(format!(
            "fused kernel has {} steps (1..={MAX_STEPS} allowed)",
            f.steps.len()
        )));
    }
    if f.steps.len() < 2 {
        return Err(fail("a fused kernel must absorb at least two instructions".into()));
    }
    if inst.args.len() > MAX_OPERANDS {
        return Err(fail(format!(
            "fused kernel reads {} external operands ({MAX_OPERANDS} allowed)",
            inst.args.len()
        )));
    }
    let mut arg_read = vec![false; inst.args.len()];
    for (j, step) in f.steps.iter().enumerate() {
        // Step opcode→semantics agreement is the sem-table check, the
        // same audit unfused instructions get.
        match table.def(step.op) {
            Some(def) if def.sem == step.sem => {}
            Some(def) => {
                return Err(err(
                    C::SemTable,
                    Some(step.pos as usize),
                    format!(
                        "fused step {} linked as {:?} but the {} table says {:?}",
                        step.op, step.sem, exe.isa, def.sem
                    ),
                ));
            }
            None => {
                return Err(err(
                    C::SemTable,
                    Some(step.pos as usize),
                    format!("fused step {} is not in the {} table", step.op, exe.isa),
                ));
            }
        }
        if step.srcs.len() != step.sem.arity() {
            return Err(fail(format!(
                "step {j} ({:?}) takes {} operands, has {}",
                step.sem,
                step.sem.arity(),
                step.srcs.len()
            )));
        }
        if step.tys.len() != step.srcs.len() {
            return Err(fail(format!(
                "step {j} has {} recorded operand types for {} sources",
                step.tys.len(),
                step.srcs.len()
            )));
        }
        if step.ty.lanes != inst.ty.lanes {
            return Err(fail(format!(
                "step {j} has {} lanes, the kernel walks {}",
                step.ty.lanes, inst.ty.lanes
            )));
        }
        for (k, (&src, &ty)) in step.srcs.iter().zip(step.tys.iter()).enumerate() {
            match src {
                FSrc::Arg(a) => {
                    let a = a as usize;
                    if a >= inst.args.len() {
                        return Err(fail(format!(
                            "step {j} source {k} reads external operand {a} of {}",
                            inst.args.len()
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
                    if f.steps[t].ty.elem != ty {
                        return Err(fail(format!(
                            "step {j} source {k} records type {ty} for temp {t} of type {}",
                            f.steps[t].ty.elem
                        )));
                    }
                }
            }
        }
        verify_widening_widths(step.sem, &[step.tys[0], step.tys[1.min(step.tys.len() - 1)]])
            .map_err(|detail| fail(format!("step {j}: {detail}")))?;
        if j > 0 && step.pos <= f.steps[j - 1].pos {
            return Err(fail(format!(
                "step positions out of order: #{} after #{}",
                step.pos,
                f.steps[j - 1].pos
            )));
        }
    }
    let last = f.steps.last().expect("non-empty");
    if last.op != inst.op || last.ty != inst.ty || last.pos != inst.pos || last.reg != inst.reg {
        return Err(fail(format!(
            "the final step ({} {} #{}) is not the instruction's own root ({} {} #{})",
            last.op, last.ty, last.pos, inst.op, inst.ty, inst.pos
        )));
    }
    if let Some(a) = arg_read.iter().position(|&r| !r) {
        return Err(fail(format!("external operand {a} is never read by any step")));
    }

    // The execution schedule must complete every audited step exactly
    // once, in order, with each pass's sources derived verbatim from the
    // step(s) it covers. (The compiled closures themselves are derived
    // data pinned by tests in `fpir-isa`; this audits the wiring.)
    let mut completed_by = vec![None::<usize>; f.steps.len()];
    let mut prev_last = None::<u16>;
    for (p, pass) in f.passes.iter().enumerate() {
        let j = pass.last as usize;
        if j >= f.steps.len() {
            return Err(fail(format!("pass {p} completes step {j} of {}", f.steps.len())));
        }
        if prev_last.is_some_and(|prev| pass.last <= prev) {
            return Err(fail(format!("pass {p} completes step {j} out of order")));
        }
        prev_last = Some(pass.last);
        completed_by[j] = Some(p);
        match pass.absorbed {
            None => {
                if pass.srcs != f.steps[j].srcs {
                    return Err(fail(format!("pass {p} sources disagree with step {j}")));
                }
            }
            Some(t) => {
                let t = t as usize;
                if t >= j {
                    return Err(fail(format!(
                        "pass {p} absorbs step {t}, not before the step it completes ({j})"
                    )));
                }
                if completed_by[t].is_some() {
                    return Err(fail(format!("pass {p} absorbs step {t}, already completed")));
                }
                completed_by[t] = Some(p);
                // The absorbed step must be the consumer's operand at
                // exactly one position, and the pass's sources must be
                // the producer's followed by the consumer's others.
                let want: Vec<FSrc> = {
                    let mut dropped = false;
                    f.steps[t]
                        .srcs
                        .iter()
                        .copied()
                        .chain(f.steps[j].srcs.iter().copied().filter(|&s| {
                            let hit = !dropped && s == FSrc::Tmp(t as u16);
                            dropped |= hit;
                            !hit
                        }))
                        .collect()
                };
                if pass.srcs.as_ref() != want.as_slice() {
                    return Err(fail(format!(
                        "pass {p} sources disagree with steps {t}+{j} merged"
                    )));
                }
            }
        }
    }
    if let Some(j) = completed_by.iter().position(|c| c.is_none()) {
        return Err(fail(format!("step {j} is completed by no pass")));
    }
    // A pass may only read scratch rows that some earlier pass wrote:
    // absorbed steps never materialize theirs.
    for (p, pass) in f.passes.iter().enumerate() {
        for &src in pass.srcs.iter() {
            if let FSrc::Tmp(t) = src {
                let t = t as usize;
                let materialized = f.passes[..p].iter().any(|q| q.last as usize == t);
                if !materialized {
                    return Err(fail(format!("pass {p} reads temp {t}, which no pass wrote")));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Kernel, Operand, OutLoc};
    use crate::fuse::ExecConfig;
    use crate::program::emit;
    use fpir::build;
    use fpir::interp::Value;
    use fpir::types::{ScalarType as S, VectorType as V};
    use fpir::Isa;
    use fpir_isa::{legalize, target};

    fn linked(e: &fpir::RcExpr, isa: Isa) -> Executable {
        let t = target(isa);
        let p = emit(&legalize(e, t).unwrap(), t).unwrap();
        Executable::link(&p, t).unwrap()
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
        let inst = &mut exe.code[0];
        inst.args[0] = Operand::Reg(grow);
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
                    .any(|j| j.args.contains(&Operand::Reg(r)))
            })
            .expect("some intermediate value is consumed");
        exe.code[victim].dst_dead = true;
        assert_flags(&exe, "def-before-use");
    }

    #[test]
    fn corrupt_self_referential_destination_fails_dst_aliasing() {
        let mut exe = sample();
        let pos = exe
            .code
            .iter()
            .position(|i| i.args.iter().any(|a| matches!(a, Operand::Reg(_))))
            .expect("some instruction reads a register");
        let inst = &mut exe.code[pos];
        let Operand::Reg(r) = *inst.args.iter().find(|a| matches!(a, Operand::Reg(_))).unwrap()
        else {
            unreachable!()
        };
        inst.dst = r;
        assert_flags(&exe, "dst-aliasing");
    }

    #[test]
    fn corrupt_constant_index_fails_operand_index() {
        let mut exe = sample();
        let pos = exe
            .code
            .iter()
            .position(|i| i.args.iter().any(|a| matches!(a, Operand::Const(_))))
            .expect("some instruction reads the pool");
        let inst = &mut exe.code[pos];
        let k = inst.args.iter().position(|a| matches!(a, Operand::Const(_))).unwrap();
        inst.args[k] = Operand::Const(u16::MAX);
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
        let ty = exe.consts[0].ty();
        let mut lanes: Vec<i128> = exe.consts[0].lanes().to_vec();
        lanes[0] = lanes[0].wrapping_add(1) & 0x7f;
        exe.consts[0] = Value::new(ty, lanes);
        assert_flags(&exe, "const-pool");
    }

    #[test]
    fn corrupt_semantics_fail_sem_table() {
        let mut exe = sample();
        // Claim the first instruction computes something other than what
        // the table says its opcode means.
        let Kernel::Op(sem) = exe.code[0].kernel else { panic!("plain links are unfused") };
        exe.code[0].kernel = Kernel::Op(if sem == fpir_isa::MachSem::Select {
            fpir_isa::MachSem::SatCastTo
        } else {
            fpir_isa::MachSem::Select
        });
        assert_flags(&exe, "sem-table");
    }

    #[test]
    fn corrupt_operand_count_fails_sem_signature() {
        let mut exe = sample();
        let inst = &mut exe.code[0];
        // Duplicate the first operand: sem-table still matches (the
        // opcode and sem are untouched) but the arity no longer does.
        let mut args = inst.args.to_vec();
        args.push(args[0]);
        inst.args = args.into_boxed_slice();
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
    fn corrupt_output_register_is_flagged() {
        let mut exe = sample();
        exe.output = OutLoc::Reg(u16::MAX);
        assert_flags(&exe, "operand-index");
    }

    // Fused-artifact fixtures: a fused sample must verify clean, and
    // hand-corrupting the step chain must be flagged by `fused-shape`
    // (or `sem-table` for a step whose opcode no longer means its sem).

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

    fn first_fused(exe: &mut Executable) -> &mut crate::exec::FusedKernel {
        let inst = exe
            .code
            .iter_mut()
            .find(|i| matches!(i.kernel, Kernel::Fused(_)))
            .expect("a fused instruction");
        match &mut inst.kernel {
            Kernel::Fused(f) => f.as_mut(),
            Kernel::Op(_) => unreachable!(),
        }
    }

    #[test]
    fn fused_sample_verifies_clean() {
        let exe = fused_sample();
        verify_executable(&exe).unwrap_or_else(|v| panic!("{v}\n{exe}"));
    }

    #[test]
    fn corrupt_fused_temp_order_fails_fused_shape() {
        let mut exe = fused_sample();
        let f = first_fused(&mut exe);
        // Point some step's temp reference at itself (a temp defined at
        // or after its use can never have been computed).
        let j = f
            .steps
            .iter()
            .position(|s| s.srcs.iter().any(|x| matches!(x, crate::exec::FSrc::Tmp(_))))
            .expect("a step reads a temp");
        let k =
            f.steps[j].srcs.iter().position(|x| matches!(x, crate::exec::FSrc::Tmp(_))).unwrap();
        f.steps[j].srcs[k] = crate::exec::FSrc::Tmp(j as u16);
        assert_flags(&exe, "fused-shape");
    }

    #[test]
    fn corrupt_fused_step_sem_fails_sem_table() {
        let mut exe = fused_sample();
        let f = first_fused(&mut exe);
        f.steps[0].sem = if f.steps[0].sem == fpir_isa::MachSem::Select {
            fpir_isa::MachSem::SatCastTo
        } else {
            fpir_isa::MachSem::Select
        };
        assert_flags(&exe, "sem-table");
    }

    #[test]
    fn corrupt_fused_root_mismatch_fails_fused_shape() {
        let mut exe = fused_sample();
        let f = first_fused(&mut exe);
        // Drop the final step: the kernel no longer ends in the
        // instruction's own root.
        let steps = f.steps.to_vec();
        f.steps = steps[..steps.len() - 1].to_vec().into_boxed_slice();
        assert_flags(&exe, "fused-shape");
    }

    #[test]
    fn corrupt_fused_operand_type_fails_fused_shape() {
        let mut exe = fused_sample();
        let f = first_fused(&mut exe);
        // Mis-record an external operand's element type: the step's
        // claimed type must match the linked operand it reads.
        let (j, k) = f
            .steps
            .iter()
            .enumerate()
            .find_map(|(j, s)| {
                s.srcs.iter().position(|x| matches!(x, crate::exec::FSrc::Arg(_))).map(|k| (j, k))
            })
            .expect("a step reads an external operand");
        let old = f.steps[j].tys[k];
        f.steps[j].tys[k] = if old == S::I64 { S::U8 } else { S::I64 };
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
