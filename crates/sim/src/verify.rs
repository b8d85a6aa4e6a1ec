//! Static verification of linked [`Executable`]s — an independent audit
//! of what [`Executable::link_with`] produced, without running anything.
//!
//! The linked engine trades the reference VM's per-step checks for raw
//! speed: sources are raw row, slot and pool indices, dispatch is direct,
//! and the hot loop indexes the row file on invariants the linker is
//! supposed to have established. A linker bug therefore shows up as a
//! panic deep in the hot loop (or, worse, as silently wrong lanes when a
//! stale row is read). The verifier walks the tape once, in order, and
//! re-derives those invariants from the artifact alone:
//!
//! * **`def-before-use`** — every register row a step reads holds a live
//!   value of the type it is read at (the register's last write was at
//!   that type), every input-slot read comes after the slot's load
//!   position, and the output location is defined at the end;
//! * **`dst-aliasing`** — no step that writes a register reads that
//!   register (the engine takes the destination row out of the file
//!   while the step runs);
//! * **`operand-index`** — register rows, input slots and pool constants
//!   named by a source, a destination or the output are in range;
//! * **`slot-order`** — input slots are in strictly increasing first-load
//!   program order and the positions of the register-writing steps
//!   strictly increase, so blame reports (`pos`, `reg`) point at real,
//!   ordered program points;
//! * **`sem-table`** — each step's resolved [`fpir_isa::MachSem`] agrees
//!   with what the ISA's table currently maps its opcode to;
//! * **`sem-signature`** — each step's operands pass
//!   [`fpir_isa::check_shape`]: one per the semantics' arity, all at the
//!   step's lane count, and the widening accumulator shapes hold
//!   (`WideningMulAcc` 2×, `DotAcc4` 4×) — the rule the linker applies to
//!   every instruction, so no compiled step kernel sees operands its
//!   semantics reject;
//! * **`fused-shape`** — the kernels on the tape hold together: each step
//!   writes either the temp row of its index in its kernel (below
//!   `MAX_STEPS`) or a register row, which ends the kernel, and the tape
//!   ends with a register write; a temp source reads a row an earlier
//!   step of the *same* kernel wrote (temp definedness resets at every
//!   kernel boundary); every source records the element type of what it
//!   reads; step and source spans lie inside the executable's flat
//!   arrays; step positions strictly increase within a kernel; and a
//!   step's captured operand is a source that reads a pool constant — so
//!   the compiled step kernels, built from the same lane table as
//!   [`fpir_isa::eval_sem_into`], run exactly the program instructions
//!   they stand for.
//!
//! The linker runs this in debug builds on everything it produces, in
//! both configurations, [`crate::difftest`] runs it
//! on every artifact it tests, and `pitchforkd` audits every artifact
//! entering its cache in debug builds — so a linker regression is caught
//! at the artifact boundary, with a named check and a program position,
//! not as a scrambled image three layers up.

use crate::exec::{src_name, Executable, FSrc, MAX_STEPS};
use fpir::types::{ScalarType, VectorType};
use std::collections::HashSet;
use std::fmt;

/// Which artifact invariant a violation broke. [`ArtifactCheck::name`]
/// is the stable identifier fixtures and reports key on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactCheck {
    /// A row read before it holds a live value of its type, or an input
    /// slot read before it is loaded.
    DefBeforeUse,
    /// A step reads the register it writes.
    DstAliasing,
    /// A register, input-slot, or constant-pool index out of range.
    OperandIndex,
    /// Input slots or kernel positions out of program order.
    SlotOrder,
    /// A step's semantics disagree with the ISA table.
    SemTable,
    /// Operand shape the semantics would reject at run time.
    SemSignature,
    /// A kernel on the tape whose steps are malformed.
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

    // Slot/blame order: inputs in strictly increasing first-load
    // position, no duplicate names, kernels in strictly increasing
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
    let mut roots = exe.steps.iter().filter(|s| s.dst_reg().is_some()).map(|s| s.pos);
    if let Some(mut last) = roots.next() {
        for pos in roots {
            if pos <= last {
                return Err(err(
                    C::SlotOrder,
                    Some(pos as usize),
                    format!("kernel positions out of order: #{pos} after #{last}"),
                ));
            }
            last = pos;
        }
    }

    // One pass over the tape, simulating definedness in order. `regs[r]`
    // is the type of register `r`'s live value (`None` before its first
    // write), and `temps[t]` the type of temp row `t`, written by step
    // `t` of the current kernel: it empties at each kernel boundary, and
    // its length is the next step's index in its kernel.
    let table = fpir_isa::target(exe.isa);
    let mut regs = vec![None; exe.phys_regs];
    let mut temps: Vec<VectorType> = Vec::with_capacity(MAX_STEPS);
    let mut operand_tys = Vec::with_capacity(fpir_isa::MAX_ARITY);
    for (i, step) in exe.steps.iter().enumerate() {
        let pos = step.pos as usize;
        let fail = |detail: String| err(C::FusedShape, Some(pos), detail);
        // The semantics the table resolves the opcode to today must be
        // the semantics baked into the step at link time.
        match table.def(step.op) {
            Some(def) if def.sem == step.sem => {}
            Some(def) => {
                return Err(err(
                    C::SemTable,
                    Some(pos),
                    format!(
                        "step {} linked as {:?} but the {} table says {:?}",
                        step.op, step.sem, exe.isa, def.sem
                    ),
                ));
            }
            None => {
                return Err(err(
                    C::SemTable,
                    Some(pos),
                    format!("step {} is not in the {} table", step.op, exe.isa),
                ));
            }
        }
        // A source span must lie inside both parallel arrays before
        // anything is read through it.
        let range = step.srcs.range();
        let (Some(srcs), Some(tys)) = (exe.srcs.get(range.clone()), exe.tys.get(range.clone()))
        else {
            return Err(fail(format!(
                "step {i} sources {range:?} outside the source arrays ({} sources, {} types)",
                exe.srcs.len(),
                exe.tys.len()
            )));
        };
        let j = temps.len();
        match step.dst_reg() {
            Some(r) if r >= exe.phys_regs => {
                return Err(err(
                    C::OperandIndex,
                    Some(pos),
                    format!("step {i} writes r{r} outside the register file of {}", exe.phys_regs),
                ));
            }
            _ if j >= MAX_STEPS => {
                return Err(fail(format!("step {i} runs its kernel past {MAX_STEPS} steps")));
            }
            None if step.dst as usize != j => {
                return Err(fail(format!(
                    "step {i} writes temp row {}, not row {j} of its place in its kernel",
                    step.dst
                )));
            }
            _ => {}
        }
        operand_tys.clear();
        for (k, (&src, &elem)) in srcs.iter().zip(tys).enumerate() {
            operand_tys.push(source_ty(exe, src, elem, &regs, &temps, Some(pos))?);
            if src.reg().is_some() && src.reg() == step.dst_reg() {
                return Err(err(
                    C::DstAliasing,
                    Some(pos),
                    format!(
                        "{} (step {i}) source {k} reads {} while also writing it; the engine takes \
                         the destination row out while the step runs",
                        step.op,
                        src_name(src)
                    ),
                ));
            }
        }
        // A captured operand must be a pool constant: the compiled loop
        // holds its splat scalar and never reads the source.
        if let Some(k) = step.captured {
            if !matches!(srcs.get(k as usize), Some(FSrc::Const(_))) {
                return Err(fail(format!(
                    "step {i} captures source {k}, which reads no pool constant"
                )));
            }
        }
        fpir_isa::check_shape(step.sem, operand_tys.iter().copied(), step.ty).map_err(|what| {
            err(C::SemSignature, Some(pos), format!("{} (step {i}): {what}", step.op))
        })?;
        if j > 0 && step.pos <= exe.steps[i - 1].pos {
            return Err(fail(format!(
                "step positions out of order in a kernel: #{} after #{}",
                step.pos,
                exe.steps[i - 1].pos
            )));
        }
        match step.dst_reg() {
            Some(r) => {
                regs[r] = Some(step.ty);
                temps.clear();
            }
            None => temps.push(step.ty),
        }
    }
    if !temps.is_empty() {
        return Err(err(
            C::FusedShape,
            None,
            format!(
                "the tape ends inside a kernel: its last {} steps write no register",
                temps.len()
            ),
        ));
    }
    // The output location must be defined at the end of the program.
    source_ty(exe, exe.output, exe.out_elem, &regs, &[], None).map(|_| ())
}

/// The type `src` holds when a step at `pos` (the output, when `None`)
/// reads it at `elem`: in range (`operand-index`), defined
/// (`def-before-use`, against the register types `regs` and the current
/// kernel's `temps`), and read at its own element type (`fused-shape`).
fn source_ty(
    exe: &Executable,
    src: FSrc,
    elem: ScalarType,
    regs: &[Option<VectorType>],
    temps: &[VectorType],
    pos: Option<usize>,
) -> Result<VectorType, ArtifactError> {
    use ArtifactCheck as C;
    let fail = |check, detail| Err(err(check, pos, detail));
    let ty = match (src, src.reg()) {
        (_, Some(r)) => match regs.get(r) {
            None => {
                return fail(
                    C::OperandIndex,
                    format!("r{r} outside the register file of {}", exe.phys_regs),
                )
            }
            Some(None) => return fail(C::DefBeforeUse, format!("r{r} read before any write")),
            Some(&Some(ty)) if ty.elem != elem => {
                return fail(C::DefBeforeUse, format!("r{r} read at {elem} holds a {ty} value"))
            }
            Some(&Some(ty)) => ty,
        },
        (FSrc::In(s), _) => match exe.inputs.get(s as usize) {
            None => {
                return fail(
                    C::OperandIndex,
                    format!("input slot s{s} out of range ({} slots)", exe.inputs.len()),
                )
            }
            Some(slot) if pos.is_some_and(|p| slot.pos >= p) => {
                return fail(
                    C::DefBeforeUse,
                    format!("slot s{s} (`{}`) loads at #{}, after its use", slot.name, slot.pos),
                )
            }
            Some(slot) => slot.ty,
        },
        (FSrc::Const(c), _) => match exe.consts.get(c as usize) {
            None => {
                return fail(
                    C::OperandIndex,
                    format!("constant c{c} out of range ({} entries)", exe.consts.len()),
                )
            }
            Some(&(ty, _)) => ty,
        },
        (FSrc::Row(t), None) => match temps.get(t as usize) {
            None => {
                return fail(
                    C::FusedShape,
                    format!("temp row {t} read before an earlier step of its kernel writes it"),
                )
            }
            Some(&ty) => ty,
        },
    };
    if ty.elem != elem {
        return fail(
            C::FusedShape,
            format!("a source records type {elem} for {} of type {ty}", src_name(src)),
        );
    }
    Ok(ty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Span;
    use crate::fuse::{reg_row, ExecConfig};
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

    /// The first source reading a register, as (step, source index).
    fn first_register_read(exe: &Executable) -> (usize, usize) {
        (0..exe.srcs.len())
            .find(|&k| exe.srcs[k].reg().is_some())
            .map(|k| (exe.steps.iter().position(|s| s.srcs.range().contains(&k)).unwrap(), k))
            .expect("some step reads a register")
    }

    #[test]
    fn corrupt_register_read_fails_def_before_use() {
        let mut exe = sample();
        // Point the first step's first source at a register nothing has
        // written yet.
        let grow = exe.phys_regs as u16;
        exe.phys_regs += 1;
        let k = exe.steps[0].srcs.start as usize;
        exe.srcs[k] = FSrc::Row(reg_row(grow));
        assert_flags(&exe, "def-before-use");
    }

    #[test]
    fn corrupt_dead_destination_fails_def_before_use() {
        let mut exe = sample();
        // Send a register's first write to a fresh register: its value is
        // dead where it lands, and the later consumer reads a register
        // nothing wrote.
        let (_, k) = first_register_read(&exe);
        let r = exe.srcs[k];
        let victim = exe.steps.iter().position(|s| FSrc::Row(s.dst) == r).unwrap();
        exe.steps[victim].dst = reg_row(exe.phys_regs as u16);
        exe.phys_regs += 1;
        assert_flags(&exe, "def-before-use");
    }

    #[test]
    fn corrupt_self_referential_destination_fails_dst_aliasing() {
        let mut exe = sample();
        let (step, k) = first_register_read(&exe);
        exe.steps[step].dst = match exe.srcs[k] {
            FSrc::Row(r) => r,
            other => panic!("not a register: {other:?}"),
        };
        assert_flags(&exe, "dst-aliasing");
    }

    #[test]
    fn corrupt_constant_index_fails_operand_index() {
        let mut exe = sample();
        let k = exe.srcs.iter().position(|s| matches!(s, FSrc::Const(_))).expect("a pool read");
        exe.srcs[k] = FSrc::Const(u16::MAX);
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
        corrupt_sem(&mut exe, 0);
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
        add_source(&mut exe, 0);
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
        match exe.srcs[acc] {
            FSrc::In(s) => exe.inputs[s as usize].ty = t,
            other => panic!("the accumulator is an input, not {other:?}"),
        }
        assert_flags(&exe, "sem-signature");
    }

    #[test]
    fn corrupt_lane_count_fails_sem_signature() {
        let mut exe = sample();
        // Halve the result lane count of the first step; its operands
        // keep the full vector width.
        let ty = exe.steps[0].ty;
        exe.steps[0].ty = V::new(ty.elem, ty.lanes / 2);
        assert_flags(&exe, "sem-signature");
    }

    #[test]
    fn corrupt_captured_register_fails_fused_shape() {
        let mut exe = sample();
        // Claim a step's kernel captured an operand read from a register:
        // only a pool constant has a splat scalar to capture.
        let (step, k) = first_register_read(&exe);
        exe.steps[step].captured = Some((k - exe.steps[step].srcs.start as usize) as u8);
        assert_flags(&exe, "fused-shape");
    }

    #[test]
    fn corrupt_output_register_is_flagged() {
        let mut exe = sample();
        exe.output = FSrc::Row(reg_row(u16::MAX));
        assert_flags(&exe, "operand-index");
    }

    // Fused-artifact fixtures: a fused sample must verify clean, and
    // hand-corrupting a kernel's steps must be flagged by `fused-shape`
    // (or `sem-table` for a step whose opcode no longer means its sem,
    // and `sem-signature` for a step whose operands its sem rejects).

    fn fused(e: &fpir::RcExpr) -> Executable {
        let tgt = target(Isa::ArmNeon);
        let p = emit(&legalize(e, tgt).unwrap(), tgt).unwrap();
        let exe = Executable::link_with(&p, tgt, &ExecConfig::FAST).unwrap();
        assert!(exe.fused_count() >= 1, "the sample chain must fuse:\n{exe}");
        exe
    }

    fn fused_sample() -> Executable {
        let t = V::new(S::U8, 16);
        fused(&build::saturating_cast(
            S::U8,
            build::widening_add(
                build::rounding_halving_add(build::var("a", t), build::var("b", t)),
                build::constant(3, t),
            ),
        ))
    }

    /// The steps of the first fused kernel.
    fn first_fused(exe: &Executable) -> std::ops::Range<usize> {
        exe.kernels().find(|k| k.len() >= 2).expect("a fused kernel")
    }

    #[test]
    fn fused_sample_verifies_clean() {
        let exe = fused_sample();
        verify_executable(&exe).unwrap_or_else(|v| panic!("{v}\n{exe}"));
    }

    #[test]
    fn corrupt_fused_temp_order_fails_fused_shape() {
        let mut exe = fused_sample();
        let steps = first_fused(&exe);
        // Point some step's temp read at the row it writes itself (a temp
        // written at or after its use can never have been computed).
        let (j, k) = steps
            .clone()
            .find_map(|s| {
                let k = exe.steps[s].srcs.range().find(|&k| exe.srcs[k] == FSrc::Row(0))?;
                Some((s - steps.start, k))
            })
            .expect("a step reads a temp");
        exe.srcs[k] = FSrc::Row(j as u32);
        assert_flags(&exe, "fused-shape");
    }

    /// A temp row holds its value only inside its kernel: a step that
    /// reads a temp row an earlier kernel wrote, at the type it was
    /// written, is flagged. A chain of 35 adds fuses into a kernel of 32
    /// steps and one of 3.
    #[test]
    fn corrupt_temp_read_across_kernels_fails_fused_shape() {
        let t = V::new(S::U8, 16);
        let mut e = build::add(build::var("a", t), build::var("b", t));
        for _ in 0..34 {
            e = build::add(e, build::var("b", t));
        }
        let mut exe = fused(&e);
        let kernels: Vec<_> = exe.kernels().collect();
        assert_eq!(kernels.iter().map(|k| k.len()).collect::<Vec<_>>(), [MAX_STEPS, 3], "{exe}");
        verify_executable(&exe).unwrap_or_else(|v| panic!("{v}\n{exe}"));
        // The second kernel's first step reads the first kernel's result
        // from its register; read temp row 5 instead, which the first
        // kernel wrote at the same type.
        let first = kernels[1].start;
        let k = exe.steps[first].srcs.range().find(|&k| exe.srcs[k].reg().is_some()).unwrap();
        assert_eq!(exe.steps[kernels[0].start + 5].ty.elem, exe.tys[k]);
        exe.srcs[k] = FSrc::Row(5);
        assert_flags(&exe, "fused-shape");
    }

    #[test]
    fn corrupt_fused_step_sem_fails_sem_table() {
        let mut exe = fused_sample();
        let steps = first_fused(&exe);
        corrupt_sem(&mut exe, steps.start);
        assert_flags(&exe, "sem-table");
    }

    #[test]
    fn corrupt_fused_step_arity_fails_sem_signature() {
        let mut exe = fused_sample();
        let steps = first_fused(&exe);
        add_source(&mut exe, steps.start);
        assert_flags(&exe, "sem-signature");
    }

    #[test]
    fn corrupt_fused_root_mismatch_fails_fused_shape() {
        let mut exe = fused_sample();
        let steps = first_fused(&exe);
        assert_eq!(steps.end, exe.steps.len(), "the sample is one kernel:\n{exe}");
        // Drop the kernel's final step: the tape ends inside the kernel,
        // which no longer writes its register.
        exe.steps.pop();
        assert_flags(&exe, "fused-shape");
    }

    #[test]
    fn corrupt_fused_operand_type_fails_fused_shape() {
        let mut exe = fused_sample();
        let steps = first_fused(&exe);
        // Mis-record an input's or a constant's element type: the step's
        // claimed type must match what it reads.
        let k = steps
            .flat_map(|s| exe.steps[s].srcs.range())
            .find(|&k| matches!(exe.srcs[k], FSrc::In(_) | FSrc::Const(_)))
            .expect("a step reads an input or a constant");
        exe.tys[k] = if exe.tys[k] == S::I64 { S::U8 } else { S::I64 };
        assert_flags(&exe, "fused-shape");
    }

    #[test]
    fn verifier_rejects_instructions_reordered_by_position() {
        let mut exe = sample();
        assert!(exe.steps.len() >= 2);
        let p0 = exe.steps[0].pos;
        exe.steps[0].pos = exe.steps[1].pos;
        exe.steps[1].pos = p0;
        assert_flags(&exe, "slot-order");
    }
}
