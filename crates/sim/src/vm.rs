//! The vector virtual machine.
//!
//! Executes linear machine programs on concrete inputs through the
//! instruction tables' semantics. This is the stand-in for running on an
//! M1 / Xeon or Qualcomm's cycle-accurate Hexagon simulator: correctness
//! comes from [`execute`] agreeing with the reference interpreter
//! (see [`crate::difftest`]), and relative performance from
//! [`crate::program::cycle_cost`].

use crate::program::{PKind, Program, Reg};
use fpir::interp::{Env, Value};
use fpir::types::VectorType;
use fpir::{Isa, MachOp};
use fpir_isa::{eval_sem, Target};
use std::fmt;

/// Execution failure. Every variant that concerns one instruction carries
/// the instruction's position in the program (`pos`, 0-based) and its
/// destination register (`reg`), so a failing run can be pinned to a line
/// of [`Program::render`] output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The program was compiled for a different ISA than the target (or
    /// executable) it was run against.
    IsaMismatch {
        /// ISA the program was compiled for.
        program: Isa,
        /// ISA it was executed on.
        target: Isa,
    },
    /// A `Load` instruction's input name had no binding.
    UnboundInput {
        /// The missing input name.
        name: String,
        /// Position of the load in the program.
        pos: usize,
        /// Destination register of the load.
        reg: Reg,
    },
    /// A binding's type differed from the load's declared type.
    InputTypeMismatch {
        /// Input name.
        name: String,
        /// Position of the load in the program.
        pos: usize,
        /// Destination register of the load.
        reg: Reg,
        /// Type the program loads the input as.
        declared: VectorType,
        /// Type of the value actually bound.
        bound: VectorType,
    },
    /// An opcode not present in the target's instruction table.
    UnknownOp {
        /// The unknown opcode.
        op: MachOp,
        /// Position of the instruction.
        pos: usize,
        /// Destination register.
        reg: Reg,
    },
    /// The instruction's semantics rejected its operands.
    Sem {
        /// The opcode that failed.
        op: MachOp,
        /// Position of the instruction.
        pos: usize,
        /// Destination register.
        reg: Reg,
        /// The semantic error.
        what: String,
    },
    /// More values were bound positionally than the executable has input
    /// slots ([`crate::exec::Executable::run_lanes`]).
    ExtraSlots {
        /// How many values were bound.
        given: usize,
        /// How many input slots the executable has.
        inputs: usize,
    },
    /// A slot bound to [`crate::exec::Executable::run_lanes`] holds a
    /// lane count the run cannot take.
    RunLanes {
        /// Input name.
        name: String,
        /// How many lanes the slot holds.
        lanes: usize,
        /// The first slot's lane count, when this slot's differs from
        /// it; `None` when the run's count is outside `1..=`
        /// [`crate::exec::RUN_LANES`].
        run: Option<usize>,
    },
    /// Linking needs more entries in one index space than a linked
    /// operand's 16-bit index can address.
    IndexOverflow {
        /// The index space: `"input slots"`, `"pool constants"` or
        /// `"physical registers"`.
        space: &'static str,
        /// How many entries the space can hold.
        limit: usize,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "execution failed: ")?;
        match self {
            ExecError::IsaMismatch { program, target } => {
                write!(f, "program is for {program}, not {target}")
            }
            ExecError::UnboundInput { name, pos, reg } => {
                write!(f, "unbound input `{name}` (load at #{pos} into v{reg})")
            }
            ExecError::InputTypeMismatch { name, pos, reg, declared, bound } => {
                write!(
                    f,
                    "input `{name}` bound as {bound} but loaded as {declared} \
                     (load at #{pos} into v{reg})"
                )
            }
            ExecError::UnknownOp { op, pos, reg } => {
                write!(f, "unknown opcode {op} (at #{pos} into v{reg})")
            }
            ExecError::Sem { op, pos, reg, what } => {
                write!(f, "{op} at #{pos} into v{reg}: {what}")
            }
            ExecError::ExtraSlots { given, inputs } => {
                write!(f, "{given} values bound to an executable with {inputs} input slots")
            }
            ExecError::RunLanes { name, lanes, run: Some(run) } => {
                write!(f, "input `{name}` bound with {lanes} lanes, the first input with {run}")
            }
            ExecError::RunLanes { name, lanes, run: None } => {
                write!(
                    f,
                    "input `{name}` bound with {lanes} lanes; a run takes 1 to {}",
                    crate::exec::RUN_LANES
                )
            }
            ExecError::IndexOverflow { space, limit } => {
                write!(f, "the link needs more than {limit} {space}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Run a program on bound inputs, returning the output vector.
///
/// This is the REFERENCE execution engine: a direct, tree-of-clones
/// interpretation of the program against the instruction tables. The
/// linked engine ([`crate::exec::Executable`]) is differentially gated
/// against it.
///
/// # Errors
///
/// Fails on unbound inputs, type-mismatched bindings, or instructions
/// whose operands violate their semantics.
pub fn execute(p: &Program, env: &Env, target: &Target) -> Result<Value, ExecError> {
    if p.isa != target.isa {
        return Err(ExecError::IsaMismatch { program: p.isa, target: target.isa });
    }
    let mut regs: Vec<Value> = Vec::with_capacity(p.insts().len());
    for (pos, inst) in p.insts().iter().enumerate() {
        let value = match &inst.kind {
            PKind::Load { name } => {
                let v = env.get(name).ok_or_else(|| ExecError::UnboundInput {
                    name: name.clone(),
                    pos,
                    reg: inst.dst,
                })?;
                if v.ty() != inst.ty {
                    return Err(ExecError::InputTypeMismatch {
                        name: name.clone(),
                        pos,
                        reg: inst.dst,
                        declared: inst.ty,
                        bound: v.ty(),
                    });
                }
                v.clone()
            }
            PKind::Splat { value } => Value::splat(*value, inst.ty),
            PKind::Op { op, args } => {
                let def =
                    target.def(*op).ok_or(ExecError::UnknownOp { op: *op, pos, reg: inst.dst })?;
                let operands: Vec<Value> = args.iter().map(|&r| regs[r].clone()).collect();
                eval_sem(def.sem, &operands, inst.ty).map_err(|what| ExecError::Sem {
                    op: *op,
                    pos,
                    reg: inst.dst,
                    what,
                })?
            }
        };
        regs.push(value);
    }
    Ok(regs[p.output()].clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::emit;
    use fpir::build;
    use fpir::types::{ScalarType as S, VectorType as V};
    use fpir::Isa;
    use fpir_isa::{legalize, target};

    #[test]
    fn executes_a_lowered_average() {
        let t = V::new(S::U8, 4);
        let e = build::rounding_halving_add(build::var("a", t), build::var("b", t));
        let tgt = target(Isa::HexagonHvx);
        let p = emit(&legalize(&e, tgt).unwrap(), tgt).unwrap();
        let env = Env::new()
            .bind("a", Value::new(t, vec![3, 255, 0, 10]))
            .bind("b", Value::new(t, vec![4, 255, 1, 20]));
        let out = execute(&p, &env, tgt).unwrap();
        assert_eq!(out.lanes(), &[4, 255, 1, 15]);
    }

    #[test]
    fn unbound_input_fails() {
        let t = V::new(S::U8, 4);
        let e = build::add(build::var("a", t), build::var("b", t));
        let tgt = target(Isa::ArmNeon);
        let p = emit(&legalize(&e, tgt).unwrap(), tgt).unwrap();
        let env = Env::new().bind("a", Value::splat(1, t));
        assert!(execute(&p, &env, tgt).is_err());
    }

    #[test]
    fn mistyped_input_fails() {
        let t = V::new(S::U8, 4);
        let e = build::add(build::var("a", t), build::var("b", t));
        let tgt = target(Isa::ArmNeon);
        let p = emit(&legalize(&e, tgt).unwrap(), tgt).unwrap();
        let env =
            Env::new().bind("a", Value::splat(1, t)).bind("b", Value::splat(1, V::new(S::U16, 4)));
        assert!(execute(&p, &env, tgt).is_err());
    }
}
