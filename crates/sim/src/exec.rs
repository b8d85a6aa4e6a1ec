//! The linked execution engine: compile a [`Program`] once into an
//! [`Executable`], run it many times.
//!
//! [`crate::vm::execute`] is the REFERENCE engine: per step it looks the
//! opcode up in the [`Target`] table, resolves input names through a
//! string-keyed environment, materializes splat constants, and clones
//! every operand `Value` out of the register vector. That is faithful and
//! simple, but an end-to-end experiment executes the same program tens of
//! thousands of times (once per vector strip of an image), repaying the
//! same resolution work on every invocation.
//!
//! Linking performs all of it once:
//!
//! * **input slots** — distinct `Load` names become dense slot indices;
//!   an invocation binds a slice of values positionally instead of
//!   hashing strings (and re-checks only the types, O(inputs));
//! * **direct dispatch** — each instruction carries its [`MachSem`]
//!   resolved from the table at link time; the hot loop never touches the
//!   [`Target`] again;
//! * **shared constants** — splats are materialized once into a constant
//!   pool owned by the executable and shared by every invocation (the
//!   cycle model already treats them as loop-invariant and free);
//! * **liveness + register recycling** — a linear-scan over last uses
//!   maps virtual registers onto a small physical register file. A dead
//!   register's lane buffer is reclaimed and refilled by a later
//!   instruction ([`fpir_isa::eval_sem_into`] writes into a recycled
//!   buffer), so the per-instruction loop performs **zero heap
//!   allocation** in steady state — operands are read by reference, and
//!   the result is taken out of the register file by move, never cloned.
//!
//! The linked engine is differentially gated against the reference
//! engine everywhere [`crate::difftest`] runs: on every environment the
//! two must return the same `Result` — same output value, or the same
//! [`ExecError`].

use crate::program::{PKind, Program, Reg};
use crate::vm::ExecError;
use fpir::interp::{Env, Value};
use fpir::types::{ScalarType, VectorType};
use fpir::{Isa, MachOp};
use fpir_isa::{eval_sem_into, MachSem, Target};
use std::fmt;
use std::fmt::Write as _;

/// The widest instruction in any table is `DotAcc4` (9 operands); the
/// operand staging array is stack-allocated at this fixed width. Fused
/// superinstructions dedup their external operands into the same array,
/// so the fuser also caps external sources at this width.
pub(crate) const MAX_OPERANDS: usize = 32;

/// Upper bound on the number of absorbed steps in one fused
/// superinstruction; the per-lane scratchpad is stack-allocated at this
/// width.
pub(crate) const MAX_STEPS: usize = 32;

/// Where a linked operand reads from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Operand {
    /// A physical register (defined by an earlier linked instruction).
    Reg(u16),
    /// An input slot bound at invocation time.
    In(u16),
    /// An entry of the link-time constant pool.
    Const(u16),
}

/// Where a fused step's operand lanes come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FSrc {
    /// An external operand's lane slice (`LInst::args[k]` — a register,
    /// input slot, or pool constant resolved by the engine).
    Arg(u16),
    /// The scratchpad row written by an earlier step in the same kernel.
    Tmp(u16),
}

/// One absorbed instruction inside a fused superinstruction. The
/// original opcode, program position, and virtual register ride along so
/// the verifier can audit the chain and runtime errors blame the exact
/// source instruction, byte-identically to the unfused engine.
#[derive(Clone)]
pub(crate) struct FStep {
    /// Original opcode of the absorbed instruction.
    pub(crate) op: MachOp,
    /// Its semantics — the audited source of truth for `eval`.
    pub(crate) sem: MachSem,
    /// Its result type (`ty.elem` feeds the lane evaluator; all steps
    /// share the kernel's lane count).
    pub(crate) ty: VectorType,
    /// Scalar sources, one per operand.
    pub(crate) srcs: Box<[FSrc]>,
    /// Element type of each source, precomputed at fuse time.
    pub(crate) tys: Box<[ScalarType]>,
    /// The compiled whole-strip evaluator: `sem` specialized once at
    /// fuse time over `tys`/`ty.elem` ([`fpir_isa::sem_slice_fn`]), so
    /// executing the step is one call into a monomorphic vector loop —
    /// no dispatch, shape checks, or operand-type reads remain at run
    /// time. Derived data: always built from the three fields above,
    /// never stored independently.
    pub(crate) eval: fpir_isa::SemSliceFn,
    /// Position of the absorbed instruction in the source program.
    pub(crate) pos: u32,
    /// Its destination virtual register in the source program.
    pub(crate) reg: Reg,
}

impl fmt::Debug for FStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `eval` is an opaque compiled closure; the debug form shows the
        // audited fields it was derived from.
        f.debug_struct("FStep")
            .field("op", &self.op)
            .field("sem", &self.sem)
            .field("ty", &self.ty)
            .field("srcs", &self.srcs)
            .field("tys", &self.tys)
            .field("pos", &self.pos)
            .field("reg", &self.reg)
            .finish()
    }
}

/// One compiled strip loop of a fused kernel's execution schedule. A
/// pass completes exactly one step (`last`), and may additionally absorb
/// that step's single-use lane-wise producer into the same loop
/// ([`fpir_isa::sem_slice_fn_pair`]) so the intermediate lives in a
/// register for the duration of a lane instead of a scratch row.
#[derive(Clone)]
pub(crate) struct FPass {
    /// Index of the step this pass completes; its result lands in the
    /// step's scratch row (or the destination buffer for the root).
    pub(crate) last: u16,
    /// Step absorbed into this loop as the operand-`k` producer, if any.
    /// An absorbed step's scratch row is never written.
    pub(crate) absorbed: Option<u16>,
    /// Operand sources in the compiled closure's expected order: the
    /// absorbed producer's sources first, then the completing step's
    /// sources with the absorbed operand removed.
    pub(crate) srcs: Box<[FSrc]>,
    /// The compiled strip loop. Derived data: for a plain pass this is
    /// the step's own `eval`; for a merged pass it is built from the two
    /// steps' audited `sem`/`tys`/`ty` fields at fuse time.
    pub(crate) eval: fpir_isa::SemSliceFn,
}

impl fmt::Debug for FPass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FPass")
            .field("last", &self.last)
            .field("absorbed", &self.absorbed)
            .field("srcs", &self.srcs)
            .finish()
    }
}

/// A fused superinstruction: a single-use producer→consumer chain
/// collapsed into one engine dispatch. `steps` is the audited record of
/// the absorbed instructions, in evaluation order; `passes` is the
/// execution schedule derived from it — one compiled strip loop per
/// step, except that lane-wise producer→consumer pairs share a single
/// loop. Intermediates live in a context-owned scratchpad (or a register,
/// for paired steps) and never touch the register file — only the root's
/// result is materialized into the destination register.
#[derive(Debug, Clone)]
pub(crate) struct FusedKernel {
    /// Steps in evaluation order; the last step is the chain's root and
    /// matches the owning [`LInst`]'s `op`/`ty`/`pos`/`reg`.
    pub(crate) steps: Box<[FStep]>,
    /// Execution schedule: completes every step exactly once, in order.
    pub(crate) passes: Box<[FPass]>,
}

impl FusedKernel {
    /// Number of original instructions this kernel absorbs.
    pub(crate) fn len(&self) -> usize {
        self.steps.len()
    }
}

/// How a linked instruction computes its result.
#[derive(Debug, Clone)]
pub(crate) enum Kernel {
    /// One table instruction, dispatched whole-vector through
    /// [`fpir_isa::eval_sem_into`] — the PR 4 path.
    Op(MachSem),
    /// A fused chain of compiled step kernels
    /// ([`fpir_isa::sem_slice_fn`]) run back-to-back over the strip.
    Fused(Box<FusedKernel>),
}

/// One linked instruction: semantics resolved, operands resolved,
/// destination a physical register.
#[derive(Debug, Clone)]
pub(crate) struct LInst {
    /// Opcode (kept for error reports and rendering; for a fused kernel,
    /// the chain root's opcode).
    pub(crate) op: MachOp,
    /// Direct-dispatch kernel, resolved from the table at link time and
    /// possibly fused post-link.
    pub(crate) kernel: Kernel,
    /// Result type.
    pub(crate) ty: VectorType,
    /// Destination physical register.
    pub(crate) dst: u16,
    /// Resolved operands.
    pub(crate) args: Box<[Operand]>,
    /// Position of the instruction in the source program.
    pub(crate) pos: u32,
    /// Destination virtual register in the source program.
    pub(crate) reg: Reg,
    /// True when the result has no consumer (the value is computed for
    /// its error semantics and its buffer reclaimed immediately).
    pub(crate) dst_dead: bool,
}

/// One input slot: a distinct `Load` name with its declared type and the
/// position/register of its (first) load, for error reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputSlot {
    /// Input name.
    pub name: String,
    /// Declared (loaded-as) type.
    pub ty: VectorType,
    /// Position of the load in the source program.
    pub pos: usize,
    /// Destination virtual register of the load.
    pub reg: Reg,
}

/// Where the executable's result lives after the last instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OutLoc {
    /// A physical register (moved out, not cloned).
    Reg(u16),
    /// An input slot (the program is a plain load).
    In(u16),
    /// A constant-pool entry.
    Const(u16),
}

/// A [`Program`] linked for repeated execution. See the [module
/// docs](self) for what linking resolves.
///
/// # Thread safety
///
/// An `Executable` is **immutable after [`Executable::link`]** and is
/// `Send + Sync` by construction, so one linked artifact can be shared
/// by reference (or `Arc`) across any number of worker threads — the
/// tiled runner and the `pitchfork-service` cache both rely on this.
/// The audit, pinned by a compile-time assertion in the tests:
///
/// * `code` (`LInst`) holds only plain data — [`MachOp`], a `Copy`
///   [`MachSem`] (an enum of opcodes and constants, no function
///   pointers or interior mutability), a [`VectorType`], and index
///   operands;
/// * the **splat constant pool** (`consts`, [`Value`]) is materialized
///   once at link time and only ever read afterwards — every execution
///   path takes `&self.consts[..]`, so concurrent invocations share the
///   pool without copies or locks;
/// * `inputs` and `zero` are owned, never-mutated `String`/`Value` data.
///
/// All *mutable* execution state lives in the per-thread [`ExecCtx`]
/// (which is `Send` but deliberately not shared): the register file and
/// the recycled buffer pool. Sharing the `Executable` is free; sharing a
/// context would be a data race, which the `&mut ExecCtx` receiver on
/// [`Executable::run`] rules out at compile time.
#[derive(Debug, Clone)]
pub struct Executable {
    pub(crate) isa: Isa,
    pub(crate) inputs: Vec<InputSlot>,
    pub(crate) consts: Vec<Value>,
    pub(crate) code: Vec<LInst>,
    pub(crate) phys_regs: usize,
    pub(crate) output: OutLoc,
    /// Placeholder the operand staging array is initialized with.
    pub(crate) zero: Value,
}

/// Reusable per-thread execution state: the physical register file and a
/// pool of recycled lane buffers. Steady-state invocations allocate
/// nothing — [`ExecCtx::buffer_allocs`] stops growing after warm-up (the
/// regression tests pin this).
#[derive(Debug, Default)]
pub struct ExecCtx {
    regs: Vec<Option<Value>>,
    spare: Vec<Vec<i128>>,
    /// Fused-kernel scratchpad: `MAX_STEPS` rows of strip-width lanes,
    /// grown on first use and reused by every fused dispatch thereafter
    /// (steady-state fused runs allocate nothing, like unfused ones).
    scratch: Vec<i128>,
    buffer_allocs: u64,
    invocations: u64,
}

impl ExecCtx {
    /// A fresh, empty context.
    pub fn new() -> ExecCtx {
        ExecCtx::default()
    }

    /// How many lane buffers this context has had to allocate, total. In
    /// steady state (with outputs recycled back) this counter is flat
    /// across invocations.
    pub fn buffer_allocs(&self) -> u64 {
        self.buffer_allocs
    }

    /// How many invocations have run through this context.
    pub fn invocations(&self) -> u64 {
        self.invocations
    }

    /// Hand a no-longer-needed [`Value`] back for buffer reuse (e.g. the
    /// output of [`Executable::run`] after its lanes were consumed).
    pub fn recycle(&mut self, v: Value) {
        self.spare.push(v.into_lanes());
    }

    /// Take a recycled lane buffer (empty, capacity preserved) or a
    /// fresh one; pair with [`Value::new`] to build inputs without
    /// allocating in steady state.
    pub fn take_buffer(&mut self) -> Vec<i128> {
        match self.spare.pop() {
            Some(mut b) => {
                b.clear();
                b
            }
            None => {
                self.buffer_allocs += 1;
                Vec::new()
            }
        }
    }
}

impl Executable {
    /// Link a program against its target: resolve names to slots,
    /// opcodes to semantics, splats to a constant pool, and virtual
    /// registers to a recycled physical register file.
    ///
    /// # Errors
    ///
    /// Fails on an ISA mismatch, an opcode missing from the table, or an
    /// input loaded at two different types.
    pub fn link(p: &Program, target: &Target) -> Result<Executable, ExecError> {
        if p.isa != target.isa {
            return Err(ExecError::IsaMismatch { program: p.isa, target: target.isa });
        }
        let insts = p.insts();
        let n = insts.len();

        // Liveness: last use of each virtual register (by position); the
        // output is used "after the end".
        const NEVER: usize = usize::MAX;
        let mut last_use = vec![NEVER; n];
        for (i, inst) in insts.iter().enumerate() {
            if let PKind::Op { args, .. } = &inst.kind {
                for &r in args {
                    last_use[r] = i;
                }
            }
        }
        last_use[p.output()] = n;

        /// What each virtual register resolved to.
        #[derive(Clone, Copy)]
        enum Def {
            In(u16),
            Const(u16),
            Op,
        }
        let mut defs: Vec<Def> = Vec::with_capacity(n);
        let mut inputs: Vec<InputSlot> = Vec::new();
        let mut consts: Vec<Value> = Vec::new();
        let mut code: Vec<LInst> = Vec::new();
        // Linear-scan register allocation state.
        let mut phys_of: Vec<Option<u16>> = vec![None; n];
        let mut free: Vec<u16> = Vec::new();
        let mut next_phys: u16 = 0;

        for (i, inst) in insts.iter().enumerate() {
            match &inst.kind {
                PKind::Load { name } => {
                    let slot = match inputs.iter().position(|s| s.name == *name) {
                        Some(s) => {
                            if inputs[s].ty != inst.ty {
                                // Two loads of one name at different types
                                // can never both succeed; reject at link
                                // time with the second load's position.
                                return Err(ExecError::InputTypeMismatch {
                                    name: name.clone(),
                                    pos: i,
                                    reg: inst.dst,
                                    declared: inst.ty,
                                    bound: inputs[s].ty,
                                });
                            }
                            s
                        }
                        None => {
                            inputs.push(InputSlot {
                                name: name.clone(),
                                ty: inst.ty,
                                pos: i,
                                reg: inst.dst,
                            });
                            inputs.len() - 1
                        }
                    };
                    defs.push(Def::In(slot as u16));
                }
                PKind::Splat { value } => {
                    let idx = match consts
                        .iter()
                        .position(|c| c.ty() == inst.ty && c.lane(0) == *value)
                    {
                        Some(c) => c,
                        None => {
                            consts.push(Value::splat(*value, inst.ty));
                            consts.len() - 1
                        }
                    };
                    defs.push(Def::Const(idx as u16));
                }
                PKind::Op { op, args } => {
                    let def = target.def(*op).ok_or(ExecError::UnknownOp {
                        op: *op,
                        pos: i,
                        reg: inst.dst,
                    })?;
                    assert!(
                        args.len() <= MAX_OPERANDS,
                        "{op} has {} operands; the staging array holds {MAX_OPERANDS}",
                        args.len()
                    );
                    let resolved: Box<[Operand]> = args
                        .iter()
                        .map(|&r| match defs[r] {
                            Def::In(s) => Operand::In(s),
                            Def::Const(c) => Operand::Const(c),
                            Def::Op => Operand::Reg(
                                phys_of[r].expect("programs define registers before use"),
                            ),
                        })
                        .collect();
                    // Allocate the destination BEFORE freeing operands
                    // dying here: the engine reclaims the destination's
                    // old value before reading operands, so the two must
                    // never share a physical register.
                    let dst = free.pop().unwrap_or_else(|| {
                        let d = next_phys;
                        next_phys += 1;
                        d
                    });
                    phys_of[i] = Some(dst);
                    for &r in args {
                        if last_use[r] == i && matches!(defs[r], Def::Op) {
                            // `take` makes a register appearing twice in
                            // one operand list free exactly once.
                            if let Some(ph) = phys_of[r].take() {
                                free.push(ph);
                            }
                        }
                    }
                    let dst_dead = last_use[i] == NEVER;
                    if dst_dead {
                        phys_of[i] = None;
                        free.push(dst);
                    }
                    code.push(LInst {
                        op: *op,
                        kernel: Kernel::Op(def.sem),
                        ty: inst.ty,
                        dst,
                        args: resolved,
                        pos: i as u32,
                        reg: inst.dst,
                        dst_dead,
                    });
                    defs.push(Def::Op);
                }
            }
        }

        let out = p.output();
        let output = match defs[out] {
            Def::In(s) => OutLoc::In(s),
            Def::Const(c) => OutLoc::Const(c),
            Def::Op => OutLoc::Reg(phys_of[out].expect("the output register stays live")),
        };
        let exe = Executable {
            isa: target.isa,
            inputs,
            consts,
            code,
            phys_regs: next_phys as usize,
            output,
            zero: Value::splat(0, VectorType::new(ScalarType::U8, 1)),
        };
        // Debug builds audit every artifact leaving the linker against
        // the static verifier: a linker bug is an internal invariant
        // violation (panic), never a user-visible ExecError.
        #[cfg(debug_assertions)]
        if let Err(v) = crate::verify::verify_executable(&exe) {
            panic!("link produced an unverifiable executable: {v}\n{exe}");
        }
        Ok(exe)
    }

    /// Link and then, per `cfg`, run the post-link optimization pipeline
    /// ([`crate::fuse`]): copy propagation, constant folding, dead-write
    /// elimination, and superinstruction fusion, with the register file
    /// re-allocated afterwards. [`crate::fuse::ExecConfig::REFERENCE`]
    /// returns the plain link unchanged; [`crate::fuse::ExecConfig::FAST`]
    /// fuses. The two are bit-identical on every environment — gated by
    /// difftest, the fused proptests, and every benchmark.
    ///
    /// # Errors
    ///
    /// As [`Executable::link`]; the post-link pipeline itself cannot
    /// fail.
    pub fn link_with(
        p: &Program,
        target: &Target,
        cfg: &crate::fuse::ExecConfig,
    ) -> Result<Executable, ExecError> {
        let exe = Executable::link(p, target)?;
        Ok(if cfg.fuse { crate::fuse::optimize(exe) } else { exe })
    }

    /// The ISA this executable was linked for.
    pub fn isa(&self) -> Isa {
        self.isa
    }

    /// The input slots, in first-load order. `slots[i]` of
    /// [`Executable::run_slots`] binds `inputs()[i]`.
    pub fn inputs(&self) -> &[InputSlot] {
        &self.inputs
    }

    /// Number of linked instructions — one per dispatch in the hot loop,
    /// so for a fused executable this is the per-invocation dispatch
    /// count, not the original op count (see
    /// [`Executable::step_count`]).
    pub fn op_count(&self) -> usize {
        self.code.len()
    }

    /// Number of fused superinstructions (kernels absorbing ≥ 2 original
    /// instructions). Zero for an unfused link.
    pub fn fused_count(&self) -> usize {
        self.code.iter().filter(|i| matches!(i.kernel, Kernel::Fused(_))).count()
    }

    /// Total original instructions represented, counting every step
    /// absorbed into fused kernels. For an unfused link this equals
    /// [`Executable::op_count`].
    pub fn step_count(&self) -> usize {
        self.code
            .iter()
            .map(|i| match &i.kernel {
                Kernel::Op(_) => 1,
                Kernel::Fused(f) => f.len(),
            })
            .sum()
    }

    /// Size of the shared constant pool.
    pub fn const_count(&self) -> usize {
        self.consts.len()
    }

    /// Peak size of the physical register file: how many registers a
    /// context allocates, and the figure reported next to `cycle_cost`
    /// in the Figure 3 listings.
    pub fn peak_regs(&self) -> usize {
        self.phys_regs
    }

    /// A fresh execution context shaped for this executable.
    pub fn new_ctx(&self) -> ExecCtx {
        let mut ctx = ExecCtx::new();
        ctx.regs.resize_with(self.phys_regs, || None);
        ctx
    }

    /// Run on an environment (input names resolved to slots here; prefer
    /// [`Executable::run_slots`] in hot loops that can pre-resolve).
    ///
    /// # Errors
    ///
    /// Exactly as [`crate::vm::execute`]: unbound inputs, mistyped
    /// bindings, or semantics-rejected operands.
    pub fn run(&self, ctx: &mut ExecCtx, env: &Env) -> Result<Value, ExecError> {
        let mut ins: Vec<&Value> = Vec::with_capacity(self.inputs.len());
        for slot in &self.inputs {
            let v = env.get(&slot.name).ok_or_else(|| ExecError::UnboundInput {
                name: slot.name.clone(),
                pos: slot.pos,
                reg: slot.reg,
            })?;
            if v.ty() != slot.ty {
                return Err(ExecError::InputTypeMismatch {
                    name: slot.name.clone(),
                    pos: slot.pos,
                    reg: slot.reg,
                    declared: slot.ty,
                    bound: v.ty(),
                });
            }
            ins.push(v);
        }
        self.run_resolved(ctx, ins.as_slice())
    }

    /// Run on positionally-bound inputs: `slots[i]` binds
    /// [`Executable::inputs`]`[i]`. Only types are re-checked.
    ///
    /// # Errors
    ///
    /// Mistyped or missing slot values, or semantics-rejected operands.
    pub fn run_slots(&self, ctx: &mut ExecCtx, slots: &[Value]) -> Result<Value, ExecError> {
        if slots.len() != self.inputs.len() {
            let missing = &self.inputs[slots.len().min(self.inputs.len().saturating_sub(1))];
            return Err(ExecError::UnboundInput {
                name: missing.name.clone(),
                pos: missing.pos,
                reg: missing.reg,
            });
        }
        for (v, slot) in slots.iter().zip(&self.inputs) {
            if v.ty() != slot.ty {
                return Err(ExecError::InputTypeMismatch {
                    name: slot.name.clone(),
                    pos: slot.pos,
                    reg: slot.reg,
                    declared: slot.ty,
                    bound: v.ty(),
                });
            }
        }
        self.run_resolved(ctx, slots)
    }

    /// The hot loop: direct dispatch over resolved operands, recycled
    /// register file, zero steady-state allocation.
    fn run_resolved<I: Ins + ?Sized>(
        &self,
        ctx: &mut ExecCtx,
        ins: &I,
    ) -> Result<Value, ExecError> {
        if ctx.regs.len() < self.phys_regs {
            ctx.regs.resize_with(self.phys_regs, || None);
        }
        ctx.invocations += 1;
        let ExecCtx { regs, spare, scratch, buffer_allocs, .. } = ctx;
        for inst in &self.code {
            // Reclaim the destination's previous (dead by liveness)
            // value; the allocator guarantees the destination never
            // aliases an operand of this instruction.
            if let Some(old) = regs[inst.dst as usize].take() {
                spare.push(old.into_lanes());
            }
            let mut buf = match spare.pop() {
                Some(b) => b,
                None => {
                    *buffer_allocs += 1;
                    Vec::new()
                }
            };
            {
                let mut refs: [&Value; MAX_OPERANDS] = [&self.zero; MAX_OPERANDS];
                for (k, a) in inst.args.iter().enumerate() {
                    refs[k] = match *a {
                        Operand::Reg(r) => regs[r as usize]
                            .as_ref()
                            .expect("linked instructions define registers before use"),
                        Operand::In(s) => ins.slot(s as usize),
                        Operand::Const(c) => &self.consts[c as usize],
                    };
                }
                match &inst.kernel {
                    Kernel::Op(sem) => {
                        eval_sem_into(*sem, &refs[..inst.args.len()], inst.ty, &mut buf).map_err(
                            |what| ExecError::Sem {
                                op: inst.op,
                                pos: inst.pos as usize,
                                reg: inst.reg,
                                what,
                            },
                        )?;
                    }
                    Kernel::Fused(f) => {
                        // A fused kernel's shapes (arity, lane counts,
                        // widening widths) were all proven static at fuse
                        // time — external operand types are fixed by the
                        // link and re-checked at binding — so the chain
                        // runs with no per-step validation: each absorbed
                        // step is one call into its compiled vector
                        // kernel, intermediates staying in the context
                        // scratchpad. The verifier's fused-shape check
                        // audits this.
                        let lanes = inst.ty.lanes as usize;
                        let mut lanes_of: [&[i128]; MAX_OPERANDS] = [&[]; MAX_OPERANDS];
                        for (k, r) in refs[..inst.args.len()].iter().enumerate() {
                            lanes_of[k] = r.lanes();
                        }
                        if scratch.len() < f.steps.len() * lanes {
                            // First fused dispatch at this width; the
                            // scratchpad is retained for every later run.
                            scratch.resize(MAX_STEPS * lanes, 0);
                        }
                        let root = f.steps.len() - 1;
                        // Size the destination without zeroing it: the
                        // root pass overwrites every lane (operand and
                        // scratch slices are exactly `lanes` long, and
                        // every compiled kernel writes its full output
                        // slice), so recycled contents never leak.
                        buf.resize(lanes, 0);
                        for pass in f.passes.iter() {
                            let j = pass.last as usize;
                            let (lo, hi) = scratch.split_at_mut(j * lanes);
                            // The chain root writes the destination
                            // buffer directly; earlier passes fill their
                            // completed step's scratchpad row.
                            let dst: &mut [i128] =
                                if j == root { &mut buf[..] } else { &mut hi[..lanes] };
                            macro_rules! src {
                                ($k:expr) => {
                                    match pass.srcs[$k] {
                                        FSrc::Arg(a) => lanes_of[a as usize],
                                        FSrc::Tmp(t) => {
                                            let t = t as usize;
                                            &lo[t * lanes..(t + 1) * lanes]
                                        }
                                    }
                                };
                            }
                            // Stage exactly the pass's operands: almost
                            // every pass reads 1–4 sources, and the
                            // fixed-size array keeps the staging cost off
                            // the `MAX_OPERANDS`-wide worst case.
                            match pass.srcs.len() {
                                1 => (pass.eval)(&[src!(0)], dst),
                                2 => (pass.eval)(&[src!(0), src!(1)], dst),
                                3 => (pass.eval)(&[src!(0), src!(1), src!(2)], dst),
                                4 => (pass.eval)(&[src!(0), src!(1), src!(2), src!(3)], dst),
                                _ => {
                                    let mut xs: [&[i128]; MAX_OPERANDS] = [&[]; MAX_OPERANDS];
                                    for (x, k) in xs.iter_mut().zip(0..pass.srcs.len()) {
                                        *x = src!(k);
                                    }
                                    (pass.eval)(&xs[..pass.srcs.len()], dst);
                                }
                            }
                        }
                    }
                }
            }
            // Semantics wrap/saturate into the result type, so the lanes
            // satisfy the `Value` invariant by construction.
            let v = Value::trusted(inst.ty, buf);
            if inst.dst_dead {
                spare.push(v.into_lanes());
            } else {
                regs[inst.dst as usize] = Some(v);
            }
        }
        match self.output {
            // The result leaves the register file by move, not clone.
            OutLoc::Reg(r) => {
                Ok(regs[r as usize].take().expect("the output register was just written"))
            }
            OutLoc::In(s) => Ok(ins.slot(s as usize).clone()),
            OutLoc::Const(c) => Ok(self.consts[c as usize].clone()),
        }
    }

    /// An assembly-like listing of the linked form: input slots (`sN`),
    /// constant pool (`cN`), instructions over physical registers (`rN`)
    /// and the returned location. Deterministic: a pure function of the
    /// linked structure.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "; linked for {}: {} inputs, {} consts, {} ops, peak {} regs",
            self.isa,
            self.inputs.len(),
            self.consts.len(),
            self.code.len(),
            self.phys_regs
        );
        for (i, s) in self.inputs.iter().enumerate() {
            let _ = writeln!(out, "in        s{i}.{}, [{}]", s.ty, s.name);
        }
        for (i, c) in self.consts.iter().enumerate() {
            let _ = writeln!(out, "const     c{i}.{}, #{}", c.ty(), c.lane(0));
        }
        for inst in &self.code {
            let srcs = inst.args.iter().map(|a| operand_name(*a)).collect::<Vec<_>>().join(", ");
            match &inst.kernel {
                Kernel::Op(_) => {
                    let _ =
                        writeln!(out, "{:<9} r{}.{}, {}", inst.op.name, inst.dst, inst.ty, srcs);
                }
                Kernel::Fused(f) => {
                    // A fused superinstruction lists its absorbed chain
                    // in evaluation order, root last.
                    let chain = f.steps.iter().map(|s| s.op.name).collect::<Vec<_>>().join("+");
                    let _ = writeln!(out, "{:<9} r{}.{}, {}", chain, inst.dst, inst.ty, srcs);
                }
            }
        }
        let ret = match self.output {
            OutLoc::Reg(r) => format!("r{r}"),
            OutLoc::In(s) => format!("s{s}"),
            OutLoc::Const(c) => format!("c{c}"),
        };
        let _ = writeln!(out, "ret       {ret}");
        out
    }
}

/// Positional input access for the hot loop, implemented for owned and
/// reference slices so [`Executable::run`] and [`Executable::run_slots`]
/// share one monomorphized code path without a per-invocation allocation.
trait Ins {
    fn slot(&self, i: usize) -> &Value;
}

impl Ins for [Value] {
    fn slot(&self, i: usize) -> &Value {
        &self[i]
    }
}

impl Ins for [&Value] {
    fn slot(&self, i: usize) -> &Value {
        self[i]
    }
}

fn operand_name(a: Operand) -> String {
    match a {
        Operand::Reg(r) => format!("r{r}"),
        Operand::In(s) => format!("s{s}"),
        Operand::Const(c) => format!("c{c}"),
    }
}

impl fmt::Display for Executable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::emit;
    use crate::vm::execute;
    use fpir::build;
    use fpir::types::{ScalarType as S, VectorType as V};
    use fpir::RcExpr;
    use fpir_isa::{legalize, target};

    fn link_expr(e: &RcExpr, isa: Isa) -> (Program, Executable) {
        let t = target(isa);
        let p = emit(&legalize(e, t).unwrap(), t).unwrap();
        let exe = Executable::link(&p, t).unwrap();
        (p, exe)
    }

    #[test]
    fn linked_matches_reference_on_an_average() {
        let t = V::new(S::U8, 4);
        let e = build::rounding_halving_add(build::var("a", t), build::var("b", t));
        let (p, exe) = link_expr(&e, Isa::HexagonHvx);
        let env = Env::new()
            .bind("a", Value::new(t, vec![3, 255, 0, 10]))
            .bind("b", Value::new(t, vec![4, 255, 1, 20]));
        let mut ctx = exe.new_ctx();
        let fast = exe.run(&mut ctx, &env).unwrap();
        let reference = execute(&p, &env, target(Isa::HexagonHvx)).unwrap();
        assert_eq!(fast, reference);
        assert_eq!(fast.lanes(), &[4, 255, 1, 15]);
    }

    #[test]
    fn register_file_is_smaller_than_virtual() {
        // A long chain of ops keeps at most a couple of values live.
        let t = V::new(S::U8, 4);
        let mut e = build::add(build::var("a", t), build::var("b", t));
        for _ in 0..10 {
            e = build::add(e, build::var("a", t));
        }
        let (p, exe) = link_expr(&e, Isa::ArmNeon);
        assert!(
            exe.peak_regs() < p.insts().len(),
            "peak {} vs {} virtual registers",
            exe.peak_regs(),
            p.insts().len()
        );
        assert!(exe.peak_regs() <= 2, "a chain needs two registers, got {}", exe.peak_regs());
    }

    #[test]
    fn constants_are_pooled_and_shared() {
        let t = V::new(S::U8, 4);
        let c = build::constant(3, t);
        let e = build::add(
            build::add(build::var("a", t), c.clone()),
            build::add(build::var("b", t), c),
        );
        let (_, exe) = link_expr(&e, Isa::ArmNeon);
        assert_eq!(exe.const_count(), 1);
    }

    #[test]
    fn plain_load_output_works() {
        // A program that is just `load a` — the output is an input slot.
        let t = V::new(S::U8, 4);
        let e = build::var("a", t);
        let (p, exe) = link_expr(&e, Isa::ArmNeon);
        assert_eq!(p.op_count(), 0);
        let env = Env::new().bind("a", Value::new(t, vec![1, 2, 3, 4]));
        let mut ctx = exe.new_ctx();
        assert_eq!(exe.run(&mut ctx, &env).unwrap().lanes(), &[1, 2, 3, 4]);
    }

    #[test]
    fn unbound_input_reports_name_position_register() {
        let t = V::new(S::U8, 4);
        let e = build::add(build::var("a", t), build::var("b", t));
        let (_, exe) = link_expr(&e, Isa::ArmNeon);
        let env = Env::new().bind("a", Value::splat(1, t));
        let mut ctx = exe.new_ctx();
        let err = exe.run(&mut ctx, &env).unwrap_err();
        match &err {
            ExecError::UnboundInput { name, pos, reg } => {
                assert_eq!(name, "b");
                assert_eq!(*pos, 1);
                assert_eq!(*reg, 1);
            }
            other => panic!("wrong error {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("`b`") && msg.contains("#1") && msg.contains("v1"), "{msg}");
    }

    #[test]
    fn mistyped_input_reports_both_types() {
        let t = V::new(S::U8, 4);
        let e = build::add(build::var("a", t), build::var("b", t));
        let (_, exe) = link_expr(&e, Isa::ArmNeon);
        let env =
            Env::new().bind("a", Value::splat(1, t)).bind("b", Value::splat(1, V::new(S::U16, 4)));
        let mut ctx = exe.new_ctx();
        let err = exe.run(&mut ctx, &env).unwrap_err();
        match &err {
            ExecError::InputTypeMismatch { name, declared, bound, .. } => {
                assert_eq!(name, "b");
                assert_eq!(*declared, t);
                assert_eq!(*bound, V::new(S::U16, 4));
            }
            other => panic!("wrong error {other:?}"),
        }
    }

    #[test]
    fn linking_for_the_wrong_target_fails() {
        let t = V::new(S::U8, 4);
        let e = build::add(build::var("a", t), build::var("b", t));
        let tgt = target(Isa::ArmNeon);
        let p = emit(&legalize(&e, tgt).unwrap(), tgt).unwrap();
        let err = Executable::link(&p, target(Isa::X86Avx2)).unwrap_err();
        assert!(matches!(
            err,
            ExecError::IsaMismatch { program: Isa::ArmNeon, target: Isa::X86Avx2 }
        ));
    }

    #[test]
    fn steady_state_runs_are_allocation_free() {
        // After the first invocation the context's buffer pool is primed;
        // recycling the returned output keeps further runs at zero
        // allocations — the `Load` hot path no longer clones inputs.
        let t = V::new(S::U8, 64);
        let e = build::saturating_cast(
            S::U8,
            build::widening_add(
                build::rounding_halving_add(build::var("a", t), build::var("b", t)),
                build::var("b", t),
            ),
        );
        let (_, exe) = link_expr(&e, Isa::ArmNeon);
        let env = Env::new().bind("a", Value::splat(7, t)).bind("b", Value::splat(9, t));
        let mut ctx = exe.new_ctx();
        let out = exe.run(&mut ctx, &env).unwrap();
        ctx.recycle(out);
        let primed = ctx.buffer_allocs();
        for _ in 0..100 {
            let out = exe.run(&mut ctx, &env).unwrap();
            ctx.recycle(out);
        }
        assert_eq!(
            ctx.buffer_allocs(),
            primed,
            "steady-state invocations must not allocate lane buffers"
        );
        assert_eq!(ctx.invocations(), 101);
    }

    #[test]
    fn run_slots_binds_positionally() {
        let t = V::new(S::U8, 4);
        let e = build::sub(build::var("x", t), build::var("y", t));
        let (_, exe) = link_expr(&e, Isa::X86Avx2);
        let names: Vec<&str> = exe.inputs().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["x", "y"], "slots are in first-load order");
        let mut ctx = exe.new_ctx();
        let slots = vec![Value::splat(9, t), Value::splat(3, t)];
        let out = exe.run_slots(&mut ctx, &slots).unwrap();
        assert_eq!(out.lanes(), &[6, 6, 6, 6]);
        // Too few slots is an unbound-input error.
        assert!(matches!(
            exe.run_slots(&mut ctx, &slots[..1]).unwrap_err(),
            ExecError::UnboundInput { .. }
        ));
    }

    /// Compile-time pin of the thread-safety audit (see the
    /// [`Executable`] docs): a cached executable — constant pool
    /// included — must stay shareable by reference across service
    /// workers, and a context must stay movable into one. If a future
    /// change smuggles in `Rc`, `Cell`, or a raw pointer, this stops
    /// compiling rather than racing at run time.
    #[test]
    fn executable_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        fn assert_send<T: Send>() {}
        assert_send_sync::<Executable>();
        assert_send_sync::<Program>();
        assert_send_sync::<Value>();
        assert_send_sync::<InputSlot>();
        assert_send_sync::<ExecError>();
        // Per-thread mutable state: movable to a worker, not shared.
        assert_send::<ExecCtx>();

        // And exercise the claim: two threads sharing one executable by
        // reference, each with its own context, agree with a sequential
        // run.
        let t = V::new(S::U8, 8);
        let e = build::rounding_halving_add(
            build::add(build::var("a", t), build::constant(3, t)),
            build::var("b", t),
        );
        let (_, exe) = link_expr(&e, Isa::ArmNeon);
        let env = Env::new().bind("a", Value::splat(10, t)).bind("b", Value::splat(20, t));
        let mut ctx = exe.new_ctx();
        let want = exe.run(&mut ctx, &env).unwrap();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let mut ctx = exe.new_ctx();
                    for _ in 0..16 {
                        assert_eq!(exe.run(&mut ctx, &env).unwrap(), want);
                    }
                });
            }
        });
    }

    #[test]
    fn render_is_deterministic_and_lists_the_link() {
        let t = V::new(S::U8, 16);
        let e = build::add(build::var("a", t), build::constant(3, t));
        let (p, exe) = link_expr(&e, Isa::ArmNeon);
        let r1 = exe.render();
        let r2 = exe.render();
        assert_eq!(r1, r2);
        // Re-linking yields the identical listing (link is deterministic).
        let exe2 = Executable::link(&p, target(Isa::ArmNeon)).unwrap();
        assert_eq!(exe2.render(), r1);
        assert!(r1.contains("peak"), "{r1}");
        assert!(r1.contains("[a]"), "{r1}");
        assert!(r1.contains("#3"), "{r1}");
        assert!(r1.contains("ret"), "{r1}");
    }
}
