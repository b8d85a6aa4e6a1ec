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
//!   resolved from the table at link time, its operand shapes checked
//!   ([`fpir_isa::check_shape`]) and its kernel compiled; the hot loop
//!   never touches the [`Target`] again;
//! * **shared constants** — splats are materialized once into a constant
//!   pool owned by the executable and shared by every invocation (the
//!   cycle model already treats them as loop-invariant and free);
//! * **liveness + register recycling** — a linear-scan over last uses
//!   maps virtual registers onto a small physical register file. A dead
//!   register's lane buffer is reclaimed and refilled by a later
//!   instruction, so the per-instruction loop performs **zero heap
//!   allocation** in steady state — operands are read by reference, and
//!   the result stays in its register until the next run reclaims it;
//! * **lanes at their own width** — every register, spare buffer,
//!   fused-kernel scratch row and pool constant holds its lanes at its
//!   element type's width ([`Lanes`]): a `u8` lane is one byte. Every
//!   linked instruction is a kernel of one or more steps, and each of
//!   its passes is one call into a strip loop built for exactly those
//!   storage types — the plain link gives each instruction one step and
//!   one pass, the FAST link ([`crate::fuse`]) fuses chains into longer
//!   kernels. [`Executable::run`] and [`Executable::run_slots`] convert
//!   [`Value`]s at the engine's boundary; [`Executable::run_lanes`] takes
//!   native inputs and lends out the native result.
//!
//! The linked engine is differentially gated against the reference
//! engine everywhere [`crate::difftest`] runs: on every environment the
//! two must return the same `Result` — same output value, or the same
//! [`ExecError`].

use crate::fuse::{build_passes, Emitted, PassScratch};
use crate::program::{PInst, PKind, Program, Reg};
use crate::vm::ExecError;
use fpir::interp::{Env, Value};
use fpir::types::{ScalarType, VectorType};
use fpir::{Isa, MachOp};
use fpir_isa::{check_shape, Lanes, MachSem, Slice, Target};
use std::collections::hash_map::{Entry, HashMap};
use std::fmt;
use std::fmt::Write as _;
use std::ops::Range;

/// A kernel's external operands are staged in a stack array of this
/// width. One instruction reads at most 9 (`DotAcc4`); the fuser caps a
/// group's distinct external sources at this width.
pub(crate) const MAX_OPERANDS: usize = 32;

/// Upper bound on the number of steps in one kernel; the context's
/// scratchpad holds a row per step.
pub(crate) const MAX_STEPS: usize = 32;

/// Element types: a scratchpad row per step and type.
const KINDS: usize = 8;

/// Narrow an index into a linked operand's 16-bit field, or report the
/// index space that ran out.
pub(crate) fn index16(i: usize, space: &'static str) -> Result<u16, ExecError> {
    u16::try_from(i).map_err(|_| ExecError::IndexOverflow { space, limit: 1 << 16 })
}

/// A run of entries in one of an [`Executable`]'s flat arrays:
/// `array[start..start + len]`. Operand lists, fused steps and passes
/// live in per-executable arrays addressed by spans, so a link makes a
/// fixed number of allocations for them however long the program is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    pub(crate) start: u32,
    pub(crate) len: u32,
}

impl Span {
    /// The span `start..end` of an array.
    pub(crate) fn of(start: usize, end: usize) -> Span {
        let index = |i: usize| u32::try_from(i).expect("linked arrays stay under 2^32 entries");
        Span { start: index(start), len: index(end - start) }
    }

    /// Append `items` to `array` and return the span they occupy.
    pub(crate) fn push<T>(array: &mut Vec<T>, items: impl IntoIterator<Item = T>) -> Span {
        let start = array.len();
        array.extend(items);
        Span::of(start, array.len())
    }

    pub(crate) fn range(self) -> Range<usize> {
        let start = self.start as usize;
        start..start + self.len as usize
    }

    pub(crate) fn len(self) -> usize {
        self.len as usize
    }
}

/// What a program register resolves to at link time: an input slot, a
/// pool constant, or the value of the program's `k`-th `Op` instruction
/// (`Node(k)`, a node of the fuse graph).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Src {
    Node(usize),
    In(u16),
    Const(u16),
}

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

/// Where a kernel step's operand lanes come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FSrc {
    /// An external operand's lane slice (`LInst::args[k]` — a register,
    /// input slot, or pool constant resolved by the engine).
    Arg(u16),
    /// The scratchpad row written by an earlier step in the same kernel.
    Tmp(u16),
}

/// One program instruction inside a linked kernel. The original opcode,
/// program position, and virtual register ride along so the verifier can
/// audit the chain and blame the exact source instruction. A step is the
/// audited record only; the code that runs it is its pass's
/// [`FPass::eval`].
#[derive(Debug, Clone)]
pub(crate) struct FStep {
    /// Original opcode of the absorbed instruction.
    pub(crate) op: MachOp,
    /// Its semantics — the audited source of truth for the pass that
    /// completes it.
    pub(crate) sem: MachSem,
    /// Its result type (all steps share the kernel's lane count).
    pub(crate) ty: VectorType,
    /// Scalar sources, one per operand, and the element type of each,
    /// precomputed at link time: a span of [`Executable::srcs`] and of
    /// [`Executable::tys`].
    pub(crate) srcs: Span,
    /// Position of the absorbed instruction in the source program.
    pub(crate) pos: u32,
    /// Its destination virtual register in the source program.
    pub(crate) reg: Reg,
}

/// One compiled strip loop of a kernel's execution schedule. A pass
/// completes exactly one step (`last`), and may additionally absorb
/// that step's single-use lane-wise producer into the same pass
/// ([`fpir_isa::sem_slice_fn_pair`]) so the intermediate lives in a
/// stack buffer instead of a scratch row.
#[derive(Clone)]
pub(crate) struct FPass {
    /// Index of the step this pass completes; its result lands in the
    /// step's scratch row (or the destination buffer for the root).
    pub(crate) last: u16,
    /// Step absorbed into this loop as the operand-`k` producer, if any.
    /// An absorbed step's scratch row is never written.
    pub(crate) absorbed: Option<u16>,
    /// Operand sources in the compiled closure's expected order, as a
    /// span of [`Executable::srcs`]: the completing step's own span for
    /// an unmerged pass; for a merged one, the absorbed producer's
    /// sources followed by the completing step's with the absorbed
    /// operand removed.
    pub(crate) srcs: Span,
    /// The operand whose splat constant the compiled loop captured, if
    /// any ([`fpir_isa::sem_slice_fn_splat`]).
    pub(crate) captured: Option<u8>,
    /// The compiled strip loop, built once at link time from the audited
    /// `sem`/`srcs`/`ty` fields of the step it completes (and of the
    /// absorbed step, for a merged pass): [`fpir_isa::sem_slice_fn_pair`]
    /// for a merged pair, else [`fpir_isa::sem_slice_fn_splat`] when a
    /// splat-constant operand can be captured, else
    /// [`fpir_isa::sem_slice_fn`]. Executing it is one call into a
    /// monomorphic vector loop over lanes at their own width (two, chunk
    /// by chunk, for a merged pair): no dispatch, shape checks, or
    /// operand-type reads remain at run time.
    pub(crate) eval: fpir_isa::SemSliceFn,
}

impl fmt::Debug for FPass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FPass")
            .field("last", &self.last)
            .field("absorbed", &self.absorbed)
            .field("srcs", &self.srcs)
            .field("captured", &self.captured)
            .finish()
    }
}

/// One linked instruction: a kernel of one or more steps, its operands
/// resolved, its destination a physical register. The plain link gives
/// every instruction one step; the FAST link collapses a chain of
/// program instructions into one kernel (a fused superinstruction), so
/// it runs as one dispatch with its intermediates in the context's
/// scratchpad, and only the root's result reaches the register file.
#[derive(Debug, Clone)]
pub(crate) struct LInst {
    /// Opcode (kept for error reports and rendering): the root step's.
    pub(crate) op: MachOp,
    /// The kernel's steps in evaluation order, a span of
    /// [`Executable::steps`]; the last is the root and matches this
    /// instruction's `op`/`ty`/`pos`/`reg`.
    pub(crate) steps: Span,
    /// The kernel's execution schedule, a span of [`Executable::passes`]:
    /// completes every step exactly once, in order. One compiled strip
    /// loop per step, except that a lane-wise producer→consumer pair may
    /// share one.
    pub(crate) passes: Span,
    /// Result type.
    pub(crate) ty: VectorType,
    /// Destination physical register.
    pub(crate) dst: u16,
    /// Resolved operands, a span of [`Executable::operands`].
    pub(crate) args: Span,
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
///   pointers or interior mutability), a [`VectorType`], and spans;
/// * the flat arrays the spans address hold plain data too: `operands`
///   (index operands), `steps` (the audited step records), and `srcs`
///   and `tys` (step and pass sources and their element types);
/// * `passes` is the one array holding code: each pass's `eval`
///   is an `Arc<dyn Fn + Send + Sync>` closure
///   ([`fpir_isa::SemSliceFn`]) compiled once at link time. A closure
///   captures only `Copy` data (element types, shift widths, a splat
///   scalar) and is only ever called through `&`, so sharing one across
///   threads needs no lock, and cloning the executable shares it;
/// * the **splat constant pool** (`consts`, [`Lanes`] at each constant's
///   own width) is materialized once at link time and only ever read
///   afterwards — every execution path takes `&self.consts[..]`, so
///   concurrent invocations share the pool without copies or locks;
/// * `inputs` is owned, never-mutated `String` data.
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
    pub(crate) consts: Vec<Lanes>,
    pub(crate) code: Vec<LInst>,
    /// Operand lists of `code`, addressed by [`LInst::args`].
    pub(crate) operands: Vec<Operand>,
    /// Steps of every kernel, addressed by [`LInst::steps`].
    pub(crate) steps: Vec<FStep>,
    /// Passes of every kernel, addressed by [`LInst::passes`].
    pub(crate) passes: Vec<FPass>,
    /// Sources of steps and passes, addressed by [`FStep::srcs`]
    /// and [`FPass::srcs`], and the element type of each (`tys[i]` is
    /// the type of `srcs[i]`).
    pub(crate) srcs: Vec<FSrc>,
    pub(crate) tys: Vec<ScalarType>,
    pub(crate) phys_regs: usize,
    pub(crate) output: OutLoc,
}

/// Reusable per-thread execution state: the physical register file and a
/// pool of recycled lane buffers, every one at its element type's own
/// width ([`Lanes`]). Steady-state invocations allocate nothing —
/// [`ExecCtx::buffer_allocs`] stops growing after warm-up (the regression
/// tests pin this).
#[derive(Debug, Default)]
pub struct ExecCtx {
    regs: Vec<Option<Lanes>>,
    /// Recycled lane buffers, of any element type.
    spare: Vec<Lanes>,
    /// Recycled `i128` buffers for the [`Value`]s at the engine's
    /// boundary ([`Executable::run`], [`Executable::run_slots`]).
    values: Vec<Vec<i128>>,
    /// The inputs those entry points convert their [`Value`]s into.
    ins: Vec<Lanes>,
    /// Kernel scratchpad: one strip-width row per step index and element
    /// type (step `j` at type `t` is row `j · KINDS + t`, by the
    /// [`ScalarType`] discriminant), sized on first use and reused by
    /// every dispatch thereafter (steady-state runs allocate nothing).
    scratch: Vec<Lanes>,
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
        self.values.push(v.into_lanes());
    }

    /// Take a recycled `i128` lane buffer (empty, capacity preserved) or
    /// a fresh one; pair with [`Value::new`] to build inputs without
    /// allocating in steady state.
    pub fn take_buffer(&mut self) -> Vec<i128> {
        take_values(&mut self.values, &mut self.buffer_allocs)
    }

    /// Take a recycled buffer for lanes of `elem` (empty, capacity
    /// preserved) or a fresh one: the inputs of
    /// [`Executable::run_lanes`], built without allocating in steady
    /// state.
    pub fn take_lanes(&mut self, elem: ScalarType) -> Lanes {
        let mut l = reuse_lanes(&mut self.spare, &mut self.buffer_allocs, elem);
        l.clear();
        l
    }

    /// Hand a no-longer-needed lane buffer back for reuse.
    pub fn recycle_lanes(&mut self, l: Lanes) {
        self.spare.push(l);
    }
}

/// Watches the passes a run dispatches: the hook of the pass-timer
/// probe (`tests/pass_timer.rs`), which times each pass kind. The
/// engine's own entry points pass `()`, whose calls compile to nothing.
pub trait PassObserver {
    /// Pass `pass` (see [`Executable::pass_kind`]) is about to run.
    fn before(&mut self, pass: usize);
    /// Pass `pass` ran over `lanes` lanes.
    fn after(&mut self, pass: usize, lanes: usize);
}

impl PassObserver for () {
    #[inline(always)]
    fn before(&mut self, _: usize) {}
    #[inline(always)]
    fn after(&mut self, _: usize, _: usize) {}
}

/// A recycled `i128` buffer, cleared, or a fresh one.
fn take_values(pool: &mut Vec<Vec<i128>>, allocs: &mut u64) -> Vec<i128> {
    match pool.pop() {
        Some(mut b) => {
            b.clear();
            b
        }
        None => {
            *allocs += 1;
            Vec::new()
        }
    }
}

/// A recycled buffer for lanes of `elem`, its old lanes left in place
/// for the caller to overwrite, or a fresh one.
fn reuse_lanes(pool: &mut Vec<Lanes>, allocs: &mut u64, elem: ScalarType) -> Lanes {
    match pool.iter().rposition(|l| l.elem() == elem) {
        Some(i) => pool.swap_remove(i),
        None => {
            *allocs += 1;
            Lanes::new(elem)
        }
    }
}

/// The vector type of `lanes`.
pub(crate) fn lanes_ty(lanes: &Slice<'_>) -> VectorType {
    VectorType::new(lanes.elem(), lanes.len() as u32)
}

/// A program's leaves resolved for linking: input slots in first-load
/// order, the splat pool in first-use order, and what each register
/// resolves to. Both link paths build on it ([`Executable::link`] and
/// [`crate::fuse`]'s graph), so slot order, pool order and the link
/// errors have one definition.
pub(crate) struct Leaves {
    pub(crate) inputs: Vec<InputSlot>,
    /// The splat pool: each constant's type and lane value.
    pub(crate) consts: Vec<(VectorType, i128)>,
    /// What each program register (by position) resolves to.
    pub(crate) defs: Vec<Src>,
}

impl Leaves {
    /// Walk `p` in program order, interning loads into slots and splats
    /// into the pool and resolving each `Op` against the table and
    /// checking its operand shapes. `on_op` sees every `Op` in order —
    /// its position, instruction, opcode, semantics and source registers,
    /// with `defs` of every earlier register — so its errors interleave
    /// with the walk's in program order.
    ///
    /// # Errors
    ///
    /// An ISA mismatch, an opcode missing from the table, operands the
    /// semantics reject (the [`ExecError::Sem`] that
    /// [`crate::vm::execute`] raises when it reaches the instruction), an
    /// input loaded at two different types, more than 2^16 input slots or
    /// pool constants, or an error of `on_op`.
    pub(crate) fn resolve(
        p: &Program,
        target: &Target,
        mut on_op: impl FnMut(usize, &PInst, MachOp, MachSem, &[Reg], &[Src]) -> Result<(), ExecError>,
    ) -> Result<Leaves, ExecError> {
        if p.isa != target.isa {
            return Err(ExecError::IsaMismatch { program: p.isa, target: target.isa });
        }
        let insts = p.insts();
        let loads = insts.iter().filter(|i| matches!(i.kind, PKind::Load { .. })).count();
        let splats = insts.iter().filter(|i| matches!(i.kind, PKind::Splat { .. })).count();
        let mut slot_of: HashMap<&str, u16> = HashMap::with_capacity(loads);
        let mut const_of: HashMap<(VectorType, i128), u16> = HashMap::with_capacity(splats);
        let mut inputs: Vec<InputSlot> = Vec::with_capacity(loads);
        let mut consts: Vec<(VectorType, i128)> = Vec::with_capacity(splats);
        let mut defs: Vec<Src> = Vec::with_capacity(insts.len());
        let mut ops = 0;
        for (i, inst) in insts.iter().enumerate() {
            let def = match &inst.kind {
                PKind::Load { name } => Src::In(match slot_of.get(name.as_str()) {
                    Some(&s) => {
                        let first = inputs[s as usize].ty;
                        if first != inst.ty {
                            // Two loads of one name at different types can
                            // never both succeed; reject at link time with
                            // the second load's position.
                            return Err(ExecError::InputTypeMismatch {
                                name: name.clone(),
                                pos: i,
                                reg: inst.dst,
                                declared: inst.ty,
                                bound: first,
                            });
                        }
                        s
                    }
                    None => {
                        let s = index16(inputs.len(), "input slots")?;
                        slot_of.insert(name, s);
                        inputs.push(InputSlot {
                            name: name.clone(),
                            ty: inst.ty,
                            pos: i,
                            reg: inst.dst,
                        });
                        s
                    }
                }),
                PKind::Splat { value } => Src::Const(match const_of.entry((inst.ty, *value)) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(e) => {
                        let c = index16(consts.len(), "pool constants")?;
                        consts.push((inst.ty, *value));
                        *e.insert(c)
                    }
                }),
                PKind::Op { op, args } => {
                    let def = target.def(*op).ok_or(ExecError::UnknownOp {
                        op: *op,
                        pos: i,
                        reg: inst.dst,
                    })?;
                    check_shape(def.sem, args.iter().map(|&r| insts[r].ty), inst.ty)
                        .map_err(|what| ExecError::Sem { op: *op, pos: i, reg: inst.dst, what })?;
                    on_op(i, inst, *op, def.sem, args, &defs)?;
                    ops += 1;
                    Src::Node(ops - 1)
                }
            };
            defs.push(def);
        }
        Ok(Leaves { inputs, consts, defs })
    }
}

impl Executable {
    /// Link a program against its target: resolve names to slots,
    /// opcodes to semantics, splats to a constant pool, and virtual
    /// registers to a recycled physical register file. Each instruction
    /// becomes a one-step kernel whose pass is built as the FAST link
    /// builds its passes.
    ///
    /// # Errors
    ///
    /// Fails on an ISA mismatch, an opcode missing from the table,
    /// operands the semantics reject ([`ExecError::Sem`]), an input
    /// loaded at two different types, or a program needing more than
    /// 2^16 input slots, pool constants or physical registers
    /// ([`ExecError::IndexOverflow`]).
    pub fn link(p: &Program, target: &Target) -> Result<Executable, ExecError> {
        let insts = p.insts();
        let n = insts.len();

        // Liveness: last use of each virtual register (by position); the
        // output is used "after the end".
        const NEVER: usize = usize::MAX;
        let mut last_use = vec![NEVER; n];
        let mut n_ops = 0;
        let mut n_operands = 0;
        for (i, inst) in insts.iter().enumerate() {
            if let PKind::Op { args, .. } = &inst.kind {
                n_ops += 1;
                n_operands += args.len();
                for &r in args {
                    last_use[r] = i;
                }
            }
        }
        last_use[p.output()] = n;

        let mut emitted = Emitted::with_capacity(n_ops, n_operands);
        let mut arg_splat: Vec<Option<i128>> = Vec::new();
        let mut scratch = PassScratch::default();
        // Linear-scan register allocation state.
        let mut phys_of: Vec<Option<u16>> = vec![None; n];
        let mut free: Vec<u16> = Vec::new();
        let mut next_phys: usize = 0;

        let Leaves { inputs, consts, defs } =
            Leaves::resolve(p, target, |i, inst, op, sem, args, defs| {
                let resolved = Span::push(
                    &mut emitted.operands,
                    args.iter().map(|&r| match defs[r] {
                        Src::In(s) => Operand::In(s),
                        Src::Const(c) => Operand::Const(c),
                        Src::Node(_) => {
                            Operand::Reg(phys_of[r].expect("programs define registers before use"))
                        }
                    }),
                );
                // Allocate the destination BEFORE freeing operands dying
                // here: the engine reclaims the destination's old value
                // before reading operands, so the two must never share a
                // physical register.
                let dst = match free.pop() {
                    Some(d) => d,
                    None => {
                        let d = index16(next_phys, "physical registers")?;
                        next_phys += 1;
                        d
                    }
                };
                phys_of[i] = Some(dst);
                for &r in args {
                    if last_use[r] == i && matches!(defs[r], Src::Node(_)) {
                        // `take` makes a register appearing twice in one
                        // operand list free exactly once.
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
                // One step reading the operands in order, and its pass.
                let steps0 = emitted.steps.len();
                let srcs =
                    args.iter().enumerate().map(|(k, &r)| (FSrc::Arg(k as u16), insts[r].ty.elem));
                emitted.push_step(op, sem, inst.ty, i as u32, inst.dst, srcs);
                arg_splat.clear();
                arg_splat.extend(args.iter().map(|&r| match insts[r].kind {
                    PKind::Splat { value } => Some(value),
                    _ => None,
                }));
                let passes = build_passes(steps0, &arg_splat, &mut emitted, &mut scratch);
                emitted.code.push(LInst {
                    op,
                    steps: Span::of(steps0, emitted.steps.len()),
                    passes,
                    ty: inst.ty,
                    dst,
                    args: resolved,
                    pos: i as u32,
                    reg: inst.dst,
                    dst_dead,
                });
                Ok(())
            })?;

        let out = p.output();
        let output = match defs[out] {
            Src::In(s) => OutLoc::In(s),
            Src::Const(c) => OutLoc::Const(c),
            Src::Node(_) => OutLoc::Reg(phys_of[out].expect("the output register stays live")),
        };
        emitted.phys_regs = next_phys;
        let exe = emitted.executable(target.isa, inputs, &consts, output);
        // Debug builds audit every artifact leaving the linker against
        // the static verifier: a linker bug is an internal invariant
        // violation (panic), never a user-visible ExecError.
        #[cfg(debug_assertions)]
        if let Err(v) = crate::verify::verify_executable(&exe) {
            panic!("link produced an unverifiable executable: {v}\n{exe}");
        }
        Ok(exe)
    }

    /// Link per `cfg`. [`crate::fuse::ExecConfig::REFERENCE`] is the
    /// plain [`Executable::link`]; [`crate::fuse::ExecConfig::FAST`]
    /// links through [`crate::fuse`] instead: the program becomes a
    /// def-use graph, which is cleaned up (copy propagation, constant
    /// folding, dead-write elimination) and fused into superinstructions
    /// before registers are allocated. The two are bit-identical on every
    /// environment — gated by difftest, the fused proptests, and every
    /// benchmark.
    ///
    /// # Errors
    ///
    /// As [`Executable::link`]. Fusion folds no constant that would
    /// overflow the pool, and allocates registers only for the fused
    /// code, so a FAST link fails on physical registers only when the
    /// fused program itself needs more than 2^16.
    pub fn link_with(
        p: &Program,
        target: &Target,
        cfg: &crate::fuse::ExecConfig,
    ) -> Result<Executable, ExecError> {
        if cfg.fuse {
            crate::fuse::link(p, target)
        } else {
            Executable::link(p, target)
        }
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

    /// Number of fused superinstructions (kernels of ≥ 2 steps). Zero
    /// for an unfused link.
    pub fn fused_count(&self) -> usize {
        self.code.iter().filter(|i| i.steps.len() >= 2).count()
    }

    /// Number of compiled strip loops over all kernels: one per step,
    /// except that a merged producer→consumer pair shares one. For an
    /// unfused link this equals [`Executable::op_count`].
    pub fn pass_count(&self) -> usize {
        self.passes.len()
    }

    /// Total original instructions represented: the steps of every
    /// kernel. For an unfused link this equals
    /// [`Executable::op_count`].
    pub fn step_count(&self) -> usize {
        self.steps.len()
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
    /// [`Executable::run_lanes`] in hot loops that can pre-resolve).
    ///
    /// # Errors
    ///
    /// Exactly as [`crate::vm::execute`] on a program that links:
    /// unbound inputs or mistyped bindings (operands the semantics reject
    /// fail the link instead).
    pub fn run(&self, ctx: &mut ExecCtx, env: &Env) -> Result<Value, ExecError> {
        let mut ins: Vec<&Value> = Vec::with_capacity(self.inputs.len());
        for slot in &self.inputs {
            let v = env.get(&slot.name).ok_or_else(|| ExecError::UnboundInput {
                name: slot.name.clone(),
                pos: slot.pos,
                reg: slot.reg,
            })?;
            if v.ty() != slot.ty {
                return Err(self.mistyped(slot, v.ty()));
            }
            ins.push(v);
        }
        self.run_values(ctx, ins.as_slice())
    }

    /// Run on positionally-bound inputs: `slots[i]` binds
    /// [`Executable::inputs`]`[i]`. Only types are re-checked.
    ///
    /// # Errors
    ///
    /// Mistyped or missing slot values ([`ExecError::UnboundInput`] names
    /// the first missing one), or more values than slots
    /// ([`ExecError::ExtraSlots`]).
    pub fn run_slots(&self, ctx: &mut ExecCtx, slots: &[Value]) -> Result<Value, ExecError> {
        self.check_count(slots.len())?;
        for (v, slot) in slots.iter().zip(&self.inputs) {
            if v.ty() != slot.ty {
                return Err(self.mistyped(slot, v.ty()));
            }
        }
        self.run_values(ctx, slots)
    }

    /// [`Executable::run_lanes`], telling `obs` about every pass it
    /// dispatches.
    ///
    /// # Errors
    ///
    /// As [`Executable::run_lanes`].
    pub fn run_lanes_observed<'a>(
        &'a self,
        ctx: &'a mut ExecCtx,
        slots: &'a [Lanes],
        obs: &mut impl PassObserver,
    ) -> Result<Slice<'a>, ExecError> {
        self.check_lanes(slots)?;
        Ok(self.run_resolved(ctx, slots, obs))
    }

    /// What pass `i` (below [`Executable::pass_count`]) computes: its
    /// step's semantics and operand and result types, the operand whose
    /// splat constant it captured, and the producer a merged pass
    /// absorbed.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn pass_kind(&self, i: usize) -> String {
        let pass = &self.passes[i];
        // Kernels own consecutive runs of passes, in code order.
        let inst = &self.code[self.code.partition_point(|x| x.passes.range().end <= i)];
        let step = |j: u16| {
            let s = &self.steps[inst.steps.start as usize + j as usize];
            format!("{:?} {:?} -> {}", s.sem, &self.tys[s.srcs.range()], s.ty.elem)
        };
        let mut kind = step(pass.last);
        if let Some(k) = pass.captured {
            kind += &format!(", operand {k} captured");
        }
        if let Some(t) = pass.absorbed {
            kind = format!("pair {} into {kind}", step(t));
        }
        kind
    }

    /// Run on positionally-bound inputs held at their own width:
    /// `slots[i]` binds [`Executable::inputs`]`[i]`. The engine's native
    /// entry point: nothing converts, and the result is borrowed from the
    /// context (or from the inputs or the constant pool) until the next
    /// run.
    ///
    /// # Errors
    ///
    /// As [`Executable::run_slots`]: a slot's lanes must have its
    /// declared element type and lane count.
    pub fn run_lanes<'a>(
        &'a self,
        ctx: &'a mut ExecCtx,
        slots: &'a [Lanes],
    ) -> Result<Slice<'a>, ExecError> {
        self.check_lanes(slots)?;
        Ok(self.run_resolved(ctx, slots, &mut ()))
    }

    /// The input checks of [`Executable::run_lanes`].
    fn check_lanes(&self, slots: &[Lanes]) -> Result<(), ExecError> {
        self.check_count(slots.len())?;
        for (l, slot) in slots.iter().zip(&self.inputs) {
            let ty = lanes_ty(&l.as_slice());
            if ty != slot.ty {
                return Err(self.mistyped(slot, ty));
            }
        }
        Ok(())
    }

    /// The slot-count checks of the positional entry points.
    fn check_count(&self, given: usize) -> Result<(), ExecError> {
        if let Some(missing) = self.inputs.get(given) {
            return Err(ExecError::UnboundInput {
                name: missing.name.clone(),
                pos: missing.pos,
                reg: missing.reg,
            });
        }
        if given > self.inputs.len() {
            return Err(ExecError::ExtraSlots { given, inputs: self.inputs.len() });
        }
        Ok(())
    }

    fn mistyped(&self, slot: &InputSlot, bound: VectorType) -> ExecError {
        ExecError::InputTypeMismatch {
            name: slot.name.clone(),
            pos: slot.pos,
            reg: slot.reg,
            declared: slot.ty,
            bound,
        }
    }

    /// The engine's boundary with [`Value`]: type-checked inputs
    /// converted to their own width, and the result converted back.
    fn run_values<I: Ins + ?Sized>(&self, ctx: &mut ExecCtx, ins: &I) -> Result<Value, ExecError> {
        let mut lanes = std::mem::take(&mut ctx.ins);
        for l in lanes.drain(..) {
            ctx.spare.push(l);
        }
        for i in 0..self.inputs.len() {
            let v = ins.slot(i);
            let mut l = ctx.take_lanes(v.ty().elem);
            l.extend_from(v.lanes());
            lanes.push(l);
        }
        let mut out = ctx.take_buffer();
        let s = self.run_resolved(ctx, &lanes, &mut ());
        s.write_to(&mut out);
        let ty = lanes_ty(&s);
        ctx.ins = lanes;
        // Semantics wrap/saturate into the result type, so the lanes
        // satisfy the `Value` invariant by construction.
        Ok(Value::trusted(ty, out))
    }

    /// The hot loop: direct dispatch over resolved operands, recycled
    /// register file, zero steady-state allocation. It cannot fail: the
    /// link checked every kernel's shapes (arity, lane counts, widening
    /// widths), and external operand types are fixed by the link and
    /// re-checked at binding, so each pass is one call into its compiled
    /// vector kernel with no per-step validation.
    fn run_resolved<'a>(
        &'a self,
        ctx: &'a mut ExecCtx,
        ins: &'a [Lanes],
        obs: &mut impl PassObserver,
    ) -> Slice<'a> {
        if ctx.regs.len() < self.phys_regs {
            ctx.regs.resize_with(self.phys_regs, || None);
        }
        if ctx.scratch.is_empty() {
            let mut kinds = fpir::types::ALL_SCALAR_TYPES;
            kinds.sort_by_key(|&t| t as usize);
            ctx.scratch.extend((0..MAX_STEPS).flat_map(|_| kinds.map(Lanes::new)));
        }
        ctx.invocations += 1;
        let ExecCtx { regs, spare, scratch, buffer_allocs, .. } = ctx;
        for inst in &self.code {
            // Reclaim the destination's previous (dead by liveness)
            // value; the allocator guarantees the destination never
            // aliases an operand of this instruction.
            if let Some(old) = regs[inst.dst as usize].take() {
                spare.push(old);
            }
            let mut buf = reuse_lanes(spare, buffer_allocs, inst.ty.elem);
            {
                let args = &self.operands[inst.args.range()];
                let mut xs: [Slice<'_>; MAX_OPERANDS] = [Slice::U8(&[]); MAX_OPERANDS];
                for (x, a) in xs.iter_mut().zip(args) {
                    *x = match *a {
                        Operand::Reg(r) => regs[r as usize]
                            .as_ref()
                            .expect("linked instructions define registers before use")
                            .as_slice(),
                        Operand::In(s) => ins[s as usize].as_slice(),
                        Operand::Const(c) => self.consts[c as usize].as_slice(),
                    };
                }
                // Each pass runs over lanes at their own width, its
                // intermediates staying in the context scratchpad. The
                // verifier's fused-shape check audits the wiring.
                let lanes = inst.ty.lanes as usize;
                let steps = &self.steps[inst.steps.range()];
                let root = steps.len() - 1;
                // Size the destination without zeroing it: the root pass
                // overwrites every lane (operand and scratch slices are
                // exactly `lanes` long, and every compiled kernel writes
                // its full output slice), so recycled contents never
                // leak.
                buf.resize(lanes);
                for (p, pass) in self.passes[inst.passes.range()].iter().enumerate() {
                    let p = inst.passes.start as usize + p;
                    obs.before(p);
                    let range = pass.srcs.range();
                    let (srcs, tys) = (&self.srcs[range.clone()], &self.tys[range]);
                    let j = pass.last as usize;
                    // The root writes the destination buffer directly;
                    // earlier passes fill step `j`'s row at its result
                    // type. Sources are rows of earlier steps.
                    let (lo, hi) = scratch.split_at_mut(j * KINDS);
                    let dst = if j == root {
                        buf.as_mut()
                    } else {
                        let row = &mut hi[steps[j].ty.elem as usize];
                        if row.len() != lanes {
                            // First dispatch at this width; the row is
                            // kept for every later run.
                            row.resize(lanes);
                        }
                        row.as_mut()
                    };
                    macro_rules! src {
                        ($k:expr) => {
                            match srcs[$k] {
                                FSrc::Arg(a) => xs[a as usize],
                                FSrc::Tmp(t) => {
                                    lo[t as usize * KINDS + tys[$k] as usize].as_slice()
                                }
                            }
                        };
                    }
                    // Stage exactly the pass's operands: almost every
                    // pass reads 1–4 sources, and the fixed-size array
                    // keeps the staging cost off the `MAX_OPERANDS`-wide
                    // worst case.
                    match srcs.len() {
                        1 => (pass.eval)(&[src!(0)], dst),
                        2 => (pass.eval)(&[src!(0), src!(1)], dst),
                        3 => (pass.eval)(&[src!(0), src!(1), src!(2)], dst),
                        4 => (pass.eval)(&[src!(0), src!(1), src!(2), src!(3)], dst),
                        _ => {
                            let mut ys = [Slice::U8(&[]); MAX_OPERANDS];
                            for (y, k) in ys.iter_mut().zip(0..srcs.len()) {
                                *y = src!(k);
                            }
                            (pass.eval)(&ys[..srcs.len()], dst);
                        }
                    }
                    obs.after(p, lanes);
                }
            }
            if inst.dst_dead {
                spare.push(buf);
            } else {
                regs[inst.dst as usize] = Some(buf);
            }
        }
        match self.output {
            OutLoc::Reg(r) => {
                regs[r as usize].as_ref().expect("the output register was just written").as_slice()
            }
            OutLoc::In(s) => ins[s as usize].as_slice(),
            OutLoc::Const(c) => self.consts[c as usize].as_slice(),
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
            let _ = writeln!(out, "const     c{i}.{}, #{}", lanes_ty(&c.as_slice()), c.get(0));
        }
        for inst in &self.code {
            let srcs = self.operands[inst.args.range()]
                .iter()
                .map(|a| operand_name(*a))
                .collect::<Vec<_>>()
                .join(", ");
            // A kernel lists its steps' opcodes in evaluation order, root
            // last: a one-step kernel is its own opcode.
            let chain = self.steps[inst.steps.range()]
                .iter()
                .map(|s| s.op.name)
                .collect::<Vec<_>>()
                .join("+");
            let _ = writeln!(out, "{:<9} r{}.{}, {}", chain, inst.dst, inst.ty, srcs);
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

/// The splat pool materialized, each constant at its own width.
pub(crate) fn native_pool(consts: &[(VectorType, i128)]) -> Vec<Lanes> {
    consts.iter().map(|&(ty, v)| Lanes::splat(ty.elem, v, ty.lanes as usize)).collect()
}

/// Positional input access, implemented for owned and reference slices so
/// [`Executable::run`] and [`Executable::run_slots`] share one
/// monomorphized code path without a per-invocation allocation.
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

    #[test]
    fn run_slots_rejects_extra_values_on_both_links() {
        let t = V::new(S::U8, 4);
        let isa = Isa::ArmNeon;
        // No inputs at all (FAST folds `3 + 4` into the pool), and one
        // input bound twice.
        let cases = [
            (build::add(build::constant(3, t), build::constant(4, t)), 0),
            (build::var("x", t), 1),
        ];
        for (e, inputs) in cases {
            let p = emit(&legalize(&e, target(isa)).unwrap(), target(isa)).unwrap();
            for cfg in [crate::fuse::ExecConfig::REFERENCE, crate::fuse::ExecConfig::FAST] {
                let exe = Executable::link_with(&p, target(isa), &cfg).unwrap();
                assert_eq!(exe.inputs().len(), inputs);
                let slots = vec![Value::splat(1, t); inputs + 1];
                let err = exe.run_slots(&mut exe.new_ctx(), &slots).unwrap_err();
                assert_eq!(err, ExecError::ExtraSlots { given: inputs + 1, inputs }, "{cfg:?}");
                let msg = err.to_string();
                assert!(msg.contains(&format!("{} values", inputs + 1)), "{msg}");
                assert!(msg.contains(&format!("{inputs} input slots")), "{msg}");
                // The exact count still runs.
                assert!(exe.run_slots(&mut exe.new_ctx(), &slots[..inputs]).is_ok(), "{cfg:?}");
            }
        }
    }

    /// A balanced tree of `add`s over `terms`.
    fn balanced_sum(terms: &[RcExpr]) -> RcExpr {
        match terms {
            [one] => one.clone(),
            _ => {
                let (l, r) = terms.split_at(terms.len() / 2);
                build::add(balanced_sum(l), balanced_sum(r))
            }
        }
    }

    fn assert_overflows(p: &Program, isa: Isa, space: &str) {
        for cfg in [crate::fuse::ExecConfig::REFERENCE, crate::fuse::ExecConfig::FAST] {
            match Executable::link_with(p, target(isa), &cfg) {
                Err(ExecError::IndexOverflow { space: s, limit: 65536 }) if s == space => {}
                other => panic!("{cfg:?}: expected a {space} overflow, got {:?}", other.err()),
            }
        }
    }

    #[test]
    fn more_input_slots_than_u16_indices_fail_to_link() {
        // 65,547 distinct inputs: a wrapping slot index would alias the
        // last input onto slot 10 and serve the wrong sum.
        let t = V::new(S::U16, 8);
        let n = 65_547;
        let names: Vec<String> = (0..n).map(|k| format!("x{k}")).collect();
        let e = balanced_sum(&names.iter().map(|x| build::var(x, t)).collect::<Vec<_>>());
        let isa = Isa::ArmNeon;
        let p = emit(&legalize(&e, target(isa)).unwrap(), target(isa)).unwrap();
        let env = names.iter().enumerate().fold(Env::new(), |env, (k, x)| {
            env.bind(x, Value::splat(if k == n - 1 { 1000 } else { 0 }, t))
        });
        assert_eq!(execute(&p, &env, target(isa)).unwrap(), Value::splat(1000, t));
        assert_overflows(&p, isa, "input slots");
        let err = Executable::link(&p, target(isa)).unwrap_err().to_string();
        assert!(err.contains("65536 input slots"), "{err}");
    }

    #[test]
    fn more_pool_constants_than_u16_indices_fail_to_link() {
        let t = V::new(S::U32, 4);
        let x = build::var("x", t);
        let terms: Vec<RcExpr> =
            (0..65_537).map(|k| build::add(x.clone(), build::constant(k + 1, t))).collect();
        let isa = Isa::ArmNeon;
        let p = emit(&legalize(&balanced_sum(&terms), target(isa)).unwrap(), target(isa)).unwrap();
        assert_overflows(&p, isa, "pool constants");
    }

    #[test]
    fn more_physical_registers_than_u16_indices_fail_to_link() {
        // 65,536 distinct pair sums, all summed once in order and once in
        // reverse: every pair stays live until the second sum reads it.
        let t = V::new(S::U8, 4);
        let xs: Vec<RcExpr> = (0..400).map(|k| build::var(&format!("x{k}"), t)).collect();
        let mut pairs = Vec::new();
        'outer: for a in 0..xs.len() {
            for b in a + 1..xs.len() {
                if pairs.len() == 65_536 {
                    break 'outer;
                }
                pairs.push(build::add(xs[a].clone(), xs[b].clone()));
            }
        }
        let forward = balanced_sum(&pairs);
        pairs.reverse();
        let e = build::add(forward, balanced_sum(&pairs));
        let isa = Isa::ArmNeon;
        let p = emit(&legalize(&e, target(isa)).unwrap(), target(isa)).unwrap();
        assert_overflows(&p, isa, "physical registers");
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

    /// The plain link gives every instruction one step and one pass: a
    /// workload artifact's plain link has as many kernels, steps and
    /// passes as the program has instructions, and fuses none.
    #[test]
    fn plain_links_are_one_step_one_pass_kernels() {
        let wl = fpir_workloads::all_workloads().into_iter().next().unwrap();
        for isa in fpir::machine::ALL_ISAS {
            let pf = pitchfork::Pitchfork::new(isa);
            let p = emit(&pf.compile(&wl.pipeline.expr).unwrap().lowered, target(isa)).unwrap();
            let exe = Executable::link(&p, target(isa)).unwrap();
            assert_eq!(exe.op_count(), p.op_count(), "{isa}");
            assert_eq!(exe.step_count(), p.op_count(), "{isa}");
            assert_eq!(exe.pass_count(), p.op_count(), "{isa}");
            assert_eq!(exe.fused_count(), 0, "{isa}");
            for inst in &exe.code {
                assert_eq!((inst.steps.len(), inst.passes.len()), (1, 1), "{isa}\n{exe}");
            }
        }
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
