//! The linked execution engine: compile a [`Program`] once into an
//! [`Executable`], run it many times.
//!
//! [`crate::vm::execute`] is the REFERENCE engine: per step it looks the
//! opcode up in the [`Target`] table, resolves input names through a
//! string-keyed environment, materializes splat constants, and clones
//! every operand `Value` out of the register vector. That is faithful and
//! simple, but an end-to-end experiment executes the same program
//! thousands of times (once per row segment of an image), repaying the
//! same resolution work on every invocation.
//!
//! Linking ([`Executable::link_with`], built in [`crate::fuse`]) performs
//! all of it once:
//!
//! * **input slots** — distinct `Load` names become dense slot indices;
//!   an invocation binds a slice of values positionally instead of
//!   hashing strings (and re-checks only the types, O(inputs));
//! * **one tape of steps** — the linked code is a flat list of steps in
//!   evaluation order, one per program instruction the link keeps. Each
//!   step carries its [`MachSem`] resolved from the table at link time,
//!   its operand shapes checked ([`fpir_isa::check_shape`]) and its strip
//!   loop compiled; each of its sources names an input slot, a pool
//!   constant or a row directly, and it writes one row. The hot loop
//!   never touches the [`Target`] again;
//! * **shared constants** — splats are interned once into a constant
//!   pool owned by the executable and shared by every invocation (the
//!   cycle model already treats them as loop-invariant and free);
//! * **liveness + one typed row file** — a linear scan over last uses
//!   maps virtual registers onto a small physical register file. The
//!   context holds one row per row index and element type: kernel temp
//!   rows first (row `j` for a kernel's `j`-th step), then register `r`
//!   as row `MAX_STEPS + r`, so every row a step reads or writes is known
//!   at link time. A step that writes a register row ends its kernel.
//!   Each row is kept at the widest run so far and written in place, so
//!   the run loop performs **zero heap allocation** in steady state, and
//!   the result stays in its row until the next run overwrites it;
//! * **lanes at their own width** — every row, recycled input buffer and
//!   run-width splat holds its lanes at its element type's width
//!   ([`Lanes`]): a `u8` lane is one byte. Each step is one call into a
//!   strip loop built for exactly its storage types — a REFERENCE link
//!   makes every program instruction a one-step kernel, a FAST link fuses
//!   chains into longer kernels. [`Executable::run`] converts [`Value`]s
//!   at the engine's boundary; [`Executable::run_lanes`] takes native
//!   inputs and lends out the native result;
//! * **the run sets the width** — every semantic is lane-wise
//!   ([`fpir_isa::check_shape`] gives every operand the result's lane
//!   count), so lane `i` of a result reads only lane `i` of each operand
//!   and a run may cover any number of lanes. [`Executable::run_lanes`]
//!   takes slots of any common lane count from 1 to [`RUN_LANES`], and
//!   rows and pool constants take the run's width, not the declared one.
//!   A tiled image run makes one call per row segment, so each step's
//!   fixed cost (the indirect call, the storage matches, the loop
//!   prologue) is paid once per up to [`RUN_LANES`] lanes instead of once
//!   per declared vector. The linked pool holds each constant as its type
//!   and value; the context materializes its splats at the run width.
//!
//! The linked engine is differentially gated against the reference
//! engine everywhere [`crate::difftest`] runs: on every environment the
//! two must return the same `Result` — same output value, or the same
//! [`ExecError`].

use crate::program::{Program, Reg};
use crate::vm::ExecError;
use fpir::interp::{Env, Value};
use fpir::types::{ScalarType, VectorType};
use fpir::{Isa, MachOp};
use fpir_isa::{Lanes, MachSem, Slice, Target, MAX_ARITY};
use std::fmt;
use std::fmt::Write as _;
use std::ops::Range;

/// Upper bound on the number of steps in one kernel: its steps before
/// the last write temp rows `0..MAX_STEPS`, and register `r` is row
/// `MAX_STEPS + r`.
pub(crate) const MAX_STEPS: usize = 32;

/// Element types: the row file holds every row once per type.
const KINDS: usize = 8;

/// The most lanes one [`Executable::run_lanes`] call takes. A tiled
/// image run covers a row in segments of this many lanes (the last takes
/// what remains), so each step's fixed cost is paid once per segment.
/// Of the widths measured on the figure artifacts (128 to 2048), 2048
/// ran fastest.
pub const RUN_LANES: usize = 2048;

/// A run of entries in one of an [`Executable`]'s flat arrays:
/// `array[start..start + len]`. Step sources live in per-executable
/// arrays addressed by spans, so a link makes a fixed number of
/// allocations for them however long the program is.
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
}

/// Where a step's operand lanes come from; also where the executable's
/// result is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FSrc {
    /// An input slot bound at invocation time.
    In(u16),
    /// An entry of the link-time constant pool.
    Const(u16),
    /// A row of the context's row file, at the source's element type: a
    /// temp row (below [`MAX_STEPS`]) written by an earlier step of the
    /// same kernel, or register `r`'s row `MAX_STEPS + r`.
    Row(u32),
}

impl FSrc {
    /// The register this source reads, if it reads one.
    pub(crate) fn reg(self) -> Option<usize> {
        match self {
            FSrc::Row(r) => (r as usize).checked_sub(MAX_STEPS),
            _ => None,
        }
    }
}

/// One program instruction on the tape, and the compiled strip loop that
/// runs it. The original opcode, program position, and virtual register
/// ride along so the verifier can audit the tape and blame the exact
/// source instruction.
#[derive(Clone)]
pub(crate) struct FStep {
    /// Original opcode of the instruction.
    pub(crate) op: MachOp,
    /// Its semantics — the audited source of truth for `eval`.
    pub(crate) sem: MachSem,
    /// Its result type.
    pub(crate) ty: VectorType,
    /// Sources, one per operand, and the element type each is read at,
    /// precomputed at link time: a span of [`Executable::srcs`] and of
    /// [`Executable::tys`].
    pub(crate) srcs: Span,
    /// The row it writes at its result's element type: its index within
    /// its kernel for a temp, or `MAX_STEPS + r` for register `r`, which
    /// ends the kernel.
    pub(crate) dst: u32,
    /// Position of the instruction in the source program.
    pub(crate) pos: u32,
    /// Its destination virtual register in the source program.
    pub(crate) reg: Reg,
    /// The source whose splat constant `eval` captured, if any
    /// ([`fpir_isa::sem_slice_fn_splat`]); it reads a pool constant.
    pub(crate) captured: Option<u8>,
    /// The compiled strip loop, built once at link time from the audited
    /// `sem`/`srcs`/`ty` fields: [`fpir_isa::sem_slice_fn_splat`] when a
    /// splat-constant operand can be captured, else
    /// [`fpir_isa::sem_slice_fn`]. Executing it is one call into a
    /// monomorphic vector loop over lanes at their own width: no
    /// dispatch, shape checks, or operand-type reads remain at run time.
    pub(crate) eval: fpir_isa::SemSliceFn,
}

impl FStep {
    /// The register this step writes, if it ends its kernel.
    pub(crate) fn dst_reg(&self) -> Option<usize> {
        FSrc::Row(self.dst).reg()
    }
}

impl fmt::Debug for FStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FStep")
            .field("op", &self.op)
            .field("sem", &self.sem)
            .field("ty", &self.ty)
            .field("srcs", &self.srcs)
            .field("dst", &self.dst)
            .field("pos", &self.pos)
            .field("reg", &self.reg)
            .field("captured", &self.captured)
            .finish()
    }
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

/// A [`Program`] linked for repeated execution. See the [module
/// docs](self) for what linking resolves.
///
/// # Thread safety
///
/// An `Executable` is **immutable after [`Executable::link_with`]** and is
/// `Send + Sync` by construction, so one linked artifact can be shared
/// by reference (or `Arc`) across any number of worker threads — the
/// tiled runner and the `pitchfork-service` cache both rely on this.
/// The audit, pinned by a compile-time assertion in the tests:
///
/// * `steps` is the one array holding code: beside its audited record
///   (a [`MachOp`], a `Copy` [`MachSem`] — an enum of opcodes and
///   constants, no function pointers or interior mutability — a
///   [`VectorType`], a span and row indices), each step's `eval` is an
///   `Arc<dyn Fn + Send + Sync>` closure ([`fpir_isa::SemSliceFn`])
///   compiled once at link time. A closure captures only `Copy` data
///   (element types, shift widths, a splat scalar) and is only ever
///   called through `&`, so sharing one across threads needs no lock,
///   and cloning the executable shares it;
/// * the flat arrays the spans address hold plain data: `srcs` and `tys`
///   (step sources and their element types);
/// * the **splat constant pool** (`consts`, each entry a constant's
///   declared type and lane value) is interned once at link time and only
///   ever read afterwards: a run takes each entry's lanes at the run
///   width from its own context, so concurrent invocations share the pool
///   without locks;
/// * `inputs` is owned, never-mutated `String` data.
///
/// All *mutable* execution state lives in the per-thread [`ExecCtx`]
/// (which is `Send` but deliberately not shared): the row file, the
/// recycled input buffers and the run-width splats. Sharing the
/// `Executable` is free; sharing a context would be a data race, which
/// the `&mut ExecCtx` receiver on [`Executable::run`] rules out at
/// compile time.
#[derive(Debug, Clone)]
pub struct Executable {
    pub(crate) isa: Isa,
    pub(crate) inputs: Vec<InputSlot>,
    /// The splat pool: each constant's declared type and lane value.
    pub(crate) consts: Vec<(VectorType, i128)>,
    /// The tape: every kernel's steps in evaluation order.
    pub(crate) steps: Vec<FStep>,
    /// Sources of steps, addressed by [`FStep::srcs`], and the element
    /// type each is read at (`tys[i]` is the type of `srcs[i]`).
    pub(crate) srcs: Vec<FSrc>,
    pub(crate) tys: Vec<ScalarType>,
    pub(crate) phys_regs: usize,
    /// Where the result is read after the last step, and at which type.
    pub(crate) output: FSrc,
    pub(crate) out_elem: ScalarType,
}

/// Reusable per-thread execution state: the row file, a pool of recycled
/// input buffers and the run-width splats, every one at its element
/// type's own width ([`Lanes`]). Steady-state invocations allocate
/// nothing — [`ExecCtx::buffer_allocs`] stops growing after warm-up (the
/// regression tests pin this).
#[derive(Debug, Default)]
pub struct ExecCtx {
    /// Recycled lane buffers, of any element type: the inputs handed out
    /// by [`ExecCtx::take_lanes`] and those of [`Executable::run`].
    spare: Vec<Lanes>,
    /// The inputs [`Executable::run`] converts its [`Value`]s into.
    ins: Vec<Lanes>,
    /// The row file: row `r` at type `t` is `rows[r · KINDS + t]`, by the
    /// [`ScalarType`] discriminant — kernel temp rows, then one row per
    /// physical register. Each is kept at the widest run so far and
    /// sliced to each run, so a shorter run neither shrinks nor re-zeroes
    /// it (steady-state runs allocate nothing).
    rows: Vec<Lanes>,
    /// Pool constants at the run width: one splat per element type and
    /// value, kept at the widest run so far and sliced to each run. The
    /// key is the value, not a pool index, so one context serves any
    /// executable.
    splats: Vec<(i128, Lanes)>,
    /// For the current run: the `splats` entry of each pool constant.
    pool: Vec<usize>,
    buffer_allocs: u64,
}

impl ExecCtx {
    /// A fresh, empty context.
    pub fn new() -> ExecCtx {
        ExecCtx::default()
    }

    /// How many lane buffers this context has had to allocate, total. In
    /// steady state (with inputs recycled back) this counter is flat
    /// across invocations.
    pub fn buffer_allocs(&self) -> u64 {
        self.buffer_allocs
    }

    /// Take a recycled buffer for lanes of `elem` (empty, capacity
    /// preserved) or a fresh one: the inputs of
    /// [`Executable::run_lanes`], built without allocating in steady
    /// state.
    pub fn take_lanes(&mut self, elem: ScalarType) -> Lanes {
        match self.spare.iter().rposition(|l| l.elem() == elem) {
            Some(i) => {
                let mut l = self.spare.swap_remove(i);
                l.clear();
                l
            }
            None => {
                self.buffer_allocs += 1;
                Lanes::new(elem)
            }
        }
    }

    /// Hand a no-longer-needed lane buffer back for reuse.
    pub fn recycle_lanes(&mut self, l: Lanes) {
        self.spare.push(l);
    }

    /// Grow the row file to at least `rows` rows, each empty at every
    /// element type (allocating no lanes).
    fn fit_rows(&mut self, rows: usize) {
        let mut kinds = fpir::types::ALL_SCALAR_TYPES;
        kinds.sort_by_key(|&t| t as usize);
        while self.rows.len() < rows * KINDS {
            self.rows.extend(kinds.map(Lanes::new));
        }
    }

    /// Point `pool` at a splat of each of `consts`' values, at least `n`
    /// lanes long.
    fn bind_pool(&mut self, consts: &[(VectorType, i128)], n: usize) {
        self.pool.clear();
        for &(VectorType { elem, .. }, v) in consts {
            let i = match self.splats.iter().position(|(x, l)| *x == v && l.elem() == elem) {
                Some(i) => i,
                None => {
                    self.buffer_allocs += 1;
                    self.splats.push((v, Lanes::new(elem)));
                    self.splats.len() - 1
                }
            };
            let l = &mut self.splats[i].1;
            if l.len() < n {
                l.resize(n);
                l.as_mut().fill(v);
            }
            self.pool.push(i);
        }
    }
}

/// Watches the steps a run dispatches, each one compiled pass over the
/// lanes: the hook of the pass-timer probe (`tests/pass_timer.rs`),
/// which times each step kind. The engine's own entry points pass `()`,
/// whose calls compile to nothing.
pub trait PassObserver {
    /// Step `step` (see [`Executable::step_kind`]) is about to run.
    fn before(&mut self, step: usize);
    /// Step `step` ran over `lanes` lanes.
    fn after(&mut self, step: usize, lanes: usize);
}

impl PassObserver for () {
    #[inline(always)]
    fn before(&mut self, _: usize) {}
    #[inline(always)]
    fn after(&mut self, _: usize, _: usize) {}
}

/// The vector type of `lanes`.
fn lanes_ty(lanes: &Slice<'_>) -> VectorType {
    VectorType::new(lanes.elem(), lanes.len() as u32)
}

/// What a step reads its sources from: the row file around the step's
/// own row `at` (rows `..at` in `below`, rows `at + 1..` in `above`),
/// the input slots, and the run-width splats of the pool constants
/// (`pool` names each constant's entry of `splats`).
#[derive(Clone, Copy)]
struct Sources<'a> {
    below: &'a [Lanes],
    above: &'a [Lanes],
    at: usize,
    ins: &'a [Lanes],
    splats: &'a [(i128, Lanes)],
    pool: &'a [usize],
}

impl<'a> Sources<'a> {
    /// `n` lanes of `src` read at type `elem`. Reading row `at` itself
    /// panics: the linker never lets a step read the row it writes, and
    /// the verifier's `dst-aliasing` check audits that.
    fn read(self, src: FSrc, elem: ScalarType, n: usize) -> Slice<'a> {
        match src {
            FSrc::Row(r) => {
                let i = r as usize * KINDS + elem as usize;
                let row = if i < self.at { &self.below[i] } else { &self.above[i - self.at - 1] };
                row.as_slice().slice(0..n)
            }
            FSrc::In(s) => self.ins[s as usize].as_slice(),
            FSrc::Const(c) => self.splats[self.pool[c as usize]].1.as_slice().slice(0..n),
        }
    }
}

impl Executable {
    /// Link a program against its target: resolve names to slots,
    /// opcodes to semantics, splats to a constant pool, and virtual
    /// registers to rows of a small physical register file, through
    /// [`crate::fuse`]'s pipeline. [`crate::fuse::ExecConfig::FAST`]
    /// first cleans the program's def-use graph up (constant folding,
    /// dead-write elimination) and fuses it into
    /// superinstructions; [`crate::fuse::ExecConfig::REFERENCE`] makes
    /// every instruction a one-step kernel. The two are bit-identical on
    /// every environment — gated by difftest, the fused proptests, and
    /// every benchmark.
    ///
    /// # Errors
    ///
    /// Fails on an ISA mismatch, an opcode missing from the table,
    /// operands the semantics reject ([`ExecError::Sem`]), an input
    /// loaded at two different types, or a program needing more than
    /// 2^16 input slots, pool constants or physical registers
    /// ([`ExecError::IndexOverflow`]); errors of the program walk come
    /// before a register overflow. Fusion folds no constant that would
    /// overflow the pool, and allocates registers only for the fused
    /// code, so a FAST link fails on physical registers only when the
    /// fused program itself needs more than 2^16.
    pub fn link_with(
        p: &Program,
        target: &Target,
        cfg: &crate::fuse::ExecConfig,
    ) -> Result<Executable, ExecError> {
        crate::fuse::link(p, target, cfg)
    }

    /// The ISA this executable was linked for.
    pub fn isa(&self) -> Isa {
        self.isa
    }

    /// The input slots, in first-load order. `slots[i]` of
    /// [`Executable::run_lanes`] binds `inputs()[i]`.
    pub fn inputs(&self) -> &[InputSlot] {
        &self.inputs
    }

    /// Number of kernels: the steps that write a register row, each the
    /// last of its kernel. A REFERENCE link has one per program
    /// instruction; a FAST link's fused kernels hold several steps each
    /// (see [`Executable::step_count`]).
    pub fn op_count(&self) -> usize {
        self.steps.iter().filter(|s| s.dst_reg().is_some()).count()
    }

    /// Number of fused superinstructions (kernels of ≥ 2 steps). Zero
    /// for an unfused link.
    pub fn fused_count(&self) -> usize {
        self.kernels().filter(|k| k.len() >= 2).count()
    }

    /// Number of steps on the tape: the program instructions the link
    /// kept, each one compiled strip loop. For an unfused link this
    /// equals [`Executable::op_count`].
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// Size of the shared constant pool.
    pub fn const_count(&self) -> usize {
        self.consts.len()
    }

    /// Peak size of the physical register file: how many register rows a
    /// context holds, and the figure reported next to `cycle_cost` in the
    /// Figure 3 listings.
    pub fn peak_regs(&self) -> usize {
        self.phys_regs
    }

    /// A fresh execution context shaped for this executable.
    pub fn new_ctx(&self) -> ExecCtx {
        let mut ctx = ExecCtx::new();
        ctx.fit_rows(MAX_STEPS + self.phys_regs);
        ctx
    }

    /// The steps of each kernel in tape order: a kernel ends at the step
    /// that writes a register row.
    pub(crate) fn kernels(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        let mut start = 0;
        self.steps.iter().enumerate().filter(|(_, s)| s.dst_reg().is_some()).map(move |(i, _)| {
            let kernel = start..i + 1;
            start = i + 1;
            kernel
        })
    }

    /// A kernel's external operands: the sources of its steps that are
    /// not temp rows, distinct and in first-use order — or, for a
    /// one-step kernel, as the step lists them, repeats included.
    pub(crate) fn kernel_operands(&self, kernel: Range<usize>) -> Vec<FSrc> {
        let single = kernel.len() == 1;
        let mut ext = Vec::new();
        for s in &self.steps[kernel] {
            for &src in &self.srcs[s.srcs.range()] {
                let temp = matches!(src, FSrc::Row(r) if (r as usize) < MAX_STEPS);
                if !temp && (single || !ext.contains(&src)) {
                    ext.push(src);
                }
            }
        }
        ext
    }

    /// Run on an environment (input names resolved to slots here; prefer
    /// [`Executable::run_lanes`] in hot loops that can pre-resolve). The
    /// inputs are converted into the context's own buffers, and the
    /// result into a fresh [`Value`]. Every binding must have its input's
    /// declared type, lane count included, as in [`crate::vm::execute`].
    ///
    /// # Errors
    ///
    /// Exactly as [`crate::vm::execute`] on a program that links:
    /// unbound inputs or mistyped bindings (operands the semantics reject
    /// fail the link instead).
    pub fn run(&self, ctx: &mut ExecCtx, env: &Env) -> Result<Value, ExecError> {
        let mut ins = std::mem::take(&mut ctx.ins);
        ctx.spare.append(&mut ins);
        let bound = self.inputs.iter().try_for_each(|slot| {
            let v = env.get(&slot.name).ok_or_else(|| ExecError::UnboundInput {
                name: slot.name.clone(),
                pos: slot.pos,
                reg: slot.reg,
            })?;
            if v.ty() != slot.ty {
                return Err(self.mistyped(slot, v.ty()));
            }
            let mut l = ctx.take_lanes(slot.ty.elem);
            l.extend_from(v.lanes());
            ins.push(l);
            Ok(())
        });
        let out = bound.map(|()| {
            let s = self.run_resolved(ctx, &ins, self.linked_lanes(), &mut ());
            let mut lanes = Vec::with_capacity(s.len());
            s.write_to(&mut lanes);
            // Semantics wrap/saturate into the result type, so the lanes
            // satisfy the `Value` invariant by construction.
            Value::trusted(lanes_ty(&s), lanes)
        });
        ctx.ins = ins;
        out
    }

    /// [`Executable::run_lanes`], telling `obs` about every step it
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
        let n = self.check_lanes(slots)?;
        Ok(self.run_resolved(ctx, slots, n, obs))
    }

    /// What step `i` (below [`Executable::step_count`]) computes: its
    /// semantics, operand and result types, and the operand whose splat
    /// constant its kernel captured.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn step_kind(&self, i: usize) -> String {
        let s = &self.steps[i];
        let mut kind = format!("{:?} {:?} -> {}", s.sem, &self.tys[s.srcs.range()], s.ty.elem);
        if let Some(k) = s.captured {
            kind += &format!(", operand {k} captured");
        }
        kind
    }

    /// Run on positionally-bound inputs held at their own width:
    /// `slots[i]` binds [`Executable::inputs`]`[i]`. The engine's native
    /// entry point: nothing converts, and the result is borrowed from the
    /// context (or from the inputs) until the next run.
    ///
    /// The slots may hold any common lane count `n` from 1 to
    /// [`RUN_LANES`], whatever width the program was linked at: every
    /// semantic is lane-wise, so the result's `n` lanes are those that
    /// runs at the linked width over the same lanes compute. An
    /// executable without input slots runs at its linked width.
    ///
    /// # Errors
    ///
    /// Missing slots ([`ExecError::UnboundInput`] names the first missing
    /// one), more slots than inputs ([`ExecError::ExtraSlots`]), a slot
    /// whose element type is not its input's
    /// ([`ExecError::InputTypeMismatch`]), or lane counts a run cannot
    /// take ([`ExecError::RunLanes`]): none, more than [`RUN_LANES`], or
    /// unlike the first slot's.
    pub fn run_lanes<'a>(
        &'a self,
        ctx: &'a mut ExecCtx,
        slots: &'a [Lanes],
    ) -> Result<Slice<'a>, ExecError> {
        let n = self.check_lanes(slots)?;
        Ok(self.run_resolved(ctx, slots, n, &mut ()))
    }

    /// The input checks of [`Executable::run_lanes`]; the run's lane
    /// count.
    fn check_lanes(&self, slots: &[Lanes]) -> Result<usize, ExecError> {
        self.check_count(slots.len())?;
        let Some(first) = slots.first() else { return Ok(self.linked_lanes()) };
        let n = first.len();
        for (l, slot) in slots.iter().zip(&self.inputs) {
            if l.elem() != slot.ty.elem {
                return Err(self.mistyped(slot, lanes_ty(&l.as_slice())));
            }
            let run = (l.len() != n).then_some(n);
            if run.is_some() || !(1..=RUN_LANES).contains(&n) {
                return Err(ExecError::RunLanes { name: slot.name.clone(), lanes: l.len(), run });
            }
        }
        Ok(n)
    }

    /// The lane count the program was linked at: what [`Executable::run`]
    /// and a run without input slots compute.
    fn linked_lanes(&self) -> usize {
        match (self.steps.last(), self.output) {
            (Some(step), _) => step.ty.lanes as usize,
            (None, FSrc::Const(c)) => self.consts[c as usize].0.lanes as usize,
            (None, FSrc::In(s)) => self.inputs[s as usize].ty.lanes as usize,
            (None, FSrc::Row(_)) => unreachable!("an output row no step writes"),
        }
    }

    /// The slot-count checks of [`Executable::run_lanes`].
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

    /// The hot loop: one pass over the tape, every step over the run's
    /// `n` lanes (every input slot holds `n`), zero steady-state
    /// allocation. It cannot fail: the link checked every step's shapes
    /// (arity, lane-wise operands, widening widths), and source types are
    /// fixed by the link and re-checked at binding, so each step is one
    /// call into its compiled vector kernel with no per-step validation.
    fn run_resolved<'a>(
        &'a self,
        ctx: &'a mut ExecCtx,
        ins: &'a [Lanes],
        n: usize,
        obs: &mut impl PassObserver,
    ) -> Slice<'a> {
        ctx.fit_rows(MAX_STEPS + self.phys_regs);
        ctx.bind_pool(&self.consts, n);
        let ExecCtx { rows, splats, pool, buffer_allocs, .. } = ctx;
        for (i, step) in self.steps.iter().enumerate() {
            obs.before(i);
            let at = step.dst as usize * KINDS + step.ty.elem as usize;
            let (below, rest) = rows.split_at_mut(at);
            let (dst, above) = rest.split_first_mut().expect("the row file holds every row");
            if dst.len() < n {
                // The widest run so far; the row is kept at this length
                // for every later run. Its stale lanes are never read:
                // every compiled kernel writes its full output slice.
                *buffer_allocs += u64::from(dst.is_empty());
                dst.resize(n);
            }
            let range = step.srcs.range();
            let (srcs, tys) = (&self.srcs[range.clone()], &self.tys[range]);
            let file = Sources { below, above, at, ins, splats, pool };
            let src = |k: usize| file.read(srcs[k], tys[k], n);
            let out = dst.as_mut().split_at(n).0;
            // Stage exactly the step's operands: almost every step reads
            // 1–4 sources, and the fixed-size arrays keep the staging cost
            // off the widest semantics' arity.
            match srcs.len() {
                1 => (step.eval)(&[src(0)], out),
                2 => (step.eval)(&[src(0), src(1)], out),
                3 => (step.eval)(&[src(0), src(1), src(2)], out),
                4 => (step.eval)(&[src(0), src(1), src(2), src(3)], out),
                len => {
                    let mut xs = [Slice::U8(&[]); MAX_ARITY];
                    for (k, x) in xs.iter_mut().enumerate().take(len) {
                        *x = src(k);
                    }
                    (step.eval)(&xs[..len], out);
                }
            }
            obs.after(i, n);
        }
        let at = rows.len();
        Sources { below: rows, above: &[], at, ins, splats, pool }.read(
            self.output,
            self.out_elem,
            n,
        )
    }

    /// An assembly-like listing of the linked form: input slots (`sN`),
    /// constant pool (`cN`), one line per kernel writing a physical
    /// register (`rN`) from its external operands, and the returned
    /// location. Deterministic: a pure function of the linked structure.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "; linked for {}: {} inputs, {} consts, {} ops, peak {} regs",
            self.isa,
            self.inputs.len(),
            self.consts.len(),
            self.op_count(),
            self.phys_regs
        );
        for (i, s) in self.inputs.iter().enumerate() {
            let _ = writeln!(out, "in        s{i}.{}, [{}]", s.ty, s.name);
        }
        for (i, (ty, v)) in self.consts.iter().enumerate() {
            let _ = writeln!(out, "const     c{i}.{ty}, #{v}");
        }
        for kernel in self.kernels() {
            let srcs = self
                .kernel_operands(kernel.clone())
                .into_iter()
                .map(src_name)
                .collect::<Vec<_>>()
                .join(", ");
            // A kernel lists its steps' opcodes in evaluation order, root
            // last: a one-step kernel is its own opcode.
            let steps = &self.steps[kernel];
            let chain = steps.iter().map(|s| s.op.name).collect::<Vec<_>>().join("+");
            let root = steps.last().expect("a kernel has a step");
            let dst = src_name(FSrc::Row(root.dst));
            let _ = writeln!(out, "{:<9} {dst}.{}, {srcs}", chain, root.ty);
        }
        let _ = writeln!(out, "ret       {}", src_name(self.output));
        out
    }
}

/// A source's name in listings and reports: `sN`, `cN`, a register
/// `rN`, or a temp row `tN`.
pub(crate) fn src_name(s: FSrc) -> String {
    match (s, s.reg()) {
        (_, Some(r)) => format!("r{r}"),
        (FSrc::In(s), _) => format!("s{s}"),
        (FSrc::Const(c), _) => format!("c{c}"),
        (FSrc::Row(t), None) => format!("t{t}"),
    }
}

impl fmt::Display for Executable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::fuse::ExecConfig;
    use crate::program::emit;
    use crate::vm::execute;
    use fpir::build;
    use fpir::types::{ScalarType as S, VectorType as V};
    use fpir::RcExpr;
    use fpir_isa::{legalize, target};

    fn link(p: &Program, isa: Isa) -> Result<Executable, ExecError> {
        Executable::link_with(p, target(isa), &ExecConfig::REFERENCE)
    }

    fn link_expr(e: &RcExpr, isa: Isa) -> (Program, Executable) {
        let t = target(isa);
        let p = emit(&legalize(e, t).unwrap(), t).unwrap();
        let exe = link(&p, isa).unwrap();
        (p, exe)
    }

    /// A stable serialization of a linked artifact by value, whatever the
    /// layout of its flat arrays: the listing, each input slot's blame
    /// fields, per kernel its root's blame fields and whether nothing
    /// reads its result, and per step its opcode, semantics, type, blame
    /// fields, sources and their types, and the operand whose splat
    /// constant its compiled kernel captured. A source prints as
    /// `Tmp(t)` for temp row `t`, else as `Arg(k)`: the `k`-th of its
    /// kernel's external operands, or the step's `k`-th source in a
    /// one-step kernel.
    pub(crate) fn canonical(exe: &Executable) -> String {
        let mut out = exe.render();
        for s in &exe.inputs {
            let _ = writeln!(out, "slot #{} v{}", s.pos, s.reg);
        }
        for kernel in exe.kernels() {
            let root = &exe.steps[kernel.end - 1];
            let r = root.dst_reg();
            // Dead: no later step reads the register before it is
            // written again, and it is not the output.
            let read = exe.steps[kernel.end..].iter().find_map(|s| {
                if exe.srcs[s.srcs.range()].iter().any(|x| x.reg() == r) {
                    Some(true)
                } else {
                    (s.dst_reg() == r).then_some(false)
                }
            });
            let dead = !read.unwrap_or(exe.output.reg() == r);
            let _ = writeln!(out, "inst #{} v{} dead {dead}", root.pos, root.reg);
            let ext = exe.kernel_operands(kernel.clone());
            let single = kernel.len() == 1;
            for s in &exe.steps[kernel] {
                let (srcs, tys) = (&exe.srcs[s.srcs.range()], &exe.tys[s.srcs.range()]);
                let srcs: Vec<String> = srcs
                    .iter()
                    .enumerate()
                    .map(|(k, &x)| match x {
                        FSrc::Row(t) if x.reg().is_none() => format!("Tmp({t})"),
                        _ if single => format!("Arg({k})"),
                        _ => format!("Arg({})", ext.iter().position(|&e| e == x).unwrap()),
                    })
                    .collect();
                let _ = writeln!(
                    out,
                    "step {:?} {:?} {} #{} v{} [{}] {tys:?} captured {:?}",
                    s.op,
                    s.sem,
                    s.ty,
                    s.pos,
                    s.reg,
                    srcs.join(", "),
                    s.captured
                );
            }
        }
        out
    }

    /// Run `exe` 101 times through [`Executable::run_lanes`], every input
    /// slot bound to `value` in buffers taken from the context and
    /// recycled after each run, as the tiled runner does, alternating a
    /// full run of [`RUN_LANES`] lanes and a short tail run: after the
    /// first run, the context allocates no lane buffer.
    pub(crate) fn assert_steady_state_is_allocation_free(exe: &Executable, value: i128) {
        let mut ctx = exe.new_ctx();
        let mut slots = Vec::with_capacity(exe.inputs().len());
        let mut primed = None;
        for run in 0..101 {
            let n = if run % 2 == 0 { RUN_LANES } else { 52 };
            for slot in exe.inputs() {
                let mut l = ctx.take_lanes(slot.ty.elem);
                l.extend_from(&vec![value; n]);
                slots.push(l);
            }
            let out = exe.run_lanes(&mut ctx, &slots).unwrap();
            assert_eq!(out.len(), n, "{exe}");
            for l in slots.drain(..) {
                ctx.recycle_lanes(l);
            }
            primed.get_or_insert(ctx.buffer_allocs());
        }
        assert_eq!(
            Some(ctx.buffer_allocs()),
            primed,
            "steady-state invocations must not allocate lane buffers\n{exe}"
        );
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
        let err = link(&p, Isa::X86Avx2).unwrap_err();
        assert!(matches!(
            err,
            ExecError::IsaMismatch { program: Isa::ArmNeon, target: Isa::X86Avx2 }
        ));
    }

    #[test]
    fn steady_state_runs_are_allocation_free() {
        let t = V::new(S::U8, 64);
        let e = build::saturating_cast(
            S::U8,
            build::widening_add(
                build::rounding_halving_add(build::var("a", t), build::var("b", t)),
                build::var("b", t),
            ),
        );
        let (_, exe) = link_expr(&e, Isa::ArmNeon);
        assert_steady_state_is_allocation_free(&exe, 7);
    }

    #[test]
    fn run_lanes_binds_positionally() {
        let t = V::new(S::U8, 4);
        let e = build::sub(build::var("x", t), build::var("y", t));
        let (_, exe) = link_expr(&e, Isa::X86Avx2);
        let names: Vec<&str> = exe.inputs().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["x", "y"], "slots are in first-load order");
        let mut ctx = exe.new_ctx();
        let slots = [Lanes::splat(S::U8, 9, 4), Lanes::splat(S::U8, 3, 4)];
        let mut out = Vec::new();
        exe.run_lanes(&mut ctx, &slots).unwrap().write_to(&mut out);
        assert_eq!(out, [6, 6, 6, 6]);
        // Too few slots is an unbound-input error.
        assert!(matches!(
            exe.run_lanes(&mut ctx, &slots[..1]).unwrap_err(),
            ExecError::UnboundInput { .. }
        ));
        // The run sets the width: any common lane count from 1 to
        // `RUN_LANES`, whatever width the program was linked at.
        for n in [1, 5, 129, RUN_LANES] {
            let x: Vec<i128> = (0..n as i128).map(|i| i % 256).collect();
            let slots = [Lanes::from_lanes(S::U8, &x), Lanes::splat(S::U8, 1, n)];
            out.clear();
            exe.run_lanes(&mut ctx, &slots).unwrap().write_to(&mut out);
            let want: Vec<i128> = x.iter().map(|&v| (v - 1).rem_euclid(256)).collect();
            assert_eq!(out, want, "{n} lanes");
        }
    }

    #[test]
    fn run_lanes_rejects_extra_slots_on_both_links() {
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
            for cfg in [ExecConfig::REFERENCE, ExecConfig::FAST] {
                let exe = Executable::link_with(&p, target(isa), &cfg).unwrap();
                assert_eq!(exe.inputs().len(), inputs);
                for n in [4, 9] {
                    let slots = vec![Lanes::splat(S::U8, 1, n); inputs + 1];
                    let err = exe.run_lanes(&mut exe.new_ctx(), &slots).unwrap_err();
                    assert_eq!(err, ExecError::ExtraSlots { given: inputs + 1, inputs }, "{cfg:?}");
                    let msg = err.to_string();
                    assert!(msg.contains(&format!("{} values", inputs + 1)), "{msg}");
                    assert!(msg.contains(&format!("{inputs} input slots")), "{msg}");
                    // The exact count still runs: at the slots' width, or
                    // at the linked width without slots.
                    let mut ctx = exe.new_ctx();
                    let out = exe.run_lanes(&mut ctx, &slots[..inputs]).unwrap();
                    assert_eq!(out.len(), if inputs == 0 { 4 } else { n }, "{cfg:?}");
                }
            }
        }
    }

    #[test]
    fn run_lanes_rejects_lane_counts_a_run_cannot_take() {
        let t = V::new(S::U8, 4);
        let e = build::add(build::var("x", t), build::var("y", t));
        let p = emit(&legalize(&e, target(Isa::ArmNeon)).unwrap(), target(Isa::ArmNeon)).unwrap();
        let u8s = |n: usize| Lanes::splat(S::U8, 1, n);
        let over = RUN_LANES + 1;
        let cases = [
            ([u8s(4), u8s(5)], ExecError::RunLanes { name: "y".into(), lanes: 5, run: Some(4) }),
            ([u8s(5), u8s(4)], ExecError::RunLanes { name: "y".into(), lanes: 4, run: Some(5) }),
            ([u8s(4), u8s(0)], ExecError::RunLanes { name: "y".into(), lanes: 0, run: Some(4) }),
            ([u8s(0), u8s(0)], ExecError::RunLanes { name: "x".into(), lanes: 0, run: None }),
            (
                [u8s(over), u8s(over)],
                ExecError::RunLanes { name: "x".into(), lanes: over, run: None },
            ),
            (
                [u8s(4), Lanes::splat(S::U16, 1, 4)],
                ExecError::InputTypeMismatch {
                    name: "y".into(),
                    pos: 1,
                    reg: 1,
                    declared: t,
                    bound: V::new(S::U16, 4),
                },
            ),
        ];
        for cfg in [ExecConfig::REFERENCE, ExecConfig::FAST] {
            let exe = Executable::link_with(&p, target(Isa::ArmNeon), &cfg).unwrap();
            let mut ctx = exe.new_ctx();
            for (slots, want) in &cases {
                assert_eq!(exe.run_lanes(&mut ctx, slots).unwrap_err(), *want, "{cfg:?}");
            }
            let msg = cases[0].1.to_string();
            assert!(msg.contains("`y` bound with 5 lanes, the first input with 4"), "{msg}");
            let msg = cases[4].1.to_string();
            assert!(msg.contains(&format!("a run takes 1 to {RUN_LANES}")), "{msg}");
            // The context still runs after every refusal.
            let mut out = Vec::new();
            exe.run_lanes(&mut ctx, &[u8s(RUN_LANES), u8s(RUN_LANES)]).unwrap().write_to(&mut out);
            assert_eq!(out, vec![2; RUN_LANES], "{cfg:?}");
        }
    }

    #[test]
    fn one_context_serves_executables_with_different_pools() {
        // Three executables whose one pool constant differs in value or
        // type. `c - x` keeps the constant out of the kernel (only a last
        // operand is captured), so the run reads its lanes.
        let mut cases: Vec<(Program, Executable)> = [(S::U8, 3), (S::U8, 5), (S::U16, 3)]
            .into_iter()
            .map(|(elem, c)| {
                let t = V::new(elem, 4);
                let e = build::sub(build::constant(c, t), build::var("x", t));
                let (p, exe) = link_expr(&e, Isa::ArmNeon);
                assert!(exe.steps.iter().all(|s| s.captured.is_none()), "{exe}");
                assert_eq!(exe.const_count(), 1, "{exe}");
                (p, exe)
            })
            .collect();
        // Two whose register r0 holds a u8 value and later a u16 one, or
        // the other way round: each type is its own row of the row file.
        let t = V::new(S::U8, 4);
        let (a, b) = (build::var("a", t), build::var("b", t));
        let narrow_first = build::add(
            build::widening_add(build::rounding_halving_add(a.clone(), b.clone()), b.clone()),
            build::widening_add(a.clone(), b.clone()),
        );
        let wide_first = build::rounding_halving_add(
            build::saturating_cast(S::U8, build::widening_add(a.clone(), b)),
            a,
        );
        for e in [narrow_first, wide_first] {
            let (p, exe) = link_expr(&e, Isa::ArmNeon);
            let r0: Vec<S> =
                exe.steps.iter().filter(|s| s.dst_reg() == Some(0)).map(|s| s.ty.elem).collect();
            assert!(r0.len() == 2 && r0[0] != r0[1], "{exe}");
            cases.push((p, exe));
        }
        // All run in turn on one context at three widths: each reads its
        // own splats and rows.
        let mut ctx = ExecCtx::new();
        let mut out = Vec::new();
        for n in [3, 300, 7] {
            for (i, (p, exe)) in cases.iter().enumerate() {
                let v = 250 - 37 * i as i128;
                let env = exe
                    .inputs()
                    .iter()
                    .fold(Env::new(), |env, s| env.bind(&s.name, Value::splat(v, s.ty)));
                let want = execute(p, &env, target(Isa::ArmNeon)).unwrap().lanes()[0];
                let slots: Vec<Lanes> =
                    exe.inputs().iter().map(|s| Lanes::splat(s.ty.elem, v, n)).collect();
                out.clear();
                exe.run_lanes(&mut ctx, &slots).unwrap().write_to(&mut out);
                assert_eq!(out, vec![want; n], "{n} lanes\n{exe}");
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
        for cfg in [ExecConfig::REFERENCE, ExecConfig::FAST] {
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
        let err = link(&p, isa).unwrap_err().to_string();
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

    /// A REFERENCE link gives every instruction one step: a workload
    /// artifact's REFERENCE link has as many kernels and steps as the
    /// program has instructions, and fuses none.
    #[test]
    fn plain_links_are_one_step_kernels() {
        let wl = fpir_workloads::all_workloads().into_iter().next().unwrap();
        for isa in fpir::machine::ALL_ISAS {
            let pf = pitchfork::Pitchfork::new(isa);
            let p = emit(&pf.compile(&wl.pipeline.expr).unwrap().lowered, target(isa)).unwrap();
            let exe = link(&p, isa).unwrap();
            assert_eq!(exe.op_count(), p.op_count(), "{isa}");
            assert_eq!(exe.step_count(), p.op_count(), "{isa}");
            assert_eq!(exe.fused_count(), 0, "{isa}");
            assert!(exe.kernels().all(|k| k.len() == 1), "{isa}\n{exe}");
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
        let exe2 = link(&p, Isa::ArmNeon).unwrap();
        assert_eq!(exe2.render(), r1);
        assert!(r1.contains("peak"), "{r1}");
        assert!(r1.contains("[a]"), "{r1}");
        assert!(r1.contains("#3"), "{r1}");
        assert!(r1.contains("ret"), "{r1}");
    }
}
