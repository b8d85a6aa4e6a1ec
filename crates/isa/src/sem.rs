//! Executable semantics of machine instructions.
//!
//! Every instruction in a target table carries a [`MachSem`] describing
//! what it computes, so a lowered machine program can be executed and
//! differentially tested against the source expression — that replaces
//! the paper's "run it on the real device / Hexagon simulator"
//! correctness story.
//!
//! A few instructions deliberately have semantics that differ from the
//! FPIR op they are used to implement — e.g. x86's `vpackuswb` and HVX's
//! `vsat` reinterpret their input bits as *signed* before saturating
//! ([`MachSem::PackSatSignedTo`]). Pitchfork may only select them under a
//! bounds predicate; if a rule gets the predicate wrong, differential
//! testing catches the disagreement.
//!
//! Each semantic's lane arithmetic is written once, in a private *lane
//! table* that builds one lane closure per semantic and hands it to a
//! sink. The three evaluators — [`eval_sem_into`], [`sem_slice_fn`] and
//! [`sem_slice_fn_splat`] — are sinks over that table that differ only in
//! the loop around the closure, so they agree by construction.
//!
//! The table builds *type-specialized* closures: whatever depends only on
//! the element types is computed once, when the closure is built, and
//! never per lane. A saturation is a pair of captured bounds (or the
//! store clamp's constant ones, below), and a semantic that saturates
//! twice (`ShrRndSatNarrow`) clamps once to their intersection. The shift family — `Bin(Shl|Shr)`, `ShrNarrow`,
//! `ShrRndSatNarrow`, FPIR `WideningShl/Shr`, `RoundingShl/Shr`,
//! `SaturatingShl`, `MulShr` and `RoundingMulShr`, and `QRDMulH`'s fixed
//! shift — splits each lane into resolving the count (clamping,
//! direction, the shifted-out case, the rounding bias) and applying it.
//! The captured-splat sink resolves a constant count once, at link time;
//! the other sinks resolve per lane. Operands are canonical lanes of
//! their types (the [`Value`] invariant), so `Min`/`Max`, the bitwise ops
//! and right shifts need no wrap. A closure returns its result
//! unwrapped: a store into the result's storage truncates to its width,
//! which is the wrap, and [`eval_sem_into`]'s sink wraps explicitly.
//!
//! **Storage and words.** The fused engine holds every lane at its
//! element type's own width ([`crate::lanes`]), and a kernel's strip loop
//! reads its operands and writes its result there: a typed loop loads
//! each lane into a machine word, runs the closure, and stores the
//! result, truncating. `needed_bits` bounds every intermediate of a
//! semantic from its operand and result types (every operand and clamp
//! bound, each sum, product and rounding bias, each shift), and the
//! closure is built at the narrowest word that holds it and has a typed
//! loop for the shape: `i32` whenever 32 bits suffice — every shape of
//! 8- and 16-bit lanes, and the 32-bit shapes whose intermediates fit
//! (`Min`, `Max`, `Cmp` and `Select` at `i32`, the saturating narrows
//! from `i32`, the wrapping ops) — and `i64` for the 32-bit shapes that
//! need more (a `u32` lane's clamps, a shift by a count,
//! `ShrRndSatNarrow` and `QRDMulH` at 32 bits). The typed loops are
//! generic over the storage types but are built only for the shapes each
//! family of semantics takes — a storage *class*: operands at one type,
//! or an accumulator or constants at the result's, and a result the same
//! width or 2×, ½ or 4× as wide — never the product of semantics,
//! storage types and words. Everything else — a 64-bit lane, a shape
//! outside its class, a word trap (an `i32` `MulShr` count clamped to 64,
//! a `u32 × u32` product) — runs the closure at `i128` in a chunked loop
//! that converts any storage. The whole-vector evaluator, the oracle,
//! always computes at `i128` over [`Value`]s.
//!
//! **The store clamp.** A semantic that ends by saturating into its
//! result type's whole range — `SatCastTo`, `PackSatSignedTo`, and FPIR
//! `SaturatingCast` (at its own type), `SaturatingNarrow`,
//! `SaturatingAdd` and `SaturatingSub` — hands its sink the unclamped
//! closure and the result's bounds. A typed loop clamps at the store, to
//! its result storage's own bounds, which are constants of the loop, so
//! the compiler emits the target's clamps and saturating packs (SSE2's
//! `paddsw`, `packssdw`) where bounds captured at run time would keep
//! compares and selects; the bounds are equal, since the storage is the
//! result type's. The chunked loop and the oracle clamp to the captured
//! bounds, as the closure did.
//!
//! The interpreter's generic lane helpers (`fpir::interp::bin_op_lane`,
//! `cmp_op_lane` and `fpir_op_lane`) are the arithmetic oracle: the tests
//! compare every arm of the table with them, at every element type and
//! every legal type shape, over the shift family's edge counts (including
//! the words' shift boundaries), streamed and captured, through the
//! typed loops and the chunked one.

use crate::lanes::{natives, Native, Slice, SliceMut};
use fpir::expr::{BinOp, CmpOp, FpirOp};
use fpir::interp::{mul_shr_exact, Value};
use fpir::types::{ScalarType, VectorType, Wrap};
use std::marker::PhantomData;
use std::ops::{Add, Div, Mul, Neg, Rem, Shl, Shr, Sub};
use std::sync::Arc;

/// What a machine instruction computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MachSem {
    /// A lane-wise primitive binary op at the operand type.
    Bin(BinOp),
    /// A comparison producing 0/1 lanes of the operand type.
    Cmp(CmpOp),
    /// `select(mask, a, b)` — non-zero mask lanes take `a`.
    Select,
    /// Wrapping conversion to a *wider* result element type (zero/sign
    /// extension chosen by the source signedness — `vpmovzx`, `uxtl`,
    /// `vzxt`).
    ExtendTo,
    /// Wrapping conversion to a *narrower* result element type (`xtn`,
    /// `vpacke`, x86's shuffle-based pack).
    TruncTo,
    /// Bit reinterpretation (free register alias).
    Reinterpret,
    /// Exactly the FPIR instruction's semantics at the operand types.
    Fpir(FpirOp),
    /// Saturating cast to the result element type.
    SatCastTo,
    /// Reinterpret the input as the *signed* type of its width, then
    /// saturating-cast to the result element type (x86 `vpackuswb`,
    /// HVX `vsat`).
    PackSatSignedTo,
    /// High half of the widened product: `(widen(x) * widen(y)) >> bits`.
    MulHigh,
    /// Non-widening multiply-accumulate: `acc + a * b` (wrapping).
    MulAcc,
    /// Widening multiply-accumulate: `acc + widen(a) * widen(b)` where
    /// `acc` has double the operand width (ARM `umlal`, HVX `vmpy.acc`).
    WideningMulAcc,
    /// Paired widening multiply-add:
    /// `widen(a) * widen(b) + widen(c) * widen(d)` (x86 `vpmaddwd`,
    /// HVX `vdmpy`).
    MulPairsAdd,
    /// Multiply-by-constants-and-add: `widen(a) * c0 + widen(b) * c1`
    /// (HVX `vmpa`); `c0`/`c1` are broadcast-constant operands.
    Mpa,
    /// Accumulating [`MachSem::Mpa`]: `acc + widen(a) * c0 + widen(b) * c1`.
    MpaAcc,
    /// Four-way widening dot product with accumulation:
    /// `acc + Σ_{i<4} widen(a_i) * widen(b_i)` where `acc` has 4× the
    /// operand width (ARM `udot`, HVX `vrmpy`).
    DotAcc4,
    /// Fused "shift right, round, saturating narrow":
    /// `saturating_cast<result>(rounding_shr(x, c))` (HVX `vasr` with the
    /// `:rnd:sat` modifiers; ARM `sqrshrn`-family).
    ShrRndSatNarrow,
    /// Fused "shift right then truncating narrow": `narrow(x >> c)` (ARM
    /// `shrn`).
    ShrNarrow,
    /// Saturating rounding doubling multiply-high:
    /// `rounding_mul_shr(x, y, bits - 1)` (ARM `sqrdmulh`).
    QRDMulH,
    /// Broadcast a scalar constant held in the operand.
    Splat,
}

impl MachSem {
    /// Operand count.
    pub fn arity(self) -> usize {
        match self {
            MachSem::ExtendTo
            | MachSem::TruncTo
            | MachSem::Reinterpret
            | MachSem::SatCastTo
            | MachSem::PackSatSignedTo
            | MachSem::Splat => 1,
            MachSem::Bin(_)
            | MachSem::Cmp(_)
            | MachSem::MulHigh
            | MachSem::ShrRndSatNarrow
            | MachSem::ShrNarrow
            | MachSem::QRDMulH => 2,
            MachSem::Select | MachSem::MulAcc | MachSem::WideningMulAcc => 3,
            MachSem::Fpir(op) => op.arity(),
            MachSem::MulPairsAdd | MachSem::Mpa => 4,
            MachSem::MpaAcc => 5,
            MachSem::DotAcc4 => 9,
        }
    }
}

/// The most operands any semantic takes ([`MachSem::DotAcc4`]).
pub const MAX_ARITY: usize = 9;

/// Execute one instruction.
///
/// `result_ty` is the type the surrounding expression/program assigned to
/// the destination; semantics that imply their own result type validate it.
///
/// # Errors
///
/// Returns a message on arity mismatch, lane-count mismatch, or a result
/// type inconsistent with the semantics.
pub fn eval_sem(sem: MachSem, args: &[Value], result_ty: VectorType) -> Result<Value, String> {
    let refs: Vec<&Value> = args.iter().collect();
    let mut out = Vec::with_capacity(result_ty.lanes as usize);
    eval_sem_into(sem, &refs, result_ty, &mut out)?;
    Ok(Value::new(result_ty, out))
}

/// Check the operand shapes `sem` accepts: one operand per its arity,
/// each with the result's lane count, and the accumulators of
/// `WideningMulAcc` and `DotAcc4` 2× and 4× as wide as the operand after
/// them. This is the whole rule: [`eval_sem_into`] checks it per call,
/// the links in `fpir-sim` per instruction, and the static artifact
/// verifier per kernel step, so an instruction one of them rejects is
/// rejected by all, with the same message.
///
/// # Errors
///
/// The first violation, described.
pub fn check_shape(
    sem: MachSem,
    args: impl ExactSizeIterator<Item = VectorType>,
    result: VectorType,
) -> Result<(), String> {
    if args.len() != sem.arity() {
        return Err(format!("{sem:?} takes {} operands, got {}", sem.arity(), args.len()));
    }
    let mut width = [0; 2];
    for (i, a) in args.enumerate() {
        if a.lanes != result.lanes {
            return Err(format!("operand lanes {} != result lanes {}", a.lanes, result.lanes));
        }
        if let Some(w) = width.get_mut(i) {
            *w = a.elem.bits();
        }
    }
    match sem {
        MachSem::WideningMulAcc if width[0] != width[1] * 2 => Err(format!(
            "widening mul-acc accumulator must be 2x the operand width ({} vs {})",
            width[0], width[1]
        )),
        MachSem::DotAcc4 if width[0] != width[1] * 4 => Err(format!(
            "dot-product accumulator must be 4x the operand width ({} vs {})",
            width[0], width[1]
        )),
        _ => Ok(()),
    }
}

/// Execute one instruction, writing the result lanes into `out`.
///
/// This is the allocation-free core of [`eval_sem`]: operands are read
/// through references and the result is produced into a caller-supplied
/// buffer (cleared first), so a caller can recycle lane buffers across
/// instructions instead of allocating a fresh `Value` per step.
/// [`eval_sem`] is a thin wrapper, so the two entry points can never
/// disagree on semantics. The shapes are checked by [`check_shape`]; the
/// lanes come from the lane table's closure, run over the operand lane
/// slices in place.
///
/// # Errors
///
/// As [`eval_sem`].
pub fn eval_sem_into(
    sem: MachSem,
    args: &[&Value],
    result_ty: VectorType,
    out: &mut Vec<i128>,
) -> Result<(), String> {
    check_shape(sem, args.iter().map(|a| a.ty()), result_ty)?;
    out.clear();
    out.reserve(result_ty.lanes as usize);
    let mut tys = [result_ty.elem; MAX_ARITY];
    for (t, a) in tys.iter_mut().zip(args) {
        *t = a.ty().elem;
    }
    let wrap = result_ty.elem.wrapper();
    lane_table(sem, &tys[..args.len()], result_ty.elem, Extend { args, out, wrap });
    Ok(())
}

/// A compiled whole-strip evaluator: one fused-kernel step's semantics
/// with every dispatch resolved ahead of time. Called as
/// `f(operand_lane_slices, output_lane_slice)`; all slices share one
/// length.
///
/// `Arc` so compiled kernels stay cheaply cloneable and shareable across
/// worker threads.
pub type SemSliceFn = Arc<dyn Fn(&[Slice<'_>], SliceMut<'_>) + Send + Sync>;

/// Compile one instruction's semantics into a monomorphic vector-loop
/// closure over raw lane slices.
///
/// [`eval_sem_into`] re-matches on the semantics (and the inner `BinOp` /
/// `CmpOp` / `FpirOp`), re-checks shapes, and re-reads operand types on
/// *every* call. Fused superinstruction kernels in `fpir-sim` run their
/// absorbed steps back-to-back per image strip, so they pay that dispatch
/// once here, at fuse time: the lane table's closure for `sem` — its op
/// written out, with the element types resolved into captured wraps,
/// bounds and shift widths — runs inside a strip loop and computes
/// exactly what [`eval_sem_into`] computes from the same closure.
///
/// # Preconditions
///
/// Shape checks are not repeated: `tys.len() == sem.arity()`, the
/// operands pass [`check_shape`], and the returned
/// closure must only see `xs` of that arity with every operand slice
/// exactly `out.len()` lanes long. The linked engine guarantees this:
/// both links check every instruction's shape as they link it, and a run
/// checks its input types.
pub fn sem_slice_fn(sem: MachSem, tys: &[ScalarType], result: ScalarType) -> SemSliceFn {
    lane_table(sem, tys, result, Strip { tys, result })
}

/// Compile one step with a *splat-constant* last operand captured as a
/// scalar register: the returned closure sees the same `xs` layout as
/// [`sem_slice_fn`] — the constant's pool slice is still staged at
/// position `k`, exactly as the audited pass sources say — but a typed
/// lane loop never reads it, so the strip runs with one fewer input
/// stream. The loop calls the same lane closure as [`sem_slice_fn`] with
/// `c` bound at operand `k`, and the skipped slice holds `c` in every
/// lane, so the result is bit-identical by construction — pinned by
/// `splat_capture_matches_streamed_constant` below. When `k` is a
/// shift-family count, the table's count resolution runs once on `c`,
/// here, and the loop only applies the resolved shift. (A shape the typed
/// loops do not cover runs its chunked loop, which reads the staged row.)
///
/// Returns `None` unless `k` is the last operand of a semantic of at
/// most three (the 4-, 5- and 9-operand semantics have none); the caller
/// keeps the streamed [`sem_slice_fn`] kernel, which is typed too.
///
/// # Preconditions
///
/// As [`sem_slice_fn`], plus `k < sem.arity()` and `c` equal to every
/// lane of the operand the closure skips.
pub fn sem_slice_fn_splat(
    sem: MachSem,
    tys: &[ScalarType],
    result: ScalarType,
    k: usize,
    c: i128,
) -> Option<SemSliceFn> {
    if k + 1 != tys.len() {
        return None;
    }
    lane_table(sem, tys, result, Capture { tys, result, c })
}

// ---- the lane table -----------------------------------------------------

/// What a lane closure may capture: plain data (resolved bounds, shift
/// parameters, a captured constant), so it can be copied into loops and
/// the compiled kernel shared across worker threads.
trait Lane: Copy + Send + Sync + 'static {}
impl<T: Copy + Send + Sync + 'static> Lane for T {}

/// Receives the one lane closure `lane_table` builds for a semantic, in
/// the form matching its arity, at the word `W` and with the storage
/// class `C` of its type shapes, and turns it into an evaluator.
///
/// A closure returns its result *unwrapped*: every bit it holds above the
/// result type's width is discarded by whoever receives it. A typed store
/// truncates to the element width, and [`eval_sem_into`]'s sink wraps.
trait LaneSink: Sized {
    type Out;
    /// Whether this sink takes the closure of class `C` at the word of
    /// `bits` (32 or 64), when the word rule ([`needed_bits`]) allows it.
    fn typed<C: Class>(&self, bits: u32) -> bool;
    fn unary<W: Word, C: Class>(self, f: impl Fn(W) -> W + Lane) -> Self::Out;
    fn binary<W: Word, C: Class>(self, f: impl Fn(W, W) -> W + Lane) -> Self::Out;
    fn ternary<W: Word, C: Class>(self, f: impl Fn(W, W, W) -> W + Lane) -> Self::Out;
    /// The 4-, 5- and 9-operand semantics.
    fn wide<W: Word, C: Class, const N: usize>(self, f: impl Fn([W; N]) -> W + Lane) -> Self::Out;

    /// A unary semantic that ends by saturating into the result type's
    /// whole range: `f` unclamped, and `sat` that range
    /// (`Sat::of(result)`). By default the closure clamps to `sat`'s
    /// bounds; a typed loop clamps at the store instead ([`Word::store_sat`]).
    fn unary_sat<W: Word, C: Class>(self, f: impl Fn(W) -> W + Lane, sat: Sat<W>) -> Self::Out {
        self.unary::<W, C>(move |x| sat.apply(f(x)))
    }

    /// [`LaneSink::unary_sat`] for a binary semantic.
    fn binary_sat<W: Word, C: Class>(self, f: impl Fn(W, W) -> W + Lane, sat: Sat<W>) -> Self::Out {
        self.binary::<W, C>(move |x, y| sat.apply(f(x, y)))
    }

    /// A binary shift-family semantic whose operand 1 is a count:
    /// `resolve` turns a count into the parameters `apply` shifts operand
    /// 0 by. Resolved per lane, unless the sink binds the count to a
    /// constant (the captured-splat sink resolves it once).
    fn by_count<W: Word, C: Class, P: Lane>(
        self,
        resolve: impl Fn(W) -> P + Lane,
        apply: impl Fn(W, P) -> W + Lane,
    ) -> Self::Out {
        self.binary::<W, C>(move |x, y| apply(x, resolve(y)))
    }

    /// [`LaneSink::by_count`] for a ternary semantic counting at operand 2.
    fn by_count3<W: Word, C: Class, P: Lane>(
        self,
        resolve: impl Fn(W) -> P + Lane,
        apply: impl Fn(W, W, P) -> W + Lane,
    ) -> Self::Out {
        self.ternary::<W, C>(move |x, y, z| apply(x, y, resolve(z)))
    }

    /// Told the word each lane closure is built at (the tests' probe).
    #[cfg(test)]
    fn built_at(&self, _bits: u32) {}
}

// ---- words ----------------------------------------------------------

/// The machine word a lane closure computes in: `i32`, `i64` or `i128`.
/// [`needed_bits`] decides which word a semantic's closure is built at; a
/// typed strip loop loads each lane from its native storage into the word
/// and stores the result back, truncating.
trait Word:
    Lane
    + Ord
    + Default
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Rem<Output = Self>
    + Neg<Output = Self>
    + Shl<u32, Output = Self>
    + Shr<u32, Output = Self>
{
    const BITS: u32;
    const MIN: Self;
    const MAX: Self;
    /// The low `BITS` bits of `v`, which is `v` itself when it fits.
    fn of(v: i128) -> Self;
    /// The value as a lane, sign-extended.
    fn lane(self) -> i128;
    /// The low 64 bits.
    fn low64(self) -> u64;
    /// `x` zero-extended (reinterpreted, at `i64`).
    fn of_u64(x: u64) -> Self;
    /// `x` sign-extended.
    fn of_i64(x: i64) -> Self;
    /// A native lane, exactly (a `u64` lane only at `i128`).
    fn load<T: Native>(x: T) -> Self;
    /// Truncated to a native lane.
    fn store<T: Native>(self) -> T;
    /// Clamped to `T`'s range, then stored: the store clamp. The bounds
    /// are constants of the loop, not captured values, so a typed loop
    /// compiles to the target's own clamps. They are clipped to the word,
    /// which changes nothing where the word rule builds a clamp (its
    /// bounds fit the word).
    #[inline(always)]
    fn store_sat<T: Native>(self) -> T {
        let lo = Self::of(T::LO.max(Self::MIN.lane()));
        let hi = Self::of(T::HI.min(Self::MAX.lane()));
        self.max(lo).min(hi).store()
    }
    /// The kernel `b` builds for the shape `tys → result`: at `i32` and
    /// `i64`, its typed loop, which class `C` must have at the word; at
    /// `i128`, its chunked loop.
    fn kernel<C: Class, B: Build<Self>>(tys: &[ScalarType], result: ScalarType, b: B) -> B::Out;
    /// The kernel of a closure with a constant `c` captured at its last
    /// operand: at `i32` and `i64`, the typed loop of `bound(c)`, the
    /// closure with the constant resolved into it; at `i128`, the chunked
    /// loop of `streamed`, which reads the constant from its staged row.
    fn capture<C: Class, S: Build<Self>, B: Build<Self, Out = S::Out>>(
        tys: &[ScalarType],
        result: ScalarType,
        c: i128,
        streamed: S,
        bound: impl FnOnce(Self) -> B,
    ) -> S::Out;
}

macro_rules! word_common {
    ($w:ty) => {
        const BITS: u32 = <$w>::BITS;
        const MIN: $w = <$w>::MIN;
        const MAX: $w = <$w>::MAX;
        #[inline]
        fn of(v: i128) -> $w {
            v as $w
        }
        #[inline]
        fn lane(self) -> i128 {
            self as i128
        }
        #[inline]
        fn low64(self) -> u64 {
            self as u64
        }
        #[inline]
        fn of_u64(x: u64) -> $w {
            x as $w
        }
        #[inline]
        fn of_i64(x: i64) -> $w {
            x as $w
        }
    };
}

impl Word for i32 {
    word_common!(i32);
    #[inline]
    fn load<T: Native>(x: T) -> i32 {
        x.load32()
    }
    #[inline]
    fn store<T: Native>(self) -> T {
        T::store32(self)
    }
    fn kernel<C: Class, B: Build<i32>>(tys: &[ScalarType], result: ScalarType, b: B) -> B::Out {
        match C::narrow(tys, result, b) {
            Ok(out) => out,
            Err(_) => unreachable!("no i32 loop for {tys:?} -> {result}"),
        }
    }
    fn capture<C: Class, S: Build<i32>, B: Build<i32, Out = S::Out>>(
        tys: &[ScalarType],
        result: ScalarType,
        c: i128,
        _: S,
        bound: impl FnOnce(i32) -> B,
    ) -> S::Out {
        i32::kernel::<C, B>(tys, result, bound(c as i32))
    }
}

impl Word for i64 {
    word_common!(i64);
    #[inline]
    fn load<T: Native>(x: T) -> i64 {
        x.load()
    }
    #[inline]
    fn store<T: Native>(self) -> T {
        T::store(self)
    }
    fn kernel<C: Class, B: Build<i64>>(tys: &[ScalarType], result: ScalarType, b: B) -> B::Out {
        match C::wide(tys, result, b) {
            Ok(out) => out,
            Err(_) => unreachable!("no i64 loop for {tys:?} -> {result}"),
        }
    }
    fn capture<C: Class, S: Build<i64>, B: Build<i64, Out = S::Out>>(
        tys: &[ScalarType],
        result: ScalarType,
        c: i128,
        _: S,
        bound: impl FnOnce(i64) -> B,
    ) -> S::Out {
        i64::kernel::<C, B>(tys, result, bound(c as i64))
    }
}

impl Word for i128 {
    word_common!(i128);
    #[inline]
    fn load<T: Native>(x: T) -> i128 {
        x.wide()
    }
    #[inline]
    fn store<T: Native>(self) -> T {
        T::store_wide(self)
    }
    fn kernel<C: Class, B: Build<i128>>(_: &[ScalarType], _: ScalarType, b: B) -> B::Out {
        b.chunked()
    }
    fn capture<C: Class, S: Build<i128>, B: Build<i128, Out = S::Out>>(
        _: &[ScalarType],
        _: ScalarType,
        _: i128,
        streamed: S,
        _: impl FnOnce(i128) -> B,
    ) -> S::Out {
        streamed.chunked()
    }
}

/// The word rule: how many signed bits every intermediate of `sem`, at
/// operand types `tys` and result type `result`, needs, so that its lane
/// closure computes in a 32- or 64-bit register when that many suffice.
/// Decided from the types alone, never from a captured constant, and
/// conservatively: each arm bounds the widest value its closure forms.
fn needed_bits(sem: MachSem, tys: &[ScalarType], result: ScalarType) -> u32 {
    use FpirOp as F;
    // The signed width that holds every value of `t`.
    let signed = |t: ScalarType| t.bits() + u32::from(!t.is_signed());
    // Every operand enters the word: a `u64` lane never fits.
    let ops = tys.iter().map(|&t| signed(t)).max().unwrap_or(0);
    let (bits, res) = (tys[0].bits(), signed(result));
    match sem {
        // Wrapping results keep only the wrap's bits, which wrapping
        // arithmetic on a word at least that wide computes exactly.
        MachSem::Bin(
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor,
        )
        | MachSem::ExtendTo
        | MachSem::TruncTo
        | MachSem::Reinterpret
        | MachSem::Splat
        | MachSem::Fpir(
            F::WideningAdd
            | F::WideningSub
            | F::WideningMul
            | F::ExtendingAdd
            | F::ExtendingSub
            | F::ExtendingMul,
        )
        | MachSem::MulAcc
        | MachSem::WideningMulAcc
        | MachSem::MulPairsAdd
        | MachSem::Mpa
        | MachSem::MpaAcc
        | MachSem::DotAcc4 => result.bits(),
        MachSem::Bin(BinOp::Min | BinOp::Max) | MachSem::Cmp(_) | MachSem::Select => ops,
        // A quotient: `MIN / -1` takes one more bit.
        MachSem::Bin(BinOp::Div | BinOp::Mod) => ops + 1,
        // A clamp's bounds fit too.
        MachSem::SatCastTo | MachSem::PackSatSignedTo | MachSem::Fpir(F::SaturatingNarrow) => {
            ops.max(res)
        }
        MachSem::Fpir(F::SaturatingCast(to)) => ops.max(signed(to)),
        // A negated lane, or a sum or difference of two (plus one, for
        // the rounding halving add).
        MachSem::Fpir(F::Abs | F::Absd) => ops + 1,
        MachSem::Fpir(F::HalvingAdd | F::HalvingSub | F::RoundingHalvingAdd) => ops + 2,
        MachSem::Fpir(F::SaturatingAdd | F::SaturatingSub) => (ops + 1).max(res),
        // A wrapping shift keeps only the wrap's bits, and a left shift
        // longer than the word's `BITS - 1` becomes `BITS - 1`: it still
        // clears every bit of a wrap narrower than the word.
        MachSem::Bin(BinOp::Shl | BinOp::Shr) | MachSem::Fpir(F::WideningShl | F::WideningShr) => {
            ops.max(result.bits() + 1)
        }
        MachSem::ShrNarrow => ops.max(bits.max(result.bits()) + 1),
        // A lane pre-clamped near the bounds shifted left by at most
        // `bits`, or a lane plus a rounding bias below 2^bits.
        MachSem::ShrRndSatNarrow
        | MachSem::Fpir(F::RoundingShl | F::RoundingShr | F::SaturatingShl) => {
            ops.max(res).max(bits + 1) + 1
        }
        // The product of two lanes, shifted.
        MachSem::MulHigh => (signed(tys[0]) + signed(tys[1])).max(res),
        // A product of two lanes plus the bias 2^(s-1), formed as
        // 2^s >> 1, for a shift `s` up to 2·bits (a count operand) or
        // bits - 1 (`QRDMulH`).
        MachSem::Fpir(F::MulShr | F::RoundingMulShr) | MachSem::QRDMulH => {
            let s = if sem == MachSem::QRDMulH { bits - 1 } else { 2 * bits };
            (signed(tys[0]) + signed(tys[1])).max(s + 2).max(ops).max(res)
        }
    }
}

/// A sink over lane closures in the word `W`, of storage class `C`.
struct At<W, C, S> {
    sink: S,
    word: PhantomData<(W, C)>,
}

impl<W: Word, C: Class, S: LaneSink> At<W, C, S> {
    fn new(sink: S) -> Self {
        #[cfg(test)]
        sink.built_at(W::BITS);
        At { sink, word: PhantomData }
    }

    fn unary(self, f: impl Fn(W) -> W + Lane) -> S::Out {
        self.sink.unary::<W, C>(f)
    }

    fn binary(self, f: impl Fn(W, W) -> W + Lane) -> S::Out {
        self.sink.binary::<W, C>(f)
    }

    fn ternary(self, f: impl Fn(W, W, W) -> W + Lane) -> S::Out {
        self.sink.ternary::<W, C>(f)
    }

    fn wide<const N: usize>(self, f: impl Fn([W; N]) -> W + Lane) -> S::Out {
        self.sink.wide::<W, C, N>(f)
    }

    fn unary_sat(self, f: impl Fn(W) -> W + Lane, sat: Sat<W>) -> S::Out {
        self.sink.unary_sat::<W, C>(f, sat)
    }

    fn binary_sat(self, f: impl Fn(W, W) -> W + Lane, sat: Sat<W>) -> S::Out {
        self.sink.binary_sat::<W, C>(f, sat)
    }

    fn by_count<P: Lane>(
        self,
        resolve: impl Fn(W) -> P + Lane,
        apply: impl Fn(W, P) -> W + Lane,
    ) -> S::Out {
        self.sink.by_count::<W, C, P>(resolve, apply)
    }

    fn by_count3<P: Lane>(
        self,
        resolve: impl Fn(W) -> P + Lane,
        apply: impl Fn(W, W, P) -> W + Lane,
    ) -> S::Out {
        self.sink.by_count3::<W, C, P>(resolve, apply)
    }
}

/// `$body` with `$s` the sink [`At`] of class `$C`, at the narrowest
/// word the sink takes the class's shape at and `$needed` bits (the word
/// rule, [`needed_bits`]) fit: `i32`, `i64`, else `i128`. A body written
/// once, built at every word.
macro_rules! at_word {
    ($C:ty, $needed:expr, $sink:expr, $s:ident => $body:expr) => {{
        let (sink, needed) = ($sink, $needed);
        if needed <= 32 && sink.typed::<$C>(32) {
            let $s = At::<i32, $C, _>::new(sink);
            $body
        } else if needed <= 64 && sink.typed::<$C>(64) {
            let $s = At::<i64, $C, _>::new(sink);
            $body
        } else {
            let $s = At::<i128, $C, _>::new(sink);
            $body
        }
    }};
}

/// [`ScalarType::saturate`] with the type resolved: captured bounds.
#[derive(Clone, Copy)]
struct Sat<W> {
    lo: W,
    hi: W,
}

impl<W: Word> Sat<W> {
    fn of(t: ScalarType) -> Self {
        Sat { lo: W::of(t.min_value()), hi: W::of(t.max_value()) }
    }

    /// Saturating into `self`, then into `other`, as one clamp. Every
    /// type's range holds 0, so the two ranges overlap and the nested
    /// clamps equal one clamp to their intersection.
    fn and(self, other: Self) -> Self {
        Sat { lo: self.lo.max(other.lo), hi: self.hi.min(other.hi) }
    }

    #[inline]
    fn apply(self, v: W) -> W {
        v.max(self.lo).min(self.hi)
    }
}

/// A wrap into one type on the low 64 bits, resolved when the closure is
/// built: the low bits, sign-extended by flipping and subtracting the
/// sign bit for a signed type (`half` is 0 for an unsigned one).
#[derive(Clone, Copy)]
struct WrapTo {
    mask: u64,
    half: u64,
    signed: bool,
}

impl WrapTo {
    fn of(t: ScalarType) -> WrapTo {
        let mask = (t.max_value() - t.min_value()) as u64;
        WrapTo { mask, half: if t.is_signed() { mask / 2 + 1 } else { 0 }, signed: t.is_signed() }
    }

    #[inline]
    fn apply<W: Word>(self, v: W) -> W {
        let b = ((v.low64() & self.mask) ^ self.half).wrapping_sub(self.half);
        if self.signed {
            W::of_i64(b as i64)
        } else {
            W::of_u64(b)
        }
    }
}

/// A count operand read as given (left-shift forms).
fn left<W: Word>(y: W) -> W {
    y
}

/// A count operand read as a right shift: negated after clamping to ±256.
fn right<W: Word>(y: W) -> W {
    -y.clamp(W::of(-256), W::of(256))
}

/// `shift_lane(x, count(y), bits)`, then `wrap`, the wrapping shift
/// family: `Bin(Shl|Shr)`, `ShrNarrow` and FPIR `WideningShl/Shr`. The
/// count, clamped to ±2·`bits`, resolves to a left shift `l` and an
/// arithmetic right shift `r`, one of them 0, each at most the word's
/// `BITS - 1`. A longer right shift leaves the same sign fill, and a
/// longer left shift the same zeros in the result's bits, which are fewer
/// than the word's.
fn wrap_shift<W: Word, C: Class, S: LaneSink>(
    sink: At<W, C, S>,
    bits: u32,
    count: impl Fn(W) -> W + Lane,
    wrap: impl Fn(W) -> W + Lane,
) -> S::Out {
    let (b, top) = (W::of(2 * bits as i128), W::of(W::BITS as i128 - 1));
    let resolve = move |y| {
        let c = count(y).clamp(-b, b);
        if c >= W::of(0) {
            (c.min(top).lane() as u32, 0)
        } else {
            (0, (-c).min(top).lane() as u32)
        }
    };
    sink.by_count(resolve, move |x: W, (l, r): (u32, u32)| wrap((x << l) >> r))
}

/// A saturating shift's count-dependent parameters; see [`sat_shift`].
#[derive(Clone, Copy)]
struct SatShift<W> {
    /// `x` is first clamped to `[lo, hi]`, just outside the inputs a left
    /// shift keeps in range, so the shift cannot overflow and the final
    /// clamp saturates the rest.
    lo: W,
    hi: W,
    l: u32,
    /// The rounding term added before the right shift `r`.
    bias: W,
    r: u32,
}

/// `sat(x · 2^c)` for a count `c = count(y)` clamped to ±`bits`: exact for
/// `c ≥ 0`, and for `c < 0` a floor shift, rounded half up when `round`.
/// This is FPIR `RoundingShl/Shr` and `SaturatingShl`, and
/// `ShrRndSatNarrow` with its two saturations as one `sat`.
fn sat_shift<W: Word, C: Class, S: LaneSink>(
    sink: At<W, C, S>,
    bits: u32,
    count: impl Fn(W) -> W + Lane,
    round: bool,
    sat: Sat<W>,
) -> S::Out {
    let (b, zero, one) = (W::of(bits as i128), W::of(0), W::of(1));
    let resolve = move |y| {
        let c = count(y).clamp(-b, b);
        if c >= zero {
            let l = c.lane() as u32;
            SatShift { lo: (sat.lo >> l) - one, hi: (sat.hi >> l) + one, l, bias: zero, r: 0 }
        } else {
            let r = (-c).lane() as u32;
            let bias = if round { (one << r) >> 1 } else { zero };
            SatShift { lo: W::MIN, hi: W::MAX, l: 0, bias, r }
        }
    };
    sink.by_count(resolve, move |x: W, p: SatShift<W>| {
        sat.apply(((x.max(p.lo).min(p.hi) << p.l) + p.bias) >> p.r)
    })
}

/// Whether the product of two lanes of `a` and `b` fits `i128` with room
/// for a rounding term: true unless a lane is 64 bits wide.
fn narrow_product(a: ScalarType, b: ScalarType) -> bool {
    a.bits() < 64 && b.bits() < 64
}

/// `(x · y) >> bits` of the operand type, `MulHigh`. A 64-bit product,
/// which only the `i128` word sees, takes the interpreter's exact helper.
fn mul_high<W: Word, S: LaneSink>(sink: At<W, Same, S>, t: ScalarType, u: ScalarType) -> S::Out {
    let bits = t.bits();
    if narrow_product(t, u) {
        sink.binary(move |x, y| (x * y) >> bits)
    } else {
        sink.binary(move |x, y| W::of(mul_shr_exact(x.lane(), y.lane(), bits, false)))
    }
}

/// `sat(x · y >> s)`, floored or rounded half up: FPIR `MulShr` and
/// `RoundingMulShr` (`s` is operand 2 clamped to `[0, 2·bits]`) and
/// `QRDMulH` (`fixed`: `s = bits − 1`). A 64-bit product, which only the
/// `i128` word sees, takes the interpreter's exact helper.
fn mul_shr<W: Word, S: LaneSink>(
    sink: At<W, Same, S>,
    tys: &[ScalarType],
    round: bool,
    sat: Sat<W>,
    fixed: Option<u32>,
) -> S::Out {
    let (b, zero, one) = (W::of(2 * tys[0].bits() as i128), W::of(0), W::of(1));
    let shift = move |z: W| z.clamp(zero, b).lane() as u32;
    if !narrow_product(tys[0], tys[1]) {
        let apply =
            move |x: W, y: W, s| sat.apply(W::of(mul_shr_exact(x.lane(), y.lane(), s, round)));
        return match fixed {
            Some(s) => sink.binary(move |x, y| apply(x, y, s)),
            None => sink.by_count3(shift, apply),
        };
    }
    // The product and its bias fit the word, and `s` is below its width.
    let resolve = move |z| {
        let s = shift(z);
        (if round { (one << s) >> 1 } else { zero }, s)
    };
    let apply = move |x: W, y: W, (bias, s): (W, u32)| sat.apply((x * y + bias) >> s);
    match fixed {
        Some(s) => {
            let p = resolve(W::of(s as i128));
            sink.binary(move |x, y| apply(x, y, p))
        }
        None => sink.by_count3(resolve, apply),
    }
}

/// Floor division with `x / 0 == 0`, the interpreter's `floor_div`.
fn floor_div_w<W: Word>(x: W, y: W) -> W {
    let zero = W::of(0);
    if y == zero {
        return zero;
    }
    let q = x / y;
    if x % y != zero && ((x < zero) != (y < zero)) {
        q - W::of(1)
    } else {
        q
    }
}

/// Floor remainder with `x % 0 == 0`, the interpreter's `floor_mod`.
fn floor_mod_w<W: Word>(x: W, y: W) -> W {
    if y == W::of(0) {
        return y;
    }
    x - floor_div_w(x, y) * y
}

/// The lane table: every semantic's lane arithmetic, written once, with
/// everything that depends only on the element types resolved here.
/// `tys` are the operand element types (`tys.len() == sem.arity()`),
/// `result` the destination element type.
fn lane_table<S: LaneSink>(
    sem: MachSem,
    tys: &[ScalarType],
    result: ScalarType,
    sink: S,
) -> S::Out {
    let t = tys[0];
    let needed = needed_bits(sem, tys, result);
    match sem {
        MachSem::Bin(op) => bin_lanes(op, t, needed, sink),
        // `a < b` or `a == b`, with the operands swapped and the answer
        // negated as `op` needs: two closures for the six comparisons.
        MachSem::Cmp(op) => {
            let (swap, negate) = match op {
                CmpOp::Eq | CmpOp::Lt => (false, false),
                CmpOp::Ne | CmpOp::Ge => (false, true),
                CmpOp::Gt => (true, false),
                CmpOp::Le => (true, true),
            };
            at_word!(Same, needed, sink, s => if matches!(op, CmpOp::Eq | CmpOp::Ne) {
                s.binary(move |x, y| if (x == y) != negate { 1 } else { 0 })
            } else {
                s.binary(move |x, y| {
                    let (a, b) = if swap { (y, x) } else { (x, y) };
                    if (a < b) != negate {
                        1
                    } else {
                        0
                    }
                })
            })
        }
        MachSem::Select => {
            at_word!(Same, needed, sink, s => s.ternary(|m, x, y| if m != 0 { x } else { y }))
        }
        // A wrapping conversion is the store's truncation.
        MachSem::ExtendTo | MachSem::TruncTo | MachSem::Reinterpret | MachSem::Splat => {
            at_word!(Cast, needed, sink, s => s.unary(|x| x))
        }
        MachSem::SatCastTo => {
            at_word!(Narrower, needed, sink, s => s.unary_sat(|x| x, Sat::of(result)))
        }
        // Reads its operand's bits as the signed type of its width.
        MachSem::PackSatSignedTo => at_word!(Narrower, needed, sink, s => {
            let signed = WrapTo::of(t.with_signed());
            s.unary_sat(move |x| signed.apply(x), Sat::of(result))
        }),
        MachSem::Fpir(op) => fpir_lanes(op, tys, result, needed, sink),
        MachSem::MulHigh => at_word!(Same, needed, sink, s => mul_high(s, t, tys[1])),
        // The widening width constraint is a shape check; the lane
        // arithmetic is the non-widening form's. The sums of products
        // wrap for the same reason as `BinOp::Mul` in `bin_op_lane`:
        // 64-bit lane extremes overflow the raw product, and a wrap only
        // reads its low bits.
        MachSem::MulAcc => {
            at_word!(Same, needed, sink, s => s.ternary(|c, x, y| c.wrapping_add(x.wrapping_mul(y))))
        }
        MachSem::WideningMulAcc => {
            at_word!(Acc, needed, sink, s => s.ternary(|c, x, y| c.wrapping_add(x.wrapping_mul(y))))
        }
        MachSem::MulPairsAdd => at_word!(Wider, needed, sink, s => {
            s.wide(|[a, b, c, d]: [_; 4]| a.wrapping_mul(b).wrapping_add(c.wrapping_mul(d)))
        }),
        MachSem::Mpa => at_word!(MpaShapes, needed, sink, s => {
            s.wide(|[a, b, c0, c1]: [_; 4]| a.wrapping_mul(c0).wrapping_add(b.wrapping_mul(c1)))
        }),
        MachSem::MpaAcc => at_word!(MpaAccShapes, needed, sink, s => {
            s.wide(|[acc, a, b, c0, c1]: [_; 5]| {
                acc.wrapping_add(a.wrapping_mul(c0)).wrapping_add(b.wrapping_mul(c1))
            })
        }),
        MachSem::DotAcc4 => at_word!(Dot, needed, sink, s => {
            s.wide(|x: [_; 9]| {
                let mut acc = x[0];
                for k in 0..4 {
                    acc = acc.wrapping_add(x[1 + k].wrapping_mul(x[5 + k]));
                }
                acc
            })
        }),
        // `rounding_shr` at the operand type saturates into it, then into
        // the result.
        MachSem::ShrRndSatNarrow => at_word!(Narrower, needed, sink, s => {
            sat_shift(s, t.bits(), right, true, Sat::of(t).and(Sat::of(result)))
        }),
        // Wraps at the operand type, then (by the store) at the result.
        MachSem::ShrNarrow => {
            let wt = WrapTo::of(t);
            at_word!(Narrower, needed, sink, s => {
                wrap_shift(s, t.bits(), right, move |v| wt.apply(v))
            })
        }
        MachSem::QRDMulH => at_word!(Same, needed, sink, s => {
            mul_shr(s, &[t, t], true, Sat::of(result), Some(t.bits() - 1))
        }),
    }
}

/// `Bin(op)` at operand type `t`. Operands are canonical lanes of `t`, so
/// `Min`/`Max`, the bitwise ops and right shifts need no wrap.
fn bin_lanes<S: LaneSink>(op: BinOp, t: ScalarType, needed: u32, sink: S) -> S::Out {
    match op {
        BinOp::Add => at_word!(Same, needed, sink, s => s.binary(|x, y| x.wrapping_add(y))),
        BinOp::Sub => at_word!(Same, needed, sink, s => s.binary(|x, y| x.wrapping_sub(y))),
        BinOp::Mul => at_word!(Same, needed, sink, s => s.binary(|x, y| x.wrapping_mul(y))),
        // No target divides: the chunked loop is enough.
        BinOp::Div => at_word!(Never, needed, sink, s => s.binary(floor_div_w)),
        BinOp::Mod => at_word!(Never, needed, sink, s => s.binary(floor_mod_w)),
        BinOp::Min => at_word!(Same, needed, sink, s => s.binary(|x, y| x.min(y))),
        BinOp::Max => at_word!(Same, needed, sink, s => s.binary(|x, y| x.max(y))),
        BinOp::Shl => at_word!(Same, needed, sink, s => wrap_shift(s, t.bits(), left, |v| v)),
        BinOp::Shr => at_word!(Same, needed, sink, s => wrap_shift(s, t.bits(), right, |v| v)),
        BinOp::And => at_word!(Same, needed, sink, s => s.binary(|x, y| x & y)),
        BinOp::Or => at_word!(Same, needed, sink, s => s.binary(|x, y| x | y)),
        BinOp::Xor => at_word!(Same, needed, sink, s => s.binary(|x, y| x ^ y)),
    }
}

/// `Fpir(op)` at the op's own arity.
fn fpir_lanes<S: LaneSink>(
    op: FpirOp,
    tys: &[ScalarType],
    result: ScalarType,
    needed: u32,
    sink: S,
) -> S::Out {
    let bits = tys[0].bits();
    match op {
        FpirOp::WideningAdd => {
            at_word!(Wider, needed, sink, s => s.binary(|x, y| x.wrapping_add(y)))
        }
        FpirOp::WideningSub => {
            at_word!(Wider, needed, sink, s => s.binary(|x, y| x.wrapping_sub(y)))
        }
        FpirOp::WideningMul => {
            at_word!(Wider, needed, sink, s => s.binary(|x, y| x.wrapping_mul(y)))
        }
        FpirOp::ExtendingAdd => {
            at_word!(Acc, needed, sink, s => s.binary(|x, y| x.wrapping_add(y)))
        }
        FpirOp::ExtendingSub => {
            at_word!(Acc, needed, sink, s => s.binary(|x, y| x.wrapping_sub(y)))
        }
        FpirOp::ExtendingMul => {
            at_word!(Acc, needed, sink, s => s.binary(|x, y| x.wrapping_mul(y)))
        }
        FpirOp::WideningShl => {
            at_word!(Wider, needed, sink, s => wrap_shift(s, bits, left, |v| v))
        }
        FpirOp::WideningShr => {
            at_word!(Wider, needed, sink, s => wrap_shift(s, bits, right, |v| v))
        }
        FpirOp::Abs => at_word!(Same, needed, sink, s => s.unary(|x| x.abs())),
        FpirOp::Absd => at_word!(Same, needed, sink, s => s.binary(|x, y| (x - y).abs())),
        // FPIR types the cast at `to`; at any other result type the stored
        // lane is the clamped value wrapped, so the closure clamps.
        FpirOp::SaturatingCast(to) => at_word!(Narrower, needed, sink, s => {
            let sat = Sat::of(to);
            if to == result {
                s.unary_sat(|x| x, sat)
            } else {
                s.unary(move |x| sat.apply(x))
            }
        }),
        FpirOp::SaturatingNarrow => {
            at_word!(Narrower, needed, sink, s => s.unary_sat(|x| x, Sat::of(result)))
        }
        FpirOp::SaturatingAdd => {
            at_word!(Same, needed, sink, s => s.binary_sat(|x, y| x + y, Sat::of(result)))
        }
        FpirOp::SaturatingSub => {
            at_word!(Same, needed, sink, s => s.binary_sat(|x, y| x - y, Sat::of(result)))
        }
        // `floor_div(v, 2)` is an arithmetic shift.
        FpirOp::HalvingAdd => at_word!(Same, needed, sink, s => s.binary(|x, y| (x + y) >> 1)),
        FpirOp::HalvingSub => at_word!(Same, needed, sink, s => s.binary(|x, y| (x - y) >> 1)),
        FpirOp::RoundingHalvingAdd => {
            at_word!(Same, needed, sink, s => s.binary(|x, y| (x + y + 1) >> 1))
        }
        FpirOp::RoundingShl => {
            at_word!(Same, needed, sink, s => sat_shift(s, bits, left, true, Sat::of(result)))
        }
        FpirOp::RoundingShr => {
            at_word!(Same, needed, sink, s => sat_shift(s, bits, right, true, Sat::of(result)))
        }
        FpirOp::SaturatingShl => {
            at_word!(Same, needed, sink, s => sat_shift(s, bits, left, false, Sat::of(result)))
        }
        FpirOp::MulShr => {
            at_word!(Same, needed, sink, s => mul_shr(s, tys, false, Sat::of(result), None))
        }
        FpirOp::RoundingMulShr => {
            at_word!(Same, needed, sink, s => mul_shr(s, tys, true, Sat::of(result), None))
        }
    }
}

// ---- storage classes --------------------------------------------------

/// The storage shape of operand types `tys` and result type `result`:
/// the operand type `A` (the first operand type that is not the result's,
/// else the result's), the result type `R`, and a mask with bit `k` set
/// where operand `k` is at `R` rather than `A`. `None` when an operand is
/// at neither.
fn storage(tys: &[ScalarType], result: ScalarType) -> Option<(ScalarType, ScalarType, u16)> {
    let a = tys.iter().copied().find(|&t| t != result).unwrap_or(result);
    let mut mask = 0;
    for (k, &t) in tys.iter().enumerate() {
        if t != a {
            if t != result {
                return None;
            }
            mask |= 1 << k;
        }
    }
    Some((a, result, mask))
}

/// The type shapes a family of semantics can take, each with a typed
/// strip loop built for it: operands at one type `A` (or, in the masked
/// positions, at the result type `R`), and `R` the same width as `A`, or
/// 2×, ½ or 4× as wide — never wider than 32 bits. Every shape gets its
/// loop at the `i32` word, which SSE2 compares, clamps and multiplies
/// four lanes at a time; a shape with a 32-bit lane gets one at `i64` as
/// well, for the semantics whose intermediates need more than 32 bits
/// there (the word rule picks). A shape outside its class runs its
/// closure at `i128` in the chunked loop instead. The classes keep the
/// typed loops a closure is built in to the shapes its semantics take,
/// not the product of every storage type and word.
trait Class {
    /// `b`'s typed loop at `i32` for `tys → result` (any listed pair),
    /// or `b` back when the class has none.
    fn narrow<W: Word, B: Build<W>>(
        tys: &[ScalarType],
        result: ScalarType,
        b: B,
    ) -> Result<B::Out, B>;
    /// `b`'s typed loop at `i64` (a 32-bit pair), likewise.
    fn wide<W: Word, B: Build<W>>(
        tys: &[ScalarType],
        result: ScalarType,
        b: B,
    ) -> Result<B::Out, B>;
}

/// The native type of a [`ScalarType`] variant.
macro_rules! native {
    (U8) => {
        u8
    };
    (I8) => {
        i8
    };
    (U16) => {
        u16
    };
    (I16) => {
        i16
    };
    (U32) => {
        u32
    };
    (I32) => {
        i32
    };
}

/// A [`Class`] over the listed `A R` storage pairs, each at every listed
/// mask: the 8- and 16-bit pairs at `i32`, the 32-bit pairs at `i32` and
/// at `i64`.
macro_rules! class {
    ($(#[$doc:meta])* $name:ident, [$($m:literal),+], $narrow:tt, $wide:tt) => {
        $(#[$doc])*
        struct $name;
        impl Class for $name {
            fn narrow<W: Word, B: Build<W>>(
                tys: &[ScalarType],
                result: ScalarType,
                b: B,
            ) -> Result<B::Out, B> {
                let Some(shape) = storage(tys, result) else { return Err(b) };
                $(if shape.2 == $m {
                    return class!(@pairs $m, shape, b, $narrow)
                        .or_else(|b| class!(@pairs $m, shape, b, $wide));
                })+
                Err(b)
            }
            fn wide<W: Word, B: Build<W>>(
                tys: &[ScalarType],
                result: ScalarType,
                b: B,
            ) -> Result<B::Out, B> {
                let Some(shape) = storage(tys, result) else { return Err(b) };
                $(if shape.2 == $m {
                    return class!(@pairs $m, shape, b, $wide);
                })+
                Err(b)
            }
        }
    };
    (@pairs $m:literal, $shape:ident, $b:ident, [$($a:ident $r:ident),*]) => {
        match ($shape.0, $shape.1) {
            $((ScalarType::$a, ScalarType::$r) => Ok($b.typed::<native!($a), native!($r), $m>()),)*
            _ => Err($b),
        }
    };
}

class!(
    /// Operands and result at one type: the lane-wise ops (at `i8`, which
    /// no kernel of the figure set computes in, they run chunked).
    Same,
    [0],
    [U8 U8, U16 U16, I16 I16],
    [U32 U32, I32 I32]
);
class!(
    /// A result twice as wide as the operands: the widening ops.
    Wider,
    [0],
    [U8 U16, U8 I16, I8 U16, I8 I16],
    [U16 U32, U16 I32, I16 U32, I16 I32]
);
class!(
    /// A result twice as wide as the operands, and an accumulator operand
    /// 0 at the result type: `WideningMulAcc`, the extending ops.
    Acc,
    [1],
    [U8 U16, U8 I16, I8 U16, I8 I16],
    [U16 U32, U16 I32, I16 U32, I16 I32]
);
class!(
    /// A result half as wide as the operands: the narrowing shifts and
    /// saturations.
    Narrower,
    [0],
    [U16 U8, U16 I8, I16 U8, I16 I8],
    [U32 U16, U32 I16, I32 U16, I32 I16]
);
class!(
    /// Conversions: a result of the other signedness, or 2× or ½ as wide.
    Cast,
    [0],
    [U8 I8, I8 U8, U16 I16, I16 U16, U8 U16, U8 I16, I8 U16, I8 I16, U16 U8, U16 I8, I16 U8, I16 I8],
    [U32 I32, I32 U32, U16 U32, U16 I32, I16 U32, I16 I32, U32 U16, U32 I16, I32 U16, I32 I16]
);
class!(
    /// `Mpa`: a result twice as wide, its constants at either width.
    MpaShapes,
    [0, 0b1100],
    [U8 U16, U8 I16, I8 U16, I8 I16],
    [U16 U32, U16 I32, I16 U32, I16 I32]
);
class!(
    /// `MpaAcc`: an accumulator twice as wide, its constants at either
    /// width.
    MpaAccShapes,
    [0b1, 0b11001],
    [U8 U16, U8 I16, I8 U16, I8 I16],
    [U16 U32, U16 I32, I16 U32, I16 I32]
);
class!(
    /// `DotAcc4`: an accumulator four times as wide.
    Dot,
    [1],
    [],
    [U8 U32, U8 I32, I8 U32, I8 I32]
);

/// No shape: closures that always run chunked.
struct Never;

impl Class for Never {
    fn narrow<W: Word, B: Build<W>>(_: &[ScalarType], _: ScalarType, b: B) -> Result<B::Out, B> {
        Err(b)
    }
    fn wide<W: Word, B: Build<W>>(_: &[ScalarType], _: ScalarType, b: B) -> Result<B::Out, B> {
        Err(b)
    }
}

/// Whether class `C` has a typed loop for `tys → result` at the word of
/// `bits` (32 or 64).
fn admits<C: Class>(tys: &[ScalarType], result: ScalarType, bits: u32) -> bool {
    match bits {
        32 => C::narrow::<i32, _>(tys, result, Admit).is_ok(),
        _ => C::wide::<i64, _>(tys, result, Admit).is_ok(),
    }
}

/// The probe [`admits`] dispatches: builds nothing, and names the storage
/// of the operands (`A`) and the result (`R`) the typed loop reads and
/// writes.
struct Admit;

impl<W: Word> Build<W> for Admit {
    type Out = (ScalarType, ScalarType);
    fn typed<A: Native, R: Native, const M: u16>(self) -> Self::Out {
        (A::ELEM, R::ELEM)
    }
    fn chunked(self) -> Self::Out {
        unreachable!("the probe builds no loop")
    }
}

// ---- the loops ----------------------------------------------------------

/// A strip loop over a closure at word `W`: `typed` for native operand
/// storage `A` (`R` at the operands in mask `M`) and result storage `R`,
/// `chunked` for any storage.
trait Build<W: Word>: Sized {
    type Out;
    fn typed<A: Native, R: Native, const M: u16>(self) -> Self::Out;
    fn chunked(self) -> Self::Out;
}

/// Erase a strip loop into a shareable [`SemSliceFn`].
fn kernel(f: impl Fn(&[Slice<'_>], SliceMut<'_>) + Send + Sync + 'static) -> SemSliceFn {
    Arc::new(f)
}

/// One operand of a typed loop: its lanes at `A`, or at `R` when `at_r`,
/// sliced to the strip length once, before the loop.
#[derive(Clone, Copy)]
struct Col<'a, A, R> {
    a: &'a [A],
    r: &'a [R],
}

impl<'a, A: Native, R: Native> Col<'a, A, R> {
    #[inline(always)]
    fn new(at_r: bool, s: Slice<'a>, n: usize) -> Self {
        if at_r {
            Col { a: &[], r: &R::of(s)[..n] }
        } else {
            Col { a: &A::of(s)[..n], r: &[] }
        }
    }

    #[inline(always)]
    fn get<W: Word>(self, at_r: bool, i: usize) -> W {
        if at_r {
            W::load(self.r[i])
        } else {
            W::load(self.a[i])
        }
    }
}

/// Whether mask `m` puts operand `k` at the result type.
const fn at_r(m: u16, k: usize) -> bool {
    m & (1 << k) != 0
}

/// How many lanes the chunked loop converts at a time.
const CHUNK: usize = 32;

/// The chunked loop: up to [`CHUNK`] lanes of every operand converted
/// into word arrays, the closure run over them, and the results stored,
/// for operands and a result of any storage.
fn chunked<W: Word, const N: usize>(
    f: impl Fn([W; N]) -> W,
    xs: &[Slice<'_>],
    mut out: SliceMut<'_>,
) {
    let n = out.len();
    let mut cols = [[W::default(); CHUNK]; N];
    let mut res = [W::default(); CHUNK];
    let mut start = 0;
    while start < n {
        let m = CHUNK.min(n - start);
        for (col, x) in cols.iter_mut().zip(xs) {
            load_words(x.slice(start..start + m), &mut col[..m]);
        }
        for (i, r) in res[..m].iter_mut().enumerate() {
            *r = f(std::array::from_fn(|k| cols[k][i]));
        }
        let (head, tail) = out.split_at(m);
        store_words(&res[..m], head);
        out = tail;
        start += m;
    }
}

macro_rules! convert_words {
    ($($v:ident $t:ty),*) => {
        /// `s`'s lanes into words.
        fn load_words<W: Word>(s: Slice<'_>, dst: &mut [W]) {
            match s {
                $(Slice::$v(v) => {
                    for (d, &x) in dst.iter_mut().zip(v) {
                        *d = W::load(x);
                    }
                })*
            }
        }

        /// Words into `out`'s lanes, truncated.
        fn store_words<W: Word>(src: &[W], out: SliceMut<'_>) {
            match out {
                $(SliceMut::$v(o) => {
                    for (o, &x) in o.iter_mut().zip(src) {
                        *o = x.store::<$t>();
                    }
                })*
            }
        }
    };
}

natives!(convert_words);

/// How the unary and binary loops store a closure's result.
trait Store<W: Word>: Lane {
    /// A typed loop's store into the result storage `R`.
    fn typed<R: Native>(self, v: W) -> R;
    /// The chunked loop's word, which its store truncates.
    fn chunked(self, v: W) -> W;
}

/// The plain store: truncation, which is a wrapping result's wrap.
#[derive(Clone, Copy)]
struct Wraps;

impl<W: Word> Store<W> for Wraps {
    #[inline(always)]
    fn typed<R: Native>(self, v: W) -> R {
        v.store()
    }
    #[inline(always)]
    fn chunked(self, v: W) -> W {
        v
    }
}

/// The store clamp, for a result saturated into the result type's whole
/// range: a typed loop clamps to its result storage's constant bounds
/// ([`Word::store_sat`]), which are `self`'s, since `R` is the result
/// type's own storage; the chunked loop clamps to `self`, as the closure
/// did.
impl<W: Word> Store<W> for Sat<W> {
    #[inline(always)]
    fn typed<R: Native>(self, v: W) -> R {
        v.store_sat()
    }
    #[inline(always)]
    fn chunked(self, v: W) -> W {
        self.apply(v)
    }
}

/// A unary closure's loop, storing through `St`.
struct L1<F, St>(F, St);

impl<W: Word, F: Fn(W) -> W + Lane, St: Store<W>> Build<W> for L1<F, St> {
    type Out = SemSliceFn;
    fn typed<A: Native, R: Native, const M: u16>(self) -> SemSliceFn {
        let L1(f, st) = self;
        kernel(move |xs, out| {
            // A copy on the stack: the closure's captures stay in
            // registers instead of being reloaded through the kernel's
            // shared environment on every lane.
            let f = f;
            let out = R::of_mut(out);
            let n = out.len();
            let x = Col::<A, R>::new(at_r(M, 0), xs[0], n);
            for (i, o) in out.iter_mut().enumerate() {
                *o = st.typed(f(x.get(at_r(M, 0), i)));
            }
        })
    }
    fn chunked(self) -> SemSliceFn {
        let L1(f, st) = self;
        kernel(move |xs, out| chunked(move |[x]: [W; 1]| st.chunked(f(x)), xs, out))
    }
}

/// A binary closure's loop, storing through `St`.
struct L2<F, St>(F, St);

impl<W: Word, F: Fn(W, W) -> W + Lane, St: Store<W>> Build<W> for L2<F, St> {
    type Out = SemSliceFn;
    fn typed<A: Native, R: Native, const M: u16>(self) -> SemSliceFn {
        let L2(f, st) = self;
        kernel(move |xs, out| {
            // A copy on the stack: the closure's captures stay in
            // registers instead of being reloaded through the kernel's
            // shared environment on every lane.
            let f = f;
            let out = R::of_mut(out);
            let n = out.len();
            let x = Col::<A, R>::new(at_r(M, 0), xs[0], n);
            let y = Col::<A, R>::new(at_r(M, 1), xs[1], n);
            for (i, o) in out.iter_mut().enumerate() {
                *o = st.typed(f(x.get(at_r(M, 0), i), y.get(at_r(M, 1), i)));
            }
        })
    }
    fn chunked(self) -> SemSliceFn {
        let L2(f, st) = self;
        kernel(move |xs, out| chunked(move |[x, y]: [W; 2]| st.chunked(f(x, y)), xs, out))
    }
}

/// A ternary closure's loop.
struct L3<F>(F);

impl<W: Word, F: Fn(W, W, W) -> W + Lane> Build<W> for L3<F> {
    type Out = SemSliceFn;
    fn typed<A: Native, R: Native, const M: u16>(self) -> SemSliceFn {
        let f = self.0;
        kernel(move |xs, out| {
            // A copy on the stack: the closure's captures stay in
            // registers instead of being reloaded through the kernel's
            // shared environment on every lane.
            let f = f;
            let out = R::of_mut(out);
            let n = out.len();
            let x = Col::<A, R>::new(at_r(M, 0), xs[0], n);
            let y = Col::<A, R>::new(at_r(M, 1), xs[1], n);
            let z = Col::<A, R>::new(at_r(M, 2), xs[2], n);
            for (i, o) in out.iter_mut().enumerate() {
                let (a, b, c) = (x.get(at_r(M, 0), i), y.get(at_r(M, 1), i), z.get(at_r(M, 2), i));
                *o = f(a, b, c).store();
            }
        })
    }
    fn chunked(self) -> SemSliceFn {
        let f = self.0;
        kernel(move |xs, out| chunked(move |[x, y, z]: [W; 3]| f(x, y, z), xs, out))
    }
}

/// The loop of a closure over `N` operands, each sliced to the strip
/// length once, before the loop.
struct LN<F, const N: usize>(F);

impl<W: Word, F: Fn([W; N]) -> W + Lane, const N: usize> Build<W> for LN<F, N> {
    type Out = SemSliceFn;
    fn typed<A: Native, R: Native, const M: u16>(self) -> SemSliceFn {
        let f = self.0;
        kernel(move |xs, out| {
            // A copy on the stack: the closure's captures stay in
            // registers instead of being reloaded through the kernel's
            // shared environment on every lane.
            let f = f;
            let out = R::of_mut(out);
            let n = out.len();
            let cols: [Col<'_, A, R>; N] = std::array::from_fn(|k| Col::new(at_r(M, k), xs[k], n));
            for (i, o) in out.iter_mut().enumerate() {
                *o = f(std::array::from_fn(|k| cols[k].get(at_r(M, k), i))).store();
            }
        })
    }
    fn chunked(self) -> SemSliceFn {
        let f = self.0;
        kernel(move |xs, out| chunked(f, xs, out))
    }
}

// ---- the sinks ----------------------------------------------------------

/// `eval_sem_into`'s sink: extends `out` with the result lanes, reading
/// the operand lane slices in place (zips are bounds-check-free, and
/// `extend` over an exact-size iterator writes without per-element
/// capacity checks), each lane wrapped into the result type.
struct Extend<'a> {
    args: &'a [&'a Value],
    out: &'a mut Vec<i128>,
    wrap: Wrap,
}

impl LaneSink for Extend<'_> {
    type Out = ();
    /// The oracle computes at `i128`: its closures are built once.
    fn typed<C: Class>(&self, _: u32) -> bool {
        false
    }
    fn unary<W: Word, C: Class>(self, f: impl Fn(W) -> W + Lane) {
        assert_eq!(W::BITS, 128, "the oracle computes at i128");
        let w = self.wrap;
        self.out.extend(self.args[0].lanes().iter().map(|&x| w.apply(f(W::of(x)).lane())));
    }
    fn binary<W: Word, C: Class>(self, f: impl Fn(W, W) -> W + Lane) {
        assert_eq!(W::BITS, 128, "the oracle computes at i128");
        let (a, b, w) = (self.args[0].lanes(), self.args[1].lanes(), self.wrap);
        self.out.extend(a.iter().zip(b).map(|(&x, &y)| w.apply(f(W::of(x), W::of(y)).lane())));
    }
    fn ternary<W: Word, C: Class>(self, f: impl Fn(W, W, W) -> W + Lane) {
        assert_eq!(W::BITS, 128, "the oracle computes at i128");
        let (a, b, c) = (self.args[0].lanes(), self.args[1].lanes(), self.args[2].lanes());
        let w = self.wrap;
        self.out.extend(
            a.iter()
                .zip(b)
                .zip(c)
                .map(|((&x, &y), &z)| w.apply(f(W::of(x), W::of(y), W::of(z)).lane())),
        );
    }
    fn wide<W: Word, C: Class, const N: usize>(self, f: impl Fn([W; N]) -> W + Lane) {
        assert_eq!(W::BITS, 128, "the oracle computes at i128");
        let n = self.args[0].lanes().len();
        let xs: [&[i128]; N] = std::array::from_fn(|k| &self.args[k].lanes()[..n]);
        let w = self.wrap;
        self.out
            .extend((0..n).map(|i| w.apply(f(std::array::from_fn(|k| W::of(xs[k][i]))).lane())));
    }
}

/// `sem_slice_fn`'s sink: the lane closure in a strip loop over every
/// operand slice, typed when its class admits the shape.
struct Strip<'a> {
    tys: &'a [ScalarType],
    result: ScalarType,
}

impl LaneSink for Strip<'_> {
    type Out = SemSliceFn;
    fn typed<C: Class>(&self, bits: u32) -> bool {
        admits::<C>(self.tys, self.result, bits)
    }
    fn unary<W: Word, C: Class>(self, f: impl Fn(W) -> W + Lane) -> SemSliceFn {
        W::kernel::<C, _>(self.tys, self.result, L1(f, Wraps))
    }
    fn binary<W: Word, C: Class>(self, f: impl Fn(W, W) -> W + Lane) -> SemSliceFn {
        W::kernel::<C, _>(self.tys, self.result, L2(f, Wraps))
    }
    fn ternary<W: Word, C: Class>(self, f: impl Fn(W, W, W) -> W + Lane) -> SemSliceFn {
        W::kernel::<C, _>(self.tys, self.result, L3(f))
    }
    fn wide<W: Word, C: Class, const N: usize>(self, f: impl Fn([W; N]) -> W + Lane) -> SemSliceFn {
        W::kernel::<C, _>(self.tys, self.result, LN(f))
    }
    fn unary_sat<W: Word, C: Class>(self, f: impl Fn(W) -> W + Lane, sat: Sat<W>) -> SemSliceFn {
        W::kernel::<C, _>(self.tys, self.result, L1(f, sat))
    }
    fn binary_sat<W: Word, C: Class>(
        self,
        f: impl Fn(W, W) -> W + Lane,
        sat: Sat<W>,
    ) -> SemSliceFn {
        W::kernel::<C, _>(self.tys, self.result, L2(f, sat))
    }
}

/// `sem_slice_fn_splat`'s sink: `c` bound at the last operand (a shift
/// count, a multiplier, a clamp bound), the loop reading only the other
/// operands' slices. In a typed shape the constant is resolved into the
/// typed loop ([`Word::capture`]); at `i128` the chunked loop reads it
/// from its staged row.
struct Capture<'a> {
    tys: &'a [ScalarType],
    result: ScalarType,
    c: i128,
}

impl LaneSink for Capture<'_> {
    type Out = Option<SemSliceFn>;
    fn typed<C: Class>(&self, bits: u32) -> bool {
        admits::<C>(self.tys, self.result, bits)
    }
    fn unary<W: Word, C: Class>(self, f: impl Fn(W) -> W + Lane) -> Self::Out {
        let c = f(W::of(self.c)).lane();
        Some(kernel(move |_, mut out| out.fill(c)))
    }
    fn binary<W: Word, C: Class>(self, f: impl Fn(W, W) -> W + Lane) -> Self::Out {
        self.bind2::<W, C>(f, Wraps)
    }
    fn ternary<W: Word, C: Class>(self, f: impl Fn(W, W, W) -> W + Lane) -> Self::Out {
        let bound = move |c| L2(move |x, y| f(x, y, c), Wraps);
        Some(W::capture::<C, _, _>(self.tys, self.result, self.c, L3(f), bound))
    }
    fn wide<W: Word, C: Class, const N: usize>(self, _: impl Fn([W; N]) -> W + Lane) -> Self::Out {
        None
    }
    fn binary_sat<W: Word, C: Class>(self, f: impl Fn(W, W) -> W + Lane, sat: Sat<W>) -> Self::Out {
        self.bind2::<W, C>(f, sat)
    }
    /// A captured count is resolved here, once, instead of per lane.
    fn by_count<W: Word, C: Class, P: Lane>(
        self,
        resolve: impl Fn(W) -> P + Lane,
        apply: impl Fn(W, P) -> W + Lane,
    ) -> Self::Out {
        let streamed = L2(move |x, y| apply(x, resolve(y)), Wraps);
        let bound = move |c| {
            let p = resolve(c);
            L1(move |x| apply(x, p), Wraps)
        };
        Some(W::capture::<C, _, _>(self.tys, self.result, self.c, streamed, bound))
    }
    fn by_count3<W: Word, C: Class, P: Lane>(
        self,
        resolve: impl Fn(W) -> P + Lane,
        apply: impl Fn(W, W, P) -> W + Lane,
    ) -> Self::Out {
        let streamed = L3(move |x, y, z| apply(x, y, resolve(z)));
        let bound = move |c| {
            let p = resolve(c);
            L2(move |x, y| apply(x, y, p), Wraps)
        };
        Some(W::capture::<C, _, _>(self.tys, self.result, self.c, streamed, bound))
    }
}

impl Capture<'_> {
    /// A binary closure with `c` bound at operand 1, storing through `st`.
    fn bind2<W: Word, C: Class>(
        self,
        f: impl Fn(W, W) -> W + Lane,
        st: impl Store<W>,
    ) -> Option<SemSliceFn> {
        let bound = move |c| L1(move |x| f(x, c), st);
        Some(W::capture::<C, _, _>(self.tys, self.result, self.c, L2(f, st), bound))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::Lanes;
    use fpir::interp::{bin_op_lane, cmp_op_lane, fpir_op_lane};
    use fpir::types::{ScalarType as S, VectorType as V};

    fn v(t: V, xs: &[i128]) -> Value {
        Value::new(t, xs.to_vec())
    }

    /// Run a kernel over operand columns stored at their types `tys`,
    /// into a result of type `result`.
    fn run(f: &SemSliceFn, tys: &[S], args: &[Vec<i128>], result: S) -> Vec<i128> {
        let lanes: Vec<Lanes> =
            tys.iter().zip(args).map(|(&t, a)| Lanes::from_lanes(t, a)).collect();
        let slices: Vec<Slice<'_>> = lanes.iter().map(Lanes::as_slice).collect();
        let mut out = Lanes::new(result);
        out.resize(args[0].len());
        f(&slices, out.as_mut());
        let mut got = Vec::new();
        out.write_to(&mut got);
        got
    }

    #[test]
    fn pack_sat_signed_reinterprets() {
        // vpackuswb-style: u16 50000 is i16 -15536, which saturates to 0.
        let t16 = V::new(S::U16, 2);
        let t8 = V::new(S::U8, 2);
        let out = eval_sem(MachSem::PackSatSignedTo, &[v(t16, &[50000, 300])], t8).unwrap();
        assert_eq!(out.lanes(), &[0, 255]);
        // A plain saturating cast would give 255 for both.
        let out = eval_sem(MachSem::SatCastTo, &[v(t16, &[50000, 300])], t8).unwrap();
        assert_eq!(out.lanes(), &[255, 255]);
    }

    #[test]
    fn widening_mul_acc() {
        let t16 = V::new(S::U16, 2);
        let t8 = V::new(S::U8, 2);
        let out = eval_sem(
            MachSem::WideningMulAcc,
            &[v(t16, &[100, 65535]), v(t8, &[10, 2]), v(t8, &[10, 1])],
            t16,
        )
        .unwrap();
        assert_eq!(out.lanes(), &[200, 1]); // 65535 + 2 wraps.
    }

    #[test]
    fn dot_acc4_accumulates() {
        let t32 = V::new(S::U32, 1);
        let t8 = V::new(S::U8, 1);
        let args: Vec<Value> = std::iter::once(v(t32, &[5]))
            .chain((0..4).map(|i| v(t8, &[i + 1])))
            .chain((0..4).map(|_| v(t8, &[10])))
            .collect();
        let out = eval_sem(MachSem::DotAcc4, &args, t32).unwrap();
        assert_eq!(out.lanes(), &[5 + 10 * (1 + 2 + 3 + 4)]);
    }

    #[test]
    fn dot_acc4_validates_widths() {
        let t16 = V::new(S::U16, 1);
        let t8 = V::new(S::U8, 1);
        let args: Vec<Value> =
            std::iter::once(v(t16, &[5])).chain((0..8).map(|_| v(t8, &[1]))).collect();
        assert!(eval_sem(MachSem::DotAcc4, &args, t16).is_err());
    }

    #[test]
    fn mul_high_matches_shifted_product() {
        let t = V::new(S::I16, 1);
        let out = eval_sem(MachSem::MulHigh, &[v(t, &[30000]), v(t, &[30000])], t).unwrap();
        assert_eq!(out.lanes(), &[(30000 * 30000) >> 16]);
    }

    #[test]
    fn arity_is_checked() {
        let t = V::new(S::U8, 1);
        assert!(eval_sem(MachSem::Select, &[v(t, &[1])], t).is_err());
    }

    #[test]
    fn compiled_kernels_match_eval_sem() {
        // Every MachSem variant, evaluated whole-vector by eval_sem and by
        // the compiled strip kernel, must agree bit-for-bit: the two sinks
        // run the same lane closure through different loops (operand
        // slices, the wide form's lane indexing). A small LCG fills the
        // lanes with canonical (wrapped) values per type.
        let mut state: u64 = 0x243f_6a88_85a3_08d3;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 16) as i128
        };
        const LANES: u32 = 8;
        // (sem, operand element types, result element type); lane counts
        // are uniform — exactly the shape the fused engine requires.
        let fp = |op| MachSem::Fpir(op);
        let cases: Vec<(MachSem, Vec<S>, S)> = vec![
            (MachSem::Bin(BinOp::Add), vec![S::I16, S::I16], S::I16),
            (MachSem::Bin(BinOp::Div), vec![S::I16, S::I16], S::I16),
            (MachSem::Bin(BinOp::Shr), vec![S::U32, S::U32], S::U32),
            (MachSem::Cmp(CmpOp::Lt), vec![S::I8, S::I8], S::I8),
            (MachSem::Select, vec![S::U8, S::U8, S::U8], S::U8),
            (MachSem::ExtendTo, vec![S::U8], S::U16),
            (MachSem::TruncTo, vec![S::U16], S::U8),
            (MachSem::Reinterpret, vec![S::I16], S::U16),
            (MachSem::SatCastTo, vec![S::I32], S::U8),
            (MachSem::PackSatSignedTo, vec![S::U16], S::U8),
            (MachSem::MulHigh, vec![S::I16, S::I16], S::I16),
            (MachSem::MulAcc, vec![S::I32, S::I32, S::I32], S::I32),
            (MachSem::WideningMulAcc, vec![S::U16, S::U8, S::U8], S::U16),
            (MachSem::MulPairsAdd, vec![S::I32; 4], S::I32),
            (MachSem::Mpa, vec![S::I32; 4], S::I32),
            (MachSem::MpaAcc, vec![S::I32; 5], S::I32),
            (
                MachSem::DotAcc4,
                vec![S::U32, S::U8, S::U8, S::U8, S::U8, S::U8, S::U8, S::U8, S::U8],
                S::U32,
            ),
            (MachSem::ShrRndSatNarrow, vec![S::I16, S::I16], S::I8),
            (MachSem::ShrNarrow, vec![S::I16, S::I16], S::I8),
            (MachSem::QRDMulH, vec![S::I16, S::I16], S::I16),
            (MachSem::Splat, vec![S::U8], S::U8),
            (fp(FpirOp::WideningAdd), vec![S::U8, S::U8], S::U16),
            (fp(FpirOp::SaturatingAdd), vec![S::I16, S::I16], S::I16),
            (fp(FpirOp::RoundingHalvingAdd), vec![S::U8, S::U8], S::U8),
            (fp(FpirOp::Absd), vec![S::U8, S::U8], S::U8),
            (fp(FpirOp::Abs), vec![S::I16], S::I16),
            (fp(FpirOp::RoundingShr), vec![S::I16, S::I16], S::I16),
            (fp(FpirOp::RoundingMulShr), vec![S::I16, S::I16, S::I16], S::I16),
        ];
        for (sem, arg_tys, result) in cases {
            assert_eq!(arg_tys.len(), sem.arity(), "case shape for {sem:?}");
            let args: Vec<Value> = arg_tys
                .iter()
                .map(|&t| {
                    let vt = V::new(t, LANES);
                    Value::new(vt, (0..LANES).map(|_| t.wrap(next())).collect())
                })
                .collect();
            let rty = V::new(result, LANES);
            let whole = eval_sem(sem, &args, rty).unwrap_or_else(|e| panic!("{sem:?}: {e}"));
            let compiled = sem_slice_fn(sem, &arg_tys, result);
            let cols: Vec<Vec<i128>> = args.iter().map(|a| a.lanes().to_vec()).collect();
            let out = run(&compiled, &arg_tys, &cols, result);
            assert_eq!(out.as_slice(), whole.lanes(), "{sem:?} compiled");
        }
    }

    /// The columns of every combination of one value per operand, from
    /// each operand's values `cols[j]`.
    fn cross(cols: &[&[i128]]) -> Vec<Vec<i128>> {
        let lanes: usize = cols.iter().map(|c| c.len()).product();
        let mut stride = 1;
        cols.iter()
            .map(|c| {
                let col = (0..lanes).map(|i| c[(i / stride) % c.len()]).collect();
                stride *= c.len();
                col
            })
            .collect()
    }

    /// Columns holding every pair of values of any two operands, for
    /// semantics with too many operands for [`cross`]: over a prime
    /// `p >= len`, operand `j` reads value `(a + j·b) mod p` at lane
    /// `a + p·b`, and any two operands see all `p²` pairs.
    fn pairs(cols: &[&[i128]]) -> Vec<Vec<i128>> {
        let len = cols.iter().map(|c| c.len()).max().unwrap();
        let p = (len..).find(|&n| (2..n).all(|d| n % d != 0)).unwrap();
        assert!(cols.len() < p, "more operands than the prime");
        cols.iter()
            .enumerate()
            .map(|(j, c)| (0..p * p).map(|i| c[(i % p + j * (i / p)) % p % c.len()]).collect())
            .collect()
    }

    /// Every legal type shape of the semantics the sweep adds at lane
    /// type `t`: accumulators 2× and 4× the operand width, in both
    /// signednesses, and the extending forms' `[2t, t]`.
    fn wide_shapes(t: S) -> Vec<(MachSem, Vec<S>, S)> {
        let both = |w: S| [w.with_unsigned(), w.with_signed()];
        let mut shapes = vec![(MachSem::Select, vec![t; 3], t), (MachSem::MulAcc, vec![t; 3], t)];
        let Some(w) = t.widen() else { return shapes };
        for acc in both(w) {
            shapes.push((MachSem::WideningMulAcc, vec![acc, t, t], acc));
        }
        shapes.push((MachSem::MulPairsAdd, vec![t; 4], w));
        shapes.push((MachSem::Mpa, vec![t, t, w, w], w));
        shapes.push((MachSem::MpaAcc, vec![w, t, t, w, w], w));
        for op in [FpirOp::ExtendingAdd, FpirOp::ExtendingSub, FpirOp::ExtendingMul] {
            shapes.push((MachSem::Fpir(op), vec![w, t], w));
        }
        if let Some(q) = w.widen() {
            for acc in both(q) {
                let mut tys = vec![acc];
                tys.extend([t; 8]);
                shapes.push((MachSem::DotAcc4, tys, acc));
            }
        }
        shapes
    }

    /// The sweep's edge values for lanes of `t`: the shift family's
    /// clamping boundaries — including 62–65, where an `i64` word's
    /// shifts end — wrapped into the type, and its extremes.
    fn edges(t: S) -> Vec<i128> {
        let b = t.bits() as i128;
        let counts = [
            -2 * b - 1,
            -b - 1,
            -b,
            -1,
            0,
            1,
            b - 1,
            b,
            2 * b,
            2 * b + 1,
            62,
            63,
            64,
            65,
            127,
            128,
        ];
        let mut edges: Vec<i128> =
            counts.into_iter().chain([256, 257]).map(|c| t.wrap(c)).collect();
        edges.extend([t.min_value(), t.max_value()]);
        edges
    }

    #[test]
    fn literal_ops_match_runtime_op_helpers() {
        // The table writes each op's lane arithmetic itself, with the
        // element types resolved and at the word they allow, and resolves
        // a captured shift count once. Each arm must agree with the
        // interpreter's generic lane helpers on the *runtime* op — checked
        // for every op at every element type through the whole-vector
        // evaluator, the compiled strip, and the captured-constant strip
        // at every operand position. Operands range over every
        // combination of an edge set ([`edges`]) plus a few random lanes
        // (every pair of them for the 4-, 5- and 9-operand semantics); the
        // captured constant over the edge set.
        let mut state: u64 = 0x1319_8a2e_0370_7344;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 16) as i128
        };
        use BinOp as B;
        use CmpOp as C;
        use FpirOp as F;
        let bins = [
            B::Add,
            B::Sub,
            B::Mul,
            B::Div,
            B::Mod,
            B::Min,
            B::Max,
            B::Shl,
            B::Shr,
            B::And,
            B::Or,
            B::Xor,
        ];
        let cmps = [C::Eq, C::Ne, C::Lt, C::Le, C::Gt, C::Ge];
        let fpirs = [
            F::WideningAdd,
            F::WideningSub,
            F::WideningMul,
            F::WideningShl,
            F::WideningShr,
            F::ExtendingAdd,
            F::ExtendingSub,
            F::ExtendingMul,
            F::Abs,
            F::Absd,
            F::SaturatingCast(S::U8),
            F::SaturatingCast(S::I32),
            F::SaturatingNarrow,
            F::SaturatingAdd,
            F::SaturatingSub,
            F::HalvingAdd,
            F::HalvingSub,
            F::RoundingHalvingAdd,
            F::RoundingShl,
            F::RoundingShr,
            F::MulShr,
            F::RoundingMulShr,
            F::SaturatingShl,
        ];
        // The machine-only semantics the table writes with resolved
        // types, checked against their definitions in the interpreter's
        // helpers.
        let machs = [
            MachSem::ExtendTo,
            MachSem::TruncTo,
            MachSem::Reinterpret,
            MachSem::Splat,
            MachSem::SatCastTo,
            MachSem::PackSatSignedTo,
            MachSem::MulHigh,
            MachSem::ShrNarrow,
            MachSem::ShrRndSatNarrow,
            MachSem::QRDMulH,
        ];
        let sems: Vec<MachSem> = bins
            .map(MachSem::Bin)
            .into_iter()
            .chain(cmps.map(MachSem::Cmp))
            .chain(fpirs.map(MachSem::Fpir))
            .chain(machs)
            .collect();
        let runtime_op = |sem: MachSem, xs: &[i128], tys: &[S], result: S| {
            // The sums of products, from the interpreter's wrapping add
            // and multiply at the result type.
            let add = |x, y| bin_op_lane(B::Add, x, y, result);
            let mul = |x, y| bin_op_lane(B::Mul, x, y, result);
            match sem {
                MachSem::Bin(op) => bin_op_lane(op, xs[0], xs[1], tys[0]),
                MachSem::Cmp(op) => cmp_op_lane(op, xs[0], xs[1], tys[0]),
                // A lane is stored at the result type. FPIR types `abs` and
                // `absd` at the operand's unsigned type and
                // `saturating_cast<t>` at `t`, where the helper's value is
                // always in range; at the sweep's other result types the
                // stored lane is that value wrapped.
                MachSem::Fpir(op @ (F::Abs | F::Absd | F::SaturatingCast(_))) => {
                    result.wrap(fpir_op_lane(op, xs, tys, result))
                }
                MachSem::Fpir(op) => fpir_op_lane(op, xs, tys, result),
                MachSem::SatCastTo => result.saturate(xs[0]),
                MachSem::PackSatSignedTo => result.saturate(tys[0].with_signed().wrap(xs[0])),
                MachSem::MulHigh => result.wrap(mul_shr_exact(xs[0], xs[1], tys[0].bits(), false)),
                MachSem::ShrNarrow => result.wrap(bin_op_lane(B::Shr, xs[0], xs[1], tys[0])),
                MachSem::ShrRndSatNarrow => {
                    result.saturate(fpir_op_lane(F::RoundingShr, xs, tys, tys[0]))
                }
                MachSem::QRDMulH => {
                    let shift = tys[0].bits() as i128 - 1;
                    fpir_op_lane(F::RoundingMulShr, &[xs[0], xs[1], shift], &[tys[0]; 3], result)
                }
                // The interpreter's `select`.
                MachSem::Select => {
                    if xs[0] != 0 {
                        xs[1]
                    } else {
                        xs[2]
                    }
                }
                MachSem::MulAcc | MachSem::WideningMulAcc => add(xs[0], mul(xs[1], xs[2])),
                MachSem::MulPairsAdd => add(mul(xs[0], xs[1]), mul(xs[2], xs[3])),
                MachSem::Mpa => add(mul(xs[0], xs[2]), mul(xs[1], xs[3])),
                MachSem::MpaAcc => add(add(xs[0], mul(xs[1], xs[3])), mul(xs[2], xs[4])),
                MachSem::DotAcc4 => {
                    (0..4).fold(xs[0], |acc, k| add(acc, mul(xs[1 + k], xs[5 + k])))
                }
                MachSem::ExtendTo | MachSem::TruncTo | MachSem::Reinterpret | MachSem::Splat => {
                    result.wrap(xs[0])
                }
            }
        };
        let mut vals: Vec<Vec<i128>> = Vec::new();
        let mut vals_of = |t: S| -> Vec<i128> {
            let mut v = edges(t);
            v.extend((0..4).map(|_| t.wrap(next())));
            v
        };
        let mut cases = 0usize;
        // Shapes that run in a typed strip loop, by operand storage.
        let mut typed = [0usize; 8];
        for t in fpir::types::ALL_SCALAR_TYPES {
            let mut shapes = Vec::new();
            for &sem in &sems {
                // A narrow and a wide result type too, so saturating and
                // wrapping ops clip, and a narrowing op meets a result
                // wider than its operand.
                let results: &[S] = if matches!(sem, MachSem::Bin(_) | MachSem::Cmp(_)) {
                    &[t]
                } else {
                    &[t, S::I8, S::I32]
                };
                shapes.extend(results.iter().map(|&r| (sem, vec![t; sem.arity()], r)));
            }
            shapes.extend(wide_shapes(t));
            for (sem, tys, result) in shapes {
                vals.clear();
                vals.extend(tys.iter().map(|&ty| vals_of(ty)));
                let cols: Vec<&[i128]> = vals.iter().map(|v| v.as_slice()).collect();
                let columns =
                    |cols: &[&[i128]]| if cols.len() > 3 { pairs(cols) } else { cross(cols) };
                let want = |args: &[Vec<i128>]| -> Vec<i128> {
                    (0..args[0].len())
                        .map(|i| {
                            let xs: Vec<i128> = args.iter().map(|a| a[i]).collect();
                            runtime_op(sem, &xs, &tys, result)
                        })
                        .collect()
                };
                let args = columns(&cols);
                let lanes = args[0].len() as u32;
                let values: Vec<Value> = args
                    .iter()
                    .zip(&tys)
                    .map(|(a, &ty)| Value::new(V::new(ty, lanes), a.clone()))
                    .collect();
                let refs: Vec<&Value> = values.iter().collect();
                let mut whole = Vec::new();
                eval_sem_into(sem, &refs, V::new(result, lanes), &mut whole).unwrap();
                let at = format!("{sem:?} at {tys:?} -> {result}");
                assert_eq!(whole, want(&args), "{at}: eval_sem_into");
                let strip = sem_slice_fn(sem, &tys, result);
                assert_eq!(run(&strip, &tys, &args, result), want(&args), "{at}: strip");
                if let Some((a, _)) = typed_storage(sem, &tys, result) {
                    typed[storage_index(a)] += 1;
                }
                if tys.len() > 3 {
                    // The captured sink has no loop for the wide semantics.
                    assert!(sem_slice_fn_splat(sem, &tys, result, 0, 0).is_none(), "{at}");
                    continue;
                }
                for k in 0..tys.len() {
                    if k + 1 < tys.len() {
                        // Only a last operand is captured; a constant
                        // elsewhere streams through the strip above.
                        assert!(sem_slice_fn_splat(sem, &tys, result, k, 0).is_none(), "{at}");
                        continue;
                    }
                    let mut others = cols.clone();
                    others.remove(k);
                    let others = if others.is_empty() { vec![] } else { columns(&others) };
                    let n = others.first().map_or(1, Vec::len);
                    for c in edges(tys[k]) {
                        let mut with_c = others.clone();
                        with_c.insert(k, vec![c; n]);
                        let splat = sem_slice_fn_splat(sem, &tys, result, k, c)
                            .unwrap_or_else(|| panic!("{at}: no captured loop at operand {k}"));
                        let got = run(&splat, &tys, &with_c, result);
                        assert_eq!(got, want(&with_c), "{at}: {c} at operand {k}");
                        cases += 1;
                    }
                }
            }
        }
        // Pinned: 20 constants at the last operand, times, per type, the 18
        // Bin/Cmp ops, the 23 FPIR ops and the 10 machine-only semantics at
        // three result types, and `Select` and `MulAcc`: 8 × 20 × 119 =
        // 19,040. Then the widening shapes of the six narrower types: two
        // accumulator signednesses of `WideningMulAcc` and the three
        // extending forms, 6 × 20 × 5 = 600.
        assert_eq!(cases, 8 * 20 * 119 + 6 * 20 * 5, "captured-constant case count changed");
        // Pinned: the shapes of the sweep that run in a typed strip loop,
        // by operand storage (u8, u16, u32, u64, i8, i16, i32, i64): every
        // type of 32 bits or fewer has one, and a 64-bit lane none.
        assert_eq!(typed, [46, 56, 32, 0, 10, 58, 42, 0], "typed-loop coverage changed");
    }

    /// The lane table's probe, deciding as the strip sink does: the word
    /// a semantic's closure is built at, the operand and result storage
    /// of its typed loop (`None` for the chunked loop), and whether the
    /// result is saturated at the store ([`LaneSink::unary_sat`]).
    struct Probe<'a> {
        tys: &'a [S],
        result: S,
        bits: std::cell::Cell<u32>,
        storage: std::cell::Cell<Option<(S, S)>>,
    }

    type Built = (u32, Option<(S, S)>, bool);

    impl Probe<'_> {
        fn built(&self, clamp: bool) -> Built {
            (self.bits.get(), self.storage.get(), clamp)
        }
    }

    impl LaneSink for Probe<'_> {
        type Out = Built;
        fn typed<C: Class>(&self, bits: u32) -> bool {
            let storage = match bits {
                32 => C::narrow::<i32, _>(self.tys, self.result, Admit).ok(),
                _ => C::wide::<i64, _>(self.tys, self.result, Admit).ok(),
            };
            self.storage.set(storage);
            storage.is_some()
        }
        fn unary<W: Word, C: Class>(self, _: impl Fn(W) -> W + Lane) -> Built {
            self.built(false)
        }
        fn binary<W: Word, C: Class>(self, _: impl Fn(W, W) -> W + Lane) -> Built {
            self.built(false)
        }
        fn ternary<W: Word, C: Class>(self, _: impl Fn(W, W, W) -> W + Lane) -> Built {
            self.built(false)
        }
        fn wide<W: Word, C: Class, const N: usize>(self, _: impl Fn([W; N]) -> W + Lane) -> Built {
            self.built(false)
        }
        fn unary_sat<W: Word, C: Class>(self, _: impl Fn(W) -> W + Lane, _: Sat<W>) -> Built {
            self.built(true)
        }
        fn binary_sat<W: Word, C: Class>(self, _: impl Fn(W, W) -> W + Lane, _: Sat<W>) -> Built {
            self.built(true)
        }
        fn built_at(&self, bits: u32) {
            self.bits.set(bits);
            if bits == 128 {
                self.storage.set(None);
            }
        }
    }

    fn built(sem: MachSem, tys: &[S], result: S) -> Built {
        let probe = Probe {
            tys,
            result,
            bits: std::cell::Cell::new(0),
            storage: std::cell::Cell::new(None),
        };
        lane_table(sem, tys, result, probe)
    }

    fn word_bits(sem: MachSem, tys: &[S], result: S) -> u32 {
        built(sem, tys, result).0
    }

    /// The storage the strip sink's typed loop reads its operands at and
    /// writes its result at, or `None` when the closure runs chunked.
    fn typed_storage(sem: MachSem, tys: &[S], result: S) -> Option<(S, S)> {
        built(sem, tys, result).1
    }

    fn storage_index(t: S) -> usize {
        fpir::types::ALL_SCALAR_TYPES.iter().position(|&u| u == t).unwrap()
    }

    /// A semantic at its operand and result types, with rows of operand
    /// lanes (unused trailing lanes ignored).
    type Trap = (MachSem, Vec<S>, S, Vec<[i128; 3]>);

    /// The word rule's traps: semantics whose lanes are 32 bits or fewer
    /// on one side but which need `i128`, each with lanes where `i64`
    /// arithmetic goes wrong.
    fn word_traps() -> Vec<Trap> {
        let (imin, imax, umax) = (i32::MIN as i128, i32::MAX as i128, u32::MAX as i128);
        let top = 1i128 << 63;
        vec![
            // A `u64` operand to a narrow result: at `i64`, 2^63 would
            // shift in sign bits.
            (MachSem::Fpir(FpirOp::WideningShr), vec![S::U64; 2], S::U32, vec![[top, 40, 0]]),
            // At `i32` a count clamps to 64: `i64` has neither a shift of
            // 64 nor a bias of 2^63.
            (
                MachSem::Fpir(FpirOp::MulShr),
                vec![S::I32; 3],
                S::I32,
                vec![[imin, imin, 64], [imin, imax, 64], [imin, imax, 63]],
            ),
            (
                MachSem::Fpir(FpirOp::RoundingMulShr),
                vec![S::I32; 3],
                S::I32,
                vec![[imin, imin, 64], [imin, imax, 64], [imax, imax, 63]],
            ),
            // `u32 × u32` reaches 2^64.
            (MachSem::QRDMulH, vec![S::U32; 2], S::U32, vec![[umax, umax, 0], [umax, 1 << 31, 0]]),
            (MachSem::Fpir(FpirOp::MulShr), vec![S::U32; 3], S::U32, vec![[umax, umax, 32]]),
        ]
    }

    #[test]
    fn word_rule_pins_hot_kinds_at_32_or_64_bits_with_the_store_clamp_and_traps_at_128() {
        // The profiled hot kinds must compute at the narrowest word their
        // intermediates fit, and a result saturated into its type's whole
        // range must be clamped at the store: a silent fallback to a wider
        // word or to the closure's clamp is invisible to every correctness
        // test. (sem, operand types, result, word, store clamp)
        let fp = MachSem::Fpir;
        let hot = [
            // Intermediates of 32 bits or fewer.
            (MachSem::Bin(BinOp::Add), vec![S::I16; 2], S::I16, 32, false),
            (MachSem::Bin(BinOp::Shl), vec![S::I16; 2], S::I16, 32, false),
            (MachSem::Bin(BinOp::Min), vec![S::I32; 2], S::I32, 32, false),
            (MachSem::Bin(BinOp::Max), vec![S::I32; 2], S::I32, 32, false),
            (MachSem::ShrRndSatNarrow, vec![S::U16; 2], S::U8, 32, false),
            (fp(FpirOp::SaturatingAdd), vec![S::I16; 2], S::I16, 32, true),
            (fp(FpirOp::SaturatingSub), vec![S::I16; 2], S::I16, 32, true),
            (MachSem::PackSatSignedTo, vec![S::I32], S::I16, 32, true),
            (MachSem::PackSatSignedTo, vec![S::I16], S::U8, 32, true),
            (fp(FpirOp::SaturatingNarrow), vec![S::I32], S::I16, 32, true),
            (MachSem::SatCastTo, vec![S::I32], S::I16, 32, true),
            (MachSem::SatCastTo, vec![S::U16], S::U8, 32, true),
            (MachSem::WideningMulAcc, vec![S::U16, S::U8, S::U8], S::U16, 32, false),
            // A `u32` lane's clamps, a shift by a count, and products and
            // rounding terms past 32 bits.
            (MachSem::Bin(BinOp::Min), vec![S::U32; 2], S::U32, 64, false),
            (fp(FpirOp::SaturatingNarrow), vec![S::U32], S::U16, 64, true),
            (MachSem::ShrRndSatNarrow, vec![S::I32; 2], S::I16, 64, false),
            (MachSem::QRDMulH, vec![S::I32; 2], S::I32, 64, false),
            (MachSem::Bin(BinOp::Shr), vec![S::I32; 2], S::I32, 64, false),
            (MachSem::Bin(BinOp::Shr), vec![S::U32; 2], S::U32, 64, false),
        ];
        for (sem, tys, result, bits, clamp) in hot {
            let (got, storage, got_clamp) = built(sem, &tys, result);
            let at = format!("{sem:?} at {tys:?} -> {result}");
            assert_eq!(got, bits, "{at}: word");
            assert!(storage.is_some(), "{at}: typed loop");
            assert_eq!(got_clamp, clamp, "{at}: store clamp");
        }
        for (sem, tys, result, _) in word_traps() {
            assert_eq!(word_bits(sem, &tys, result), 128, "{sem:?} at {tys:?} -> {result}");
        }
    }

    /// A sink that declines every typed loop, so the inner sink builds
    /// the chunked loop at `i128` for a shape that has a typed one.
    struct Chunked<K>(K);

    impl<K: LaneSink> LaneSink for Chunked<K> {
        type Out = K::Out;
        fn typed<C: Class>(&self, _: u32) -> bool {
            false
        }
        fn unary<W: Word, C: Class>(self, f: impl Fn(W) -> W + Lane) -> K::Out {
            self.0.unary::<W, C>(f)
        }
        fn binary<W: Word, C: Class>(self, f: impl Fn(W, W) -> W + Lane) -> K::Out {
            self.0.binary::<W, C>(f)
        }
        fn ternary<W: Word, C: Class>(self, f: impl Fn(W, W, W) -> W + Lane) -> K::Out {
            self.0.ternary::<W, C>(f)
        }
        fn wide<W: Word, C: Class, const N: usize>(self, f: impl Fn([W; N]) -> W + Lane) -> K::Out {
            self.0.wide::<W, C, N>(f)
        }
        fn unary_sat<W: Word, C: Class>(self, f: impl Fn(W) -> W + Lane, sat: Sat<W>) -> K::Out {
            self.0.unary_sat::<W, C>(f, sat)
        }
        fn binary_sat<W: Word, C: Class>(
            self,
            f: impl Fn(W, W) -> W + Lane,
            sat: Sat<W>,
        ) -> K::Out {
            self.0.binary_sat::<W, C>(f, sat)
        }
    }

    #[test]
    fn store_clamp_edges_match_the_interpreter() {
        // Every semantic that saturates at the store, at every operand and
        // result type whose strip has a typed loop: lanes whose unclamped
        // result is one below, at, and one above each end of the result's
        // range, wherever the operand types reach them, through the typed
        // loop and the chunked one, streamed and with the last operand
        // captured, against the interpreter's lane helpers.
        use FpirOp as F;
        let mut cases = 0usize;
        let mut shapes = 0usize;
        for t in fpir::types::ALL_SCALAR_TYPES {
            for r in fpir::types::ALL_SCALAR_TYPES {
                let sems = [
                    MachSem::SatCastTo,
                    MachSem::PackSatSignedTo,
                    MachSem::Fpir(F::SaturatingCast(r)),
                    MachSem::Fpir(F::SaturatingNarrow),
                    MachSem::Fpir(F::SaturatingAdd),
                    MachSem::Fpir(F::SaturatingSub),
                ];
                for sem in sems {
                    let tys = vec![t; sem.arity()];
                    let at = format!("{sem:?} at {tys:?} -> {r}");
                    let (_, storage, clamp) = built(sem, &tys, r);
                    if storage.is_none() {
                        continue;
                    }
                    assert!(clamp, "{at}: no store clamp");
                    shapes += 1;
                    // Operand lanes whose unclamped result is `v`.
                    let lanes_of = |v: i128| -> Option<Vec<i128>> {
                        let a = v.clamp(t.min_value(), t.max_value());
                        let xs = match sem {
                            // The lane whose signed reading is `v`.
                            MachSem::PackSatSignedTo => {
                                t.with_signed().contains(v).then(|| vec![t.wrap(v)])?
                            }
                            MachSem::Fpir(F::SaturatingAdd) => vec![a, v - a],
                            MachSem::Fpir(F::SaturatingSub) => vec![a, a - v],
                            _ => vec![v],
                        };
                        xs.iter().all(|&x| t.contains(x)).then_some(xs)
                    };
                    let want = |xs: &[i128]| match sem {
                        MachSem::SatCastTo => r.saturate(xs[0]),
                        MachSem::PackSatSignedTo => r.saturate(t.with_signed().wrap(xs[0])),
                        MachSem::Fpir(op) => fpir_op_lane(op, xs, &tys, r),
                        _ => unreachable!("{sem:?}"),
                    };
                    let edges =
                        [r.min_value() - 1, r.min_value(), r.max_value(), r.max_value() + 1];
                    for xs in edges.into_iter().filter_map(lanes_of) {
                        let at = format!("{at}, lanes {xs:?}");
                        let cols: Vec<Vec<i128>> = xs.iter().map(|&x| vec![x]).collect();
                        let args: Vec<Value> = xs.iter().map(|&x| v(V::new(t, 1), &[x])).collect();
                        let want = [want(&xs)];
                        assert_eq!(
                            eval_sem(sem, &args, V::new(r, 1)).unwrap().lanes(),
                            want,
                            "{at}"
                        );
                        let (k, c) = (tys.len() - 1, xs[tys.len() - 1]);
                        let kernels = [
                            ("typed", sem_slice_fn(sem, &tys, r)),
                            (
                                "chunked",
                                lane_table(sem, &tys, r, Chunked(Strip { tys: &tys, result: r })),
                            ),
                            ("typed, captured", sem_slice_fn_splat(sem, &tys, r, k, c).unwrap()),
                            (
                                "chunked, captured",
                                lane_table(
                                    sem,
                                    &tys,
                                    r,
                                    Chunked(Capture { tys: &tys, result: r, c }),
                                )
                                .unwrap(),
                            ),
                        ];
                        for (how, f) in kernels {
                            assert_eq!(run(&f, &tys, &cols, r), want, "{at}: {how}");
                        }
                        cases += 1;
                    }
                }
            }
        }
        // Pinned: 42 typed shapes, the four unary semantics at the eight
        // narrowing pairs and the two binary ones at u8, u16, i16, u32 and
        // i32; 144 edge rows, less than 4 × 42 where an unsigned operand
        // cannot reach below 0 or an operand narrower than it needs
        // cannot reach past an end (`PackSatSignedTo` reads its operand
        // as signed, so it reaches all four).
        assert_eq!((shapes, cases), (42, 144), "store-clamp coverage changed");
    }

    #[test]
    fn storage_rule_builds_hot_kinds_at_their_own_width() {
        // The profiled hot kinds must get a typed loop over their own
        // storage: a silent fallback to the chunked `i128` loop is
        // invisible to every correctness test.
        let fp = MachSem::Fpir;
        let hot = [
            (MachSem::Bin(BinOp::Add), vec![S::U16; 2], S::U16, (S::U16, S::U16)),
            (MachSem::Bin(BinOp::Max), vec![S::U8; 2], S::U8, (S::U8, S::U8)),
            (MachSem::Bin(BinOp::Shl), vec![S::I16; 2], S::I16, (S::I16, S::I16)),
            (MachSem::Bin(BinOp::Shr), vec![S::I32; 2], S::I32, (S::I32, S::I32)),
            (MachSem::Cmp(CmpOp::Gt), vec![S::U16; 2], S::U16, (S::U16, S::U16)),
            (MachSem::Select, vec![S::U16; 3], S::U16, (S::U16, S::U16)),
            (MachSem::ExtendTo, vec![S::U8], S::U16, (S::U8, S::U16)),
            (MachSem::TruncTo, vec![S::U32], S::U16, (S::U32, S::U16)),
            (MachSem::Reinterpret, vec![S::U16], S::I16, (S::U16, S::I16)),
            (MachSem::PackSatSignedTo, vec![S::I16], S::U8, (S::I16, S::U8)),
            (MachSem::WideningMulAcc, vec![S::U16, S::U8, S::U8], S::U16, (S::U8, S::U16)),
            (MachSem::MulPairsAdd, vec![S::I16; 4], S::I32, (S::I16, S::I32)),
            (MachSem::Mpa, vec![S::I16; 4], S::I32, (S::I16, S::I32)),
            (MachSem::MpaAcc, vec![S::U16, S::U8, S::U8, S::U16, S::U16], S::U16, (S::U8, S::U16)),
            (MachSem::MpaAcc, vec![S::U16, S::U8, S::U8, S::U8, S::U8], S::U16, (S::U8, S::U16)),
            (
                MachSem::DotAcc4,
                vec![S::U32, S::U8, S::U8, S::U8, S::U8, S::U8, S::U8, S::U8, S::U8],
                S::U32,
                (S::U8, S::U32),
            ),
            (MachSem::ShrRndSatNarrow, vec![S::U16; 2], S::U8, (S::U16, S::U8)),
            (MachSem::QRDMulH, vec![S::I32; 2], S::I32, (S::I32, S::I32)),
            (fp(FpirOp::WideningMul), vec![S::U8; 2], S::U16, (S::U8, S::U16)),
            (fp(FpirOp::ExtendingAdd), vec![S::U16, S::U8], S::U16, (S::U8, S::U16)),
            (fp(FpirOp::SaturatingAdd), vec![S::I16; 2], S::I16, (S::I16, S::I16)),
            (fp(FpirOp::SaturatingNarrow), vec![S::I32], S::I16, (S::I32, S::I16)),
            (fp(FpirOp::RoundingHalvingAdd), vec![S::U8; 2], S::U8, (S::U8, S::U8)),
        ];
        for (sem, tys, result, storage) in hot {
            let at = format!("{sem:?} at {tys:?} -> {result}");
            assert_eq!(typed_storage(sem, &tys, result), Some(storage), "{at}");
            // A captured last operand keeps the typed loop.
            let k = tys.len() - 1;
            if tys.len() > 1 && tys.len() < 4 {
                assert!(sem_slice_fn_splat(sem, &tys, result, k, 1).is_some(), "{at}");
            }
        }
        // 64-bit lanes and the word traps run chunked, at `i128`.
        assert_eq!(typed_storage(MachSem::Bin(BinOp::Add), &[S::U64; 2], S::U64), None);
        assert_eq!(typed_storage(MachSem::ExtendTo, &[S::U32], S::U64), None);
        for (sem, tys, result, _) in word_traps() {
            assert_eq!(typed_storage(sem, &tys, result), None, "{sem:?} at {tys:?} -> {result}");
        }
    }

    #[test]
    fn word_traps_match_the_interpreter() {
        // Each trap's lanes, through the whole-vector evaluator, the
        // strip and the captured count, against the interpreter.
        for (sem, tys, result, rows) in word_traps() {
            let n = tys.len();
            let want = |xs: &[i128]| match sem {
                MachSem::QRDMulH => fpir_op_lane(
                    FpirOp::RoundingMulShr,
                    &[xs[0], xs[1], tys[0].bits() as i128 - 1],
                    &[tys[0]; 3],
                    result,
                ),
                MachSem::Fpir(op) => fpir_op_lane(op, xs, &tys, result),
                _ => unreachable!("{sem:?}"),
            };
            for row in rows {
                let xs = &row[..n];
                let at = format!("{sem:?} at {tys:?} -> {result}, lanes {xs:?}");
                let args: Vec<Value> =
                    xs.iter().zip(&tys).map(|(&x, &t)| v(V::new(t, 1), &[x])).collect();
                let cols: Vec<Vec<i128>> = xs.iter().map(|&x| vec![x]).collect();
                assert_eq!(
                    eval_sem(sem, &args, V::new(result, 1)).unwrap().lanes(),
                    &[want(xs)],
                    "{at}"
                );
                let got = run(&sem_slice_fn(sem, &tys, result), &tys, &cols, result);
                assert_eq!(got, [want(xs)], "{at}: strip");
                let k = n - 1;
                let splat = sem_slice_fn_splat(sem, &tys, result, k, xs[k]).unwrap();
                assert_eq!(run(&splat, &tys, &cols, result), [want(xs)], "{at}: captured at {k}");
            }
        }
    }

    #[test]
    fn mul_shr_at_64_bit_extremes_matches_the_interpreter() {
        // Two 64-bit extremes multiply past i128: `eval_sem` and the
        // captured-count strip form the product exactly, with the values
        // `interp::tests::mul_shr_forms_64_bit_products_exactly` pins for
        // the interpreter.
        let max = u64::MAX as i128;
        let (imin, imax) = (i64::MIN as i128, i64::MAX as i128);
        let cases = [
            (S::U64, [max, max, 64], [max - 1, max - 1]),
            (S::U64, [max, max, 0], [max, max]),
            (S::I64, [imin, imin, 63], [imax, imax]),
            (S::I64, [imin, imax, 64], [(imin * imax) >> 64, ((imin * imax) >> 64) + 1]),
        ];
        for (t, xs, [floor, rounded]) in cases {
            for (op, want) in [(FpirOp::MulShr, floor), (FpirOp::RoundingMulShr, rounded)] {
                let sem = MachSem::Fpir(op);
                let vt = V::new(t, 1);
                let args: Vec<Value> = xs.iter().map(|&x| v(vt, &[x])).collect();
                assert_eq!(eval_sem(sem, &args, vt).unwrap().lanes(), &[want], "{op:?} {xs:?}");
                let splat = sem_slice_fn_splat(sem, &[t; 3], t, 2, xs[2]).unwrap();
                let got = run(&splat, &[t; 3], &[vec![xs[0]], vec![xs[1]], vec![xs[2]]], t);
                assert_eq!(got, [want], "{op:?} {xs:?} captured");
            }
        }
    }

    #[test]
    fn splat_capture_matches_streamed_constant() {
        // For every semantic and operand position with a captured-scalar
        // loop, running it with the constant in a register must be
        // bit-identical to the streamed kernel reading a slice that
        // holds the constant in every lane.
        let mut state: u64 = 0x2545_f491_4f6c_dd1d;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 16) as i128
        };
        const LANES: usize = 8;
        let fp = |op| MachSem::Fpir(op);
        let cases: Vec<(MachSem, Vec<S>, S)> = vec![
            (MachSem::Bin(BinOp::Add), vec![S::I16, S::I16], S::I16),
            (MachSem::Bin(BinOp::Mul), vec![S::U8, S::U8], S::U8),
            (MachSem::Bin(BinOp::Div), vec![S::I16, S::I16], S::I16),
            (MachSem::Bin(BinOp::Shr), vec![S::U32, S::U32], S::U32),
            (MachSem::Cmp(CmpOp::Lt), vec![S::I8, S::I8], S::I8),
            (MachSem::MulHigh, vec![S::I16, S::I16], S::I16),
            (MachSem::MulAcc, vec![S::I32, S::I32, S::I32], S::I32),
            (MachSem::WideningMulAcc, vec![S::U16, S::U8, S::U8], S::U16),
            (fp(FpirOp::WideningMul), vec![S::U8, S::U8], S::U16),
            (fp(FpirOp::SaturatingAdd), vec![S::I16, S::I16], S::I16),
            (fp(FpirOp::Absd), vec![S::U8, S::U8], S::U8),
            (fp(FpirOp::RoundingShr), vec![S::I16, S::I16], S::I16),
            (fp(FpirOp::HalvingAdd), vec![S::U8, S::U8], S::U8),
            (MachSem::ShrRndSatNarrow, vec![S::I16, S::I16], S::U8),
            (MachSem::ShrNarrow, vec![S::I16, S::I16], S::I8),
            (MachSem::QRDMulH, vec![S::I16, S::I16], S::I16),
            (MachSem::Select, vec![S::U8, S::U8, S::U8], S::U8),
            (MachSem::MulPairsAdd, vec![S::I16; 4], S::I16),
        ];
        let mut captured = 0usize;
        for (sem, tys, result) in &cases {
            for k in 0..tys.len() {
                let c = tys[k].wrap(next());
                let Some(splat) = sem_slice_fn_splat(*sem, tys, *result, k, c) else {
                    continue;
                };
                captured += 1;
                let args: Vec<Vec<i128>> = tys
                    .iter()
                    .enumerate()
                    .map(|(j, &t)| {
                        if j == k {
                            vec![c; LANES]
                        } else {
                            (0..LANES).map(|_| t.wrap(next())).collect()
                        }
                    })
                    .collect();
                let want = run(&sem_slice_fn(*sem, tys, *result), tys, &args, *result);
                let got = run(&splat, tys, &args, *result);
                assert_eq!(got, want, "{sem:?} splat at operand {k}");
            }
        }
        // Pinned exactly: every case but the wide `MulPairsAdd` captures at
        // its last operand, and no case anywhere else.
        assert_eq!(captured, 17, "splat capture coverage changed");
    }

    #[test]
    fn shr_rnd_sat_narrow() {
        let t16 = V::new(S::I16, 2);
        let t8 = V::new(S::I8, 2);
        let out = eval_sem(MachSem::ShrRndSatNarrow, &[v(t16, &[1000, 255]), v(t16, &[2, 2])], t8)
            .unwrap();
        // round(1000 / 4) = 250 -> saturates to 127; round(255/4) = 64.
        assert_eq!(out.lanes(), &[127, 64]);
    }
}
