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
//! sink. The four evaluators — [`eval_sem_into`], [`sem_slice_fn`],
//! [`sem_slice_fn_splat`] and [`sem_slice_fn_pair`] — are sinks over that
//! table that differ only in the loop around the closure, so they agree by
//! construction.
//!
//! The table builds *type-specialized* closures: whatever depends only on
//! the element types is computed once, when the closure is built, and
//! never per lane. A wrap is a 64-bit mask for an unsigned type and a
//! 64-bit sign extension for a signed one, picked when the closure is
//! built (the fused-pair loops use the general [`fpir::types::Wrap`]); a
//! saturation is a pair of captured bounds, and a semantic that saturates
//! twice (`ShrRndSatNarrow`) clamps once to their intersection. The shift
//! family — `Bin(Shl|Shr)`, `ShrNarrow`, `ShrRndSatNarrow`, FPIR
//! `WideningShl/Shr`, `RoundingShl/Shr`, `SaturatingShl`, `MulShr` and
//! `RoundingMulShr`, and `QRDMulH`'s fixed shift — splits each lane into
//! resolving the count (clamping, direction, the shifted-out case, the
//! rounding bias) and applying it. The captured-splat sink resolves a
//! constant count once, at link time; the other sinks resolve per lane.
//! Operands are canonical lanes of their types (the [`Value`] invariant),
//! so `Min`/`Max`, the bitwise ops and right shifts need no wrap.
//!
//! **Word width.** Lanes are `i128` in every slice, but the shift family,
//! the saturations (`SatCastTo`, `PackSatSignedTo`, FPIR
//! `SaturatingCast/Narrow/Add/Sub`), `Min`/`Max`, `Select`, `Abs`, `Absd`
//! and the sums of products (`MulAcc`, `WideningMulAcc`, `MulPairsAdd`,
//! `Mpa`, `MpaAcc`, `DotAcc4`) are written once over a machine word and
//! built at `i64` exactly when the operand and result types prove that
//! every intermediate fits: every operand, every clamp bound, each sum,
//! product and rounding bias, and each shift below 64 bits. A wrapping
//! shift or sum of products needs only the wrap's bits, which `i64`
//! computes exactly when the wrap is narrower than 64 bits (shifts) or at
//! most 64 (wrapping sums). Otherwise the closure is built at `i128`: a
//! `u64` operand, a 64-bit wrap after a shift, an `i32` `MulShr` count
//! clamped to 64, a `u32 × u32` product. The closure converts at the lane
//! boundary, so the sinks and their slices are the same at both words.
//! The fused-pair loops stay at `i128`.
//!
//! The interpreter's generic lane helpers (`fpir::interp::bin_op_lane`,
//! `cmp_op_lane` and `fpir_op_lane`) are the arithmetic oracle: the tests
//! compare every arm of the table with them, at every element type and
//! every legal type shape, over the shift family's edge counts (including
//! the `i64` word's shift boundary), streamed and captured.

use fpir::expr::{BinOp, CmpOp, FpirOp};
use fpir::interp::{floor_div, floor_mod, mul_shr_exact, Value};
use fpir::types::{ScalarType, VectorType, Wrap};
use std::marker::PhantomData;
use std::ops::{Add, Mul, Neg, Shl, Shr, Sub};
use std::sync::Arc;

/// What a machine instruction computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
const MAX_ARITY: usize = 9;

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

/// Execute one instruction, writing the result lanes into `out`.
///
/// This is the allocation-free core of [`eval_sem`]: operands are read
/// through references and the result is produced into a caller-supplied
/// buffer (cleared first), so a hot loop — the linked execution engine in
/// `fpir-sim` — can recycle lane buffers across instructions instead of
/// allocating a fresh `Value` per step. [`eval_sem`] is a thin wrapper,
/// so the two entry points can never disagree on semantics. Every shape
/// check lives here; the lanes come from the lane table's closure, run
/// over the operand lane slices in place.
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
    if args.len() != sem.arity() {
        return Err(format!("{sem:?} takes {} operands, got {}", sem.arity(), args.len()));
    }
    let lanes = result_ty.lanes as usize;
    for a in args {
        if a.ty().lanes as usize != lanes {
            return Err(format!("operand lanes {} != result lanes {lanes}", a.ty().lanes));
        }
    }
    out.clear();
    out.reserve(lanes);
    let width = |i: usize| args[i].ty().elem.bits();
    match sem {
        MachSem::WideningMulAcc if width(0) != width(1) * 2 => {
            return Err(format!(
                "widening mul-acc accumulator must be 2x the operand width ({} vs {})",
                width(0),
                width(1)
            ));
        }
        MachSem::DotAcc4 if width(0) != width(1) * 4 => {
            return Err(format!(
                "dot-product accumulator must be 4x the operand width ({} vs {})",
                width(0),
                width(1)
            ));
        }
        _ => {}
    }
    let mut tys = [result_ty.elem; MAX_ARITY];
    for (t, a) in tys.iter_mut().zip(args) {
        *t = a.ty().elem;
    }
    lane_table(sem, &tys[..args.len()], result_ty.elem, Extend { args, out });
    Ok(())
}

/// A compiled whole-strip evaluator: one fused-kernel step's semantics
/// with every dispatch resolved ahead of time. Called as
/// `f(operand_lane_slices, output_lane_slice)`; all slices share one
/// length.
///
/// `Arc` so compiled kernels stay cheaply cloneable and shareable across
/// worker threads.
pub type SemSliceFn = Arc<dyn Fn(&[&[i128]], &mut [i128]) + Send + Sync>;

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
/// operands are ones [`eval_sem_into`] would accept, and the returned
/// closure must only see `xs` of that arity with every operand slice
/// exactly `out.len()` lanes long. The linked engine guarantees this via
/// the static artifact verifier plus its per-invocation input type checks.
pub fn sem_slice_fn(sem: MachSem, tys: &[ScalarType], result: ScalarType) -> SemSliceFn {
    lane_table(sem, tys, result, Strip)
}

/// Compile one step with a *splat-constant* operand captured as a
/// scalar register: the returned closure sees the same `xs` layout as
/// [`sem_slice_fn`] — the constant's pool slice is still staged at
/// position `k`, exactly as the audited pass sources say — but the
/// lane loop never reads it, so the strip runs with one fewer input
/// stream. The loop calls the same lane closure as [`sem_slice_fn`] with
/// `c` bound at operand `k`, and the skipped slice holds `c` in every
/// lane, so the result is bit-identical by construction — pinned by
/// `splat_capture_matches_streamed_constant` below. When `k` is a
/// shift-family count, the table's count resolution runs once on `c`,
/// here, and the loop only applies the resolved shift.
///
/// Returns `None` for the 4-, 5- and 9-operand semantics; the caller
/// keeps the streamed [`sem_slice_fn`] kernel.
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
    lane_table(sem, tys, result, Capture { k, c })
}

// ---- the lane table -----------------------------------------------------

/// What a lane closure may capture: plain data (resolved wraps, bounds,
/// shift parameters), so it can be copied into composed loops and the
/// compiled kernel shared across worker threads.
trait Lane: Copy + Send + Sync + 'static {}
impl<T: Copy + Send + Sync + 'static> Lane for T {}

/// Receives the one lane closure `lane_table` builds for a semantic, in
/// the form matching its arity, and turns it into an evaluator.
trait LaneSink: Sized {
    type Out;
    /// Whether the table builds this sink's closures in their
    /// specialized forms: a wrap per signedness (`wrapping!`) and the
    /// `i64` word (`at_word!`). The pair sinks opt out: their merged loops
    /// are multiply-class, where these are a small part of the cost, and
    /// the extra forms would multiply the loops compiled for them.
    const SPECIALIZED: bool = true;
    fn unary(self, f: impl Fn(i128) -> i128 + Lane) -> Self::Out;
    fn binary(self, f: impl Fn(i128, i128) -> i128 + Lane) -> Self::Out;
    fn ternary(self, f: impl Fn(i128, i128, i128) -> i128 + Lane) -> Self::Out;
    /// The 4-, 5- and 9-operand semantics: lane `i` of the result, read
    /// from every operand slice.
    fn wide(self, f: impl Fn(&[&[i128]], usize) -> i128 + Lane) -> Self::Out;

    /// A binary shift-family semantic whose operand 1 is a count:
    /// `resolve` turns a count into the parameters `apply` shifts operand
    /// 0 by. Resolved per lane, unless the sink binds the count to a
    /// constant (the captured-splat sink resolves it once).
    fn by_count<P: Lane>(
        self,
        resolve: impl Fn(i128) -> P + Lane,
        apply: impl Fn(i128, P) -> i128 + Lane,
    ) -> Self::Out {
        self.binary(move |x, y| apply(x, resolve(y)))
    }

    /// [`LaneSink::by_count`] for a ternary semantic counting at operand 2.
    fn by_count3<P: Lane>(
        self,
        resolve: impl Fn(i128) -> P + Lane,
        apply: impl Fn(i128, i128, P) -> i128 + Lane,
    ) -> Self::Out {
        self.ternary(move |x, y, z| apply(x, y, resolve(z)))
    }

    /// Told the word each lane closure is built at (the tests' probe).
    #[cfg(test)]
    fn built_at(&self, _bits: u32) {}
}

/// A wrap into one type, resolved when the closure is built.
trait WrapTo: Lane {
    fn apply(self, v: i128) -> i128;
}

impl WrapTo for Wrap {
    #[inline]
    fn apply(self, v: i128) -> i128 {
        Wrap::apply(self, v)
    }
}

/// The wrap into an unsigned type, on the low 64 bits: a mask alone.
/// The result's high half is known zero, so the op around it runs in 64
/// bits, as it did when the mask came from `ScalarType::bits`.
#[derive(Clone, Copy)]
struct Mask(u64);

impl WrapTo for Mask {
    #[inline]
    fn apply(self, v: i128) -> i128 {
        ((v as u64) & self.0) as i128
    }
}

/// The wrap into a signed type, on the low 64 bits: the low bits
/// sign-extended by flipping and subtracting the sign bit.
#[derive(Clone, Copy)]
struct SignExt {
    mask: u64,
    half: u64,
}

impl SignExt {
    fn of(t: ScalarType) -> SignExt {
        let m = t.max_value() as u64;
        SignExt { mask: 2 * m + 1, half: m + 1 }
    }
}

impl WrapTo for SignExt {
    #[inline]
    fn apply(self, v: i128) -> i128 {
        (((v as u64) & self.mask) ^ self.half).wrapping_sub(self.half) as i64 as i128
    }
}

/// `$body` with `$w` bound to the wrap into `$t`, built once per
/// signedness in 64-bit arithmetic ([`SignExt`], [`Mask`]): on cheap ops
/// such as `Bin(Add)` the general 128-bit [`Wrap`] measured two to three
/// times slower per lane. Sinks without [`LaneSink::SPECIALIZED`] take
/// [`Wrap`].
macro_rules! wrapping {
    ($S:ty, $t:expr, $w:ident => $body:expr) => {{
        let t: ScalarType = $t;
        if !<$S as LaneSink>::SPECIALIZED {
            let $w = t.wrapper();
            $body
        } else if t.is_signed() {
            let $w = SignExt::of(t);
            $body
        } else {
            let $w = Mask(t.max_value() as u64);
            $body
        }
    }};
}

// ---- words ----------------------------------------------------------

/// The machine word a lane closure computes in: `i64` or `i128`. Lanes
/// stay `i128` in every slice and at every sink; [`At`] converts at the
/// closure's boundary, and [`fits_i64`] decides which word a semantic's
/// closure is built at.
trait Word:
    Lane
    + Ord
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
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
}

macro_rules! word {
    ($($w:ty),*) => {$(
        impl Word for $w {
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
        }
    )*};
}

word!(i64, i128);

/// The word rule: whether every intermediate of `sem`, at operand types
/// `tys` and result type `result`, fits `i64`, so that its lane closure
/// computes in 64-bit registers. Decided from the types alone, never from
/// a captured constant, and conservatively: each arm bounds the widest
/// value its closure forms, in signed bits.
fn fits_i64(sem: MachSem, tys: &[ScalarType], result: ScalarType) -> bool {
    use FpirOp as F;
    // The signed width that holds every value of `t`.
    let signed = |t: ScalarType| t.bits() + u32::from(!t.is_signed());
    // Every operand enters the word: a `u64` lane never fits.
    let ops = tys.iter().map(|&t| signed(t)).max().unwrap_or(0);
    let (bits, res) = (tys[0].bits(), signed(result));
    let needed = match sem {
        MachSem::Bin(BinOp::Min | BinOp::Max) | MachSem::Select => ops,
        // A clamp's bounds fit too.
        MachSem::SatCastTo | MachSem::PackSatSignedTo | MachSem::Fpir(F::SaturatingNarrow) => {
            ops.max(res)
        }
        MachSem::Fpir(F::SaturatingCast(to)) => ops.max(signed(to)),
        // A negated lane, or a sum or difference of two.
        MachSem::Fpir(F::Abs | F::Absd) => ops + 1,
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
        // A product of two lanes plus the bias 2^(s-1), formed as
        // 2^s >> 1, for a shift `s` up to 2·bits (a count operand) or
        // bits - 1 (`QRDMulH`).
        MachSem::Fpir(F::MulShr | F::RoundingMulShr) | MachSem::QRDMulH => {
            let s = if sem == MachSem::QRDMulH { bits - 1 } else { 2 * bits };
            (signed(tys[0]) + signed(tys[1])).max(s + 2).max(ops).max(res)
        }
        // Wrapping sums of products: a wrap reads at most the low 64
        // bits, which wrapping arithmetic on `i64` computes exactly.
        MachSem::MulAcc
        | MachSem::WideningMulAcc
        | MachSem::MulPairsAdd
        | MachSem::Mpa
        | MachSem::MpaAcc
        | MachSem::DotAcc4 => result.bits(),
        _ => return false,
    };
    needed <= 64
}

/// A sink over lane closures in the word `W`: operands enter the closure
/// as `W`, and its result leaves as a lane. A closure ending in a wrap
/// returns the wrapped `i128` lane itself.
struct At<W, S> {
    sink: S,
    word: PhantomData<W>,
}

impl<W: Word, S: LaneSink> At<W, S> {
    fn new(sink: S) -> Self {
        #[cfg(test)]
        sink.built_at(W::BITS);
        At { sink, word: PhantomData }
    }

    fn unary<R: Word>(self, f: impl Fn(W) -> R + Lane) -> S::Out {
        self.sink.unary(move |x| f(W::of(x)).lane())
    }

    fn binary<R: Word>(self, f: impl Fn(W, W) -> R + Lane) -> S::Out {
        self.sink.binary(move |x, y| f(W::of(x), W::of(y)).lane())
    }

    fn ternary<R: Word>(self, f: impl Fn(W, W, W) -> R + Lane) -> S::Out {
        self.sink.ternary(move |x, y, z| f(W::of(x), W::of(y), W::of(z)).lane())
    }

    /// [`LaneSink::wide`] with lane `i` of the `N` operands read into an
    /// array.
    fn wide<const N: usize, R: Word>(self, f: impl Fn([W; N]) -> R + Lane) -> S::Out {
        self.sink.wide(move |xs, i| f(std::array::from_fn(|k| W::of(xs[k][i]))).lane())
    }

    fn by_count<P: Lane, R: Word>(
        self,
        resolve: impl Fn(W) -> P + Lane,
        apply: impl Fn(W, P) -> R + Lane,
    ) -> S::Out {
        self.sink.by_count(move |y| resolve(W::of(y)), move |x, p| apply(W::of(x), p).lane())
    }

    fn by_count3<P: Lane, R: Word>(
        self,
        resolve: impl Fn(W) -> P + Lane,
        apply: impl Fn(W, W, P) -> R + Lane,
    ) -> S::Out {
        self.sink.by_count3(
            move |z| resolve(W::of(z)),
            move |x, y, p| apply(W::of(x), W::of(y), p).lane(),
        )
    }
}

/// `$body` with `$s` the sink [`At`] at `i64` when `$fits` (the word
/// rule, [`fits_i64`]) and the sink is [`LaneSink::SPECIALIZED`], and at
/// `i128` otherwise: a body written once, built at both words.
macro_rules! at_word {
    ($S:ty, $fits:expr, $sink:expr, $s:ident => $body:expr) => {{
        if <$S as LaneSink>::SPECIALIZED && $fits {
            let $s = At::<i64, $S>::new($sink);
            $body
        } else {
            let $s = At::<i128, $S>::new($sink);
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

/// A count operand read as given (left-shift forms).
fn left<W: Word>(y: W) -> W {
    y
}

/// A count operand read as a right shift: negated after clamping to ±256.
fn right<W: Word>(y: W) -> W {
    -y.clamp(W::of(-256), W::of(256))
}

/// `Wrap(shift_lane(x, count(y), bits))`, the wrapping shift family:
/// `Bin(Shl|Shr)`, `ShrNarrow` and FPIR `WideningShl/Shr`. The count,
/// clamped to ±2·`bits`, resolves to a left shift `l` and an arithmetic
/// right shift `r`, one of them 0, each at most the word's `BITS - 1`. A
/// longer right shift leaves the same sign fill, and a longer left shift
/// the same zeros in the wrap's bits, which are fewer than the word's.
fn wrap_shift<W: Word, S: LaneSink>(
    sink: At<W, S>,
    bits: u32,
    count: impl Fn(W) -> W + Lane,
    wrap: impl Fn(i128) -> i128 + Lane,
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
    sink.by_count(resolve, move |x: W, (l, r): (u32, u32)| wrap(((x << l) >> r).lane()))
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
fn sat_shift<W: Word, S: LaneSink>(
    sink: At<W, S>,
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

/// `sat(signed(x))`: `PackSatSignedTo`, which reads its operand's bits as
/// the signed type of its width before saturating.
fn pack_sat_signed<W: Word, S: LaneSink>(sink: At<W, S>, signed: SignExt, sat: Sat<W>) -> S::Out {
    sink.unary(move |x: W| sat.apply(W::of(signed.apply(x.lane()))))
}

/// Whether the product of two lanes of `a` and `b` fits `i128` with room
/// for a rounding term: true unless a lane is 64 bits wide.
fn narrow_product(a: ScalarType, b: ScalarType) -> bool {
    a.bits() < 64 && b.bits() < 64
}

/// `sat(x · y >> s)`, floored or rounded half up: FPIR `MulShr` and
/// `RoundingMulShr` (`s` is operand 2 clamped to `[0, 2·bits]`) and
/// `QRDMulH` (`fixed`: `s = bits − 1`). A 64-bit product, which only the
/// `i128` word sees, takes the interpreter's exact helper.
fn mul_shr<W: Word, S: LaneSink>(
    sink: At<W, S>,
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
    let w = result.wrapper();
    let fits = || fits_i64(sem, tys, result);
    match sem {
        MachSem::Bin(op) => bin_lanes(op, t, sink),
        MachSem::Cmp(op) => match op {
            CmpOp::Eq => sink.binary(|x, y| (x == y) as i128),
            CmpOp::Ne => sink.binary(|x, y| (x != y) as i128),
            CmpOp::Lt => sink.binary(|x, y| (x < y) as i128),
            CmpOp::Le => sink.binary(|x, y| (x <= y) as i128),
            CmpOp::Gt => sink.binary(|x, y| (x > y) as i128),
            CmpOp::Ge => sink.binary(|x, y| (x >= y) as i128),
        },
        MachSem::Select => {
            at_word!(S, fits(), sink, s => s.ternary(|m, x, y| if m != 0 { x } else { y }))
        }
        MachSem::ExtendTo | MachSem::TruncTo | MachSem::Reinterpret | MachSem::Splat => {
            wrapping!(S, result, w => sink.unary(wrap_lane(w)))
        }
        MachSem::SatCastTo => at_word!(S, fits(), sink, s => {
            let sat = Sat::of(result);
            s.unary(move |x| sat.apply(x))
        }),
        MachSem::PackSatSignedTo => at_word!(S, fits(), sink, s => {
            pack_sat_signed(s, SignExt::of(t.with_signed()), Sat::of(result))
        }),
        MachSem::Fpir(op) => fpir_lanes(op, tys, result, sink),
        MachSem::MulHigh => {
            let bits = t.bits();
            if narrow_product(t, tys[1]) {
                sink.binary(move |x, y| w.apply((x * y) >> bits))
            } else {
                sink.binary(move |x, y| w.apply(mul_shr_exact(x, y, bits, false)))
            }
        }
        // The widening width constraint is a shape check; the lane
        // arithmetic is the non-widening form's. The sums of products
        // wrap for the same reason as `BinOp::Mul` in `bin_op_lane`:
        // 64-bit lane extremes overflow the raw product, and a wrap only
        // reads its low bits.
        MachSem::MulAcc | MachSem::WideningMulAcc => at_word!(S, fits(), sink, s => {
            s.ternary(move |c, x, y| w.apply(c.wrapping_add(x.wrapping_mul(y)).lane()))
        }),
        MachSem::MulPairsAdd => at_word!(S, fits(), sink, s => {
            s.wide(move |[a, b, c, d]: [_; 4]| {
                w.apply(a.wrapping_mul(b).wrapping_add(c.wrapping_mul(d)).lane())
            })
        }),
        MachSem::Mpa => at_word!(S, fits(), sink, s => {
            s.wide(move |[a, b, c0, c1]: [_; 4]| {
                w.apply(a.wrapping_mul(c0).wrapping_add(b.wrapping_mul(c1)).lane())
            })
        }),
        MachSem::MpaAcc => at_word!(S, fits(), sink, s => {
            s.wide(move |[acc, a, b, c0, c1]: [_; 5]| {
                let acc = acc.wrapping_add(a.wrapping_mul(c0));
                w.apply(acc.wrapping_add(b.wrapping_mul(c1)).lane())
            })
        }),
        MachSem::DotAcc4 => at_word!(S, fits(), sink, s => {
            s.wide(move |x: [_; 9]| {
                let mut acc = x[0];
                for k in 0..4 {
                    acc = acc.wrapping_add(x[1 + k].wrapping_mul(x[5 + k]));
                }
                w.apply(acc.lane())
            })
        }),
        // `rounding_shr` at the operand type saturates into it, then into
        // the result.
        MachSem::ShrRndSatNarrow => at_word!(S, fits(), sink, s => {
            sat_shift(s, t.bits(), right, true, Sat::of(t).and(Sat::of(result)))
        }),
        MachSem::ShrNarrow => {
            let wt = t.wrapper();
            at_word!(S, fits(), sink, s => {
                wrap_shift(s, t.bits(), right, move |v| w.apply(wt.apply(v)))
            })
        }
        MachSem::QRDMulH => at_word!(S, fits(), sink, s => {
            mul_shr(s, &[t, t], true, Sat::of(result), Some(t.bits() - 1))
        }),
    }
}

/// `Bin(op)` at operand type `t`. Operands are canonical lanes of `t`, so
/// `Min`/`Max`, the bitwise ops and right shifts need no wrap.
fn bin_lanes<S: LaneSink>(op: BinOp, t: ScalarType, sink: S) -> S::Out {
    let w = t.wrapper();
    let fits = || fits_i64(MachSem::Bin(op), &[t, t], t);
    match op {
        BinOp::Add => wrapping!(S, t, w => sink.binary(move |x, y| w.apply(x + y))),
        BinOp::Sub => wrapping!(S, t, w => sink.binary(move |x, y| w.apply(x - y))),
        BinOp::Mul => wrapping!(S, t, w => sink.binary(mul_lane(w))),
        BinOp::Div => sink.binary(move |x, y| w.apply(floor_div(x, y))),
        BinOp::Mod => sink.binary(move |x, y| w.apply(floor_mod(x, y))),
        BinOp::Min => at_word!(S, fits(), sink, s => s.binary(|x, y| x.min(y))),
        BinOp::Max => at_word!(S, fits(), sink, s => s.binary(|x, y| x.max(y))),
        BinOp::Shl => wrapping!(S, t, w => at_word!(S, fits(), sink, s => {
            wrap_shift(s, t.bits(), left, wrap_lane(w))
        })),
        BinOp::Shr => wrapping!(S, t, w => at_word!(S, fits(), sink, s => {
            wrap_shift(s, t.bits(), right, wrap_lane(w))
        })),
        BinOp::And => sink.binary(|x, y| x & y),
        BinOp::Or => sink.binary(|x, y| x | y),
        BinOp::Xor => sink.binary(|x, y| x ^ y),
    }
}

/// `Bin(Mul)` wrapping by `w`. Wrapping at i128 for the reason
/// `bin_op_lane` gives.
fn mul_lane(w: impl WrapTo) -> impl Fn(i128, i128) -> i128 + Lane {
    move |x, y| w.apply(x.wrapping_mul(y))
}

/// A wrapping conversion (`ExtendTo`/`TruncTo`/`Reinterpret`/`Splat`).
fn wrap_lane(w: impl WrapTo) -> impl Fn(i128) -> i128 + Lane {
    move |x| w.apply(x)
}

/// `Fpir(op)` at the op's own arity.
fn fpir_lanes<S: LaneSink>(op: FpirOp, tys: &[ScalarType], result: ScalarType, sink: S) -> S::Out {
    let bits = tys[0].bits();
    let w = result.wrapper();
    let fits = || fits_i64(MachSem::Fpir(op), tys, result);
    match op {
        FpirOp::WideningAdd | FpirOp::ExtendingAdd => {
            wrapping!(S, result, w => sink.binary(move |x, y| w.apply(x + y)))
        }
        FpirOp::WideningSub | FpirOp::ExtendingSub => {
            wrapping!(S, result, w => sink.binary(move |x, y| w.apply(x - y)))
        }
        FpirOp::WideningMul | FpirOp::ExtendingMul => {
            wrapping!(S, result, w => sink.binary(mul_lane(w)))
        }
        FpirOp::WideningShl => {
            at_word!(S, fits(), sink, s => wrap_shift(s, bits, left, wrap_lane(w)))
        }
        FpirOp::WideningShr => {
            at_word!(S, fits(), sink, s => wrap_shift(s, bits, right, wrap_lane(w)))
        }
        FpirOp::Abs => at_word!(S, fits(), sink, s => s.unary(|x| x.abs())),
        FpirOp::Absd => at_word!(S, fits(), sink, s => s.binary(|x, y| (x - y).abs())),
        FpirOp::SaturatingCast(to) => at_word!(S, fits(), sink, s => {
            let sat = Sat::of(to);
            s.unary(move |x| sat.apply(x))
        }),
        FpirOp::SaturatingNarrow => at_word!(S, fits(), sink, s => {
            let sat = Sat::of(result);
            s.unary(move |x| sat.apply(x))
        }),
        FpirOp::SaturatingAdd => at_word!(S, fits(), sink, s => {
            let sat = Sat::of(result);
            s.binary(move |x, y| sat.apply(x + y))
        }),
        FpirOp::SaturatingSub => at_word!(S, fits(), sink, s => {
            let sat = Sat::of(result);
            s.binary(move |x, y| sat.apply(x - y))
        }),
        // `floor_div(v, 2)` is an arithmetic shift.
        FpirOp::HalvingAdd => {
            wrapping!(S, result, w => sink.binary(move |x, y| w.apply((x + y) >> 1)))
        }
        FpirOp::HalvingSub => {
            wrapping!(S, result, w => sink.binary(move |x, y| w.apply((x - y) >> 1)))
        }
        FpirOp::RoundingHalvingAdd => {
            wrapping!(S, result, w => sink.binary(move |x, y| w.apply((x + y + 1) >> 1)))
        }
        FpirOp::RoundingShl => {
            at_word!(S, fits(), sink, s => sat_shift(s, bits, left, true, Sat::of(result)))
        }
        FpirOp::RoundingShr => {
            at_word!(S, fits(), sink, s => sat_shift(s, bits, right, true, Sat::of(result)))
        }
        FpirOp::SaturatingShl => {
            at_word!(S, fits(), sink, s => sat_shift(s, bits, left, false, Sat::of(result)))
        }
        FpirOp::MulShr => {
            at_word!(S, fits(), sink, s => mul_shr(s, tys, false, Sat::of(result), None))
        }
        FpirOp::RoundingMulShr => {
            at_word!(S, fits(), sink, s => mul_shr(s, tys, true, Sat::of(result), None))
        }
    }
}

// ---- the sinks ----------------------------------------------------------

/// `eval_sem_into`'s sink: extends `out` with the result lanes, reading
/// the operand lane slices in place (zips are bounds-check-free, and
/// `extend` over an exact-size iterator writes without per-element
/// capacity checks).
struct Extend<'a> {
    args: &'a [&'a Value],
    out: &'a mut Vec<i128>,
}

impl LaneSink for Extend<'_> {
    type Out = ();
    fn unary(self, f: impl Fn(i128) -> i128 + Lane) {
        self.out.extend(self.args[0].lanes().iter().map(|&x| f(x)));
    }
    fn binary(self, f: impl Fn(i128, i128) -> i128 + Lane) {
        let (a, b) = (self.args[0].lanes(), self.args[1].lanes());
        self.out.extend(a.iter().zip(b).map(|(&x, &y)| f(x, y)));
    }
    fn ternary(self, f: impl Fn(i128, i128, i128) -> i128 + Lane) {
        let (a, b, c) = (self.args[0].lanes(), self.args[1].lanes(), self.args[2].lanes());
        self.out.extend(a.iter().zip(b).zip(c).map(|((&x, &y), &z)| f(x, y, z)));
    }
    fn wide(self, f: impl Fn(&[&[i128]], usize) -> i128 + Lane) {
        let mut xs: [&[i128]; MAX_ARITY] = [&[]; MAX_ARITY];
        for (x, a) in xs.iter_mut().zip(self.args) {
            *x = a.lanes();
        }
        let xs = &xs[..self.args.len()];
        self.out.extend((0..xs[0].len()).map(|i| f(xs, i)));
    }
}

/// Erase a strip loop into a shareable [`SemSliceFn`].
fn kernel(f: impl Fn(&[&[i128]], &mut [i128]) + Send + Sync + 'static) -> SemSliceFn {
    Arc::new(f)
}

fn strip1(f: impl Fn(i128) -> i128, a: &[i128], out: &mut [i128]) {
    for (o, &x) in out.iter_mut().zip(a) {
        *o = f(x);
    }
}

fn strip2(f: impl Fn(i128, i128) -> i128, a: &[i128], b: &[i128], out: &mut [i128]) {
    for (o, (&x, &y)) in out.iter_mut().zip(a.iter().zip(b)) {
        *o = f(x, y);
    }
}

/// Re-sliced indexed loop: a three-way `zip` defeats the unroller for
/// cheap ops, and this is the shape of the hottest merged pairs
/// (`Bin` → `Bin`).
fn strip3(
    f: impl Fn(i128, i128, i128) -> i128,
    a: &[i128],
    b: &[i128],
    c: &[i128],
    out: &mut [i128],
) {
    let n = out.len();
    let (a, b, c) = (&a[..n], &b[..n], &c[..n]);
    for i in 0..n {
        out[i] = f(a[i], b[i], c[i]);
    }
}

/// `sem_slice_fn`'s sink: the lane closure in a strip loop over every
/// operand slice.
struct Strip;

impl LaneSink for Strip {
    type Out = SemSliceFn;
    fn unary(self, f: impl Fn(i128) -> i128 + Lane) -> SemSliceFn {
        kernel(move |xs, out| strip1(f, xs[0], out))
    }
    fn binary(self, f: impl Fn(i128, i128) -> i128 + Lane) -> SemSliceFn {
        kernel(move |xs, out| strip2(f, xs[0], xs[1], out))
    }
    fn ternary(self, f: impl Fn(i128, i128, i128) -> i128 + Lane) -> SemSliceFn {
        kernel(move |xs, out| strip3(f, xs[0], xs[1], xs[2], out))
    }
    fn wide(self, f: impl Fn(&[&[i128]], usize) -> i128 + Lane) -> SemSliceFn {
        kernel(move |xs, out| {
            for (i, o) in out.iter_mut().enumerate() {
                *o = f(xs, i);
            }
        })
    }
}

/// `sem_slice_fn_splat`'s sink: `c` bound at operand `k`, the loop
/// reading only the other operands' slices.
struct Capture {
    k: usize,
    c: i128,
}

impl LaneSink for Capture {
    type Out = Option<SemSliceFn>;
    fn unary(self, f: impl Fn(i128) -> i128 + Lane) -> Self::Out {
        let c = f(self.c);
        Some(kernel(move |_, out| out.fill(c)))
    }
    fn binary(self, f: impl Fn(i128, i128) -> i128 + Lane) -> Self::Out {
        let c = self.c;
        Some(match self.k {
            0 => kernel(move |xs, out| strip1(move |y| f(c, y), xs[1], out)),
            _ => kernel(move |xs, out| strip1(move |x| f(x, c), xs[0], out)),
        })
    }
    fn ternary(self, f: impl Fn(i128, i128, i128) -> i128 + Lane) -> Self::Out {
        let c = self.c;
        Some(match self.k {
            0 => kernel(move |xs, out| strip2(move |x, y| f(c, x, y), xs[1], xs[2], out)),
            1 => kernel(move |xs, out| strip2(move |a, y| f(a, c, y), xs[0], xs[2], out)),
            _ => kernel(move |xs, out| strip2(move |a, x| f(a, x, c), xs[0], xs[1], out)),
        })
    }
    fn wide(self, _: impl Fn(&[&[i128]], usize) -> i128 + Lane) -> Self::Out {
        None
    }
    /// A captured count is resolved here, once, instead of per lane.
    fn by_count<P: Lane>(
        self,
        resolve: impl Fn(i128) -> P + Lane,
        apply: impl Fn(i128, P) -> i128 + Lane,
    ) -> Self::Out {
        if self.k != 1 {
            return self.binary(move |x, y| apply(x, resolve(y)));
        }
        let p = resolve(self.c);
        Some(kernel(move |xs, out| strip1(move |x| apply(x, p), xs[0], out)))
    }
    fn by_count3<P: Lane>(
        self,
        resolve: impl Fn(i128) -> P + Lane,
        apply: impl Fn(i128, i128, P) -> i128 + Lane,
    ) -> Self::Out {
        if self.k != 2 {
            return self.ternary(move |x, y, z| apply(x, y, resolve(z)));
        }
        let p = resolve(self.c);
        Some(kernel(move |xs, out| strip2(move |x, y| apply(x, y, p), xs[0], xs[1], out)))
    }
}

// ---- fused pairs --------------------------------------------------------

/// Whether absorbing producer `p`'s loop into consumer `c`'s pays off.
/// Fusing a pair saves a scratch-row round trip and a dispatch, but the
/// wider merged loop body also optimizes worse than two tight two-operand
/// loops; for cheap lane-wise ops (add, min/max, logic) the second effect
/// dominates and the merged loop measures *slower*. Only multiply-class
/// pairs — where the op cost dwarfs the loop-shape penalty — are worth
/// merging (and even then the fuser skips the pair when either side holds
/// a splat-constant operand, which is worth more as a captured scalar).
fn pair_profitable(p: MachSem, c: MachSem) -> bool {
    let mul = |s: MachSem| matches!(s, MachSem::Bin(BinOp::Mul) | MachSem::Fpir(_));
    mul(p) || mul(c)
}

/// Compile a *fused pair*: a single-use producer absorbed into operand
/// `k` of its consumer, evaluated in one strip loop with the
/// intermediate held in a register instead of a scratch row.
///
/// This function decides which pairs merge. It returns `None` — the
/// caller then keeps the two separate passes — unless the pair is
/// multiply-class (a `Bin(Mul)` or FPIR step on either side; cheaper
/// pairs run slower merged than as two loops) and lane-wise (the producer
/// a `Bin`, FPIR or wrapping-cast step, the consumer a `Bin` or wrapping
/// cast). The merged loop calls the consumer's lane-table closure on the
/// producer's — the two closures [`sem_slice_fn`] runs as separate
/// passes — so it is bit-identical to running the producer into a
/// temporary strip and the consumer after it, pinned by
/// `fused_pairs_match_sequential_passes`.
///
/// # Preconditions
///
/// As [`sem_slice_fn`]: shape checks are not repeated. `k <
/// consumer.arity()`; the returned closure reads the producer's operands
/// first, then the consumer's remaining operands (in order, with operand
/// `k` removed), every slice exactly `out.len()` lanes long.
pub fn sem_slice_fn_pair(
    p_sem: MachSem,
    p_tys: &[ScalarType],
    p_result: ScalarType,
    c_sem: MachSem,
    c_tys: &[ScalarType],
    c_result: ScalarType,
    k: usize,
) -> Option<SemSliceFn> {
    if !pair_profitable(p_sem, c_sem) {
        return None;
    }
    // The table runs for the consumer, then for the producer, over only
    // the families the policy admits, so no other pair loop is compiled:
    // a `Bin(Mul)` consumer absorbs any lane-wise producer, every other
    // consumer only a multiply-class one.
    let p = Producer { sem: p_sem, tys: p_tys, result: p_result };
    match c_sem {
        MachSem::Bin(BinOp::Mul) => p.lane_wise(Into2 { c: mul_lane(c_tys[0].wrapper()), k }),
        MachSem::Bin(op) => bin_lanes(op, c_tys[0], Consumer { p, k }),
        MachSem::ExtendTo | MachSem::TruncTo | MachSem::Reinterpret | MachSem::Splat => {
            p.mul_class(Into1(wrap_lane(c_result.wrapper())))
        }
        _ => None,
    }
}

/// A pair's lane-table run for the consumer: the consumer's closure, in
/// `Into1`/`Into2`, then meets a multiply-class producer's.
struct Consumer<'a> {
    p: Producer<'a>,
    k: usize,
}

impl LaneSink for Consumer<'_> {
    type Out = Option<SemSliceFn>;
    const SPECIALIZED: bool = false;
    fn unary(self, c: impl Fn(i128) -> i128 + Lane) -> Self::Out {
        self.p.mul_class(Into1(c))
    }
    fn binary(self, c: impl Fn(i128, i128) -> i128 + Lane) -> Self::Out {
        self.p.mul_class(Into2 { c, k: self.k })
    }
    fn ternary(self, _: impl Fn(i128, i128, i128) -> i128 + Lane) -> Self::Out {
        None
    }
    fn wide(self, _: impl Fn(&[&[i128]], usize) -> i128 + Lane) -> Self::Out {
        None
    }
}

/// A pair's producer, run through the lane table into the sink holding
/// its consumer's closure (`Into1`/`Into2`).
struct Producer<'a> {
    sem: MachSem,
    tys: &'a [ScalarType],
    result: ScalarType,
}

impl Producer<'_> {
    /// The multiply-class producers, which every lane-wise consumer
    /// absorbs.
    fn mul_class<S: LaneSink<Out = Option<SemSliceFn>>>(&self, into: S) -> Option<SemSliceFn> {
        match self.sem {
            MachSem::Bin(BinOp::Mul) => wrapping!(S, self.tys[0], w => into.binary(mul_lane(w))),
            MachSem::Fpir(op) => fpir_lanes(op, self.tys, self.result, into),
            _ => None,
        }
    }

    /// Every lane-wise producer, which a `Bin(Mul)` consumer absorbs.
    fn lane_wise<S: LaneSink<Out = Option<SemSliceFn>>>(&self, into: S) -> Option<SemSliceFn> {
        match self.sem {
            MachSem::Bin(op) => bin_lanes(op, self.tys[0], into),
            MachSem::ExtendTo | MachSem::TruncTo | MachSem::Reinterpret | MachSem::Splat => {
                wrapping!(S, self.result, w => into.unary(wrap_lane(w)))
            }
            _ => self.mul_class(into),
        }
    }
}

/// A one-operand consumer `c` waiting for its producer: the merged loop
/// reads the producer's operands and computes `c(p(..))`.
struct Into1<C>(C);

impl<C: Fn(i128) -> i128 + Lane> LaneSink for Into1<C> {
    type Out = Option<SemSliceFn>;
    const SPECIALIZED: bool = false;
    fn unary(self, p: impl Fn(i128) -> i128 + Lane) -> Self::Out {
        let c = self.0;
        Some(Strip.unary(move |x| c(p(x))))
    }
    fn binary(self, p: impl Fn(i128, i128) -> i128 + Lane) -> Self::Out {
        let c = self.0;
        Some(Strip.binary(move |x, y| c(p(x, y))))
    }
    fn ternary(self, p: impl Fn(i128, i128, i128) -> i128 + Lane) -> Self::Out {
        let c = self.0;
        Some(Strip.ternary(move |x, y, z| c(p(x, y, z))))
    }
    fn wide(self, _: impl Fn(&[&[i128]], usize) -> i128 + Lane) -> Self::Out {
        None
    }
}

/// A two-operand consumer `c` waiting for its producer at operand `k`: the
/// merged loop reads the producer's operands, then the consumer's other
/// operand `u`.
struct Into2<C> {
    c: C,
    k: usize,
}

impl<C: Fn(i128, i128) -> i128 + Lane> LaneSink for Into2<C> {
    type Out = Option<SemSliceFn>;
    const SPECIALIZED: bool = false;
    fn unary(self, p: impl Fn(i128) -> i128 + Lane) -> Self::Out {
        let c = self.c;
        Some(match self.k {
            0 => Strip.binary(move |x, u| c(p(x), u)),
            _ => Strip.binary(move |x, u| c(u, p(x))),
        })
    }
    fn binary(self, p: impl Fn(i128, i128) -> i128 + Lane) -> Self::Out {
        let c = self.c;
        Some(match self.k {
            0 => Strip.ternary(move |x, y, u| c(p(x, y), u)),
            _ => Strip.ternary(move |x, y, u| c(u, p(x, y))),
        })
    }
    fn ternary(self, p: impl Fn(i128, i128, i128) -> i128 + Lane) -> Self::Out {
        let c = self.c;
        Some(match self.k {
            0 => Strip.wide(move |xs, i| c(p(xs[0][i], xs[1][i], xs[2][i]), xs[3][i])),
            _ => Strip.wide(move |xs, i| c(xs[3][i], p(xs[0][i], xs[1][i], xs[2][i]))),
        })
    }
    fn wide(self, _: impl Fn(&[&[i128]], usize) -> i128 + Lane) -> Self::Out {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpir::interp::{bin_op_lane, cmp_op_lane, fpir_op_lane};
    use fpir::types::{ScalarType as S, VectorType as V};

    fn v(t: V, xs: &[i128]) -> Value {
        Value::new(t, xs.to_vec())
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
            let slices: Vec<&[i128]> = args.iter().map(|a| a.lanes()).collect();
            let mut out = vec![0i128; LANES as usize];
            compiled(&slices, &mut out);
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
        let run = |f: SemSliceFn, args: &[Vec<i128>]| {
            let slices: Vec<&[i128]> = args.iter().map(|a| a.as_slice()).collect();
            let mut out = vec![0i128; args[0].len()];
            f(&slices, &mut out);
            out
        };
        let mut vals: Vec<Vec<i128>> = Vec::new();
        let mut vals_of = |t: S| -> Vec<i128> {
            let mut v = edges(t);
            v.extend((0..4).map(|_| t.wrap(next())));
            v
        };
        let mut cases = 0usize;
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
                assert_eq!(run(sem_slice_fn(sem, &tys, result), &args), want(&args), "{at}: strip");
                if tys.len() > 3 {
                    // The captured sink has no loop for the wide semantics.
                    assert!(sem_slice_fn_splat(sem, &tys, result, 0, 0).is_none(), "{at}");
                    continue;
                }
                for k in 0..tys.len() {
                    let mut others = cols.clone();
                    others.remove(k);
                    let others = if others.is_empty() { vec![] } else { columns(&others) };
                    let n = others.first().map_or(1, Vec::len);
                    for c in edges(tys[k]) {
                        let mut with_c = others.clone();
                        with_c.insert(k, vec![c; n]);
                        let splat = sem_slice_fn_splat(sem, &tys, result, k, c)
                            .unwrap_or_else(|| panic!("{at}: no captured loop at operand {k}"));
                        assert_eq!(run(splat, &with_c), want(&with_c), "{at}: {c} at operand {k}");
                        cases += 1;
                    }
                }
            }
        }
        // Pinned: 20 constants, times, per type, the operand positions of
        // the 18 Bin/Cmp ops (36), of the 23 FPIR ops (44) and the 10
        // machine-only semantics (14) at three result types, and of
        // `Select` and `MulAcc` (6): 8 × 20 × 216 = 34,560. Then the
        // widening shapes of the six narrower types, each with two
        // accumulator signednesses of `WideningMulAcc` (6) and the three
        // extending forms (6): 6 × 20 × 12 = 1,440.
        assert_eq!(cases, 8 * 20 * 216 + 6 * 20 * 12, "captured-constant case count changed");
    }

    /// The lane table's probe: the word a semantic's closure is built at,
    /// or `None` for a semantic the table builds outside [`At`].
    struct Probe(std::cell::Cell<Option<u32>>);

    impl LaneSink for Probe {
        type Out = Option<u32>;
        fn unary(self, _: impl Fn(i128) -> i128 + Lane) -> Option<u32> {
            self.0.get()
        }
        fn binary(self, _: impl Fn(i128, i128) -> i128 + Lane) -> Option<u32> {
            self.0.get()
        }
        fn ternary(self, _: impl Fn(i128, i128, i128) -> i128 + Lane) -> Option<u32> {
            self.0.get()
        }
        fn wide(self, _: impl Fn(&[&[i128]], usize) -> i128 + Lane) -> Option<u32> {
            self.0.get()
        }
        fn built_at(&self, bits: u32) {
            self.0.set(Some(bits));
        }
    }

    fn word_bits(sem: MachSem, tys: &[S], result: S) -> Option<u32> {
        lane_table(sem, tys, result, Probe(std::cell::Cell::new(None)))
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
    fn word_rule_builds_hot_kinds_at_i64_and_traps_at_i128() {
        // The profiled hot kinds must compute in `i64`: a silent fallback
        // to `i128` is invisible to every correctness test.
        let fp = MachSem::Fpir;
        let narrow = [
            (MachSem::Bin(BinOp::Shl), vec![S::I16; 2], S::I16),
            (MachSem::Bin(BinOp::Shr), vec![S::I32; 2], S::I32),
            (MachSem::Bin(BinOp::Shr), vec![S::U32; 2], S::U32),
            (MachSem::ShrRndSatNarrow, vec![S::U16; 2], S::U8),
            (MachSem::ShrRndSatNarrow, vec![S::I32; 2], S::I16),
            (fp(FpirOp::SaturatingAdd), vec![S::I16; 2], S::I16),
            (fp(FpirOp::SaturatingSub), vec![S::I16; 2], S::I16),
            (MachSem::QRDMulH, vec![S::I32; 2], S::I32),
            (MachSem::PackSatSignedTo, vec![S::I32], S::I16),
            (MachSem::WideningMulAcc, vec![S::U16, S::U8, S::U8], S::U16),
        ];
        for (sem, tys, result) in narrow {
            assert_eq!(word_bits(sem, &tys, result), Some(64), "{sem:?} at {tys:?} -> {result}");
        }
        for (sem, tys, result, _) in word_traps() {
            assert_eq!(word_bits(sem, &tys, result), Some(128), "{sem:?} at {tys:?} -> {result}");
        }
        // Outside the word family, the table builds at `i128` directly.
        assert_eq!(word_bits(MachSem::Bin(BinOp::Add), &[S::I16; 2], S::I16), None);
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
                let slices: Vec<&[i128]> = args.iter().map(|a| a.lanes()).collect();
                assert_eq!(
                    eval_sem(sem, &args, V::new(result, 1)).unwrap().lanes(),
                    &[want(xs)],
                    "{at}"
                );
                let mut got = [0i128];
                sem_slice_fn(sem, &tys, result)(&slices, &mut got);
                assert_eq!(got, [want(xs)], "{at}: strip");
                let k = n - 1;
                sem_slice_fn_splat(sem, &tys, result, k, xs[k]).unwrap()(&slices, &mut got);
                assert_eq!(got, [want(xs)], "{at}: captured at operand {k}");
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
                let mut got = [0i128];
                let splat = sem_slice_fn_splat(sem, &[t; 3], t, 2, xs[2]).unwrap();
                splat(&[&[xs[0]], &[xs[1]], &[xs[2]]], &mut got);
                assert_eq!(got, [want], "{op:?} {xs:?} captured");
            }
        }
    }

    #[test]
    fn fused_pairs_match_sequential_passes() {
        // For every type-compatible ordered pair of semantics and every
        // consumer operand position, the one-loop fused pair must be
        // bit-identical to running the two compiled strip kernels back to
        // back through a temporary. Pairs the composer declines (not
        // multiply-class, or not lane-wise) are skipped — the engine keeps
        // separate passes for those.
        let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 16) as i128
        };
        const LANES: usize = 8;
        let fp = |op| MachSem::Fpir(op);
        let cases: Vec<(MachSem, Vec<S>, S)> = vec![
            (MachSem::Bin(BinOp::Add), vec![S::I16, S::I16], S::I16),
            (MachSem::Bin(BinOp::Mul), vec![S::U8, S::U8], S::U8),
            (MachSem::Bin(BinOp::Max), vec![S::I16, S::I16], S::I16),
            (MachSem::Cmp(CmpOp::Gt), vec![S::I16, S::I16], S::I16),
            (MachSem::Select, vec![S::I16, S::I16, S::I16], S::I16),
            (MachSem::ExtendTo, vec![S::U8], S::I16),
            (MachSem::TruncTo, vec![S::I16], S::U8),
            (MachSem::SatCastTo, vec![S::I16], S::U8),
            (MachSem::PackSatSignedTo, vec![S::I16], S::U8),
            (MachSem::MulHigh, vec![S::I16, S::I16], S::I16),
            (MachSem::WideningMulAcc, vec![S::I16, S::U8, S::U8], S::I16),
            (MachSem::ShrRndSatNarrow, vec![S::I16, S::I16], S::U8),
            (MachSem::QRDMulH, vec![S::I16, S::I16], S::I16),
            (fp(FpirOp::WideningAdd), vec![S::U8, S::U8], S::I16),
            (fp(FpirOp::SaturatingAdd), vec![S::I16, S::I16], S::I16),
            (fp(FpirOp::Absd), vec![S::U8, S::U8], S::U8),
            (fp(FpirOp::RoundingMulShr), vec![S::I16, S::I16, S::I16], S::I16),
            (MachSem::MulPairsAdd, vec![S::I16; 4], S::I16),
        ];
        let mut fused_pairs = 0usize;
        for (p_sem, p_tys, p_res) in &cases {
            for (c_sem, c_tys, c_res) in &cases {
                for k in 0..c_tys.len() {
                    if c_tys[k] != *p_res {
                        continue;
                    }
                    let Some(pair) =
                        sem_slice_fn_pair(*p_sem, p_tys, *p_res, *c_sem, c_tys, *c_res, k)
                    else {
                        continue;
                    };
                    assert!(pair_profitable(*p_sem, *c_sem), "{p_sem:?} -> {c_sem:?} merged");
                    fused_pairs += 1;
                    let mut fill =
                        |t: S| -> Vec<i128> { (0..LANES).map(|_| t.wrap(next())).collect() };
                    let p_args: Vec<Vec<i128>> = p_tys.iter().map(|&t| fill(t)).collect();
                    let c_others: Vec<Vec<i128>> = c_tys
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| j != k)
                        .map(|(_, &t)| fill(t))
                        .collect();
                    // Sequential: producer into a temp strip, consumer after.
                    let mut tmp = vec![0i128; LANES];
                    let p_slices: Vec<&[i128]> = p_args.iter().map(|a| a.as_slice()).collect();
                    sem_slice_fn(*p_sem, p_tys, *p_res)(&p_slices, &mut tmp);
                    let mut c_slices: Vec<&[i128]> =
                        c_others.iter().map(|a| a.as_slice()).collect();
                    c_slices.insert(k, &tmp);
                    let mut want = vec![0i128; LANES];
                    sem_slice_fn(*c_sem, c_tys, *c_res)(&c_slices, &mut want);
                    // Fused: one loop over producer args + consumer others.
                    let mut fused_slices: Vec<&[i128]> =
                        p_args.iter().map(|a| a.as_slice()).collect();
                    fused_slices.extend(c_others.iter().map(|a| a.as_slice()));
                    let mut got = vec![0i128; LANES];
                    pair(&fused_slices, &mut got);
                    assert_eq!(got, want, "{p_sem:?} -> {c_sem:?} at operand {k}");
                }
            }
        }
        // Pinned exactly, so a refactor cannot silently widen or narrow
        // which pairs merge: the multiply-class, lane-wise pairs among the
        // cases above.
        assert_eq!(fused_pairs, 23, "merged pair coverage changed");
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
                let slices: Vec<&[i128]> = args.iter().map(|a| a.as_slice()).collect();
                let mut want = vec![0i128; LANES];
                sem_slice_fn(*sem, tys, *result)(&slices, &mut want);
                let mut got = vec![0i128; LANES];
                splat(&slices, &mut got);
                assert_eq!(got, want, "{sem:?} splat at operand {k}");
            }
        }
        // Pinned exactly: every case but the wide `MulPairsAdd` captures at
        // every operand position.
        assert_eq!(captured, 37, "splat capture coverage changed");
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
