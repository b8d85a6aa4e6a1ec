//! Executable semantics of machine instructions.
//!
//! Every instruction in a target table carries a [`MachSem`] describing
//! what it computes. Semantics are defined *in terms of the reference
//! interpreter's lane arithmetic* (`fpir::interp`), so a lowered machine
//! program can be executed and differentially tested against the source
//! expression — that replaces the paper's "run it on the real device /
//! Hexagon simulator" correctness story.
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

use fpir::expr::{BinOp, CmpOp, FpirOp};
use fpir::interp::{bin_op_lane, cmp_op_lane, fpir_op_lane, Value};
use fpir::types::{ScalarType, VectorType};
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
/// once here, at fuse time: the lane table's closure for `sem` — a
/// *literal* op handed to the `#[inline]` lane helpers, with the
/// operand/result element types captured — runs inside a strip loop, so
/// the helper's internal match folds away and the loop computes exactly
/// what [`eval_sem_into`] computes from the same closure.
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
/// `splat_capture_matches_streamed_constant` below.
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

/// What a lane closure may capture: plain data (element types, shift
/// widths, a constant), so it can be copied into composed loops and the
/// compiled kernel shared across worker threads.
trait Lane: Copy + Send + Sync + 'static {}
impl<T: Copy + Send + Sync + 'static> Lane for T {}

/// Receives the one lane closure `lane_table` builds for a semantic, in
/// the form matching its arity, and turns it into an evaluator.
trait LaneSink {
    type Out;
    fn unary(self, f: impl Fn(i128) -> i128 + Lane) -> Self::Out;
    fn binary(self, f: impl Fn(i128, i128) -> i128 + Lane) -> Self::Out;
    fn ternary(self, f: impl Fn(i128, i128, i128) -> i128 + Lane) -> Self::Out;
    /// The 4-, 5- and 9-operand semantics: lane `i` of the result, read
    /// from every operand slice.
    fn wide(self, f: impl Fn(&[&[i128]], usize) -> i128 + Lane) -> Self::Out;
}

/// Expand `$body` once per listed variant of the op enum `$Ty`, with `$O`
/// a constant holding that variant. A lane closure built in `$body` thus
/// hands its helper a *literal* op, whose match folds away inside the
/// lane loop — a runtime op in a hot lane loop measured slower than the
/// unfused engine.
macro_rules! each_op {
    ($op:expr, $Ty:ident [$($v:ident)*], $O:ident => $body:expr) => {
        match $op {
            $($Ty::$v => {
                const $O: $Ty = $Ty::$v;
                $body
            })*
        }
    };
}

/// `each_op!` over every `BinOp`.
macro_rules! bin_ops {
    ($op:expr, $O:ident => $body:expr) => {
        each_op!($op, BinOp [Add Sub Mul Div Mod Min Max Shl Shr And Or Xor], $O => $body)
    };
}

/// The lane closure of `Bin($op)` at operand type `$t`; `$op` must be a
/// constant for the helper's match to fold.
macro_rules! bin_lane {
    ($op:expr, $t:expr) => {{
        let t: ScalarType = $t;
        move |x, y| bin_op_lane($op, x, y, t)
    }};
}

/// The lane table: every semantic's lane arithmetic, written once.
/// `tys` are the operand element types (`tys.len() == sem.arity()`),
/// `result` the destination element type.
fn lane_table<S: LaneSink>(
    sem: MachSem,
    tys: &[ScalarType],
    result: ScalarType,
    sink: S,
) -> S::Out {
    let t = tys[0];
    match sem {
        MachSem::Bin(op) => bin_lanes(op, t, sink),
        MachSem::Cmp(op) => each_op!(op, CmpOp [Eq Ne Lt Le Gt Ge], O => {
            sink.binary(move |x, y| cmp_op_lane(O, x, y, t))
        }),
        MachSem::Select => sink.ternary(|m, x, y| if m != 0 { x } else { y }),
        MachSem::ExtendTo | MachSem::TruncTo | MachSem::Reinterpret | MachSem::Splat => {
            sink.unary(wrap_lane(result))
        }
        MachSem::SatCastTo => sink.unary(move |x| result.saturate(x)),
        MachSem::PackSatSignedTo => {
            let signed = t.with_signed();
            sink.unary(move |x| result.saturate(signed.wrap(x)))
        }
        MachSem::Fpir(op) => fpir_lanes(op, tys, result, sink),
        MachSem::MulHigh => {
            let bits = t.bits();
            sink.binary(move |x, y| result.wrap((x * y) >> bits))
        }
        // The widening width constraint is a shape check; the lane
        // arithmetic is the non-widening form's. Wrapping at i128 for the
        // same reason as `BinOp::Mul` in `bin_op_lane`: 64-bit lane
        // extremes overflow the raw product, and `wrap` only reads its low
        // bits.
        MachSem::MulAcc | MachSem::WideningMulAcc => {
            sink.ternary(move |c, x, y| result.wrap(c.wrapping_add(x.wrapping_mul(y))))
        }
        MachSem::MulPairsAdd => {
            sink.wide(move |xs, i| result.wrap(xs[0][i] * xs[1][i] + xs[2][i] * xs[3][i]))
        }
        MachSem::Mpa => {
            sink.wide(move |xs, i| result.wrap(xs[0][i] * xs[2][i] + xs[1][i] * xs[3][i]))
        }
        MachSem::MpaAcc => sink
            .wide(move |xs, i| result.wrap(xs[0][i] + xs[1][i] * xs[3][i] + xs[2][i] * xs[4][i])),
        MachSem::DotAcc4 => sink.wide(move |xs, i| {
            let mut acc = xs[0][i];
            for k in 0..4 {
                acc += xs[1 + k][i] * xs[5 + k][i];
            }
            result.wrap(acc)
        }),
        MachSem::ShrRndSatNarrow => {
            let tys2 = [t, tys[1]];
            sink.binary(move |x, y| {
                result.saturate(fpir_op_lane(FpirOp::RoundingShr, &[x, y], &tys2, t))
            })
        }
        MachSem::ShrNarrow => {
            let shr = bin_lane!(BinOp::Shr, t);
            sink.binary(move |x, y| result.wrap(shr(x, y)))
        }
        MachSem::QRDMulH => {
            let shift = t.bits() as i128 - 1;
            sink.binary(move |x, y| {
                fpir_op_lane(FpirOp::RoundingMulShr, &[x, y, shift], &[t, t, t], result)
            })
        }
    }
}

/// `Bin(op)` at operand type `t`.
fn bin_lanes<S: LaneSink>(op: BinOp, t: ScalarType, sink: S) -> S::Out {
    bin_ops!(op, O => sink.binary(bin_lane!(O, t)))
}

/// A wrapping conversion to `result` (`ExtendTo`/`TruncTo`/`Reinterpret`/
/// `Splat`).
fn wrap_lane(result: ScalarType) -> impl Fn(i128) -> i128 + Lane {
    move |x| result.wrap(x)
}

/// `Fpir(op)` at the op's own arity, each arm with its op literal.
fn fpir_lanes<S: LaneSink>(op: FpirOp, tys: &[ScalarType], result: ScalarType, sink: S) -> S::Out {
    macro_rules! lanes {
        (1, $op:expr) => {{
            let ta = [tys[0]];
            sink.unary(move |x| fpir_op_lane($op, &[x], &ta, result))
        }};
        (2, $op:expr) => {{
            let ta = [tys[0], tys[1]];
            sink.binary(move |x, y| fpir_op_lane($op, &[x, y], &ta, result))
        }};
        (3, $op:expr) => {{
            let ta = [tys[0], tys[1], tys[2]];
            sink.ternary(move |x, y, z| fpir_op_lane($op, &[x, y, z], &ta, result))
        }};
    }
    macro_rules! by_arity {
        ($($n:tt: $($v:ident)*;)*) => {
            match op {
                FpirOp::SaturatingCast(to) => lanes!(1, FpirOp::SaturatingCast(to)),
                $($(FpirOp::$v => lanes!($n, FpirOp::$v),)*)*
            }
        };
    }
    by_arity! {
        1: Abs SaturatingNarrow;
        2: WideningAdd WideningSub WideningMul WideningShl WideningShr ExtendingAdd ExtendingSub
           ExtendingMul Absd SaturatingAdd SaturatingSub HalvingAdd HalvingSub RoundingHalvingAdd
           RoundingShl RoundingShr SaturatingShl;
        3: MulShr RoundingMulShr;
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
    let ct = c_tys[0];
    match c_sem {
        MachSem::Bin(BinOp::Mul) => p.lane_wise(Into2 { c: bin_lane!(BinOp::Mul, ct), k }),
        MachSem::Bin(op) => bin_ops!(op, O => p.mul_class(Into2 { c: bin_lane!(O, ct), k })),
        MachSem::ExtendTo | MachSem::TruncTo | MachSem::Reinterpret | MachSem::Splat => {
            p.mul_class(Into1(wrap_lane(c_result)))
        }
        _ => None,
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
            MachSem::Bin(BinOp::Mul) => into.binary(bin_lane!(BinOp::Mul, self.tys[0])),
            MachSem::Fpir(op) => fpir_lanes(op, self.tys, self.result, into),
            _ => None,
        }
    }

    /// Every lane-wise producer, which a `Bin(Mul)` consumer absorbs.
    fn lane_wise<S: LaneSink<Out = Option<SemSliceFn>>>(&self, into: S) -> Option<SemSliceFn> {
        match self.sem {
            MachSem::Bin(op) => bin_lanes(op, self.tys[0], into),
            MachSem::ExtendTo | MachSem::TruncTo | MachSem::Reinterpret | MachSem::Splat => {
                into.unary(wrap_lane(self.result))
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

    #[test]
    fn literal_ops_match_runtime_op_helpers() {
        // The op-list macros hand each lane closure a *literal* op. A slip
        // there (`Sub` mapped to `Add`, an FPIR op at the wrong arity)
        // would make the table disagree with the lane helpers called on
        // the *runtime* op — checked here for every op through the
        // whole-vector evaluator, the compiled strip, and the
        // captured-constant strip at every operand position.
        let mut state: u64 = 0x1319_8a2e_0370_7344;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 16) as i128
        };
        const LANES: usize = 8;
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
        let sems: Vec<MachSem> = bins
            .map(MachSem::Bin)
            .into_iter()
            .chain(cmps.map(MachSem::Cmp))
            .chain(fpirs.map(MachSem::Fpir))
            .collect();
        let runtime_op = |sem: MachSem, xs: &[i128], tys: &[S], result: S| match sem {
            MachSem::Bin(op) => bin_op_lane(op, xs[0], xs[1], tys[0]),
            MachSem::Cmp(op) => cmp_op_lane(op, xs[0], xs[1], tys[0]),
            MachSem::Fpir(op) => fpir_op_lane(op, xs, tys, result),
            _ => unreachable!(),
        };
        let run = |f: SemSliceFn, args: &[Vec<i128>]| {
            let slices: Vec<&[i128]> = args.iter().map(|a| a.as_slice()).collect();
            let mut out = vec![0i128; LANES];
            f(&slices, &mut out);
            out
        };
        let t = S::I16;
        for sem in sems {
            // A narrower FPIR result type, so saturating and wrapping ops
            // clip; operand 0 starts with the type's extremes.
            let result = if matches!(sem, MachSem::Fpir(_)) { S::I8 } else { t };
            let tys = vec![t; sem.arity()];
            let edge = [t.min_value(), t.max_value(), 0, -1];
            let args: Vec<Vec<i128>> = (0..tys.len())
                .map(|j| {
                    (0..LANES)
                        .map(|i| if j == 0 && i < 4 { edge[i] } else { t.wrap(next()) })
                        .collect()
                })
                .collect();
            let want = |args: &[Vec<i128>]| -> Vec<i128> {
                (0..LANES)
                    .map(|i| {
                        let xs: Vec<i128> = args.iter().map(|a| a[i]).collect();
                        runtime_op(sem, &xs, &tys, result)
                    })
                    .collect()
            };
            let values: Vec<Value> =
                args.iter().map(|a| Value::new(V::new(t, LANES as u32), a.clone())).collect();
            let refs: Vec<&Value> = values.iter().collect();
            let mut whole = Vec::new();
            eval_sem_into(sem, &refs, V::new(result, LANES as u32), &mut whole).unwrap();
            assert_eq!(whole, want(&args), "{sem:?} eval_sem_into");
            assert_eq!(run(sem_slice_fn(sem, &tys, result), &args), want(&args), "{sem:?} strip");
            for k in 0..tys.len() {
                let c = t.wrap(next());
                let mut with_c = args.clone();
                with_c[k] = vec![c; LANES];
                let splat = sem_slice_fn_splat(sem, &tys, result, k, c)
                    .unwrap_or_else(|| panic!("{sem:?}: no captured loop at operand {k}"));
                assert_eq!(run(splat, &with_c), want(&with_c), "{sem:?} splat at operand {k}");
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
