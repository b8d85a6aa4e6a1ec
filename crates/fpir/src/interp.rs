//! Reference interpreter for fixed-point expressions.
//!
//! This module is the *semantic ground truth* of the repository: rewrite
//! rules, instruction selections and machine programs are all judged
//! correct by agreeing with [`eval`] on concrete inputs.
//!
//! All lane arithmetic is performed in `i128` (wide enough to hold any
//! intermediate this IR can produce) and then wrapped or saturated into the
//! result type. Division rounds toward negative infinity and division by
//! zero yields zero, following Halide. Shift counts are read as signed lane
//! values; a negative count shifts the other way, and counts are clamped to
//! the operand's doubled bit width (so "shift everything out" is
//! well-defined rather than undefined behaviour).

use crate::expr::{BinOp, CmpOp, Expr, ExprKind, FpirOp};
use crate::machine::MachEval;
use crate::types::{ScalarType, VectorType};
use std::collections::HashMap;
use std::fmt;

/// A concrete vector value: one `i128` per lane, interpreted in `ty`.
///
/// Invariant: every lane is representable in `ty.elem` and
/// `lanes.len() == ty.lanes`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Value {
    ty: VectorType,
    lanes: Vec<i128>,
}

impl Value {
    /// Build a value from explicit lanes.
    ///
    /// # Panics
    ///
    /// Panics if the lane count mismatches `ty` or a lane is out of range —
    /// this is an internal invariant, not an input-validation path.
    pub fn new(ty: VectorType, lanes: Vec<i128>) -> Value {
        assert_eq!(lanes.len(), ty.lanes as usize, "lane count must match {ty}");
        for &v in &lanes {
            assert!(ty.elem.contains(v), "lane value {v} out of range for {ty}");
        }
        Value { ty, lanes }
    }

    /// Broadcast a single value across all lanes.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not representable in `ty`'s element type.
    pub fn splat(v: i128, ty: VectorType) -> Value {
        Value::new(ty, vec![v; ty.lanes as usize])
    }

    /// Build from typed lanes, wrapping each into range first.
    pub fn wrapped(ty: VectorType, lanes: impl IntoIterator<Item = i128>) -> Value {
        let lanes: Vec<i128> = lanes.into_iter().map(|v| ty.elem.wrap(v)).collect();
        Value::new(ty, lanes)
    }

    /// The value's type.
    pub fn ty(&self) -> VectorType {
        self.ty
    }

    /// Lane values.
    pub fn lanes(&self) -> &[i128] {
        &self.lanes
    }

    /// A single lane.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn lane(&self, i: usize) -> i128 {
        self.lanes[i]
    }

    /// Build a value from lanes already known to satisfy the invariant
    /// (verified in debug builds only).
    ///
    /// The linked execution engine (`fpir-sim`) uses this on its hot
    /// paths, where the lanes come from sources that uphold the invariant
    /// by construction: instruction semantics wrap or saturate into the
    /// result type, and image samples are range-checked when written.
    pub fn trusted(ty: VectorType, lanes: Vec<i128>) -> Value {
        debug_assert_eq!(lanes.len(), ty.lanes as usize, "lane count must match {ty}");
        debug_assert!(
            lanes.iter().all(|&v| ty.elem.contains(v)),
            "lane value out of range for {ty}"
        );
        Value { ty, lanes }
    }

    /// Consume the value, returning its lane buffer for reuse.
    ///
    /// This is the recycling hook of the linked execution engine
    /// (`fpir-sim`): a dead register's backing allocation is handed back
    /// and refilled by a later instruction instead of being freed and
    /// reallocated.
    pub fn into_lanes(self) -> Vec<i128> {
        self.lanes
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[", self.ty)?;
        for (i, v) in self.lanes.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

/// Variable bindings for evaluation.
#[derive(Debug, Clone, Default)]
pub struct Env {
    vars: HashMap<String, Value>,
}

impl Env {
    /// An empty environment.
    pub fn new() -> Env {
        Env::default()
    }

    /// Bind a variable, returning `self` for chaining.
    pub fn bind(mut self, name: impl Into<String>, value: Value) -> Env {
        self.vars.insert(name.into(), value);
        self
    }

    /// Insert a binding in place.
    pub fn insert(&mut self, name: impl Into<String>, value: Value) {
        self.vars.insert(name.into(), value);
    }

    /// Look up a binding.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.vars.get(name)
    }
}

impl<S: Into<String>> FromIterator<(S, Value)> for Env {
    fn from_iter<T: IntoIterator<Item = (S, Value)>>(iter: T) -> Env {
        Env { vars: iter.into_iter().map(|(k, v)| (k.into(), v)).collect() }
    }
}

/// Evaluation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A free variable had no binding.
    UnboundVar(String),
    /// A binding's type differed from the variable's declared type.
    VarTypeMismatch {
        /// Variable name.
        name: String,
        /// Type declared in the expression.
        declared: VectorType,
        /// Type of the bound value.
        bound: VectorType,
    },
    /// A machine node was hit without a [`MachEval`] hook, or the hook
    /// rejected the instruction.
    Machine(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundVar(n) => write!(f, "unbound variable `{n}`"),
            EvalError::VarTypeMismatch { name, declared, bound } => {
                write!(f, "variable `{name}` declared as {declared} but bound to a {bound} value")
            }
            EvalError::Machine(m) => write!(f, "machine instruction: {m}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Evaluate an expression with no machine-instruction hook.
///
/// # Errors
///
/// Fails on unbound variables, mistyped bindings, or machine nodes.
pub fn eval(expr: &Expr, env: &Env) -> Result<Value, EvalError> {
    eval_with(expr, env, None)
}

/// Evaluate an expression, executing machine nodes through `mach`.
///
/// Each node is evaluated by recursing into the children and then applying
/// the root operation via [`apply_root`] — the same single-op entry point
/// incremental callers (the synthesis bank) use, so the two can never
/// disagree.
///
/// # Errors
///
/// Fails on unbound variables, mistyped bindings, or machine nodes the hook
/// rejects.
pub fn eval_with(expr: &Expr, env: &Env, mach: Option<&dyn MachEval>) -> Result<Value, EvalError> {
    match expr.kind() {
        ExprKind::Var(_) | ExprKind::Const(_) => apply_root(expr, &[], env, mach),
        // Machine nodes are handled here rather than through `apply_root`
        // so the evaluator hook receives the owned child values without a
        // re-clone (rule verification evaluates machine code heavily).
        ExprKind::Mach(op, args) => {
            let hook = mach
                .ok_or_else(|| EvalError::Machine(format!("no evaluator provided for `{op}`")))?;
            let vals: Vec<Value> =
                args.iter().map(|a| eval_with(a, env, mach)).collect::<Result<_, _>>()?;
            hook.eval_mach(*op, &vals, expr.ty()).map_err(EvalError::Machine)
        }
        _ => {
            let vals: Vec<Value> = expr
                .children()
                .into_iter()
                .map(|c| eval_with(c, env, mach))
                .collect::<Result<_, _>>()?;
            let refs: Vec<&Value> = vals.iter().collect();
            apply_root(expr, &refs, env, mach)
        }
    }
}

/// Apply only the *root* operation of `expr` to already-evaluated child
/// values, in child order.
///
/// This is the single-op-over-values entry point that makes evaluation
/// *incremental*: a caller holding the outputs of an expression's children
/// (for instance the synthesis candidate bank, which caches one output
/// [`Value`] per sample environment for every enumerated sub-candidate)
/// can price a newly-combined candidate in O(lanes) instead of re-walking
/// the whole tree through [`eval`]. [`eval_with`] itself is implemented on
/// top of this function, so the incremental and whole-tree semantics are
/// one code path.
///
/// Leaves take no child values: a `Var` reads `env`, a `Const` splats.
///
/// # Errors
///
/// As [`eval_with`]; additionally any machine node is rejected when no
/// hook is supplied.
///
/// # Panics
///
/// Panics if `args.len()` differs from the node's arity, or if a child
/// value's lane count disagrees with the node's type — caller invariants,
/// not input validation.
pub fn apply_root(
    expr: &Expr,
    args: &[&Value],
    env: &Env,
    mach: Option<&dyn MachEval>,
) -> Result<Value, EvalError> {
    assert_eq!(args.len(), expr.arity(), "apply_root needs one value per operand");
    let ty = expr.ty();
    match expr.kind() {
        ExprKind::Var(name) => {
            let v = env.get(name).ok_or_else(|| EvalError::UnboundVar(name.clone()))?;
            if v.ty() != ty {
                return Err(EvalError::VarTypeMismatch {
                    name: name.clone(),
                    declared: ty,
                    bound: v.ty(),
                });
            }
            Ok(v.clone())
        }
        ExprKind::Const(v) => Ok(Value::splat(*v, ty)),
        ExprKind::Bin(op, ..) => {
            Ok(lanewise2(ty, args[0], args[1], |x, y| bin_op_lane(*op, x, y, ty.elem)))
        }
        ExprKind::Cmp(op, a, _) => {
            let elem = a.elem();
            Ok(lanewise2(ty, args[0], args[1], |x, y| cmp_op_lane(*op, x, y, elem)))
        }
        ExprKind::Select(..) => {
            let (c, t, f) = (args[0], args[1], args[2]);
            let lanes = (0..ty.lanes as usize)
                .map(|i| if c.lane(i) != 0 { t.lane(i) } else { f.lane(i) })
                .collect();
            Ok(Value::new(ty, lanes))
        }
        ExprKind::Cast(_) | ExprKind::Reinterpret(_) => {
            Ok(lanewise1(ty, args[0], |x| ty.elem.wrap(x)))
        }
        ExprKind::Fpir(op, fargs) => {
            let arg_tys: Vec<ScalarType> = fargs.iter().map(|a| a.elem()).collect();
            let lanes = (0..ty.lanes as usize)
                .map(|i| {
                    let xs: Vec<i128> = args.iter().map(|v| v.lane(i)).collect();
                    fpir_op_lane(*op, &xs, &arg_tys, ty.elem)
                })
                .collect();
            Ok(Value::new(ty, lanes))
        }
        ExprKind::Mach(op, _) => {
            let hook = mach
                .ok_or_else(|| EvalError::Machine(format!("no evaluator provided for `{op}`")))?;
            let vals: Vec<Value> = args.iter().map(|&v| v.clone()).collect();
            hook.eval_mach(*op, &vals, ty).map_err(EvalError::Machine)
        }
    }
}

fn lanewise1(ty: VectorType, a: &Value, f: impl Fn(i128) -> i128) -> Value {
    Value::new(ty, a.lanes().iter().map(|&x| f(x)).collect())
}

fn lanewise2(ty: VectorType, a: &Value, b: &Value, f: impl Fn(i128, i128) -> i128) -> Value {
    Value::new(ty, a.lanes().iter().zip(b.lanes()).map(|(&x, &y)| f(x, y)).collect())
}

/// Shift `v` left by `count` bits (`count` already clamped by callers),
/// treating the operation on the `u128` bit pattern so large counts cannot
/// overflow.
#[inline]
fn shl_bits(v: i128, count: u32) -> i128 {
    if count >= 128 {
        0
    } else {
        ((v as u128) << count) as i128
    }
}

/// Arithmetic shift right (sign-filling); counts ≥ 127 resolve to 0 / -1.
#[inline]
fn shr_bits(v: i128, count: u32) -> i128 {
    v >> count.min(127)
}

/// Floor division: rounds toward negative infinity, `x / 0 == 0`.
#[inline]
pub fn floor_div(x: i128, y: i128) -> i128 {
    if y == 0 {
        return 0;
    }
    let q = x / y;
    if (x % y != 0) && ((x < 0) != (y < 0)) {
        q - 1
    } else {
        q
    }
}

/// Floor remainder: `x - floor_div(x, y) * y`, with `x % 0 == 0`.
#[inline]
pub fn floor_mod(x: i128, y: i128) -> i128 {
    if y == 0 {
        return 0;
    }
    x - floor_div(x, y) * y
}

/// One lane of a primitive binary op, in the element type `elem`.
///
/// Exposed as the oracle the `fpir-isa` lane table's type-specialized
/// kernels are tested against.
#[inline]
pub fn bin_op_lane(op: BinOp, x: i128, y: i128, elem: ScalarType) -> i128 {
    let b = elem.bits();
    let wrapped = |v: i128| elem.wrap(v);
    match op {
        BinOp::Add => wrapped(x + y),
        BinOp::Sub => wrapped(x - y),
        // Wrapping at i128: a u64 extreme squared exceeds i128::MAX, and
        // `wrap` to a <= 64-bit lane only reads the product's low bits,
        // which `wrapping_mul` preserves exactly.
        BinOp::Mul => wrapped(x.wrapping_mul(y)),
        BinOp::Div => wrapped(floor_div(x, y)),
        BinOp::Mod => wrapped(floor_mod(x, y)),
        BinOp::Min => x.min(y),
        BinOp::Max => x.max(y),
        BinOp::Shl => wrapped(shift_lane(x, y, b as i128)),
        BinOp::Shr => wrapped(shift_lane(x, -y.clamp(-256, 256), b as i128)),
        BinOp::And => wrapped(x & y),
        BinOp::Or => wrapped(x | y),
        BinOp::Xor => wrapped(x ^ y),
    }
}

/// Shift `x` left by `count` (negative counts shift right, sign-filling),
/// with the magnitude clamped to `2 * bits`.
#[inline]
fn shift_lane(x: i128, count: i128, bits: i128) -> i128 {
    let c = count.clamp(-2 * bits, 2 * bits);
    if c >= 0 {
        shl_bits(x, c as u32)
    } else {
        shr_bits(x, (-c) as u32)
    }
}

/// One lane of a comparison, producing 0 or 1. `elem` is the operand type
/// (unused for the comparison itself — lane values already carry sign).
#[inline]
pub fn cmp_op_lane(op: CmpOp, x: i128, y: i128, _elem: ScalarType) -> i128 {
    let r = match op {
        CmpOp::Eq => x == y,
        CmpOp::Ne => x != y,
        CmpOp::Lt => x < y,
        CmpOp::Le => x <= y,
        CmpOp::Gt => x > y,
        CmpOp::Ge => x >= y,
    };
    r as i128
}

/// One lane of an FPIR instruction.
///
/// `arg_tys` are the operand element types and `result` the instruction's
/// result element type (as computed by [`crate::expr::Expr::fpir`]). The
/// computation is exact in `i128` (a 64-bit product for `MulShr` /
/// `RoundingMulShr` in `u128`, see [`mul_shr_exact`]) and then wrapped or
/// saturated per the instruction's documented semantics. Exposed as the
/// oracle of the `fpir-isa` lane table, as [`bin_op_lane`] is.
#[inline]
pub fn fpir_op_lane(op: FpirOp, xs: &[i128], arg_tys: &[ScalarType], result: ScalarType) -> i128 {
    let bits = arg_tys[0].bits() as i128;
    match op {
        FpirOp::WideningAdd => result.wrap(xs[0] + xs[1]),
        FpirOp::WideningSub => result.wrap(xs[0] - xs[1]),
        // Wrapping for the reason `BinOp::Mul` wraps.
        FpirOp::WideningMul => result.wrap(xs[0].wrapping_mul(xs[1])),
        FpirOp::WideningShl => result.wrap(shift_lane(xs[0], xs[1], bits)),
        FpirOp::WideningShr => result.wrap(shift_lane(xs[0], -xs[1].clamp(-256, 256), bits)),
        FpirOp::ExtendingAdd => result.wrap(xs[0] + xs[1]),
        FpirOp::ExtendingSub => result.wrap(xs[0] - xs[1]),
        FpirOp::ExtendingMul => result.wrap(xs[0].wrapping_mul(xs[1])),
        FpirOp::Abs => xs[0].abs(),
        FpirOp::Absd => (xs[0] - xs[1]).abs(),
        FpirOp::SaturatingCast(t) => t.saturate(xs[0]),
        FpirOp::SaturatingNarrow => result.saturate(xs[0]),
        FpirOp::SaturatingAdd => result.saturate(xs[0] + xs[1]),
        FpirOp::SaturatingSub => result.saturate(xs[0] - xs[1]),
        FpirOp::HalvingAdd => result.wrap(floor_div(xs[0] + xs[1], 2)),
        FpirOp::HalvingSub => result.wrap(floor_div(xs[0] - xs[1], 2)),
        FpirOp::RoundingHalvingAdd => result.wrap(floor_div(xs[0] + xs[1] + 1, 2)),
        FpirOp::RoundingShl => rounding_shift(xs[0], xs[1], bits, result),
        FpirOp::RoundingShr => rounding_shift(xs[0], -xs[1].clamp(-256, 256), bits, result),
        FpirOp::MulShr => {
            result.saturate(mul_shr_exact(xs[0], xs[1], xs[2].clamp(0, 2 * bits) as u32, false))
        }
        FpirOp::RoundingMulShr => {
            result.saturate(mul_shr_exact(xs[0], xs[1], xs[2].clamp(0, 2 * bits) as u32, true))
        }
        FpirOp::SaturatingShl => result.saturate(exact_shift(xs[0], xs[1].clamp(-bits, bits))),
    }
}

/// Exact value of `x * 2^count` for `count ≥ 0` (saturating at the `i128`
/// limits, which is far outside any lane range, so downstream saturation
/// still decides correctly), or `floor(x / 2^-count)` for negative counts.
#[inline]
fn exact_shift(x: i128, count: i128) -> i128 {
    if count >= 0 {
        let c = count.min(126) as u32;
        match x.checked_mul(1i128 << c) {
            Some(v) if count == c as i128 => v,
            _ if x > 0 => i128::MAX,
            _ if x < 0 => i128::MIN,
            _ => 0,
        }
    } else {
        shr_bits(x, (-count) as u32)
    }
}

/// Rounding shift: left for positive counts, right-with-rounding for
/// negative counts; the exact result is saturated into `result`. Counts are
/// clamped to the lane width (no hardware shifts further, and this keeps
/// the direct and compositional semantics in exact agreement).
#[inline]
fn rounding_shift(x: i128, count: i128, bits: i128, result: ScalarType) -> i128 {
    let c = count.clamp(-bits, bits);
    if c >= 0 {
        result.saturate(exact_shift(x, c))
    } else {
        result.saturate(rounded_shr(x, (-c) as u32))
    }
}

/// `floor((x + 2^(s-1)) / 2^s)` — round-half-up right shift; `s == 0` is `x`.
#[inline]
fn rounded_shr(x: i128, s: u32) -> i128 {
    if s == 0 {
        x
    } else if s >= 127 {
        // The rounding term can no longer be formed exactly; everything
        // shifts out, leaving the sign.
        shr_bits(x, 127)
    } else {
        shr_bits(x + (1i128 << (s - 1)), s)
    }
}

/// `x * y` shifted right by `s` — floored, or, when `round`, rounded half
/// up (`floor((p + 2^(s-1)) / 2^s)`; shifts of 127 or more floor) — with
/// the product formed exactly: two 64-bit unsigned lanes multiply past
/// `i128::MAX`, so a product of two non-negative lanes is formed in
/// `u128`. A result above `i128::MAX` (only for a shift of 0 or 1)
/// saturates there, far outside any lane range, so downstream saturation
/// still decides correctly. This is the lane arithmetic of `MulShr` and
/// `RoundingMulShr`, exposed so the `fpir-isa` lane table can run it for
/// 64-bit lanes.
#[inline]
pub fn mul_shr_exact(x: i128, y: i128, s: u32, round: bool) -> i128 {
    if x < 0 || y < 0 {
        // A negative factor is a signed lane of at most 64 bits, so the
        // product's magnitude stays below 2^127.
        let p = x * y;
        return if round { rounded_shr(p, s) } else { shr_bits(p, s) };
    }
    let p = (x as u128) * (y as u128);
    let q = match s {
        // `floor((p + 2^(s-1)) / 2^s)` without forming the sum, which can
        // overflow `u128`: the rounding term adds the last bit shifted out.
        1..=126 if round => (p >> s) + ((p >> (s - 1)) & 1),
        // As `shr_bits` and `rounded_shr` for the `i128` products: from
        // 127 on, a floor shift.
        _ => p.checked_shr(s).unwrap_or(0),
    };
    q.min(i128::MAX as u128) as i128
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::*;
    use crate::types::{ScalarType as S, VectorType as V};

    fn v8(vals: &[i128]) -> Value {
        Value::new(V::new(S::U8, vals.len() as u32), vals.to_vec())
    }

    #[test]
    fn floor_div_rounds_down() {
        assert_eq!(floor_div(7, 2), 3);
        assert_eq!(floor_div(-7, 2), -4);
        assert_eq!(floor_div(7, -2), -4);
        assert_eq!(floor_div(-7, -2), 3);
        assert_eq!(floor_div(5, 0), 0);
    }

    #[test]
    fn floor_mod_matches_div() {
        for x in -10i128..=10 {
            for y in -4i128..=4 {
                if y != 0 {
                    assert_eq!(floor_div(x, y) * y + floor_mod(x, y), x);
                    assert!(floor_mod(x, y).abs() < y.abs());
                }
            }
        }
    }

    #[test]
    fn widening_add_is_exact() {
        let t = V::new(S::U8, 2);
        let e = widening_add(var("a", t), var("b", t));
        let env = Env::new().bind("a", v8(&[250, 3])).bind("b", v8(&[250, 4]));
        let r = eval(&e, &env).unwrap();
        assert_eq!(r.lanes(), &[500, 7]);
        assert_eq!(r.ty(), V::new(S::U16, 2));
    }

    #[test]
    fn widening_sub_goes_signed() {
        let t = V::new(S::U8, 1);
        let e = widening_sub(var("a", t), var("b", t));
        let env = Env::new().bind("a", v8(&[3])).bind("b", v8(&[200]));
        assert_eq!(eval(&e, &env).unwrap().lanes(), &[-197]);
    }

    #[test]
    fn halving_add_rounds_down_and_up() {
        let t = V::new(S::U8, 1);
        let env = Env::new().bind("a", v8(&[3])).bind("b", v8(&[4]));
        let down = halving_add(var("a", t), var("b", t));
        let up = rounding_halving_add(var("a", t), var("b", t));
        assert_eq!(eval(&down, &env).unwrap().lanes(), &[3]);
        assert_eq!(eval(&up, &env).unwrap().lanes(), &[4]);
    }

    #[test]
    fn halving_add_never_overflows() {
        let t = V::new(S::U8, 1);
        let env = Env::new().bind("a", v8(&[255])).bind("b", v8(&[255]));
        let e = rounding_halving_add(var("a", t), var("b", t));
        assert_eq!(eval(&e, &env).unwrap().lanes(), &[255]);
    }

    #[test]
    fn halving_sub_wraps_like_arm_uhsub() {
        let t = V::new(S::U8, 1);
        let env = Env::new().bind("a", v8(&[1])).bind("b", v8(&[2]));
        let e = halving_sub(var("a", t), var("b", t));
        // (1 - 2) / 2 rounds to -1, which wraps to 255 in u8.
        assert_eq!(eval(&e, &env).unwrap().lanes(), &[255]);
    }

    #[test]
    fn saturating_ops_saturate() {
        let t = V::new(S::I8, 1);
        let mk = |v: i128| Value::new(t, vec![v]);
        let env = Env::new().bind("a", mk(100)).bind("b", mk(100));
        assert_eq!(eval(&saturating_add(var("a", t), var("b", t)), &env).unwrap().lanes(), &[127]);
        let env = Env::new().bind("a", mk(-100)).bind("b", mk(100));
        assert_eq!(eval(&saturating_sub(var("a", t), var("b", t)), &env).unwrap().lanes(), &[-128]);
    }

    #[test]
    fn absd_is_unsigned_distance() {
        let t = V::new(S::I8, 2);
        let a = Value::new(t, vec![-128, 5]);
        let b = Value::new(t, vec![127, 7]);
        let e = absd(var("a", t), var("b", t));
        let env = Env::new().bind("a", a).bind("b", b);
        let r = eval(&e, &env).unwrap();
        assert_eq!(r.ty(), V::new(S::U8, 2));
        assert_eq!(r.lanes(), &[255, 2]);
    }

    #[test]
    fn rounding_shr_rounds_half_up() {
        let t = V::new(S::I16, 4);
        let x = Value::new(t, vec![5, 6, -5, -6]);
        let s = Value::new(t, vec![1, 1, 1, 1]);
        let e = rounding_shr(var("x", t), var("s", t));
        let env = Env::new().bind("x", x).bind("s", s);
        // floor((x + 1) / 2): halves round toward +inf.
        assert_eq!(eval(&e, &env).unwrap().lanes(), &[3, 3, -2, -3]);
    }

    #[test]
    fn rounding_shl_saturates() {
        let t = V::new(S::U8, 1);
        let env = Env::new().bind("x", v8(&[200])).bind("s", v8(&[1]));
        let e = rounding_shl(var("x", t), var("s", t));
        assert_eq!(eval(&e, &env).unwrap().lanes(), &[255]);
    }

    #[test]
    fn mul_shr_matches_high_multiply() {
        let t = V::new(S::I16, 1);
        let mk = |v: i128| Value::new(t, vec![v]);
        let e = mul_shr(var("x", t), var("y", t), constant(16, t));
        let env = Env::new().bind("x", mk(30000)).bind("y", mk(30000));
        // (30000 * 30000) >> 16 = 13732 (floor).
        assert_eq!(eval(&e, &env).unwrap().lanes(), &[13732]);
    }

    #[test]
    fn rounding_mul_shr_q15() {
        let t = V::new(S::I16, 2);
        let x = Value::new(t, vec![i16::MIN as i128, 16384]);
        let y = Value::new(t, vec![i16::MIN as i128, 16384]);
        let e = rounding_mul_shr(var("x", t), var("y", t), constant(15, t));
        let env = Env::new().bind("x", x).bind("y", y);
        // q15 multiply: (-1 * -1) saturates to 0.99997 (32767); 0.5*0.5 = 0.25.
        assert_eq!(eval(&e, &env).unwrap().lanes(), &[32767, 8192]);
    }

    #[test]
    fn mul_shr_forms_64_bit_products_exactly() {
        // (2^64 - 1)^2 overflows i128: the products are formed exactly, so
        // a shift by 64 leaves 2^64 - 2 (and rounding adds the top bit
        // shifted out, 1).
        let u = V::new(S::U64, 1);
        let i = V::new(S::I64, 1);
        let max = u64::MAX as i128;
        let (imin, imax) = (i64::MIN as i128, i64::MAX as i128);
        let cases = [
            (u, max, max, 64, max - 1, max - 1),
            (u, max, max, 0, max, max),
            (u, max, max, 128, 0, 0),
            (u, max, 1, 1, max >> 1, (max >> 1) + 1),
            (i, imin, imin, 63, imax, imax),
            (i, imin, imin, 64, 1i128 << 62, 1i128 << 62),
            (i, imin, imax, 64, (imin * imax) >> 64, ((imin * imax) >> 64) + 1),
            (i, imin, imax, 0, imin, imin),
            (i, imin, imax, 128, -1, -1),
        ];
        for (t, a, b, c, floor, rounded) in cases {
            let env = Env::new()
                .bind("a", Value::splat(a, t))
                .bind("b", Value::splat(b, t))
                .bind("c", Value::splat(t.elem.saturate(c), t));
            let (va, vb, vc) = (var("a", t), var("b", t), var("c", t));
            let got = eval(&mul_shr(va.clone(), vb.clone(), vc.clone()), &env).unwrap();
            assert_eq!(got.lanes(), &[floor], "mul_shr({a}, {b}, {c}) at {t}");
            let got = eval(&rounding_mul_shr(va, vb, vc), &env).unwrap();
            assert_eq!(got.lanes(), &[rounded], "rounding_mul_shr({a}, {b}, {c}) at {t}");
        }
    }

    #[test]
    fn shifts_with_extreme_counts_are_total() {
        let t = V::new(S::U16, 1);
        let mk = |v: i128| Value::new(t, vec![v]);
        let e = shl(var("x", t), var("s", t));
        let env = Env::new().bind("x", mk(1)).bind("s", mk(40000));
        assert_eq!(eval(&e, &env).unwrap().lanes(), &[0]);
        let e = shr(var("x", t), var("s", t));
        let env = Env::new().bind("x", mk(12345)).bind("s", mk(65535));
        assert_eq!(eval(&e, &env).unwrap().lanes(), &[0]);
    }

    #[test]
    fn negative_shift_counts_reverse_direction() {
        let t = V::new(S::I16, 1);
        let mk = |v: i128| Value::new(t, vec![v]);
        let e = shl(var("x", t), var("s", t));
        let env = Env::new().bind("x", mk(12)).bind("s", mk(-1));
        assert_eq!(eval(&e, &env).unwrap().lanes(), &[6]);
    }

    #[test]
    fn select_takes_nonzero_lanes() {
        let t = V::new(S::U8, 3);
        let c = Value::new(t, vec![0, 1, 2]);
        let a = Value::new(t, vec![10, 11, 12]);
        let b = Value::new(t, vec![20, 21, 22]);
        let e = select(var("c", t), var("a", t), var("b", t));
        let env = Env::new().bind("c", c).bind("a", a).bind("b", b);
        assert_eq!(eval(&e, &env).unwrap().lanes(), &[20, 11, 12]);
    }

    #[test]
    fn unbound_variable_errors() {
        let t = V::new(S::U8, 1);
        let e = var("missing", t);
        assert_eq!(eval(&e, &Env::new()), Err(EvalError::UnboundVar("missing".into())));
    }

    #[test]
    fn mistyped_binding_errors() {
        let t = V::new(S::U8, 1);
        let e = var("x", t);
        let env = Env::new().bind("x", Value::splat(0, V::new(S::U16, 1)));
        assert!(matches!(eval(&e, &env), Err(EvalError::VarTypeMismatch { .. })));
    }

    #[test]
    fn reinterpret_changes_interpretation_not_bits() {
        let t = V::new(S::U16, 1);
        let e = reinterpret(S::I16, var("x", t));
        let env = Env::new().bind("x", Value::splat(50000, t));
        assert_eq!(eval(&e, &env).unwrap().lanes(), &[50000 - 65536]);
    }

    #[test]
    fn abs_of_int_min_fits_unsigned() {
        let t = V::new(S::I8, 1);
        let e = abs(var("x", t));
        let env = Env::new().bind("x", Value::splat(-128, t));
        let r = eval(&e, &env).unwrap();
        assert_eq!(r.ty().elem, S::U8);
        assert_eq!(r.lanes(), &[128]);
    }
}
