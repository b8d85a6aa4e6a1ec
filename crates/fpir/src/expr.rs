//! The fixed-point vector expression IR.
//!
//! Expressions are immutable, reference-counted trees. Every node caches its
//! [`VectorType`], computed and checked at construction time. The node set
//! has three layers:
//!
//! * **primitive integer ops** — the arithmetic a C-like front end produces
//!   (add, mul, shifts, min/max, select, casts, …);
//! * **FPIR instructions** ([`FpirOp`]) — the portable fixed-point
//!   instruction set of Table 1 in the paper (plus `saturating_shl` from
//!   §8.4);
//! * **machine instructions** ([`crate::machine::MachOp`]) — target-specific
//!   opcodes that instruction selection lowers into. The `fpir` crate treats
//!   these as opaque; their semantics and costs live in the `fpir-isa` crate.
//!
//! Construction is done through the checked constructors on [`Expr`] (or the
//! terser helpers in [`crate::build`]); ill-typed trees are rejected with a
//! [`TypeError`].

use crate::identity::IdSet;
use crate::machine::MachOp;
use crate::types::{ScalarType, VectorType};
use std::fmt;
use std::sync::Arc;

/// Shared handle to an expression node.
pub type RcExpr = Arc<Expr>;

/// Binary primitive integer operators.
///
/// Both operands must have identical vector types, and the result has that
/// same type. Semantics (see [`crate::interp`]):
///
/// * `Add`/`Sub`/`Mul` wrap (two's complement).
/// * `Div`/`Mod` round toward negative infinity (Halide semantics) and
///   define division by zero as zero.
/// * `Shl`/`Shr` take a non-negative shift count; counts ≥ the bit width
///   shift everything out (`Shr` of a negative value fills with the sign).
///   Negative counts reverse the direction, as in Halide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Euclidean division (rounds toward negative infinity; `x / 0 == 0`).
    Div,
    /// Euclidean remainder (`x % 0 == 0`).
    Mod,
    /// Lane-wise minimum.
    Min,
    /// Lane-wise maximum.
    Max,
    /// Shift left (negative counts shift right).
    Shl,
    /// Shift right — arithmetic for signed lanes, logical for unsigned.
    Shr,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
}

impl BinOp {
    /// The operator's source-syntax token.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Min => "min",
            BinOp::Max => "max",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Xor => "^",
        }
    }

    /// True for `min`/`max`, which print as calls rather than infix.
    pub fn is_call_syntax(self) -> bool {
        matches!(self, BinOp::Min | BinOp::Max)
    }

    /// Whether `op(a, b) == op(b, a)` for all inputs.
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Mul | BinOp::Min | BinOp::Max | BinOp::And | BinOp::Or | BinOp::Xor
        )
    }
}

/// Lane-wise comparison operators.
///
/// Comparisons produce a lane of the *same* scalar type as the operands,
/// holding `1` where the comparison is true and `0` where it is false.
/// [`Expr::select`] treats any non-zero lane as true.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// The operator's source-syntax token.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// The comparison with swapped operands (`a < b` ⇔ `b > a`).
    pub fn swap(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

/// The portable fixed-point instruction set (Table 1 of the paper, plus the
/// §8.4 extension `saturating_shl`).
///
/// Each instruction is a fused composition of primitive integer operations;
/// [`crate::semantics::expand_fpir`] produces that composition and
/// [`crate::interp`] evaluates both forms. Type rules are enforced by
/// [`Expr::fpir`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FpirOp {
    /// `widen(x) + widen(y)` — exact double-width sum.
    WideningAdd,
    /// `widen_signed(x) - widen_signed(y)` — exact double-width *signed* difference.
    WideningSub,
    /// `widen(x) * widen(y)` — exact double-width product. Operand
    /// signedness may differ; the result is signed if either input is.
    WideningMul,
    /// `widen(x) << y` — double-width left shift.
    WideningShl,
    /// `widen(x) >> y` — double-width right shift.
    WideningShr,
    /// `x + widen(y)` where `x` has double the bits of `y`.
    ExtendingAdd,
    /// `x - widen(y)` where `x` has double the bits of `y`.
    ExtendingSub,
    /// `x * widen(y)` (wrapping in `x`'s type) where `x` has double the bits of `y`.
    ExtendingMul,
    /// `select(x > 0, x, -x)`; the output is always unsigned.
    Abs,
    /// `select(x > y, x - y, y - x)`; the output is always unsigned.
    Absd,
    /// `cast<t>(min(max(x, t.min()), t.max()))` — clamp then convert.
    SaturatingCast(ScalarType),
    /// `saturating_cast<type(x).narrow()>(x)`.
    SaturatingNarrow,
    /// `saturating_narrow(widening_add(x, y))`.
    SaturatingAdd,
    /// `saturating_cast<type(x)>(widening_sub(x, y))`.
    SaturatingSub,
    /// `narrow(widening_add(x, y) / 2)` — round-down averaging.
    HalvingAdd,
    /// `narrow((widen(x) - widen(y)) / 2)` — halving difference.
    HalvingSub,
    /// `narrow((widening_add(x, y) + 1) / 2)` — round-up averaging.
    RoundingHalvingAdd,
    /// Rounding shift left; negative counts shift right with rounding.
    /// `saturating_narrow(widening_add(widen2(x), select(y < 0, 1 << (-y - 1), 0)) << y)`.
    RoundingShl,
    /// Rounding shift right; `rounding_shr(x, y) == rounding_shl(x, -y)`.
    RoundingShr,
    /// `saturating_narrow(widening_mul(x, y) >> widen(z))`.
    MulShr,
    /// `saturating_narrow(rounding_shr(widening_mul(x, y), widen(z)))`.
    RoundingMulShr,
    /// `saturating_cast<type(x)>(widening_shl(x, y))` — §8.4 extension.
    SaturatingShl,
}

/// Every FPIR instruction, in Table 1 order (with `saturating_cast`
/// represented once per target type elsewhere; here the `u8` instance
/// stands in for the family).
pub const ALL_FPIR_OPS: [FpirOp; 22] = [
    FpirOp::ExtendingAdd,
    FpirOp::ExtendingSub,
    FpirOp::ExtendingMul,
    FpirOp::WideningAdd,
    FpirOp::WideningSub,
    FpirOp::WideningMul,
    FpirOp::WideningShl,
    FpirOp::WideningShr,
    FpirOp::Abs,
    FpirOp::Absd,
    FpirOp::SaturatingCast(ScalarType::U8),
    FpirOp::SaturatingNarrow,
    FpirOp::SaturatingAdd,
    FpirOp::SaturatingSub,
    FpirOp::HalvingAdd,
    FpirOp::HalvingSub,
    FpirOp::RoundingHalvingAdd,
    FpirOp::RoundingShl,
    FpirOp::RoundingShr,
    FpirOp::MulShr,
    FpirOp::RoundingMulShr,
    FpirOp::SaturatingShl,
];

impl FpirOp {
    /// Number of operands the instruction takes.
    pub fn arity(self) -> usize {
        match self {
            FpirOp::Abs | FpirOp::SaturatingCast(_) | FpirOp::SaturatingNarrow => 1,
            FpirOp::MulShr | FpirOp::RoundingMulShr => 3,
            _ => 2,
        }
    }

    /// The instruction's source-syntax name, e.g. `"widening_add"`.
    ///
    /// `SaturatingCast` prints with its type parameter via
    /// [`crate::printer`]; here it is the bare name.
    pub fn name(self) -> &'static str {
        match self {
            FpirOp::WideningAdd => "widening_add",
            FpirOp::WideningSub => "widening_sub",
            FpirOp::WideningMul => "widening_mul",
            FpirOp::WideningShl => "widening_shl",
            FpirOp::WideningShr => "widening_shr",
            FpirOp::ExtendingAdd => "extending_add",
            FpirOp::ExtendingSub => "extending_sub",
            FpirOp::ExtendingMul => "extending_mul",
            FpirOp::Abs => "abs",
            FpirOp::Absd => "absd",
            FpirOp::SaturatingCast(_) => "saturating_cast",
            FpirOp::SaturatingNarrow => "saturating_narrow",
            FpirOp::SaturatingAdd => "saturating_add",
            FpirOp::SaturatingSub => "saturating_sub",
            FpirOp::HalvingAdd => "halving_add",
            FpirOp::HalvingSub => "halving_sub",
            FpirOp::RoundingHalvingAdd => "rounding_halving_add",
            FpirOp::RoundingShl => "rounding_shl",
            FpirOp::RoundingShr => "rounding_shr",
            FpirOp::MulShr => "mul_shr",
            FpirOp::RoundingMulShr => "rounding_mul_shr",
            FpirOp::SaturatingShl => "saturating_shl",
        }
    }

    /// Whether swapping the first two operands leaves the result unchanged.
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            FpirOp::WideningAdd
                | FpirOp::WideningMul
                | FpirOp::Absd
                | FpirOp::SaturatingAdd
                | FpirOp::HalvingAdd
                | FpirOp::RoundingHalvingAdd
        )
    }
}

/// An expression-level type error.
///
/// Returned by the fallible constructors on [`Expr`] when operand types do
/// not satisfy an operator's typing rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeError {
    message: String,
}

impl TypeError {
    pub(crate) fn new(message: impl Into<String>) -> TypeError {
        TypeError { message: message.into() }
    }
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type error: {}", self.message)
    }
}

impl std::error::Error for TypeError {}

/// The payload of an expression node. See [`Expr`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ExprKind {
    /// A named input vector.
    Var(String),
    /// A broadcast constant: every lane holds `value`.
    Const(i128),
    /// Primitive binary integer operation.
    Bin(BinOp, RcExpr, RcExpr),
    /// Lane-wise comparison producing 0/1 lanes of the operand type.
    Cmp(CmpOp, RcExpr, RcExpr),
    /// Lane-wise select: non-zero condition lanes choose the second operand.
    Select(RcExpr, RcExpr, RcExpr),
    /// Lane-wise wrapping numeric conversion to a new element type.
    Cast(RcExpr),
    /// Bit reinterpretation to an element type of the same width.
    Reinterpret(RcExpr),
    /// An FPIR fixed-point instruction.
    Fpir(FpirOp, Vec<RcExpr>),
    /// A target machine instruction (post-lowering).
    Mach(MachOp, Vec<RcExpr>),
}

/// An immutable, typed expression node.
///
/// Build expressions with the checked constructors here or the helpers in
/// [`crate::build`]:
///
/// ```
/// use fpir::build::*;
/// use fpir::types::{ScalarType, VectorType};
///
/// let t = VectorType::new(ScalarType::U8, 16);
/// let (a, b) = (var("a", t), var("b", t));
/// let avg = rounding_halving_add(a, b);
/// assert_eq!(avg.ty(), t);
/// assert_eq!(avg.to_string(), "rounding_halving_add(a_u8, b_u8)");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Expr {
    kind: ExprKind,
    ty: VectorType,
}

impl Expr {
    /// The node payload.
    pub fn kind(&self) -> &ExprKind {
        &self.kind
    }

    /// The node's vector type.
    pub fn ty(&self) -> VectorType {
        self.ty
    }

    /// The node's element type (shorthand for `ty().elem`).
    pub fn elem(&self) -> ScalarType {
        self.ty.elem
    }

    /// A named input of the given type.
    pub fn var(name: impl Into<String>, ty: impl Into<VectorType>) -> RcExpr {
        Arc::new(Expr { kind: ExprKind::Var(name.into()), ty: ty.into() })
    }

    /// A broadcast constant.
    ///
    /// # Errors
    ///
    /// Fails if `value` is not representable in `ty`'s element type.
    pub fn constant(value: i128, ty: impl Into<VectorType>) -> Result<RcExpr, TypeError> {
        let ty = ty.into();
        if !ty.elem.contains(value) {
            return Err(TypeError::new(format!("constant {value} does not fit in {}", ty.elem)));
        }
        Ok(Arc::new(Expr { kind: ExprKind::Const(value), ty }))
    }

    /// A primitive binary operation. Operand types must match exactly,
    /// except that shift counts (`Shl`/`Shr`) may differ in signedness —
    /// the count lane is read as its own (possibly signed) value, and a
    /// negative count shifts the other way.
    ///
    /// # Errors
    ///
    /// Fails when the operand types differ (beyond the shift-count
    /// signedness allowance).
    pub fn bin(op: BinOp, a: RcExpr, b: RcExpr) -> Result<RcExpr, TypeError> {
        let compatible = if matches!(op, BinOp::Shl | BinOp::Shr) {
            a.ty().lanes == b.ty().lanes && a.elem().bits() == b.elem().bits()
        } else {
            a.ty() == b.ty()
        };
        if !compatible {
            return Err(TypeError::new(format!(
                "operands of `{}` must share a type, got {} and {}",
                op.symbol(),
                a.ty(),
                b.ty()
            )));
        }
        let ty = a.ty();
        Ok(Arc::new(Expr { kind: ExprKind::Bin(op, a, b), ty }))
    }

    /// A lane-wise comparison producing 0/1 lanes of the operand type.
    ///
    /// # Errors
    ///
    /// Fails when the operand types differ.
    pub fn cmp(op: CmpOp, a: RcExpr, b: RcExpr) -> Result<RcExpr, TypeError> {
        if a.ty() != b.ty() {
            return Err(TypeError::new(format!(
                "operands of `{}` must share a type, got {} and {}",
                op.symbol(),
                a.ty(),
                b.ty()
            )));
        }
        let ty = a.ty();
        Ok(Arc::new(Expr { kind: ExprKind::Cmp(op, a, b), ty }))
    }

    /// Lane-wise select. All three operands must share lane counts, the two
    /// value operands must share a type, and the condition must have the
    /// same lane count (any element type; non-zero means true).
    ///
    /// # Errors
    ///
    /// Fails on mismatched lane counts or value types.
    pub fn select(cond: RcExpr, on_true: RcExpr, on_false: RcExpr) -> Result<RcExpr, TypeError> {
        if on_true.ty() != on_false.ty() {
            return Err(TypeError::new(format!(
                "select arms must share a type, got {} and {}",
                on_true.ty(),
                on_false.ty()
            )));
        }
        if cond.ty().lanes != on_true.ty().lanes {
            return Err(TypeError::new(format!(
                "select condition has {} lanes but arms have {}",
                cond.ty().lanes,
                on_true.ty().lanes
            )));
        }
        let ty = on_true.ty();
        Ok(Arc::new(Expr { kind: ExprKind::Select(cond, on_true, on_false), ty }))
    }

    /// Lane-wise wrapping conversion to a new element type.
    pub fn cast(elem: ScalarType, arg: RcExpr) -> RcExpr {
        let ty = arg.ty().with_elem(elem);
        Arc::new(Expr { kind: ExprKind::Cast(arg), ty })
    }

    /// Bit reinterpretation to an element type of the same width.
    ///
    /// # Errors
    ///
    /// Fails when the widths differ.
    pub fn reinterpret(elem: ScalarType, arg: RcExpr) -> Result<RcExpr, TypeError> {
        if elem.bits() != arg.elem().bits() {
            return Err(TypeError::new(format!(
                "cannot reinterpret {} as {}: widths differ",
                arg.elem(),
                elem
            )));
        }
        let ty = arg.ty().with_elem(elem);
        Ok(Arc::new(Expr { kind: ExprKind::Reinterpret(arg), ty }))
    }

    /// An FPIR instruction. See [`FpirOp`] for per-op typing rules.
    ///
    /// # Errors
    ///
    /// Fails when the arity or operand types do not satisfy the
    /// instruction's typing rule (for instance `widening_add` on 64-bit
    /// lanes, which have no wider type).
    pub fn fpir(op: FpirOp, args: Vec<RcExpr>) -> Result<RcExpr, TypeError> {
        if args.len() != op.arity() {
            return Err(TypeError::new(format!(
                "{} takes {} operands, got {}",
                op.name(),
                op.arity(),
                args.len()
            )));
        }
        let ty = fpir_result_type(op, &args)?;
        Ok(Arc::new(Expr { kind: ExprKind::Fpir(op, args), ty }))
    }

    /// A machine instruction node with an explicit result type.
    ///
    /// The `fpir` crate does not check machine-instruction signatures; the
    /// `fpir-isa` crate validates them when programs are emitted.
    pub fn mach(op: MachOp, ty: VectorType, args: Vec<RcExpr>) -> RcExpr {
        Arc::new(Expr { kind: ExprKind::Mach(op, args), ty })
    }

    /// Number of children, without allocating.
    #[inline]
    pub fn arity(&self) -> usize {
        match &self.kind {
            ExprKind::Var(_) | ExprKind::Const(_) => 0,
            ExprKind::Cast(_) | ExprKind::Reinterpret(_) => 1,
            ExprKind::Bin(..) | ExprKind::Cmp(..) => 2,
            ExprKind::Select(..) => 3,
            ExprKind::Fpir(_, args) | ExprKind::Mach(_, args) => args.len(),
        }
    }

    /// The `i`-th child (operand order), without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.arity()`.
    #[inline]
    pub fn child(&self, i: usize) -> &RcExpr {
        match (&self.kind, i) {
            (ExprKind::Bin(_, a, _) | ExprKind::Cmp(_, a, _), 0) => a,
            (ExprKind::Bin(_, _, b) | ExprKind::Cmp(_, _, b), 1) => b,
            (ExprKind::Select(c, _, _), 0) => c,
            (ExprKind::Select(_, t, _), 1) => t,
            (ExprKind::Select(_, _, f), 2) => f,
            (ExprKind::Cast(a) | ExprKind::Reinterpret(a), 0) => a,
            (ExprKind::Fpir(_, args) | ExprKind::Mach(_, args), i) => &args[i],
            _ => panic!("child index {i} out of range"),
        }
    }

    /// The node's children, in operand order.
    pub fn children(&self) -> Vec<&RcExpr> {
        match &self.kind {
            ExprKind::Var(_) | ExprKind::Const(_) => Vec::new(),
            ExprKind::Bin(_, a, b) | ExprKind::Cmp(_, a, b) => vec![a, b],
            ExprKind::Select(c, t, f) => vec![c, t, f],
            ExprKind::Cast(a) | ExprKind::Reinterpret(a) => vec![a],
            ExprKind::Fpir(_, args) | ExprKind::Mach(_, args) => args.iter().collect(),
        }
    }

    /// Rebuild this node with new children (same operator).
    ///
    /// # Panics
    ///
    /// Panics if `children` has the wrong length or if the rebuilt node
    /// would be ill-typed — callers are expected to substitute
    /// like-typed children.
    pub fn with_children(&self, children: Vec<RcExpr>) -> RcExpr {
        let expect = self.arity();
        assert_eq!(children.len(), expect, "expected {expect} children");
        let mut it = children.into_iter();
        match &self.kind {
            ExprKind::Var(_) | ExprKind::Const(_) => Arc::new(self.clone()),
            ExprKind::Bin(op, _, _) => {
                let (a, b) = (it.next().unwrap(), it.next().unwrap());
                Expr::bin(*op, a, b).expect("rebuild preserves types")
            }
            ExprKind::Cmp(op, _, _) => {
                let (a, b) = (it.next().unwrap(), it.next().unwrap());
                Expr::cmp(*op, a, b).expect("rebuild preserves types")
            }
            ExprKind::Select(..) => {
                let (c, t, f) = (it.next().unwrap(), it.next().unwrap(), it.next().unwrap());
                Expr::select(c, t, f).expect("rebuild preserves types")
            }
            ExprKind::Cast(_) => Expr::cast(self.elem(), it.next().unwrap()),
            ExprKind::Reinterpret(_) => {
                Expr::reinterpret(self.elem(), it.next().unwrap()).expect("rebuild preserves types")
            }
            ExprKind::Fpir(op, _) => {
                Expr::fpir(*op, it.collect()).expect("rebuild preserves types")
            }
            ExprKind::Mach(op, _) => Expr::mach(*op, self.ty, it.collect()),
        }
    }

    /// Number of nodes in the tree.
    pub fn size(&self) -> usize {
        1 + self.children().iter().map(|c| c.size()).sum::<usize>()
    }

    /// Height of the tree (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        1 + self.children().iter().map(|c| c.depth()).max().unwrap_or(0)
    }

    /// Collect the distinct free variables, in first-use order.
    pub fn free_vars(&self) -> Vec<(String, VectorType)> {
        let mut out: Vec<(String, VectorType)> = Vec::new();
        self.visit(&mut |e| {
            if let ExprKind::Var(name) = e.kind() {
                if !out.iter().any(|(n, _)| n == name) {
                    out.push((name.clone(), e.ty()));
                }
            }
        });
        out
    }

    /// Pre-order visit of every node.
    pub fn visit(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        for c in self.children() {
            c.visit(f);
        }
    }

    /// Stable identity of a node: the address of its shared allocation.
    ///
    /// Valid as a cache key only while some owner keeps the `Arc` alive —
    /// callers that memoize by `ptr_id` must hold a clone of the handle in
    /// the cache (as [`crate::bounds::BoundsCtx`] does) so the address
    /// cannot be recycled.
    pub fn ptr_id(e: &RcExpr) -> usize {
        Arc::as_ptr(e) as usize
    }

    /// Structural equality, the same relation as `==`, computed over the
    /// DAG rather than the tree.
    ///
    /// `==` compares two expressions as trees, so two equal DAGs that
    /// were built apart — no shared allocations between them — cost one
    /// comparison per tree path, exponential in the depth of their
    /// sharing. Here a pair of nodes is compared once: pairs already found
    /// equal are remembered by identity.
    pub fn dag_eq(a: &RcExpr, b: &RcExpr) -> bool {
        fn same_head(a: &Expr, b: &Expr) -> bool {
            a.ty == b.ty
                && match (&a.kind, &b.kind) {
                    (ExprKind::Var(x), ExprKind::Var(y)) => x == y,
                    (ExprKind::Const(x), ExprKind::Const(y)) => x == y,
                    (ExprKind::Bin(x, ..), ExprKind::Bin(y, ..)) => x == y,
                    (ExprKind::Cmp(x, ..), ExprKind::Cmp(y, ..)) => x == y,
                    (ExprKind::Select(..), ExprKind::Select(..))
                    | (ExprKind::Cast(_), ExprKind::Cast(_))
                    | (ExprKind::Reinterpret(_), ExprKind::Reinterpret(_)) => true,
                    (ExprKind::Fpir(x, xs), ExprKind::Fpir(y, ys)) => {
                        x == y && xs.len() == ys.len()
                    }
                    (ExprKind::Mach(x, xs), ExprKind::Mach(y, ys)) => {
                        x == y && xs.len() == ys.len()
                    }
                    _ => false,
                }
        }
        // A pair is recorded before its operands are compared. The graph
        // is acyclic, so a recorded pair met again was found equal: a
        // difference anywhere ends the whole comparison at once.
        fn eq(
            a: &RcExpr,
            b: &RcExpr,
            seen: &mut std::collections::HashSet<(usize, usize)>,
        ) -> bool {
            if Arc::ptr_eq(a, b) {
                return true;
            }
            if !same_head(a, b) {
                return false;
            }
            if a.arity() == 0 || !seen.insert((Expr::ptr_id(a), Expr::ptr_id(b))) {
                return true;
            }
            (0..a.arity()).all(|i| eq(a.child(i), b.child(i), seen))
        }
        eq(a, b, &mut std::collections::HashSet::new())
    }

    /// Pre-order visit of every *unique* node (by allocation identity).
    ///
    /// Where [`Expr::visit`] walks the expression as a tree — re-visiting a
    /// shared subexpression once per occurrence — this walks it as a DAG,
    /// calling `f` exactly once per distinct `Arc` allocation.
    pub fn visit_unique(e: &RcExpr, f: &mut impl FnMut(&RcExpr)) {
        fn walk(e: &RcExpr, seen: &mut IdSet, f: &mut impl FnMut(&RcExpr)) {
            if !seen.insert(Expr::ptr_id(e)) {
                return;
            }
            f(e);
            for i in 0..e.arity() {
                walk(e.child(i), seen, f);
            }
        }
        walk(e, &mut IdSet::default(), f);
    }

    /// Number of unique nodes (by allocation identity) in the DAG.
    ///
    /// For a fully-shared expression this can be exponentially smaller
    /// than [`Expr::size`], which counts tree occurrences.
    pub fn unique_count(e: &RcExpr) -> usize {
        let mut n = 0;
        Expr::visit_unique(e, &mut |_| n += 1);
        n
    }

    /// True if any node satisfies the predicate.
    pub fn any(&self, f: &mut impl FnMut(&Expr) -> bool) -> bool {
        if f(self) {
            return true;
        }
        self.children().iter().any(|c| c.any(f))
    }

    /// True if the tree contains any FPIR instruction.
    pub fn contains_fpir(&self) -> bool {
        self.any(&mut |e| matches!(e.kind(), ExprKind::Fpir(..)))
    }

    /// If this node is a broadcast constant, its value.
    pub fn as_const(&self) -> Option<i128> {
        match self.kind() {
            ExprKind::Const(v) => Some(*v),
            _ => None,
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::printer::fmt_expr(self, f)
    }
}

/// Compute the result type of an FPIR instruction, validating operand types.
pub(crate) fn fpir_result_type(op: FpirOp, args: &[RcExpr]) -> Result<VectorType, TypeError> {
    let same_lanes = |xs: &[&RcExpr]| -> Result<(), TypeError> {
        let lanes = xs[0].ty().lanes;
        if xs.iter().any(|x| x.ty().lanes != lanes) {
            return Err(TypeError::new(format!("{} operands must share lane counts", op.name())));
        }
        Ok(())
    };
    let same_type = |a: &RcExpr, b: &RcExpr| -> Result<(), TypeError> {
        if a.ty() != b.ty() {
            Err(TypeError::new(format!(
                "{} operands must share a type, got {} and {}",
                op.name(),
                a.ty(),
                b.ty()
            )))
        } else {
            Ok(())
        }
    };
    let widened = |a: &RcExpr| -> Result<VectorType, TypeError> {
        a.ty().widen().ok_or_else(|| {
            TypeError::new(format!("{} has no wider type for {}", op.name(), a.ty()))
        })
    };

    match op {
        FpirOp::WideningAdd => {
            same_type(&args[0], &args[1])?;
            widened(&args[0])
        }
        FpirOp::WideningSub => {
            same_type(&args[0], &args[1])?;
            Ok(widened(&args[0])?.with_elem(widened(&args[0])?.elem.with_signed()))
        }
        FpirOp::WideningMul => {
            // Operands may differ in signedness, but must share width/lanes.
            same_lanes(&[&args[0], &args[1]])?;
            if args[0].elem().bits() != args[1].elem().bits() {
                return Err(TypeError::new(format!(
                    "widening_mul operands must share a width, got {} and {}",
                    args[0].ty(),
                    args[1].ty()
                )));
            }
            let signed = args[0].elem().is_signed() || args[1].elem().is_signed();
            let w = widened(&args[0])?;
            Ok(w.with_elem(ScalarType::from_parts(signed, w.elem.bits()).expect("valid width")))
        }
        FpirOp::WideningShl | FpirOp::WideningShr => {
            same_lanes(&[&args[0], &args[1]])?;
            if args[0].elem().bits() != args[1].elem().bits() {
                return Err(TypeError::new(format!(
                    "{} shift count must share the operand width, got {} and {}",
                    op.name(),
                    args[0].ty(),
                    args[1].ty()
                )));
            }
            widened(&args[0])
        }
        FpirOp::ExtendingAdd | FpirOp::ExtendingSub | FpirOp::ExtendingMul => {
            same_lanes(&[&args[0], &args[1]])?;
            let want = args[1].ty().widen().ok_or_else(|| {
                TypeError::new(format!("{} has no wider type for {}", op.name(), args[1].ty()))
            })?;
            if args[0].ty() != want {
                return Err(TypeError::new(format!(
                    "{} requires the first operand ({}) to be the widened second operand ({})",
                    op.name(),
                    args[0].ty(),
                    args[1].ty()
                )));
            }
            Ok(args[0].ty())
        }
        FpirOp::Abs => Ok(args[0].ty().with_elem(args[0].elem().with_unsigned())),
        FpirOp::Absd => {
            same_type(&args[0], &args[1])?;
            Ok(args[0].ty().with_elem(args[0].elem().with_unsigned()))
        }
        FpirOp::SaturatingCast(t) => Ok(args[0].ty().with_elem(t)),
        FpirOp::SaturatingNarrow => args[0].ty().narrow().ok_or_else(|| {
            TypeError::new(format!("saturating_narrow has no narrower type for {}", args[0].ty()))
        }),
        FpirOp::SaturatingAdd
        | FpirOp::SaturatingSub
        | FpirOp::HalvingAdd
        | FpirOp::HalvingSub
        | FpirOp::RoundingHalvingAdd => {
            same_type(&args[0], &args[1])?;
            Ok(args[0].ty())
        }
        FpirOp::RoundingShl | FpirOp::RoundingShr | FpirOp::SaturatingShl => {
            same_lanes(&[&args[0], &args[1]])?;
            if args[0].elem().bits() != args[1].elem().bits() {
                return Err(TypeError::new(format!(
                    "{} shift count must share the operand width, got {} and {}",
                    op.name(),
                    args[0].ty(),
                    args[1].ty()
                )));
            }
            Ok(args[0].ty())
        }
        FpirOp::MulShr | FpirOp::RoundingMulShr => {
            same_type(&args[0], &args[1])?;
            same_lanes(&[&args[0], &args[2]])?;
            if args[2].elem().bits() != args[0].elem().bits() {
                return Err(TypeError::new(format!(
                    "{} shift count must share the operand width, got {} and {}",
                    op.name(),
                    args[0].ty(),
                    args[2].ty()
                )));
            }
            Ok(args[0].ty())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ScalarType as S, VectorType as V};

    fn u8v() -> V {
        V::new(S::U8, 16)
    }

    #[test]
    fn widening_add_widens() {
        let a = Expr::var("a", u8v());
        let b = Expr::var("b", u8v());
        let e = Expr::fpir(FpirOp::WideningAdd, vec![a, b]).unwrap();
        assert_eq!(e.ty(), V::new(S::U16, 16));
    }

    #[test]
    fn widening_sub_is_signed() {
        let a = Expr::var("a", u8v());
        let b = Expr::var("b", u8v());
        let e = Expr::fpir(FpirOp::WideningSub, vec![a, b]).unwrap();
        assert_eq!(e.ty(), V::new(S::I16, 16));
    }

    #[test]
    fn widening_mul_mixed_signedness_is_signed() {
        let a = Expr::var("a", V::new(S::I8, 16));
        let b = Expr::var("b", u8v());
        let e = Expr::fpir(FpirOp::WideningMul, vec![a, b]).unwrap();
        assert_eq!(e.ty(), V::new(S::I16, 16));
    }

    #[test]
    fn widening_rejects_64_bit() {
        let a = Expr::var("a", V::new(S::U64, 4));
        let b = Expr::var("b", V::new(S::U64, 4));
        assert!(Expr::fpir(FpirOp::WideningAdd, vec![a, b]).is_err());
    }

    #[test]
    fn extending_add_requires_double_width() {
        let wide = Expr::var("w", V::new(S::U16, 16));
        let narrow = Expr::var("n", u8v());
        let e = Expr::fpir(FpirOp::ExtendingAdd, vec![wide.clone(), narrow]).unwrap();
        assert_eq!(e.ty(), V::new(S::U16, 16));
        let also_wide = Expr::var("n2", V::new(S::U16, 16));
        assert!(Expr::fpir(FpirOp::ExtendingAdd, vec![wide, also_wide]).is_err());
    }

    #[test]
    fn abs_and_absd_are_unsigned() {
        let a = Expr::var("a", V::new(S::I16, 8));
        let b = Expr::var("b", V::new(S::I16, 8));
        let abs = Expr::fpir(FpirOp::Abs, vec![a.clone()]).unwrap();
        let absd = Expr::fpir(FpirOp::Absd, vec![a, b]).unwrap();
        assert_eq!(abs.ty(), V::new(S::U16, 8));
        assert_eq!(absd.ty(), V::new(S::U16, 8));
    }

    #[test]
    fn saturating_narrow_rejects_8_bit() {
        let a = Expr::var("a", u8v());
        assert!(Expr::fpir(FpirOp::SaturatingNarrow, vec![a]).is_err());
    }

    #[test]
    fn constants_must_fit() {
        assert!(Expr::constant(255, u8v()).is_ok());
        assert!(Expr::constant(256, u8v()).is_err());
        assert!(Expr::constant(-1, u8v()).is_err());
        assert!(Expr::constant(-1, V::new(S::I8, 16)).is_ok());
    }

    #[test]
    fn bin_rejects_mismatched_types() {
        let a = Expr::var("a", u8v());
        let b = Expr::var("b", V::new(S::U16, 16));
        assert!(Expr::bin(BinOp::Add, a, b).is_err());
    }

    #[test]
    fn with_children_rebuilds() {
        let a = Expr::var("a", u8v());
        let b = Expr::var("b", u8v());
        let c = Expr::var("c", u8v());
        let e = Expr::bin(BinOp::Add, a, b.clone()).unwrap();
        let e2 = e.with_children(vec![c.clone(), b]);
        assert_eq!(e2.children()[0], &c);
        assert_eq!(e2.ty(), e.ty());
    }

    #[test]
    fn size_and_depth() {
        let a = Expr::var("a", u8v());
        let b = Expr::var("b", u8v());
        let sum = Expr::bin(BinOp::Add, a.clone(), b).unwrap();
        let e = Expr::bin(BinOp::Mul, sum, a).unwrap();
        assert_eq!(e.size(), 5);
        assert_eq!(e.depth(), 3);
    }

    #[test]
    fn free_vars_dedup_in_order() {
        let a = Expr::var("a", u8v());
        let b = Expr::var("b", u8v());
        let e = Expr::bin(BinOp::Add, Expr::bin(BinOp::Add, a.clone(), b).unwrap(), a).unwrap();
        let vars = e.free_vars();
        assert_eq!(vars.len(), 2);
        assert_eq!(vars[0].0, "a");
        assert_eq!(vars[1].0, "b");
    }

    #[test]
    fn reinterpret_requires_same_width() {
        let a = Expr::var("a", V::new(S::U16, 8));
        assert!(Expr::reinterpret(S::I16, a.clone()).is_ok());
        assert!(Expr::reinterpret(S::I8, a).is_err());
    }

    #[test]
    fn arity_checked() {
        let a = Expr::var("a", u8v());
        assert!(Expr::fpir(FpirOp::Abs, vec![a.clone(), a]).is_err());
    }
}
