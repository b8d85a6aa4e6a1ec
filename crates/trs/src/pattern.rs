//! The pattern language of rewrite rules.
//!
//! Rules in the paper are written like
//!
//! ```text
//! u16(x_u8) + y_u16  ->  extending_add(y_u16, x_u8)
//! ```
//!
//! and are "polymorphic in nature" (§3.2): the same rule applies at every
//! lane width. Patterns therefore constrain types *relationally* — "the
//! cast target is the widened type of `x`" — via [`TypePat`], and bind
//! expression wildcards ([`Pat::Wild`]), constant wildcards
//! ([`Pat::ConstWild`], the paper's `c0`), and type variables in one
//! [`Bindings`] structure.
//!
//! [`match_pat`] is the shared walk [`match_with`] with [`Bindings`] as
//! its hooks: they bind wildcards and constants at the leaves and check a
//! cast-like node's target type after its operand. The walk handles
//! commutativity: `x + widening_shl(y, c)` also matches
//! `widening_shl(y, c) + x`.

use crate::index::OpKey;
use crate::term::{match_with, Hooks, Term};
use fpir::expr::{BinOp, CmpOp, Expr, ExprKind, FpirOp, RcExpr};
use fpir::types::ScalarType;
use fpir::MachOp;

/// Maximum number of expression wildcards / type variables per rule.
pub const MAX_WILDS: usize = 12;

/// A type constraint on a pattern node, possibly referencing a type
/// variable bound elsewhere in the pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypePat {
    /// Any element type.
    Any,
    /// Exactly this element type.
    Exact(ScalarType),
    /// Bind (or check against) type variable `tN`.
    Var(u8),
    /// The doubled-width type of variable `tN` (same signedness).
    WidenOf(u8),
    /// The quadruple-width type of variable `tN` (same signedness) — the
    /// accumulator type of 4-way dot products.
    Widen2Of(u8),
    /// The halved-width type of variable `tN` (same signedness).
    NarrowOf(u8),
    /// Any type with variable `tN`'s width (either signedness).
    SameWidthAs(u8),
    /// The *signed* type with double variable `tN`'s width (the cast
    /// target of `widening_sub`-shaped source code, e.g. `i16(x_u8)`).
    WidenSignedOf(u8),
    /// The unsigned type with half variable `tN`'s width (the target of a
    /// signed-to-unsigned saturating narrow such as `u8 <- i16`).
    NarrowUnsignedOf(u8),
    /// Any unsigned type (binds variable `tN`).
    AnyUnsigned(u8),
    /// Any signed type (binds variable `tN`).
    AnySigned(u8),
}

impl TypePat {
    /// The type variable the constraint binds or reads, if any.
    pub fn var(self) -> Option<u8> {
        match self {
            TypePat::Any | TypePat::Exact(_) => None,
            TypePat::Var(i)
            | TypePat::WidenOf(i)
            | TypePat::Widen2Of(i)
            | TypePat::NarrowOf(i)
            | TypePat::SameWidthAs(i)
            | TypePat::WidenSignedOf(i)
            | TypePat::NarrowUnsignedOf(i)
            | TypePat::AnyUnsigned(i)
            | TypePat::AnySigned(i) => Some(i),
        }
    }

    /// Match `t` against the pattern, updating `b` on success.
    #[inline]
    fn matches(self, t: ScalarType, b: &mut Bindings) -> bool {
        match self {
            TypePat::Any => true,
            TypePat::Exact(e) => t == e,
            TypePat::Var(i) => b.bind_ty(i, t),
            TypePat::WidenOf(i) => match b.ty(i) {
                Some(base) => base.widen() == Some(t),
                None => match t.narrow() {
                    Some(n) => b.bind_ty(i, n),
                    None => false,
                },
            },
            TypePat::Widen2Of(i) => match b.ty(i) {
                Some(base) => base.widen().and_then(ScalarType::widen) == Some(t),
                None => match t.narrow().and_then(ScalarType::narrow) {
                    Some(n) => b.bind_ty(i, n),
                    None => false,
                },
            },
            TypePat::NarrowOf(i) => match b.ty(i) {
                Some(base) => base.narrow() == Some(t),
                None => match t.widen() {
                    Some(w) => b.bind_ty(i, w),
                    None => false,
                },
            },
            TypePat::SameWidthAs(i) => b.ty(i).is_some_and(|base| base.bits() == t.bits()),
            // These two cannot recover the base type from the target alone
            // (both signednesses of the base produce the same target), so
            // the base variable must already be bound — cast-like patterns
            // match their operand before their target type to ensure this.
            TypePat::WidenSignedOf(i) => {
                b.ty(i).is_some_and(|base| base.widen().map(ScalarType::with_signed) == Some(t))
            }
            TypePat::NarrowUnsignedOf(i) => {
                b.ty(i).is_some_and(|base| base.narrow().map(ScalarType::with_unsigned) == Some(t))
            }
            TypePat::AnyUnsigned(i) => !t.is_signed() && b.bind_ty(i, t),
            TypePat::AnySigned(i) => t.is_signed() && b.bind_ty(i, t),
        }
    }
}

/// A rewrite-rule left-hand side.
#[derive(Debug, Clone, PartialEq)]
pub enum Pat {
    /// An expression wildcard `x0..x7` with a type constraint. The same id
    /// occurring twice requires structurally equal subexpressions.
    Wild {
        /// Wildcard index (also the [`Bindings`] slot).
        id: u8,
        /// Type constraint.
        ty: TypePat,
    },
    /// A wildcard matching only broadcast constants (the paper's `c0`).
    ConstWild {
        /// Wildcard index.
        id: u8,
        /// Type constraint.
        ty: TypePat,
    },
    /// A specific broadcast constant value (any type satisfying `ty`).
    Lit(i128, TypePat),
    /// A primitive binary operation.
    Bin(BinOp, Box<Pat>, Box<Pat>),
    /// A comparison.
    Cmp(CmpOp, Box<Pat>, Box<Pat>),
    /// A select.
    Select(Box<Pat>, Box<Pat>, Box<Pat>),
    /// A wrapping cast whose *target element type* satisfies the
    /// `TypePat`.
    Cast(TypePat, Box<Pat>),
    /// A reinterpret whose target element type satisfies the `TypePat`.
    Reinterpret(TypePat, Box<Pat>),
    /// An FPIR instruction. `SaturatingCast` is matched via
    /// [`Pat::SatCast`] instead (its type parameter needs a `TypePat`).
    Fpir(FpirOp, Vec<Pat>),
    /// A saturating cast whose target element type satisfies the pattern.
    SatCast(TypePat, Box<Pat>),
    /// A machine instruction (used by peephole passes over lowered code).
    Mach(MachOp, Vec<Pat>),
}

impl Term for Pat {
    /// `None` for patterns that can match any node (wildcards, constant
    /// wildcards, literals); every saturating cast is [`OpKey::SatCast`].
    #[inline]
    fn head(&self) -> Option<OpKey> {
        match self {
            Pat::Wild { .. } | Pat::ConstWild { .. } | Pat::Lit(..) => None,
            Pat::Bin(op, ..) => Some(OpKey::Bin(*op)),
            Pat::Cmp(op, ..) => Some(OpKey::Cmp(*op)),
            Pat::Select(..) => Some(OpKey::Select),
            Pat::Cast(..) => Some(OpKey::Cast),
            Pat::Reinterpret(..) => Some(OpKey::Reinterpret),
            Pat::SatCast(..) | Pat::Fpir(FpirOp::SaturatingCast(_), _) => Some(OpKey::SatCast),
            Pat::Fpir(op, _) => Some(OpKey::Fpir(*op)),
            Pat::Mach(op, _) => Some(OpKey::Mach(op.isa, op.code)),
        }
    }

    #[inline]
    fn arity(&self) -> usize {
        match self {
            Pat::Wild { .. } | Pat::ConstWild { .. } | Pat::Lit(..) => 0,
            Pat::Cast(..) | Pat::Reinterpret(..) | Pat::SatCast(..) => 1,
            Pat::Bin(..) | Pat::Cmp(..) => 2,
            Pat::Select(..) => 3,
            Pat::Fpir(_, args) | Pat::Mach(_, args) => args.len(),
        }
    }

    #[inline]
    fn child(&self, i: usize) -> &Pat {
        match (self, i) {
            (
                Pat::Bin(_, a, _)
                | Pat::Cmp(_, a, _)
                | Pat::Select(a, _, _)
                | Pat::Cast(_, a)
                | Pat::Reinterpret(_, a)
                | Pat::SatCast(_, a),
                0,
            ) => a,
            (Pat::Bin(_, _, b) | Pat::Cmp(_, _, b) | Pat::Select(_, b, _), 1) => b,
            (Pat::Select(_, _, c), 2) => c,
            (Pat::Fpir(_, args) | Pat::Mach(_, args), i) => &args[i],
            _ => panic!("child index {i} out of range"),
        }
    }
}

impl Pat {
    /// This node's own type constraint: a leaf's type, or a cast-like
    /// node's target type.
    pub fn type_pat(&self) -> Option<TypePat> {
        match self {
            Pat::Wild { ty, .. }
            | Pat::ConstWild { ty, .. }
            | Pat::Lit(_, ty)
            | Pat::Cast(ty, _)
            | Pat::Reinterpret(ty, _)
            | Pat::SatCast(ty, _) => Some(*ty),
            Pat::Bin(..) | Pat::Cmp(..) | Pat::Select(..) | Pat::Fpir(..) | Pat::Mach(..) => None,
        }
    }
}

/// Wildcard and type-variable bindings produced by a successful match.
#[derive(Debug, Clone, Default)]
pub struct Bindings {
    exprs: [Option<RcExpr>; MAX_WILDS],
    tys: [Option<ScalarType>; MAX_WILDS],
    /// Which slots are bound: wildcard `i` is bit `i`, type variable `i`
    /// is bit `MAX_WILDS + i`.
    bound: u32,
}

impl Bindings {
    /// A fresh, empty binding set.
    pub fn new() -> Bindings {
        Bindings::default()
    }

    /// The expression bound to wildcard `id`, if any.
    pub fn expr(&self, id: u8) -> Option<&RcExpr> {
        self.exprs[id as usize].as_ref()
    }

    /// The constant value bound to wildcard `id`, if it is a constant.
    pub fn const_value(&self, id: u8) -> Option<i128> {
        self.expr(id).and_then(|e| e.as_const())
    }

    /// The type bound to type variable `id`, if any.
    pub fn ty(&self, id: u8) -> Option<ScalarType> {
        self.tys[id as usize]
    }

    #[inline]
    fn bind_expr(&mut self, id: u8, e: &RcExpr) -> bool {
        match &self.exprs[id as usize] {
            Some(prev) => Expr::dag_eq(prev, e),
            None => {
                self.exprs[id as usize] = Some(e.clone());
                self.bound |= 1 << id;
                true
            }
        }
    }

    #[inline]
    fn bind_ty(&mut self, id: u8, t: ScalarType) -> bool {
        match self.tys[id as usize] {
            Some(prev) => prev == t,
            None => {
                self.tys[id as usize] = Some(t);
                self.bound |= 1 << (MAX_WILDS + id as usize);
                true
            }
        }
    }
}

/// Match `pat` against `expr`, returning bindings on success.
///
/// Commutative operators are tried in both operand orders.
pub fn match_pat(pat: &Pat, expr: &RcExpr) -> Option<Bindings> {
    let mut b = Bindings::new();
    match_with(&mut b, pat, expr).then_some(b)
}

impl Hooks<Pat, RcExpr> for Bindings {
    /// The bound slots. Bindings only grow, so undoing a failed first
    /// order clears the slots bound since.
    type Saved = u32;

    #[inline]
    fn save(&self) -> u32 {
        self.bound
    }

    #[inline]
    fn restore(&mut self, saved: u32) {
        let mut since = self.bound & !saved;
        while since != 0 {
            let i = since.trailing_zeros() as usize;
            match i.checked_sub(MAX_WILDS) {
                None => self.exprs[i] = None,
                Some(i) => self.tys[i] = None,
            }
            since &= since - 1;
        }
        self.bound = saved;
    }

    #[inline]
    fn leaf(&mut self, pat: &Pat, expr: &RcExpr) -> Option<bool> {
        Some(match pat {
            Pat::Wild { id, ty } => ty.matches(expr.elem(), self) && self.bind_expr(*id, expr),
            Pat::ConstWild { id, ty } => {
                expr.as_const().is_some()
                    && ty.matches(expr.elem(), self)
                    && self.bind_expr(*id, expr)
            }
            Pat::Lit(v, ty) => expr.as_const() == Some(*v) && ty.matches(expr.elem(), self),
            _ => return None,
        })
    }

    #[inline]
    fn node(&mut self, pat: &Pat, expr: &RcExpr) -> bool {
        match pat {
            // A cast-like node's target type; a saturating cast's is the
            // node's element type.
            Pat::Cast(ty, _) | Pat::Reinterpret(ty, _) | Pat::SatCast(ty, _) => {
                ty.matches(expr.elem(), self)
            }
            // The head folds every saturating cast; an exact one must
            // also name the expression's target type.
            Pat::Fpir(op, _) => matches!(expr.kind(), ExprKind::Fpir(eop, _) if eop == op),
            _ => true,
        }
    }
}

impl std::fmt::Display for TypePat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TypePat::Any => write!(f, "*"),
            TypePat::Exact(t) => write!(f, "{t}"),
            TypePat::Var(i) => write!(f, "t{i}"),
            TypePat::WidenOf(i) => write!(f, "widen(t{i})"),
            TypePat::Widen2Of(i) => write!(f, "widen2(t{i})"),
            TypePat::NarrowOf(i) => write!(f, "narrow(t{i})"),
            TypePat::SameWidthAs(i) => write!(f, "width(t{i})"),
            TypePat::WidenSignedOf(i) => write!(f, "widen_signed(t{i})"),
            TypePat::NarrowUnsignedOf(i) => write!(f, "narrow_unsigned(t{i})"),
            TypePat::AnyUnsigned(i) => write!(f, "t{i}:unsigned"),
            TypePat::AnySigned(i) => write!(f, "t{i}:signed"),
        }
    }
}

impl std::fmt::Display for Pat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Pat::Wild { id, ty: TypePat::Any } => write!(f, "x{id}"),
            Pat::Wild { id, ty } => write!(f, "x{id}_{ty}"),
            Pat::ConstWild { id, ty: TypePat::Any } => write!(f, "c{id}"),
            Pat::ConstWild { id, ty } => write!(f, "c{id}_{ty}"),
            Pat::Lit(v, _) => write!(f, "{v}"),
            Pat::Bin(op, a, b) if op.is_call_syntax() => {
                write!(f, "{}({a}, {b})", op.symbol())
            }
            Pat::Bin(op, a, b) => write!(f, "({a} {} {b})", op.symbol()),
            Pat::Cmp(op, a, b) => write!(f, "({a} {} {b})", op.symbol()),
            Pat::Select(c, t, e) => write!(f, "select({c}, {t}, {e})"),
            Pat::Cast(ty, a) => write!(f, "cast<{ty}>({a})"),
            Pat::Reinterpret(ty, a) => write!(f, "reinterpret<{ty}>({a})"),
            Pat::SatCast(ty, a) => write!(f, "saturating_cast<{ty}>({a})"),
            Pat::Fpir(op, args) => {
                write!(f, "{}(", op.name())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Pat::Mach(op, args) => {
                write!(f, "{}.{}(", op.isa.short_name().to_ascii_lowercase(), op.name)?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::*;
    use fpir::build;
    use fpir::types::{ScalarType as S, VectorType as V};

    fn t8() -> V {
        V::new(S::U8, 8)
    }

    #[test]
    fn wildcard_binds() {
        let p = wild(0);
        let e = build::var("a", t8());
        let b = match_pat(&p, &e).unwrap();
        assert_eq!(b.expr(0), Some(&e));
    }

    #[test]
    fn nonlinear_wildcards_require_equality() {
        let p = pat_add(wild(0), wild(0));
        let a = build::var("a", t8());
        let b_ = build::var("b", t8());
        assert!(match_pat(&p, &build::add(a.clone(), a.clone())).is_some());
        assert!(match_pat(&p, &build::add(a, b_)).is_none());
    }

    #[test]
    fn commutative_matching() {
        // Pattern: c0 * x; expression: x * 5.
        let p = pat_mul(cwild(0), wild(1));
        let x = build::var("x", t8());
        let e = build::mul(x.clone(), build::splat(5, &x));
        let b = match_pat(&p, &e).unwrap();
        assert_eq!(b.const_value(0), Some(5));
        // Pattern: x + c; expression: 5 + y. The first order binds x to 5
        // before failing, and the swapped retry must not see that binding.
        let p = pat_add(wild(0), cwild(1));
        let y = build::var("y", t8());
        let b = match_pat(&p, &build::add(build::splat(5, &y), y.clone())).unwrap();
        assert_eq!((b.expr(0), b.const_value(1)), (Some(&y), Some(5)));
        // The first order binds t0 to i8 before failing; the retry binds
        // it to u8.
        let cast = |p| Pat::Cast(TypePat::Any, Box::new(p));
        let p = pat_add(cast(wild_t(0, TypePat::Var(0))), cast(wild_t(1, TypePat::AnySigned(1))));
        let (a, b) = (build::var("a", V::new(S::I8, 8)), build::var("b", t8()));
        let e = build::add(fpir::Expr::cast(S::U16, a), fpir::Expr::cast(S::U16, b));
        assert_eq!(match_pat(&p, &e).and_then(|b| b.ty(0)), Some(S::U8));
    }

    #[test]
    fn widening_cast_pattern() {
        // u16(x_u8): cast whose target is the widened type of x.
        let p = Pat::Cast(TypePat::WidenOf(0), Box::new(wild_t(0, TypePat::Var(0))));
        let e = build::widen(build::var("x", t8()));
        assert!(match_pat(&p, &e).is_some());
        // A non-widening cast does not match.
        let e = fpir::Expr::cast(S::U32, build::var("x", t8()));
        assert!(match_pat(&p, &e).is_none());
    }

    #[test]
    fn type_vars_unify_across_operands() {
        let p = pat_add(wild_t(0, TypePat::Var(0)), wild_t(1, TypePat::Var(0)));
        let e = build::add(build::var("a", t8()), build::var("b", t8()));
        assert!(match_pat(&p, &e).is_some());
    }

    #[test]
    fn const_wild_rejects_non_constants() {
        let p = pat_add(wild(0), cwild(1));
        let a = build::var("a", t8());
        let e = build::add(a.clone(), a.clone());
        assert!(match_pat(&p, &e).is_none());
        let e = build::add(a.clone(), build::splat(3, &a));
        assert!(match_pat(&p, &e).is_some());
    }

    #[test]
    fn sat_cast_pattern_binds_target_type() {
        let p = Pat::SatCast(TypePat::NarrowOf(0), Box::new(wild_t(0, TypePat::Var(0))));
        let e = build::saturating_cast(S::U8, build::var("x", V::new(S::U16, 8)));
        assert!(match_pat(&p, &e).is_some());
        // Narrowing by two steps does not match NarrowOf.
        let e = build::saturating_cast(S::U8, build::var("x", V::new(S::U32, 8)));
        assert!(match_pat(&p, &e).is_none());
        // An exact saturating cast shares the head but names its type.
        let exact = Pat::Fpir(FpirOp::SaturatingCast(S::U8), vec![wild(0)]);
        let x = build::var("x", V::new(S::I16, 8));
        assert!(match_pat(&exact, &build::saturating_cast(S::U8, x.clone())).is_some());
        assert!(match_pat(&exact, &build::saturating_cast(S::I8, x)).is_none());
    }

    #[test]
    fn lit_matches_value_only() {
        let p = pat_add(wild(0), lit(255));
        let x = build::var("x", V::new(S::U16, 4));
        assert!(match_pat(&p, &build::add(x.clone(), build::splat(255, &x))).is_some());
        assert!(match_pat(&p, &build::add(x.clone(), build::splat(254, &x))).is_none());
    }

    /// One fixture per variant whose operands are `x0, x1, ...` in order:
    /// the walk reports them through `arity`/`child` and `subterms`, and
    /// the node's own type through `type_pat`.
    #[test]
    fn walk_visits_every_variants_operands_in_order() {
        use fpir::{BinOp, CmpOp, Isa, MachOp};
        let ty = TypePat::Var(3);
        let xs = |n: u8| (0..n).map(wild).collect::<Vec<_>>();
        let x = |i| Box::new(wild(i));
        let mach = MachOp { isa: Isa::ArmNeon, code: 0, name: "op" };
        let cases = [
            (wild_t(7, ty), 0, Some(ty)),
            (cwild_t(7, ty), 0, Some(ty)),
            (lit_t(3, ty), 0, Some(ty)),
            (Pat::Bin(BinOp::Sub, x(0), x(1)), 2, None),
            (Pat::Cmp(CmpOp::Lt, x(0), x(1)), 2, None),
            (Pat::Select(x(0), x(1), x(2)), 3, None),
            (Pat::Cast(ty, x(0)), 1, Some(ty)),
            (Pat::Reinterpret(ty, x(0)), 1, Some(ty)),
            (Pat::Fpir(FpirOp::MulShr, xs(3)), 3, None),
            (Pat::SatCast(ty, x(0)), 1, Some(ty)),
            (Pat::Mach(mach, xs(4)), 4, None),
        ];
        for (p, n, own) in &cases {
            assert_eq!(p.arity(), *n, "{p}");
            let operands: Vec<Pat> = (0..p.arity()).map(|i| p.child(i).clone()).collect();
            assert_eq!(operands, xs(*n as u8), "{p}");
            let walked: Vec<&Pat> = p.subterms().collect();
            assert_eq!(walked[0], p);
            assert_eq!(walked[1..].iter().map(|q| (*q).clone()).collect::<Vec<_>>(), operands);
            assert_eq!(p.type_pat(), *own, "{p}");
        }
        // Pre-order: a node's operands come right after it.
        let nested = Pat::Select(Box::new(pat_add(wild(0), wild(1))), x(2), x(3));
        let order: Vec<String> = nested.subterms().skip(1).map(|q| q.to_string()).collect();
        assert_eq!(order, ["(x0 + x1)", "x0", "x1", "x2", "x3"]);
    }

    #[test]
    fn any_unsigned_rejects_signed() {
        let p = wild_t(0, TypePat::AnyUnsigned(0));
        assert!(match_pat(&p, &build::var("x", t8())).is_some());
        assert!(match_pat(&p, &build::var("x", V::new(S::I8, 8))).is_none());
    }
}
