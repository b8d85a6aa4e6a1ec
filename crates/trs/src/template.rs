//! Rewrite-rule right-hand sides.
//!
//! A [`Template`] mirrors the expression constructors but references the
//! [`Bindings`] of a successful match: `Wild(0)` substitutes the bound
//! expression, `Const { f: CFn::Log2, of: 0, .. }` computes a new constant
//! from a bound constant (the paper's generalized rules relate constants
//! across the rule, e.g. `umlal x y (1 << c0)`), and type references
//! ([`TyRef`]) derive concrete types from bound operands.

use crate::index::OpKey;
use crate::pattern::Bindings;
use crate::term::Term;
use fpir::expr::{BinOp, CmpOp, Expr, FpirOp, RcExpr};
use fpir::types::{ScalarType, VectorType};
use fpir::MachOp;
use std::fmt;

/// A type reference resolved against match bindings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TyRef {
    /// The element type of the expression bound to wildcard `N`.
    OfWild(u8),
    /// The widened element type of wildcard `N`'s binding.
    WidenOfWild(u8),
    /// The narrowed element type of wildcard `N`'s binding.
    NarrowOfWild(u8),
    /// The widened *signed* type of wildcard `N`'s binding.
    WidenSignedOfWild(u8),
    /// The narrowed *unsigned* type of wildcard `N`'s binding.
    NarrowUnsignedOfWild(u8),
    /// A concrete type.
    Exact(ScalarType),
}

impl TyRef {
    /// The wildcard whose binding the type is derived from, if any.
    pub fn wild(self) -> Option<u8> {
        match self {
            TyRef::OfWild(i)
            | TyRef::WidenOfWild(i)
            | TyRef::NarrowOfWild(i)
            | TyRef::WidenSignedOfWild(i)
            | TyRef::NarrowUnsignedOfWild(i) => Some(i),
            TyRef::Exact(_) => None,
        }
    }

    /// Resolve to a concrete element type.
    pub fn resolve(self, b: &Bindings) -> Result<ScalarType, SubstError> {
        let of = |id: u8| b.expr(id).map(|e| e.elem()).ok_or(SubstError::UnboundWild(id));
        match self {
            TyRef::OfWild(i) => of(i),
            TyRef::WidenOfWild(i) => of(i)?.widen().ok_or(SubstError::NoSuchType),
            TyRef::NarrowOfWild(i) => of(i)?.narrow().ok_or(SubstError::NoSuchType),
            TyRef::WidenSignedOfWild(i) => {
                Ok(of(i)?.widen().ok_or(SubstError::NoSuchType)?.with_signed())
            }
            TyRef::NarrowUnsignedOfWild(i) => {
                Ok(of(i)?.narrow().ok_or(SubstError::NoSuchType)?.with_unsigned())
            }
            TyRef::Exact(t) => Ok(t),
        }
    }
}

/// A function of one bound constant, used to compute a template constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CFn {
    /// The constant itself.
    Id,
    /// `log2(c)` — requires a power of two (guard with `IsPow2`).
    Log2,
    /// `1 << c`.
    Pow2,
    /// `1 << (c - 1)` — the rounding term of a shift by `c`.
    Pow2AddHalf,
    /// `c + k`.
    Add(i128),
}

impl CFn {
    /// Apply to a constant.
    pub fn apply(self, c: i128) -> Result<i128, SubstError> {
        Ok(match self {
            CFn::Id => c,
            CFn::Log2 => {
                if !fpir::simplify::is_pow2(c) {
                    return Err(SubstError::NotPow2(c));
                }
                fpir::simplify::log2(c) as i128
            }
            CFn::Pow2 => {
                if !(0..=126).contains(&c) {
                    return Err(SubstError::ConstOutOfRange(c));
                }
                1i128 << c
            }
            CFn::Pow2AddHalf => {
                if !(1..=126).contains(&c) {
                    return Err(SubstError::ConstOutOfRange(c));
                }
                1i128 << (c - 1)
            }
            CFn::Add(k) => c + k,
        })
    }
}

/// A rewrite-rule right-hand side.
#[derive(Debug, Clone, PartialEq)]
pub enum Template {
    /// Substitute the expression bound to wildcard `N`.
    Wild(u8),
    /// A constant computed from the constant bound to wildcard `of`.
    Const {
        /// The function applied to the bound constant.
        f: CFn,
        /// Which constant wildcard to read.
        of: u8,
        /// The constant's element type.
        ty: TyRef,
    },
    /// A literal constant.
    Lit {
        /// The value.
        value: i128,
        /// The element type.
        ty: TyRef,
    },
    /// A primitive binary operation.
    Bin(BinOp, Box<Template>, Box<Template>),
    /// A comparison.
    Cmp(CmpOp, Box<Template>, Box<Template>),
    /// A select.
    Select(Box<Template>, Box<Template>, Box<Template>),
    /// A wrapping cast.
    Cast(TyRef, Box<Template>),
    /// A reinterpret.
    Reinterpret(TyRef, Box<Template>),
    /// An FPIR instruction (not `SaturatingCast` — use [`Template::SatCast`]).
    Fpir(FpirOp, Vec<Template>),
    /// A saturating cast to a resolved type.
    SatCast(TyRef, Box<Template>),
    /// A machine instruction with an explicit result type.
    Mach {
        /// The target opcode.
        op: MachOp,
        /// Result element type.
        ty: TyRef,
        /// Operands.
        args: Vec<Template>,
    },
}

impl Term for Template {
    /// `None` for a wildcard substitution or a constant; every saturating
    /// cast is [`OpKey::SatCast`].
    fn head(&self) -> Option<OpKey> {
        match self {
            Template::Wild(_) | Template::Const { .. } | Template::Lit { .. } => None,
            Template::Bin(op, ..) => Some(OpKey::Bin(*op)),
            Template::Cmp(op, ..) => Some(OpKey::Cmp(*op)),
            Template::Select(..) => Some(OpKey::Select),
            Template::Cast(..) => Some(OpKey::Cast),
            Template::Reinterpret(..) => Some(OpKey::Reinterpret),
            Template::SatCast(..) | Template::Fpir(FpirOp::SaturatingCast(_), _) => {
                Some(OpKey::SatCast)
            }
            Template::Fpir(op, _) => Some(OpKey::Fpir(*op)),
            Template::Mach { op, .. } => Some(OpKey::Mach(op.isa, op.code)),
        }
    }

    fn arity(&self) -> usize {
        match self {
            Template::Wild(_) | Template::Const { .. } | Template::Lit { .. } => 0,
            Template::Cast(..) | Template::Reinterpret(..) | Template::SatCast(..) => 1,
            Template::Bin(..) | Template::Cmp(..) => 2,
            Template::Select(..) => 3,
            Template::Fpir(_, args) | Template::Mach { args, .. } => args.len(),
        }
    }

    fn child(&self, i: usize) -> &Template {
        match (self, i) {
            (
                Template::Bin(_, a, _)
                | Template::Cmp(_, a, _)
                | Template::Select(a, _, _)
                | Template::Cast(_, a)
                | Template::Reinterpret(_, a)
                | Template::SatCast(_, a),
                0,
            ) => a,
            (Template::Bin(_, _, b) | Template::Cmp(_, _, b) | Template::Select(_, b, _), 1) => b,
            (Template::Select(_, _, c), 2) => c,
            (Template::Fpir(_, args) | Template::Mach { args, .. }, i) => &args[i],
            _ => panic!("child index {i} out of range"),
        }
    }
}

impl Template {
    /// This node's own type: a constant's type, or the result type of a
    /// cast-like or machine node.
    pub fn ty_ref(&self) -> Option<TyRef> {
        match self {
            Template::Const { ty, .. }
            | Template::Lit { ty, .. }
            | Template::Cast(ty, _)
            | Template::Reinterpret(ty, _)
            | Template::SatCast(ty, _)
            | Template::Mach { ty, .. } => Some(*ty),
            Template::Wild(_)
            | Template::Bin(..)
            | Template::Cmp(..)
            | Template::Select(..)
            | Template::Fpir(..) => None,
        }
    }
}

/// Substitution failure — indicates a mis-authored rule (the rewriter
/// treats it as a non-match, and `rulecheck` reports the rule as not
/// applying to its own instantiation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubstError {
    /// A template referenced a wildcard the pattern never bound.
    UnboundWild(u8),
    /// A referenced wildcard was not bound to a constant.
    NotConst(u8),
    /// A derived type does not exist (widening 64-bit, narrowing 8-bit).
    NoSuchType,
    /// `Log2` of a non-power-of-two.
    NotPow2(i128),
    /// A computed constant fell outside a usable range.
    ConstOutOfRange(i128),
    /// The substituted expression was ill-typed.
    Type(String),
}

impl fmt::Display for SubstError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubstError::UnboundWild(i) => write!(f, "template references unbound wildcard x{i}"),
            SubstError::NotConst(i) => write!(f, "wildcard x{i} is not bound to a constant"),
            SubstError::NoSuchType => write!(f, "derived type does not exist"),
            SubstError::NotPow2(c) => write!(f, "{c} is not a power of two"),
            SubstError::ConstOutOfRange(c) => write!(f, "computed constant {c} is out of range"),
            SubstError::Type(m) => write!(f, "ill-typed substitution: {m}"),
        }
    }
}

impl std::error::Error for SubstError {}

impl From<fpir::TypeError> for SubstError {
    fn from(e: fpir::TypeError) -> SubstError {
        SubstError::Type(e.to_string())
    }
}

/// Instantiate a template with match bindings. `lanes` supplies the lane
/// count for constants whose type is derived rather than copied.
pub fn substitute(t: &Template, b: &Bindings, lanes: u32) -> Result<RcExpr, SubstError> {
    match t {
        Template::Wild(i) => b.expr(*i).cloned().ok_or(SubstError::UnboundWild(*i)),
        Template::Const { f, of, ty } => {
            let c = b.const_value(*of).ok_or(SubstError::NotConst(*of))?;
            let v = f.apply(c)?;
            let elem = ty.resolve(b)?;
            Expr::constant(v, VectorType::new(elem, lanes)).map_err(Into::into)
        }
        Template::Lit { value, ty } => {
            let elem = ty.resolve(b)?;
            Expr::constant(*value, VectorType::new(elem, lanes)).map_err(Into::into)
        }
        Template::Bin(op, a, c) => {
            Expr::bin(*op, substitute(a, b, lanes)?, substitute(c, b, lanes)?).map_err(Into::into)
        }
        Template::Cmp(op, a, c) => {
            Expr::cmp(*op, substitute(a, b, lanes)?, substitute(c, b, lanes)?).map_err(Into::into)
        }
        Template::Select(c, x, y) => Expr::select(
            substitute(c, b, lanes)?,
            substitute(x, b, lanes)?,
            substitute(y, b, lanes)?,
        )
        .map_err(Into::into),
        Template::Cast(ty, inner) => Ok(Expr::cast(ty.resolve(b)?, substitute(inner, b, lanes)?)),
        Template::Reinterpret(ty, inner) => {
            Expr::reinterpret(ty.resolve(b)?, substitute(inner, b, lanes)?).map_err(Into::into)
        }
        Template::Fpir(op, args) => {
            let args =
                args.iter().map(|a| substitute(a, b, lanes)).collect::<Result<Vec<_>, _>>()?;
            Expr::fpir(*op, args).map_err(Into::into)
        }
        Template::SatCast(ty, inner) => {
            let elem = ty.resolve(b)?;
            Expr::fpir(FpirOp::SaturatingCast(elem), vec![substitute(inner, b, lanes)?])
                .map_err(Into::into)
        }
        Template::Mach { op, ty, args } => {
            let elem = ty.resolve(b)?;
            let args =
                args.iter().map(|a| substitute(a, b, lanes)).collect::<Result<Vec<_>, _>>()?;
            Ok(Expr::mach(*op, VectorType::new(elem, lanes), args))
        }
    }
}

impl fmt::Display for TyRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TyRef::OfWild(i) => write!(f, "type(x{i})"),
            TyRef::WidenOfWild(i) => write!(f, "widen(x{i})"),
            TyRef::NarrowOfWild(i) => write!(f, "narrow(x{i})"),
            TyRef::WidenSignedOfWild(i) => write!(f, "widen_signed(x{i})"),
            TyRef::NarrowUnsignedOfWild(i) => write!(f, "narrow_unsigned(x{i})"),
            TyRef::Exact(t) => write!(f, "{t}"),
        }
    }
}

impl fmt::Display for Template {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Template::Wild(i) => write!(f, "x{i}"),
            Template::Const { f: func, of, .. } => match func {
                CFn::Id => write!(f, "c{of}"),
                CFn::Log2 => write!(f, "log2(c{of})"),
                CFn::Pow2 => write!(f, "(1 << c{of})"),
                CFn::Pow2AddHalf => write!(f, "(1 << (c{of} - 1))"),
                CFn::Add(k) if *k >= 0 => write!(f, "(c{of} + {k})"),
                CFn::Add(k) => write!(f, "(c{of} - {})", -k),
            },
            Template::Lit { value, .. } => write!(f, "{value}"),
            Template::Bin(op, a, b) if op.is_call_syntax() => {
                write!(f, "{}({a}, {b})", op.symbol())
            }
            Template::Bin(op, a, b) => write!(f, "({a} {} {b})", op.symbol()),
            Template::Cmp(op, a, b) => write!(f, "({a} {} {b})", op.symbol()),
            Template::Select(c, t, e) => write!(f, "select({c}, {t}, {e})"),
            Template::Cast(ty, a) => write!(f, "cast<{ty}>({a})"),
            Template::Reinterpret(ty, a) => write!(f, "reinterpret<{ty}>({a})"),
            Template::SatCast(ty, a) => write!(f, "saturating_cast<{ty}>({a})"),
            Template::Fpir(op, args) => {
                write!(f, "{}(", op.name())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Template::Mach { op, args, .. } => {
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
    use crate::pattern::{match_pat, TypePat};
    use fpir::build;
    use fpir::types::{ScalarType as S, VectorType as V};

    #[test]
    fn substitutes_bound_wildcards() {
        // u16(x_u8) * c0 -> widening_shl(x_u8, log2(c0))   [is_pow2(c0)]
        let pat = pat_mul(
            crate::pattern::Pat::Cast(TypePat::WidenOf(0), Box::new(wild_t(0, TypePat::Var(0)))),
            cwild(1),
        );
        let tmpl = Template::Fpir(
            FpirOp::WideningShl,
            vec![Template::Wild(0), Template::Const { f: CFn::Log2, of: 1, ty: TyRef::OfWild(0) }],
        );
        let t = V::new(S::U8, 8);
        let x = build::var("x", t);
        let e = build::mul(build::widen(x.clone()), build::constant(4, V::new(S::U16, 8)));
        let b = match_pat(&pat, &e).unwrap();
        let out = substitute(&tmpl, &b, 8).unwrap();
        assert_eq!(out.to_string(), "widening_shl(x_u8, 2)");
        assert_eq!(out.ty(), V::new(S::U16, 8));
    }

    #[test]
    fn log2_of_non_pow2_fails() {
        let tmpl = Template::Const { f: CFn::Log2, of: 0, ty: TyRef::OfWild(0) };
        let pat = cwild(0);
        let e = build::constant(6, V::new(S::U8, 4));
        let b = match_pat(&pat, &e).unwrap();
        assert_eq!(substitute(&tmpl, &b, 4), Err(SubstError::NotPow2(6)));
    }

    #[test]
    fn unbound_wildcard_fails() {
        let b = Bindings::new();
        assert_eq!(substitute(&Template::Wild(3), &b, 4), Err(SubstError::UnboundWild(3)));
    }

    /// One fixture per variant whose operands are `x0, x1, ...` in order:
    /// the walk reports them through `arity`/`child` and `subterms`, and
    /// the node's own type through `ty_ref`.
    #[test]
    fn walk_visits_every_variants_operands_in_order() {
        use fpir::{Isa, MachOp};
        let ty = TyRef::WidenOfWild(5);
        let xs = |n: u8| (0..n).map(Template::Wild).collect::<Vec<_>>();
        let x = |i| Box::new(Template::Wild(i));
        let op = MachOp { isa: Isa::HexagonHvx, code: 0, name: "op" };
        let cases = [
            (Template::Wild(7), 0, None),
            (Template::Const { f: CFn::Log2, of: 7, ty }, 0, Some(ty)),
            (Template::Lit { value: 3, ty }, 0, Some(ty)),
            (Template::Bin(BinOp::Sub, x(0), x(1)), 2, None),
            (Template::Cmp(CmpOp::Lt, x(0), x(1)), 2, None),
            (Template::Select(x(0), x(1), x(2)), 3, None),
            (Template::Cast(ty, x(0)), 1, Some(ty)),
            (Template::Reinterpret(ty, x(0)), 1, Some(ty)),
            (Template::Fpir(FpirOp::MulShr, xs(3)), 3, None),
            (Template::SatCast(ty, x(0)), 1, Some(ty)),
            (Template::Mach { op, ty, args: xs(4) }, 4, Some(ty)),
        ];
        for (t, n, own) in &cases {
            assert_eq!(t.arity(), *n, "{t}");
            let operands: Vec<Template> = (0..t.arity()).map(|i| t.child(i).clone()).collect();
            assert_eq!(operands, xs(*n as u8), "{t}");
            let walked: Vec<&Template> = t.subterms().collect();
            assert_eq!(walked[0], t);
            assert_eq!(walked[1..].iter().map(|u| (*u).clone()).collect::<Vec<_>>(), operands);
            assert_eq!(t.ty_ref(), *own, "{t}");
        }
        // Pre-order: a node's operands come right after it.
        let sum = Template::Bin(BinOp::Add, x(0), x(1));
        let nested = Template::Select(Box::new(sum), x(2), x(3));
        let order: Vec<String> = nested.subterms().skip(1).map(|u| u.to_string()).collect();
        assert_eq!(order, ["(x0 + x1)", "x0", "x1", "x2", "x3"]);
    }

    #[test]
    fn cfn_apply() {
        assert_eq!(CFn::Pow2.apply(3).unwrap(), 8);
        assert_eq!(CFn::Pow2AddHalf.apply(3).unwrap(), 4);
        assert_eq!(CFn::Add(-1).apply(3).unwrap(), 2);
    }
}
