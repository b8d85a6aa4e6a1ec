//! Terse constructors for writing rules by hand.
//!
//! Rule files read close to the paper's notation:
//!
//! ```text
//! u16(x_u8) + y_u16 -> extending_add(y_u16, x_u8)
//! ```
//!
//! becomes
//!
//! ```
//! use fpir_trs::dsl::*;
//! use fpir_trs::pattern::{Pat, TypePat};
//! use fpir_trs::template::{Template, TyRef};
//! use fpir::FpirOp;
//!
//! let lhs = pat_add(widen_cast(0), wild_t(1, TypePat::WidenOf(0)));
//! let rhs = Template::Fpir(FpirOp::ExtendingAdd, vec![tw(1), tw(0)]);
//! ```

use crate::pattern::{Pat, TypePat};
use crate::template::{CFn, Template, TyRef};
use fpir::expr::{BinOp, CmpOp, FpirOp};

/// Wildcard `xN` with no type constraint.
pub fn wild(id: u8) -> Pat {
    Pat::Wild { id, ty: TypePat::Any }
}

/// Wildcard `xN` constrained by a type pattern.
pub fn wild_t(id: u8, ty: TypePat) -> Pat {
    Pat::Wild { id, ty }
}

/// Wildcard binding type variable `tN` with the same index.
pub fn wild_v(id: u8) -> Pat {
    Pat::Wild { id, ty: TypePat::Var(id) }
}

/// Constant wildcard `cN` with no type constraint.
pub fn cwild(id: u8) -> Pat {
    Pat::ConstWild { id, ty: TypePat::Any }
}

/// Constant wildcard `cN` constrained by a type pattern.
pub fn cwild_t(id: u8, ty: TypePat) -> Pat {
    Pat::ConstWild { id, ty }
}

/// A literal constant of any type.
pub fn lit(v: i128) -> Pat {
    Pat::Lit(v, TypePat::Any)
}

/// A literal constant constrained by a type pattern.
pub fn lit_t(v: i128, ty: TypePat) -> Pat {
    Pat::Lit(v, ty)
}

/// `u16(x)`-style widening cast of wildcard `id` (binds type var `id`).
pub fn widen_cast(id: u8) -> Pat {
    Pat::Cast(TypePat::WidenOf(id), Box::new(wild_t(id, TypePat::Var(id))))
}

macro_rules! pat_bin_helpers {
    ($($(#[$doc:meta])* $name:ident => $op:ident),* $(,)?) => {
        $(
            $(#[$doc])*
            pub fn $name(a: Pat, b: Pat) -> Pat {
                Pat::Bin(BinOp::$op, Box::new(a), Box::new(b))
            }
        )*
    };
}

pat_bin_helpers! {
    /// `a + b` pattern.
    pat_add => Add,
    /// `a - b` pattern.
    pat_sub => Sub,
    /// `a * b` pattern.
    pat_mul => Mul,
    /// `a / b` pattern.
    pat_div => Div,
    /// `min(a, b)` pattern.
    pat_min => Min,
    /// `max(a, b)` pattern.
    pat_max => Max,
    /// `a << b` pattern.
    pat_shl => Shl,
    /// `a >> b` pattern.
    pat_shr => Shr,
    /// `a & b` pattern.
    pat_and => And,
    /// `a | b` pattern.
    pat_or => Or,
    /// `a ^ b` pattern.
    pat_xor => Xor,
}

/// Comparison pattern.
pub fn pat_cmp(op: CmpOp, a: Pat, b: Pat) -> Pat {
    Pat::Cmp(op, Box::new(a), Box::new(b))
}

/// Select pattern.
pub fn pat_select(c: Pat, t: Pat, f: Pat) -> Pat {
    Pat::Select(Box::new(c), Box::new(t), Box::new(f))
}

/// Binary FPIR instruction pattern.
pub fn pat_fpir2(op: FpirOp, a: Pat, b: Pat) -> Pat {
    Pat::Fpir(op, vec![a, b])
}

/// Template wildcard `xN`.
pub fn tw(id: u8) -> Template {
    Template::Wild(id)
}

/// Template: the bound constant `cN` unchanged, typed like wildcard `ty_of`.
pub fn tconst(id: u8, ty_of: u8) -> Template {
    Template::Const { f: CFn::Id, of: id, ty: TyRef::OfWild(ty_of) }
}

/// Template: a constant computed from `cN`.
pub fn tconst_f(f: CFn, id: u8, ty: TyRef) -> Template {
    Template::Const { f, of: id, ty }
}

/// Template: a literal typed like wildcard `ty_of`.
pub fn tlit(value: i128, ty_of: u8) -> Template {
    Template::Lit { value, ty: TyRef::OfWild(ty_of) }
}

/// Binary FPIR instruction template.
pub fn tfpir2(op: FpirOp, a: Template, b: Template) -> Template {
    Template::Fpir(op, vec![a, b])
}

/// Binary primitive template.
pub fn tbin(op: BinOp, a: Template, b: Template) -> Template {
    Template::Bin(op, Box::new(a), Box::new(b))
}
