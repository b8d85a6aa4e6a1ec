//! Rule predicates — compile-time side conditions.
//!
//! Simple predicates constrain bound constants (`is_pow2(c0)`,
//! `0 < c0 < 256`); the powerful ones are *bounds queries* answered by
//! interval analysis (§3.3), such as `fits_narrow(rounding_shr(x0, c1))`,
//! which licenses the fused shift-round-narrow instructions (§5.3.1).

use crate::pattern::Bindings;
use fpir::bounds::BoundsCtx;
use std::fmt;

/// A side condition evaluated against match bindings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate {
    /// Always true.
    True,
    /// Conjunction.
    All(Vec<Predicate>),
    /// The constant bound to wildcard `N` is a power of two.
    IsPow2(u8),
    /// `lo <= c_N <= hi`.
    ConstInRange {
        /// Constant wildcard index.
        id: u8,
        /// Inclusive lower bound.
        lo: i128,
        /// Inclusive upper bound.
        hi: i128,
    },
    /// `c_N == value`.
    ConstEq {
        /// Constant wildcard index.
        id: u8,
        /// Required value.
        value: i128,
    },
    /// `c_N` equals the bit width of its own lane type (e.g. the shift in
    /// `mul_shr(x_i16, y_i16, 16) -> vpmulhw`).
    ConstEqOwnBits(u8),
    /// `c_N` equals `bits(type(c_N)) - 1` (the `sqrdmulh` shift).
    ConstEqOwnBitsMinus1(u8),
    /// `c_N >= bits(type(c_N)) / 2` — a shift count at least the narrowed
    /// width, making a wrapping narrow of the shifted value exact.
    ConstGeHalfOwnBits(u8),
    /// `c_N <= bits(type(c_N)) / 2` — a shift count no larger than the
    /// narrowed width (rounding-shift lifts are only exact up to there).
    ConstLeHalfOwnBits(u8),
    /// `c_N == bits(type(c_N)) / 2` — exactly the narrowed width (the
    /// scale-back shift after a widening multiply).
    ConstEqHalfOwnBits(u8),
    /// `c_N <= bits(type(c_N))` — a shift count within the lane width.
    ConstLeOwnBits(u8),
    /// `c_N` equals the max value of the *narrowed* version of its own
    /// lane type (the `255` in `u8(min(x_u16, 255))`).
    ConstEqOwnNarrowMax(u8),
    /// `c_N` equals the min value of the narrowed version of its own lane
    /// type (the `-128` clamp of a signed saturating narrow).
    ConstEqOwnNarrowMin(u8),
    /// `c_N` equals the max value of the narrowed *unsigned* version of
    /// its own lane type (the `255` in `u8(max(min(x_i16, 255), 0))`).
    ConstEqOwnNarrowUnsignedMax(u8),
    /// `c_id == 1 << (c_of - 1)` — the rounding-term relation of §4.3's
    /// "two to the power of another" generalization.
    Pow2Link {
        /// The rounding-term constant.
        id: u8,
        /// The shift-count constant.
        of: u8,
    },
    /// Bounds query: the expression bound to wildcard `N` always fits the
    /// *signed* type of its own width (safe reinterpretation, §4.3 #3).
    FitsSignedSameWidth(u8),
    /// Bounds query: adding the constant bound to wildcard `c` to the
    /// expression bound to wildcard `x` cannot overflow `x`'s lane type.
    AddConstFits {
        /// Expression wildcard.
        x: u8,
        /// Constant wildcard.
        c: u8,
    },
    /// Bounds query: adding the rounding term `2^(c-1)` to `x` cannot
    /// overflow `x`'s lane type — licensing the two-instruction
    /// `add; shift` implementation of a rounding shift.
    RoundTermAddFits {
        /// Expression wildcard.
        x: u8,
        /// Constant (shift count) wildcard.
        c: u8,
    },
    /// Bounds query: `rounding_shr(x, c)` always fits `x`'s *narrowed*
    /// lane type — the derived predicate licensing fused
    /// shift-round-narrow instructions (§5.3.1).
    FitsNarrowAfterRoundShr {
        /// Expression wildcard.
        x: u8,
        /// Constant (shift count) wildcard.
        c: u8,
    },
}

impl Predicate {
    /// Evaluate against bindings, answering bounds queries through `ctx`.
    ///
    /// An unbound wildcard makes the predicate false (the rule simply does
    /// not apply).
    pub fn eval(&self, b: &Bindings, ctx: &mut BoundsCtx) -> bool {
        match self {
            Predicate::True => true,
            Predicate::All(ps) => ps.iter().all(|p| p.eval(b, ctx)),
            Predicate::IsPow2(id) => b.const_value(*id).is_some_and(fpir::simplify::is_pow2),
            Predicate::ConstInRange { id, lo, hi } => {
                b.const_value(*id).is_some_and(|c| c >= *lo && c <= *hi)
            }
            Predicate::ConstEq { id, value } => b.const_value(*id) == Some(*value),
            Predicate::ConstEqOwnBits(id) => {
                own_const(b, *id).is_some_and(|(t, c)| c == t.bits() as i128)
            }
            Predicate::ConstEqOwnBitsMinus1(id) => {
                own_const(b, *id).is_some_and(|(t, c)| c == t.bits() as i128 - 1)
            }
            Predicate::ConstGeHalfOwnBits(id) => {
                own_const(b, *id).is_some_and(|(t, c)| c >= (t.bits() / 2) as i128)
            }
            Predicate::ConstLeHalfOwnBits(id) => {
                own_const(b, *id).is_some_and(|(t, c)| c <= (t.bits() / 2) as i128)
            }
            Predicate::ConstEqHalfOwnBits(id) => {
                own_const(b, *id).is_some_and(|(t, c)| c == (t.bits() / 2) as i128)
            }
            Predicate::ConstLeOwnBits(id) => {
                own_const(b, *id).is_some_and(|(t, c)| c <= t.bits() as i128)
            }
            Predicate::ConstEqOwnNarrowMax(id) => own_const(b, *id)
                .is_some_and(|(t, c)| t.narrow().is_some_and(|n| c == n.max_value())),
            Predicate::ConstEqOwnNarrowMin(id) => own_const(b, *id)
                .is_some_and(|(t, c)| t.narrow().is_some_and(|n| c == n.min_value())),
            Predicate::ConstEqOwnNarrowUnsignedMax(id) => {
                own_const(b, *id).is_some_and(|(t, c)| {
                    t.narrow().is_some_and(|n| c == n.with_unsigned().max_value())
                })
            }
            Predicate::Pow2Link { id, of } => match (b.const_value(*id), b.const_value(*of)) {
                (Some(ci), Some(co)) => (1..=126).contains(&co) && ci == 1i128 << (co - 1),
                _ => false,
            },
            Predicate::FitsSignedSameWidth(id) => {
                b.expr(*id).is_some_and(|e| ctx.fits(e, e.elem().with_signed()))
            }
            Predicate::AddConstFits { x, c } => match (b.expr(*x).cloned(), b.const_value(*c)) {
                (Some(e), Some(cv)) if cv >= 0 => ctx.interval(&e).max + cv <= e.elem().max_value(),
                _ => false,
            },
            Predicate::RoundTermAddFits { x, c } => {
                match (b.expr(*x).cloned(), b.const_value(*c)) {
                    (Some(e), Some(cv)) if (1..=126).contains(&cv) => {
                        ctx.interval(&e).max + (1i128 << (cv - 1)) <= e.elem().max_value()
                    }
                    _ => false,
                }
            }
            Predicate::FitsNarrowAfterRoundShr { x, c } => {
                match (b.expr(*x).cloned(), b.const_value(*c)) {
                    (Some(e), Some(cv)) if (0..=126).contains(&cv) => {
                        let Some(narrow) = e.elem().narrow() else {
                            return false;
                        };
                        let iv = ctx.interval(&e);
                        let f = |v: i128| {
                            if cv == 0 {
                                v
                            } else {
                                (v + (1i128 << (cv - 1))) >> cv
                            }
                        };
                        narrow.contains(f(iv.min)) && narrow.contains(f(iv.max))
                    }
                    _ => false,
                }
            }
        }
    }

    /// A candidate constant value satisfying this predicate for wildcard
    /// `id` (of element type `elem`), used when instantiating rules for
    /// validation and verification.
    pub fn candidate_const(&self, id: u8, elem: fpir::ScalarType) -> Option<i128> {
        match self {
            Predicate::All(ps) => ps.iter().find_map(|p| p.candidate_const(id, elem)),
            Predicate::IsPow2(i) if *i == id => Some(4),
            Predicate::ConstInRange { id: i, lo, hi } if *i == id => {
                // Prefer a small positive representative.
                Some((*lo).max(1).min(*hi))
            }
            Predicate::ConstEq { id: i, value } if *i == id => Some(*value),
            Predicate::ConstEqOwnBits(i) if *i == id => Some(elem.bits() as i128),
            Predicate::ConstEqOwnBitsMinus1(i) if *i == id => Some(elem.bits() as i128 - 1),
            Predicate::ConstGeHalfOwnBits(i) if *i == id => Some((elem.bits() / 2) as i128),
            Predicate::ConstLeHalfOwnBits(i) if *i == id => Some(1.max(elem.bits() as i128 / 4)),
            Predicate::ConstEqHalfOwnBits(i) if *i == id => Some((elem.bits() / 2) as i128),
            Predicate::ConstLeOwnBits(i) if *i == id => Some(elem.bits() as i128 / 2),
            Predicate::ConstEqOwnNarrowMax(i) if *i == id => elem.narrow().map(|n| n.max_value()),
            Predicate::ConstEqOwnNarrowMin(i) if *i == id => elem.narrow().map(|n| n.min_value()),
            Predicate::ConstEqOwnNarrowUnsignedMax(i) if *i == id => {
                elem.narrow().map(|n| n.with_unsigned().max_value())
            }
            Predicate::Pow2Link { id: i, of } if *i == id => {
                // Pairs with the `of` candidate below: of=3 -> 1 << 2 = 4.
                let _ = of;
                Some(4)
            }
            Predicate::Pow2Link { of, .. } if *of == id => Some(3),
            Predicate::AddConstFits { c, .. } if *c == id => Some(1),
            Predicate::FitsNarrowAfterRoundShr { c, .. } if *c == id => {
                Some((elem.bits() / 2) as i128)
            }
            Predicate::RoundTermAddFits { c, .. } if *c == id => Some(1),
            _ => None,
        }
    }

    /// All plausible candidate constants for wildcard `id` — instantiation
    /// tries the cartesian product of these across a rule's constants, so
    /// conjunctions whose predicates interact (e.g. `Pow2Link` with
    /// `ConstEqHalfOwnBits`) still find a coherent assignment.
    pub fn candidate_consts(&self, id: u8, elem: fpir::ScalarType) -> Vec<i128> {
        let mut out = Vec::new();
        self.collect_candidates(id, elem, &mut out);
        out.dedup();
        out
    }

    fn collect_candidates(&self, id: u8, elem: fpir::ScalarType, out: &mut Vec<i128>) {
        if let Predicate::All(ps) = self {
            for p in ps {
                p.collect_candidates(id, elem, out);
            }
            return;
        }
        if let Some(c) = self.candidate_const(id, elem) {
            out.push(c);
        }
        // Pow2Link terms paired with a half-own-bits or own-bits count.
        if let Predicate::Pow2Link { id: i, .. } = self {
            if *i == id {
                let half = elem.bits() as i128 / 2;
                if half >= 1 {
                    out.push(1i128 << (half - 1));
                }
                out.push(1i128 << (elem.bits() as i128 - 1).min(62));
            }
        }
        if let Predicate::Pow2Link { of, .. } = self {
            if *of == id {
                out.push(elem.bits() as i128 / 2);
                out.push(elem.bits() as i128 - 1);
            }
        }
    }

    /// The flattened leaf conjuncts: nested [`Predicate::All`] nodes are
    /// expanded recursively; every other variant is itself a leaf.
    /// `All([])` contributes nothing (it is trivially true).
    pub fn conjuncts(&self) -> Vec<&Predicate> {
        fn walk<'a>(p: &'a Predicate, out: &mut Vec<&'a Predicate>) {
            match p {
                Predicate::All(ps) => {
                    for q in ps {
                        walk(q, out);
                    }
                }
                other => out.push(other),
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }

    /// Whether this predicate restricts the rule's *value* inputs to a
    /// sub-range of their types (a bounds query over an expression
    /// wildcard). A rule with a domain-restricting predicate is only
    /// claimed sound over the restricted region, so full-range
    /// exhaustive checking does not apply to it; constant-only
    /// predicates (`IsPow2`, `ConstEq`, …) pick the instantiation but
    /// leave the value inputs unconstrained.
    pub fn restricts_domain(&self) -> bool {
        self.conjuncts().iter().any(|p| {
            matches!(
                p,
                Predicate::FitsSignedSameWidth(_)
                    | Predicate::AddConstFits { .. }
                    | Predicate::RoundTermAddFits { .. }
                    | Predicate::FitsNarrowAfterRoundShr { .. }
            )
        })
    }

    /// Wildcard ids this predicate reads as bound *constants*.
    pub fn const_refs(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for leaf in self.conjuncts() {
            match leaf {
                Predicate::IsPow2(id)
                | Predicate::ConstInRange { id, .. }
                | Predicate::ConstEq { id, .. }
                | Predicate::ConstEqOwnBits(id)
                | Predicate::ConstEqOwnBitsMinus1(id)
                | Predicate::ConstGeHalfOwnBits(id)
                | Predicate::ConstLeHalfOwnBits(id)
                | Predicate::ConstEqHalfOwnBits(id)
                | Predicate::ConstLeOwnBits(id)
                | Predicate::ConstEqOwnNarrowMax(id)
                | Predicate::ConstEqOwnNarrowMin(id)
                | Predicate::ConstEqOwnNarrowUnsignedMax(id) => out.push(*id),
                Predicate::Pow2Link { id, of } => {
                    out.push(*id);
                    out.push(*of);
                }
                Predicate::AddConstFits { c, .. }
                | Predicate::RoundTermAddFits { c, .. }
                | Predicate::FitsNarrowAfterRoundShr { c, .. } => out.push(*c),
                _ => {}
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Wildcard ids this predicate reads as bound *expressions* (bounds
    /// queries).
    pub fn expr_refs(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for leaf in self.conjuncts() {
            match leaf {
                Predicate::FitsSignedSameWidth(id) => out.push(*id),
                Predicate::AddConstFits { x, .. }
                | Predicate::RoundTermAddFits { x, .. }
                | Predicate::FitsNarrowAfterRoundShr { x, .. } => out.push(*x),
                _ => {}
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// The `(type, value)` of a constant-bound wildcard.
fn own_const(b: &Bindings, id: u8) -> Option<(fpir::ScalarType, i128)> {
    b.expr(id).and_then(|e| e.as_const().map(|c| (e.elem(), c)))
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::True => write!(f, "true"),
            Predicate::All(ps) => {
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " && ")?;
                    }
                    write!(f, "{p}")?;
                }
                Ok(())
            }
            Predicate::IsPow2(id) => write!(f, "is_pow2(c{id})"),
            Predicate::ConstInRange { id, lo, hi } => write!(f, "{lo} <= c{id} <= {hi}"),
            Predicate::ConstEq { id, value } => write!(f, "c{id} == {value}"),
            Predicate::ConstEqOwnBits(id) => write!(f, "c{id} == bits(c{id})"),
            Predicate::ConstEqOwnBitsMinus1(id) => write!(f, "c{id} == bits(c{id}) - 1"),
            Predicate::ConstGeHalfOwnBits(id) => write!(f, "c{id} >= bits(c{id}) / 2"),
            Predicate::ConstLeHalfOwnBits(id) => write!(f, "c{id} <= bits(c{id}) / 2"),
            Predicate::ConstEqHalfOwnBits(id) => write!(f, "c{id} == bits(c{id}) / 2"),
            Predicate::ConstLeOwnBits(id) => write!(f, "c{id} <= bits(c{id})"),
            Predicate::ConstEqOwnNarrowMax(id) => write!(f, "c{id} == narrow_max(c{id})"),
            Predicate::ConstEqOwnNarrowMin(id) => write!(f, "c{id} == narrow_min(c{id})"),
            Predicate::ConstEqOwnNarrowUnsignedMax(id) => {
                write!(f, "c{id} == narrow_umax(c{id})")
            }
            Predicate::Pow2Link { id, of } => write!(f, "c{id} == 1 << (c{of} - 1)"),
            Predicate::FitsSignedSameWidth(id) => write!(f, "fits_signed(x{id})"),
            Predicate::AddConstFits { x, c } => write!(f, "no_overflow(x{x} + c{c})"),
            Predicate::FitsNarrowAfterRoundShr { x, c } => {
                write!(f, "fits_narrow(rounding_shr(x{x}, c{c}))")
            }
            Predicate::RoundTermAddFits { x, c } => {
                write!(f, "no_overflow(x{x} + (1 << (c{c} - 1)))")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::*;
    use crate::pattern::match_pat;
    use fpir::build;
    use fpir::types::{ScalarType as S, VectorType as V};

    #[test]
    fn pow2_and_range() {
        let e = build::constant(8, V::new(S::U8, 4));
        let b = match_pat(&cwild(0), &e).unwrap();
        let mut ctx = BoundsCtx::new();
        assert!(Predicate::IsPow2(0).eval(&b, &mut ctx));
        assert!(Predicate::ConstInRange { id: 0, lo: 0, hi: 255 }.eval(&b, &mut ctx));
        assert!(!Predicate::ConstEq { id: 0, value: 7 }.eval(&b, &mut ctx));
    }

    #[test]
    fn bounds_query_fits_signed() {
        // widening_add(u8, u8) <= 510 fits i16.
        let t = V::new(S::U8, 4);
        let e = build::widening_add(build::var("a", t), build::var("b", t));
        let b = match_pat(&wild(0), &e).unwrap();
        let mut ctx = BoundsCtx::new();
        assert!(Predicate::FitsSignedSameWidth(0).eval(&b, &mut ctx));
        // A raw u16 variable does not provably fit i16.
        let e = build::var("x", V::new(S::U16, 4));
        let b = match_pat(&wild(0), &e).unwrap();
        assert!(!Predicate::FitsSignedSameWidth(0).eval(&b, &mut ctx));
    }

    #[test]
    fn unbound_is_false() {
        let b = crate::pattern::Bindings::new();
        let mut ctx = BoundsCtx::new();
        assert!(!Predicate::IsPow2(0).eval(&b, &mut ctx));
        assert!(!Predicate::FitsSignedSameWidth(2).eval(&b, &mut ctx));
    }

    #[test]
    fn empty_conjunction_is_vacuously_true() {
        // `All([])` holds even with nothing bound — which is exactly why
        // the lint's predicate analysis warns about writing one.
        let b = crate::pattern::Bindings::new();
        let mut ctx = BoundsCtx::new();
        assert!(Predicate::All(vec![]).eval(&b, &mut ctx));
        // Nested empty conjunctions collapse the same way.
        assert!(Predicate::All(vec![Predicate::All(vec![])]).eval(&b, &mut ctx));
    }

    #[test]
    fn degenerate_range_admits_exactly_one_value() {
        let mut ctx = BoundsCtx::new();
        let p = Predicate::ConstInRange { id: 0, lo: 5, hi: 5 };
        let hit = build::constant(5, V::new(S::U8, 4));
        assert!(p.eval(&match_pat(&cwild(0), &hit).unwrap(), &mut ctx));
        for miss in [4, 6] {
            let e = build::constant(miss, V::new(S::U8, 4));
            assert!(!p.eval(&match_pat(&cwild(0), &e).unwrap(), &mut ctx));
        }
        // An inverted (empty) range rejects even its own endpoints.
        let empty = Predicate::ConstInRange { id: 0, lo: 5, hi: 1 };
        assert!(!empty.eval(&match_pat(&cwild(0), &hit).unwrap(), &mut ctx));
    }

    #[test]
    fn pow2_rejects_zero_and_negatives() {
        let mut ctx = BoundsCtx::new();
        for (v, expect) in [(0, false), (-1, false), (-2, false), (-8, false), (1, true), (2, true)]
        {
            let e = build::constant(v, V::new(S::I16, 4));
            let b = match_pat(&cwild(0), &e).unwrap();
            assert_eq!(Predicate::IsPow2(0).eval(&b, &mut ctx), expect, "is_pow2({v})");
        }
    }

    #[test]
    fn every_leaf_is_false_on_unbound_wildcards() {
        // Sweep the whole predicate vocabulary against empty bindings:
        // an unbound index must read as "rule does not apply", never panic.
        let b = crate::pattern::Bindings::new();
        let mut ctx = BoundsCtx::new();
        let leaves = [
            Predicate::IsPow2(3),
            Predicate::ConstInRange { id: 3, lo: 0, hi: 10 },
            Predicate::ConstEq { id: 3, value: 1 },
            Predicate::ConstEqOwnBits(3),
            Predicate::ConstEqOwnBitsMinus1(3),
            Predicate::ConstGeHalfOwnBits(3),
            Predicate::ConstLeHalfOwnBits(3),
            Predicate::ConstEqHalfOwnBits(3),
            Predicate::ConstLeOwnBits(3),
            Predicate::ConstEqOwnNarrowMax(3),
            Predicate::ConstEqOwnNarrowMin(3),
            Predicate::ConstEqOwnNarrowUnsignedMax(3),
            Predicate::Pow2Link { id: 3, of: 4 },
            Predicate::FitsSignedSameWidth(3),
            Predicate::AddConstFits { x: 3, c: 4 },
            Predicate::RoundTermAddFits { x: 3, c: 4 },
            Predicate::FitsNarrowAfterRoundShr { x: 3, c: 4 },
        ];
        for p in leaves {
            assert!(!p.eval(&b, &mut ctx), "{p:?} must be false when x3/c3 is unbound");
        }
    }

    #[test]
    fn const_eq_own_bits() {
        let e = build::constant(16, V::new(S::I16, 4));
        let b = match_pat(&cwild(0), &e).unwrap();
        let mut ctx = BoundsCtx::new();
        assert!(Predicate::ConstEqOwnBits(0).eval(&b, &mut ctx));
    }

    #[test]
    fn candidate_consts() {
        use fpir::ScalarType as S;
        assert_eq!(Predicate::IsPow2(0).candidate_const(0, S::U8), Some(4));
        assert_eq!(
            Predicate::ConstInRange { id: 1, lo: 0, hi: 255 }.candidate_const(1, S::U8),
            Some(1)
        );
        assert_eq!(Predicate::IsPow2(0).candidate_const(1, S::U8), None);
        assert_eq!(Predicate::ConstEqOwnNarrowMax(0).candidate_const(0, S::U16), Some(255));
        assert_eq!(Predicate::ConstEqOwnNarrowMin(0).candidate_const(0, S::I16), Some(-128));
        assert_eq!(Predicate::ConstEqOwnNarrowUnsignedMax(0).candidate_const(0, S::I16), Some(255));
        assert_eq!(Predicate::ConstEqOwnBits(0).candidate_const(0, S::I16), Some(16));
    }

    #[test]
    fn pow2_link_holds() {
        use fpir::types::VectorType as V;
        use fpir::ScalarType as S;
        let t = V::new(S::U16, 4);
        let p = crate::dsl::pat_add(cwild(0), cwild(1));
        let e = build::add(build::constant(8, t), build::constant(4, t));
        let b = match_pat(&p, &e).unwrap();
        let mut ctx = BoundsCtx::new();
        assert!(Predicate::Pow2Link { id: 0, of: 1 }.eval(&b, &mut ctx));
        assert!(!Predicate::Pow2Link { id: 1, of: 0 }.eval(&b, &mut ctx));
    }
}
