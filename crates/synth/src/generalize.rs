//! Rewrite-pair generalization (§4.3).
//!
//! A synthesized pair is a *concrete* `(lhs, rhs)` expression pair. This
//! module turns it into a symbolic [`Rule`]:
//!
//! 1. variables become wildcards; every occurrence of the same constant
//!    becomes one symbolic constant wildcard (§4.3 technique 1);
//! 2. right-hand-side constants are related to left-hand-side ones —
//!    identity, `log2`, `1 << c`, `c ± k` (technique 2's "two to the
//!    power of another");
//! 3. the valid range of each symbolic constant is found by **binary
//!    search** over the constant's type, probing each bound with the
//!    verifier (the paper's approach verbatim);
//! 4. the generalized rule is re-verified before being accepted — a
//!    generalization is only an *attempt*.

use crate::verify::{verify_rule_at, VerifyOptions};
use fpir::expr::{ExprKind, FpirOp, RcExpr};
use fpir::types::ScalarType;
use fpir_trs::pattern::{Pat, TypePat};
use fpir_trs::predicate::Predicate;
use fpir_trs::rule::{Rule, RuleClass};
use fpir_trs::template::{CFn, Template, TyRef};
use fpir_trs::Term;
use std::collections::BTreeMap;

/// Failure to generalize a pair.
#[derive(Debug, Clone)]
pub struct GeneralizeError {
    /// Why.
    pub what: String,
}

impl std::fmt::Display for GeneralizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot generalize: {}", self.what)
    }
}

impl std::error::Error for GeneralizeError {}

/// Binding state shared between pattern and template construction.
#[derive(Debug, Default)]
struct Binder {
    vars: BTreeMap<String, u8>,
    consts: BTreeMap<(i128, ScalarType), u8>,
    next: u8,
}

impl Binder {
    fn var_id(&mut self, name: &str) -> Option<u8> {
        if let Some(&id) = self.vars.get(name) {
            return Some(id);
        }
        let id = self.fresh()?;
        self.vars.insert(name.to_string(), id);
        Some(id)
    }

    fn const_id(&mut self, value: i128, elem: ScalarType) -> Option<u8> {
        if let Some(&id) = self.consts.get(&(value, elem)) {
            return Some(id);
        }
        let id = self.fresh()?;
        self.consts.insert((value, elem), id);
        Some(id)
    }

    fn fresh(&mut self) -> Option<u8> {
        if (self.next as usize) < fpir_trs::pattern::MAX_WILDS {
            let id = self.next;
            self.next += 1;
            Some(id)
        } else {
            None
        }
    }
}

/// Convert a concrete lhs into a pattern: variables → typed wildcards,
/// constants → symbolic constant wildcards.
fn expr_to_pattern(e: &RcExpr, b: &mut Binder) -> Result<Pat, GeneralizeError> {
    let err = |m: &str| GeneralizeError { what: m.to_string() };
    match e.kind() {
        ExprKind::Var(name) => {
            let id = b.var_id(name).ok_or_else(|| err("too many wildcards"))?;
            Ok(Pat::Wild { id, ty: TypePat::Exact(e.elem()) })
        }
        ExprKind::Const(v) => {
            let id = b.const_id(*v, e.elem()).ok_or_else(|| err("too many wildcards"))?;
            Ok(Pat::ConstWild { id, ty: TypePat::Exact(e.elem()) })
        }
        ExprKind::Bin(op, x, y) => {
            Ok(Pat::Bin(*op, Box::new(expr_to_pattern(x, b)?), Box::new(expr_to_pattern(y, b)?)))
        }
        ExprKind::Cmp(op, x, y) => {
            Ok(Pat::Cmp(*op, Box::new(expr_to_pattern(x, b)?), Box::new(expr_to_pattern(y, b)?)))
        }
        ExprKind::Select(c, t, f) => Ok(Pat::Select(
            Box::new(expr_to_pattern(c, b)?),
            Box::new(expr_to_pattern(t, b)?),
            Box::new(expr_to_pattern(f, b)?),
        )),
        ExprKind::Cast(x) => {
            Ok(Pat::Cast(TypePat::Exact(e.elem()), Box::new(expr_to_pattern(x, b)?)))
        }
        ExprKind::Reinterpret(x) => {
            Ok(Pat::Reinterpret(TypePat::Exact(e.elem()), Box::new(expr_to_pattern(x, b)?)))
        }
        ExprKind::Fpir(FpirOp::SaturatingCast(t), args) => {
            Ok(Pat::SatCast(TypePat::Exact(*t), Box::new(expr_to_pattern(&args[0], b)?)))
        }
        ExprKind::Fpir(op, args) => Ok(Pat::Fpir(
            *op,
            args.iter().map(|a| expr_to_pattern(a, b)).collect::<Result<_, _>>()?,
        )),
        ExprKind::Mach(..) => Err(err("machine nodes cannot appear in a left-hand side")),
    }
}

/// Convert a concrete rhs into a template, relating its constants to the
/// lhs's symbolic constants.
fn expr_to_template(e: &RcExpr, b: &Binder) -> Result<Template, GeneralizeError> {
    let err = |m: String| GeneralizeError { what: m };
    match e.kind() {
        ExprKind::Var(name) => {
            let id = b
                .vars
                .get(name)
                .ok_or_else(|| err(format!("rhs variable `{name}` not bound by lhs")))?;
            Ok(Template::Wild(*id))
        }
        ExprKind::Const(v) => Ok(relate_constant(*v, e.elem(), b)),
        ExprKind::Bin(op, x, y) => Ok(Template::Bin(
            *op,
            Box::new(expr_to_template(x, b)?),
            Box::new(expr_to_template(y, b)?),
        )),
        ExprKind::Cmp(op, x, y) => Ok(Template::Cmp(
            *op,
            Box::new(expr_to_template(x, b)?),
            Box::new(expr_to_template(y, b)?),
        )),
        ExprKind::Select(c, t, f) => Ok(Template::Select(
            Box::new(expr_to_template(c, b)?),
            Box::new(expr_to_template(t, b)?),
            Box::new(expr_to_template(f, b)?),
        )),
        ExprKind::Cast(x) => {
            Ok(Template::Cast(TyRef::Exact(e.elem()), Box::new(expr_to_template(x, b)?)))
        }
        ExprKind::Reinterpret(x) => {
            Ok(Template::Reinterpret(TyRef::Exact(e.elem()), Box::new(expr_to_template(x, b)?)))
        }
        ExprKind::Fpir(FpirOp::SaturatingCast(t), args) => {
            Ok(Template::SatCast(TyRef::Exact(*t), Box::new(expr_to_template(&args[0], b)?)))
        }
        ExprKind::Fpir(op, args) => Ok(Template::Fpir(
            *op,
            args.iter().map(|a| expr_to_template(a, b)).collect::<Result<_, _>>()?,
        )),
        ExprKind::Mach(op, args) => Ok(Template::Mach {
            op: *op,
            ty: TyRef::Exact(e.elem()),
            args: args.iter().map(|a| expr_to_template(a, b)).collect::<Result<_, _>>()?,
        }),
    }
}

/// Relate an rhs constant to the lhs's symbolic constants: identity,
/// `log2`, `1 << c`, `1 << (c-1)`, or `c ± k`; otherwise a literal.
fn relate_constant(v: i128, elem: ScalarType, b: &Binder) -> Template {
    for (&(lc, _), &id) in &b.consts {
        if lc == v {
            return Template::Const { f: CFn::Id, of: id, ty: TyRef::Exact(elem) };
        }
        if fpir::simplify::is_pow2(lc) && fpir::simplify::log2(lc) as i128 == v {
            return Template::Const { f: CFn::Log2, of: id, ty: TyRef::Exact(elem) };
        }
        if (0..=62).contains(&lc) && 1i128 << lc == v {
            return Template::Const { f: CFn::Pow2, of: id, ty: TyRef::Exact(elem) };
        }
        if (1..=62).contains(&lc) && 1i128 << (lc - 1) == v {
            return Template::Const { f: CFn::Pow2AddHalf, of: id, ty: TyRef::Exact(elem) };
        }
        let delta = v - lc;
        if delta.abs() <= 2 && delta != 0 {
            return Template::Const { f: CFn::Add(delta), of: id, ty: TyRef::Exact(elem) };
        }
    }
    Template::Lit { value: v, ty: TyRef::Exact(elem) }
}

/// Generalize a concrete rewrite pair into a verified rule.
///
/// # Errors
///
/// Fails when the pair cannot be expressed as a rule (rhs uses variables
/// the lhs does not bind), or when no generalization attempt survives
/// verification.
pub fn generalize_pair(
    name: &str,
    class: RuleClass,
    lhs: &RcExpr,
    rhs: &RcExpr,
    opts: &VerifyOptions,
) -> Result<Rule, GeneralizeError> {
    let mut binder = Binder::default();
    let pat = expr_to_pattern(lhs, &mut binder)?;
    let tmpl = expr_to_template(rhs, &binder)?;
    let mut rule = Rule::new(name, class, pat, tmpl);

    // Each symbolic constant gets a validity range found by binary search,
    // plus an is-pow2 guard where the relation demands one.
    let mut preds: Vec<Predicate> = Vec::new();
    for (&(witness, elem), &id) in &binder.consts {
        if template_uses_log2(&rule.rhs, id) {
            preds.push(Predicate::IsPow2(id));
            continue;
        }
        let (lo, hi) = search_valid_range(&rule, id, witness, elem, opts);
        if lo > elem.min_value() || hi < elem.max_value() {
            preds.push(Predicate::ConstInRange { id, lo, hi });
        }
    }
    if !preds.is_empty() {
        rule = rule.with_pred(if preds.len() == 1 {
            preds.pop().expect("nonempty")
        } else {
            Predicate::All(preds)
        });
    }

    // The attempt must survive verification (§4.3: "PITCHFORK verifies the
    // attempt at generalization").
    crate::verify::verify_rule(&rule, opts).map_err(|e| GeneralizeError { what: e.to_string() })?;
    Ok(rule)
}

fn template_uses_log2(t: &Template, id: u8) -> bool {
    t.subterms().any(|t| matches!(t, Template::Const { f: CFn::Log2, of, .. } if *of == id))
}

/// Binary search the largest valid interval of constant `id` around the
/// witnessed value, assuming validity is an interval (as the paper does).
fn search_valid_range(
    rule: &Rule,
    id: u8,
    witness: i128,
    elem: ScalarType,
    opts: &VerifyOptions,
) -> (i128, i128) {
    let quick = VerifyOptions { samples: 6, lanes: 64, exhaustive_points: 0 };
    let _ = opts;
    let valid = |v: i128| -> bool {
        let mut overrides = BTreeMap::new();
        overrides.insert(id, v);
        verify_rule_at(rule, &quick, &overrides).is_ok()
    };
    // Largest valid hi in [witness, elem.max].
    let mut lo_bound = witness;
    let mut hi_bound = elem.max_value();
    while lo_bound < hi_bound {
        let mid = lo_bound + (hi_bound - lo_bound + 1) / 2;
        if valid(mid) {
            lo_bound = mid;
        } else {
            hi_bound = mid - 1;
        }
    }
    let hi = lo_bound;
    // Smallest valid lo in [elem.min, witness].
    let mut lo_bound2 = elem.min_value();
    let mut hi_bound2 = witness;
    while lo_bound2 < hi_bound2 {
        let mid = lo_bound2 + (hi_bound2 - lo_bound2) / 2;
        if valid(mid) {
            hi_bound2 = mid;
        } else {
            lo_bound2 = mid + 1;
        }
    }
    (hi_bound2, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpir::build::*;
    use fpir::types::{ScalarType as S, VectorType as V};

    #[test]
    fn generalizes_the_papers_lift_example() {
        // Pair: i16(x_u8) << 6  ->  reinterpret(widening_shl(x_u8, 6)).
        let t = V::new(S::U8, 64);
        let c16 = V::new(S::I16, 64);
        let lhs = shl(cast(S::I16, var("x", t)), constant(6, c16));
        let rhs = reinterpret(S::I16, widening_shl(var("x", t), constant(6, t)));
        let rule = generalize_pair(
            "synth-signed-widen-shl",
            RuleClass::Lift,
            &lhs,
            &rhs,
            &VerifyOptions::default(),
        )
        .expect("generalizes");
        // The constant became symbolic with a range predicate (the paper's
        // generalized rule requires 0 <= c0 < 256 at this width; ours
        // reflects the u8 shift-count representability bound).
        let printed = format!("{}", rule.pred);
        assert!(printed.contains("c"), "{printed}");
        // The generalized rule applies at a different constant.
        let e = shl(cast(S::I16, var("x", t)), constant(3, c16));
        let mut bounds = fpir::bounds::BoundsCtx::new();
        let out = rule.apply(&e, &mut bounds).expect("applies at c=3");
        assert!(out.to_string().contains("widening_shl(x_u8, 3)"), "{out}");
    }

    #[test]
    fn pow2_relations_get_is_pow2_guards() {
        // Pair: u16(x_u8) * 4 -> widening_shl(x_u8, 2).
        let t = V::new(S::U8, 64);
        let w = V::new(S::U16, 64);
        let lhs = mul(widen(var("x", t)), constant(4, w));
        let rhs = widening_shl(var("x", t), constant(2, t));
        let rule = generalize_pair(
            "synth-mul-pow2",
            RuleClass::Lift,
            &lhs,
            &rhs,
            &VerifyOptions::default(),
        )
        .expect("generalizes");
        assert!(format!("{}", rule.pred).contains("is_pow2"), "{}", rule.pred);
        // Applies at 8, rejects 6.
        let mut bounds = fpir::bounds::BoundsCtx::new();
        let at8 = mul(widen(var("x", t)), constant(8, w));
        assert!(rule.apply(&at8, &mut bounds).is_some());
        let at6 = mul(widen(var("x", t)), constant(6, w));
        assert!(rule.apply(&at6, &mut bounds).is_none());
    }

    #[test]
    fn unbound_rhs_variable_fails() {
        let t = V::new(S::U8, 64);
        let lhs = add(var("a", t), var("b", t));
        let rhs = add(var("a", t), var("c", t));
        assert!(
            generalize_pair("bad", RuleClass::Lift, &lhs, &rhs, &VerifyOptions::default()).is_err()
        );
    }

    #[test]
    fn incorrect_pair_fails_verification() {
        let t = V::new(S::U8, 64);
        let lhs = add(var("a", t), var("b", t));
        let rhs = sub(var("a", t), var("b", t));
        let err = generalize_pair("bad", RuleClass::Lift, &lhs, &rhs, &VerifyOptions::default())
            .unwrap_err();
        assert!(err.what.contains("counterexample"), "{err}");
    }
}
