//! Basic expression simplification.
//!
//! Only the transformations every compiler front end performs before
//! instruction selection live here (the paper's input expressions arrive
//! pre-simplified from Halide's simplifier):
//!
//! * [`const_fold`] — evaluate constant-only subtrees to literals;
//! * [`strength_reduce`] — the canonicalizations the LLVM baseline also
//!   runs, e.g. multiply/divide by a power of two becomes a shift. (This
//!   is the very pass that breaks LLVM's multiply-accumulate pattern in
//!   Figure 3(a), so it is deliberately shared and explicit.)

use crate::expr::{BinOp, Expr, ExprKind, RcExpr};
use crate::interp::{eval, Env};

/// Evaluate every constant-only subtree down to a literal.
///
/// Machine nodes are left untouched (their semantics are not visible to
/// this crate).
pub fn const_fold(expr: &RcExpr) -> RcExpr {
    let children: Vec<RcExpr> = expr.children().into_iter().map(const_fold).collect();
    fold_node(expr, children)
}

/// [`const_fold`] with a caller-held identity memo, so shared `Arc`
/// subtrees fold once instead of once per tree occurrence — and, when the
/// caller folds many expressions over the same DAG (the legalizer folds
/// every FPIR expansion it makes), once per *run* rather than per call.
///
/// Folding is a pure function of the node, so any memo keyed by allocation
/// identity (key held alive in the value) is sound to reuse.
pub fn const_fold_shared(
    expr: &RcExpr,
    memo: &mut crate::identity::IdMap<(RcExpr, RcExpr)>,
) -> RcExpr {
    if let Some((_, out)) = memo.get(&Expr::ptr_id(expr)) {
        return out.clone();
    }
    let children: Vec<RcExpr> =
        expr.children().into_iter().map(|c| const_fold_shared(c, memo)).collect();
    let out = fold_node(expr, children);
    memo.insert(Expr::ptr_id(expr), (expr.clone(), out.clone()));
    out
}

/// Rebuild one node from folded children and fold it if constant.
fn fold_node(expr: &RcExpr, children: Vec<RcExpr>) -> RcExpr {
    // Preserve node identity when nothing folded below: downstream passes
    // (the legalizer's DAG memo in particular) key caches on `Arc`
    // identity, so a gratuitous rebuild here would defeat them.
    let unchanged =
        expr.children().iter().zip(&children).all(|(a, b)| std::sync::Arc::ptr_eq(a, b));
    let rebuilt = if unchanged { expr.clone() } else { expr.with_children(children) };
    // A select whose condition folded to a constant takes that arm.
    if let ExprKind::Select(c, t, f) = rebuilt.kind() {
        match c.as_const() {
            Some(0) => return f.clone(),
            Some(_) => return t.clone(),
            None => {}
        }
    }
    let foldable =
        !matches!(rebuilt.kind(), ExprKind::Var(_) | ExprKind::Const(_) | ExprKind::Mach(..))
            && rebuilt.children().iter().all(|c| c.as_const().is_some());
    if foldable {
        if let Ok(v) = eval(&rebuilt, &Env::new()) {
            return Expr::constant(v.lane(0), rebuilt.ty()).expect("folded value fits its type");
        }
    }
    rebuilt
}

/// Whether `v` is a power of two.
pub fn is_pow2(v: i128) -> bool {
    v > 0 && (v & (v - 1)) == 0
}

/// `log2` of a power of two.
///
/// # Panics
///
/// Panics when `v` is not a positive power of two.
pub fn log2(v: i128) -> u32 {
    assert!(is_pow2(v), "{v} is not a power of two");
    v.trailing_zeros()
}

/// Canonicalize multiplies and divides by powers of two into shifts, and
/// fold `x + x` into `x * 2` (then into a shift). Applied by the LLVM
/// baseline before pattern matching, per Figure 3(a) of the paper.
pub fn strength_reduce(expr: &RcExpr) -> RcExpr {
    let children: Vec<RcExpr> = expr.children().into_iter().map(strength_reduce).collect();
    let rebuilt = expr.with_children(children);
    if let ExprKind::Bin(op, a, b) = rebuilt.kind() {
        let shift_of = |x: &RcExpr, c: i128, dir: BinOp| -> Option<RcExpr> {
            if is_pow2(c) && c > 1 {
                let count = Expr::constant(log2(c) as i128, x.ty()).ok()?;
                Expr::bin(dir, x.clone(), count).ok()
            } else {
                None
            }
        };
        match op {
            BinOp::Mul => {
                if let Some(c) = b.as_const() {
                    if let Some(e) = shift_of(a, c, BinOp::Shl) {
                        return e;
                    }
                }
                if let Some(c) = a.as_const() {
                    if let Some(e) = shift_of(b, c, BinOp::Shl) {
                        return e;
                    }
                }
            }
            BinOp::Div => {
                // Floor division by a power of two is an arithmetic shift.
                if let Some(c) = b.as_const() {
                    if let Some(e) = shift_of(a, c, BinOp::Shr) {
                        return e;
                    }
                }
            }
            BinOp::Add
                // x + x canonicalizes to x << 1.
                if a == b => {
                    if let Ok(count) = Expr::constant(1, a.ty()) {
                        if let Ok(e) = Expr::bin(BinOp::Shl, a.clone(), count) {
                            return e;
                        }
                    }
                }
            _ => {}
        }
    }
    rebuilt
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::*;
    use crate::interp::{eval, Env, Value};
    use crate::rand_expr::{gen_expr, random_env, GenConfig};
    use crate::types::{ScalarType as S, VectorType as V};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn folds_constant_subtrees() {
        let t = V::new(S::I16, 4);
        let e = add(var("x", t), mul(constant(3, t), constant(4, t)));
        let folded = const_fold(&e);
        assert_eq!(folded.to_string(), "x_i16 + 12");
    }

    #[test]
    fn folds_through_fpir_ops() {
        let t = V::new(S::U8, 4);
        let e = widening_add(constant(200, t), constant(100, t));
        assert_eq!(const_fold(&e).as_const(), Some(300));
    }

    #[test]
    fn fold_preserves_semantics_on_random_exprs() {
        // The shared fold, with one memo across every expression as the
        // legalizer keeps one per run, equals the tree fold.
        let mut rng = StdRng::seed_from_u64(21);
        let cfg = GenConfig::default();
        let mut memo = crate::identity::IdMap::default();
        for _ in 0..100 {
            let e = gen_expr(&mut rng, &cfg, S::I32);
            let folded = const_fold(&e);
            assert_eq!(const_fold_shared(&e, &mut memo), folded, "{e}");
            let env = random_env(&mut rng, &e);
            assert_eq!(eval(&e, &env).unwrap(), eval(&folded, &env).unwrap());
        }
    }

    #[test]
    fn mul_by_pow2_becomes_shift() {
        let t = V::new(S::U16, 4);
        let e = mul(var("x", t), constant(2, t));
        assert_eq!(strength_reduce(&e).to_string(), "x_u16 << 1");
        let e = mul(constant(8, t), var("x", t));
        assert_eq!(strength_reduce(&e).to_string(), "x_u16 << 3");
    }

    #[test]
    fn mul_by_non_pow2_unchanged() {
        let t = V::new(S::U16, 4);
        let e = mul(var("x", t), constant(3, t));
        assert_eq!(strength_reduce(&e).to_string(), "x_u16 * 3");
    }

    #[test]
    fn x_plus_x_becomes_shift() {
        let t = V::new(S::U16, 4);
        let x = var("x", t);
        let e = add(x.clone(), x);
        assert_eq!(strength_reduce(&e).to_string(), "x_u16 << 1");
    }

    #[test]
    fn div_by_pow2_becomes_shift_only_when_equivalent() {
        // Floor division matches an arithmetic shift for all inputs
        // (including negatives) because Div rounds toward -inf.
        let t = V::new(S::I16, 1);
        let e = div(var("x", t), constant(4, t));
        let reduced = strength_reduce(&e);
        assert_eq!(reduced.to_string(), "x_i16 >> 2");
        for v in [-7i128, -8, -1, 0, 1, 7, 100] {
            let env = Env::new().bind("x", Value::new(t, vec![v]));
            assert_eq!(eval(&e, &env).unwrap(), eval(&reduced, &env).unwrap());
        }
    }

    #[test]
    fn strength_reduce_preserves_semantics_on_random_exprs() {
        let mut rng = StdRng::seed_from_u64(22);
        let cfg = GenConfig { fpir_prob: 0.0, ..GenConfig::default() };
        for _ in 0..100 {
            let e = gen_expr(&mut rng, &cfg, S::I16);
            let reduced = strength_reduce(&e);
            let env = random_env(&mut rng, &e);
            assert_eq!(eval(&e, &env).unwrap(), eval(&reduced, &env).unwrap());
        }
    }
}
