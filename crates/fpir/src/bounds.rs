//! Interval analysis over fixed-point expressions.
//!
//! Pitchfork's predicated lowering rules (§3.3 of the paper) fire only when
//! compile-time facts can be proven — most importantly bounds queries such
//! as "is this `u16` expression representable as an `i16`?", which licenses
//! `vpackuswb`/`vsat` for a saturating narrow. This module provides that
//! reasoning: a classic interval (min/max) analysis over both primitive
//! integer and FPIR operations, with a per-context memo cache (the paper
//! notes a simple expression cache was needed for compile-time performance).
//!
//! All lane types are finite, so intervals are always finite. Wrapping
//! operators are handled by computing the exact result interval and falling
//! back to the full type range whenever wrapping could occur.

use crate::expr::{BinOp, Expr, ExprKind, FpirOp, RcExpr};
use crate::identity::IdMap;
use crate::types::{ScalarType, VectorType};
use std::collections::HashMap;

/// A closed integer interval `[min, max]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    /// Inclusive lower bound.
    pub min: i128,
    /// Inclusive upper bound.
    pub max: i128,
}

impl Interval {
    /// The interval `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `min > max`.
    pub fn new(min: i128, max: i128) -> Interval {
        assert!(min <= max, "interval [{min}, {max}] is empty");
        Interval { min, max }
    }

    /// The interval `[min, max]`, or `None` when the range is degenerate
    /// (`min > max`). The non-panicking counterpart of [`Interval::new`]
    /// for bounds computed from untrusted or derived endpoints.
    pub fn checked(min: i128, max: i128) -> Option<Interval> {
        (min <= max).then_some(Interval { min, max })
    }

    /// The single-point interval `[v, v]`.
    pub fn point(v: i128) -> Interval {
        Interval { min: v, max: v }
    }

    /// The full range of a scalar type.
    pub fn of_type(t: ScalarType) -> Interval {
        Interval { min: t.min_value(), max: t.max_value() }
    }

    /// Whether every value in `self` is representable in `t`.
    pub fn fits(self, t: ScalarType) -> bool {
        self.min >= t.min_value() && self.max <= t.max_value()
    }

    /// Whether `v` lies within the interval.
    pub fn contains(self, v: i128) -> bool {
        self.min <= v && v <= self.max
    }

    /// The smallest interval containing both.
    pub fn union(self, other: Interval) -> Interval {
        Interval { min: self.min.min(other.min), max: self.max.max(other.max) }
    }

    /// Clamp both ends into `t`'s range (the effect of saturation).
    pub fn saturate(self, t: ScalarType) -> Interval {
        Interval { min: t.saturate(self.min), max: t.saturate(self.max) }
    }

    fn map2(self, other: Interval, f: impl Fn(i128, i128) -> i128) -> Interval {
        let c = [
            f(self.min, other.min),
            f(self.min, other.max),
            f(self.max, other.min),
            f(self.max, other.max),
        ];
        Interval {
            min: *c.iter().min().expect("nonempty"),
            max: *c.iter().max().expect("nonempty"),
        }
    }
}

/// Bounds-inference context: optional per-variable bounds plus a memo cache.
///
/// Variables default to their full type range; tighter knowledge (e.g. "this
/// input is a 10-bit sensor value") can be registered with
/// [`BoundsCtx::set_var_bound`] and strengthens every query.
///
/// # Examples
///
/// ```
/// use fpir::build::*;
/// use fpir::bounds::{BoundsCtx, Interval};
/// use fpir::types::{ScalarType, VectorType};
///
/// let t = VectorType::new(ScalarType::U8, 16);
/// let e = widening_add(var("a", t), var("b", t));
/// let mut ctx = BoundsCtx::new();
/// assert_eq!(ctx.interval(&e), Interval::new(0, 510));
/// // 0..=510 fits in i16, so a signed-saturating narrow is safe here.
/// assert!(ctx.fits(&e, ScalarType::I16));
/// ```
#[derive(Debug, Default)]
pub struct BoundsCtx {
    var_bounds: HashMap<String, Interval>,
    // Keyed by node address; the stored `RcExpr` keeps the allocation alive
    // so addresses cannot be recycled while cached.
    cache: IdMap<(RcExpr, Interval)>,
    hits: u64,
    misses: u64,
}

impl BoundsCtx {
    /// An empty context (variables span their full type range).
    pub fn new() -> BoundsCtx {
        BoundsCtx::default()
    }

    /// Register a tighter bound for a variable. Clears the memo cache.
    pub fn set_var_bound(&mut self, name: impl Into<String>, bound: Interval) {
        self.var_bounds.insert(name.into(), bound);
        self.cache.clear();
    }

    /// Number of memoised entries (exposed for cache-effect benchmarks).
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Memo-cache hits and misses since construction, for cache-effect
    /// reporting (the §3.3 cache would otherwise be unobservable).
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// The inferred interval of `expr`.
    pub fn interval(&mut self, expr: &RcExpr) -> Interval {
        let key = Expr::ptr_id(expr);
        if let Some((_, iv)) = self.cache.get(&key) {
            self.hits += 1;
            return *iv;
        }
        self.misses += 1;
        let iv = self.compute(expr);
        self.cache.insert(key, (expr.clone(), iv));
        iv
    }

    /// Whether `expr`'s value always fits in `t` — the
    /// safe-reinterpretation predicate of the paper's lowering rules.
    pub fn fits(&mut self, expr: &RcExpr, t: ScalarType) -> bool {
        self.interval(expr).fits(t)
    }

    fn compute(&mut self, expr: &RcExpr) -> Interval {
        let ty = expr.ty();
        let full = Interval::of_type(ty.elem);
        // Exact-interval arithmetic with a wraparound fallback: if the
        // exact result interval escapes the node type, the op may wrap and
        // the type range is all we know.
        let checked = |iv: Interval| if iv.fits(ty.elem) { iv } else { full };
        match expr.kind() {
            ExprKind::Var(name) => self.var_bounds.get(name).copied().unwrap_or(full),
            ExprKind::Const(v) => Interval::point(*v),
            ExprKind::Bin(op, a, b) => {
                let (ia, ib) = (self.interval(a), self.interval(b));
                match op {
                    BinOp::Add => checked(ia.map2(ib, |x, y| x + y)),
                    BinOp::Sub => checked(ia.map2(ib, |x, y| x - y)),
                    BinOp::Mul => checked(ia.map2(ib, |x, y| x * y)),
                    BinOp::Div => {
                        if ib.contains(0) {
                            // Division by zero yields 0; fold it in
                            // conservatively via the type range.
                            full
                        } else {
                            checked(ia.map2(ib, crate::interp::floor_div))
                        }
                    }
                    BinOp::Mod => {
                        if ib.min > 0 {
                            Interval::new(0, ib.max - 1)
                        } else {
                            full
                        }
                    }
                    BinOp::Min => Interval { min: ia.min.min(ib.min), max: ia.max.min(ib.max) },
                    BinOp::Max => Interval { min: ia.min.max(ib.min), max: ia.max.max(ib.max) },
                    BinOp::Shl => match b.as_const() {
                        Some(c) if (0..=64).contains(&c) => checked(
                            ia.map2(Interval::point(c), |x, s| x.saturating_mul(1i128 << s)),
                        ),
                        _ => full,
                    },
                    BinOp::Shr => match b.as_const() {
                        Some(c) if (0..=127).contains(&c) => {
                            Interval { min: ia.min >> c, max: ia.max >> c }
                        }
                        _ => full,
                    },
                    BinOp::And => {
                        // x & m with a non-negative mask is within [0, m].
                        match (a.as_const(), b.as_const()) {
                            (_, Some(m)) if m >= 0 && ia.min >= 0 => {
                                Interval::new(0, m.min(ia.max))
                            }
                            (Some(m), _) if m >= 0 && ib.min >= 0 => {
                                Interval::new(0, m.min(ib.max))
                            }
                            _ => full,
                        }
                    }
                    BinOp::Or | BinOp::Xor => full,
                }
            }
            ExprKind::Cmp(..) => Interval::new(0, 1),
            ExprKind::Select(_, t, e) => self.interval(t).union(self.interval(e)),
            ExprKind::Cast(a) => {
                let ia = self.interval(a);
                if ia.fits(ty.elem) {
                    ia
                } else {
                    full
                }
            }
            ExprKind::Reinterpret(a) => {
                let ia = self.interval(a);
                if ia.fits(ty.elem) {
                    ia
                } else {
                    full
                }
            }
            ExprKind::Fpir(op, args) => {
                let ivs: Vec<Interval> = args.iter().map(|a| self.interval(a)).collect();
                self.fpir_interval(*op, args, &ivs, ty).unwrap_or(full)
            }
            // Machine instructions are opaque here; their result spans the
            // type range.
            ExprKind::Mach(..) => full,
        }
    }

    /// Transfer functions for FPIR instructions. Returns `None` where the
    /// analysis falls back to the result type range.
    fn fpir_interval(
        &mut self,
        op: FpirOp,
        args: &[RcExpr],
        ivs: &[Interval],
        ty: VectorType,
    ) -> Option<Interval> {
        let sat = |iv: Interval| iv.saturate(ty.elem);
        match op {
            // The widening and extending families are exact by construction
            // (extending ops wrap only if the wide operand is already near
            // its limits, which `checked`-style logic covers below).
            FpirOp::WideningAdd => Some(ivs[0].map2(ivs[1], |x, y| x + y)),
            FpirOp::WideningSub => Some(ivs[0].map2(ivs[1], |x, y| x - y)),
            FpirOp::WideningMul => Some(ivs[0].map2(ivs[1], |x, y| x * y)),
            FpirOp::WideningShl => match args[1].as_const() {
                Some(c) if (0..=64).contains(&c) => {
                    let iv = ivs[0].map2(Interval::point(c), |x, s| x.saturating_mul(1i128 << s));
                    iv.fits(ty.elem).then_some(iv)
                }
                _ => None,
            },
            FpirOp::WideningShr => match args[1].as_const() {
                Some(c) if (0..=127).contains(&c) => {
                    Some(Interval { min: ivs[0].min >> c, max: ivs[0].max >> c })
                }
                _ => None,
            },
            FpirOp::ExtendingAdd => {
                let iv = ivs[0].map2(ivs[1], |x, y| x + y);
                iv.fits(ty.elem).then_some(iv)
            }
            FpirOp::ExtendingSub => {
                let iv = ivs[0].map2(ivs[1], |x, y| x - y);
                iv.fits(ty.elem).then_some(iv)
            }
            FpirOp::ExtendingMul => {
                let iv = ivs[0].map2(ivs[1], |x, y| x * y);
                iv.fits(ty.elem).then_some(iv)
            }
            FpirOp::Abs => {
                let iv = ivs[0];
                let max = iv.min.abs().max(iv.max.abs());
                let min = if iv.contains(0) { 0 } else { iv.min.abs().min(iv.max.abs()) };
                Some(Interval::new(min, max))
            }
            FpirOp::Absd => {
                let (a, b) = (ivs[0], ivs[1]);
                let max = (a.max - b.min).abs().max((b.max - a.min).abs());
                // If the intervals overlap the difference can be zero.
                let min = if a.max < b.min {
                    b.min - a.max
                } else if b.max < a.min {
                    a.min - b.max
                } else {
                    0
                };
                Some(Interval::new(min, max))
            }
            FpirOp::SaturatingCast(_) | FpirOp::SaturatingNarrow => Some(sat(ivs[0])),
            FpirOp::SaturatingAdd => Some(sat(ivs[0].map2(ivs[1], |x, y| x + y))),
            FpirOp::SaturatingSub => Some(sat(ivs[0].map2(ivs[1], |x, y| x - y))),
            FpirOp::HalvingAdd => {
                Some(ivs[0].map2(ivs[1], |x, y| crate::interp::floor_div(x + y, 2)))
            }
            FpirOp::HalvingSub => {
                let iv = ivs[0].map2(ivs[1], |x, y| crate::interp::floor_div(x - y, 2));
                iv.fits(ty.elem).then_some(iv)
            }
            FpirOp::RoundingHalvingAdd => {
                Some(ivs[0].map2(ivs[1], |x, y| crate::interp::floor_div(x + y + 1, 2)))
            }
            FpirOp::RoundingShr => match args[1].as_const() {
                Some(c) if c >= 0 => {
                    let b = args[0].elem().bits() as i128;
                    let s = c.min(b) as u32;
                    let f = |x: i128| {
                        if s == 0 {
                            x
                        } else {
                            (x + (1i128 << (s - 1))) >> s
                        }
                    };
                    Some(sat(Interval { min: f(ivs[0].min), max: f(ivs[0].max) }))
                }
                _ => None,
            },
            FpirOp::MulShr | FpirOp::RoundingMulShr => match args[2].as_const() {
                Some(c) if c >= 0 => {
                    let b = args[0].elem().bits() as i128;
                    let s = c.min(2 * b) as u32;
                    let prod = ivs[0].map2(ivs[1], |x, y| x * y);
                    let f = |x: i128| {
                        if op == FpirOp::MulShr || s == 0 {
                            x >> s
                        } else {
                            (x + (1i128 << (s - 1))) >> s
                        }
                    };
                    Some(sat(Interval::new(f(prod.min), f(prod.max))))
                }
                _ => None,
            },
            // Shift-by-vector forms: fall back to the saturated type range.
            FpirOp::RoundingShl | FpirOp::SaturatingShl => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::*;
    use crate::types::{ScalarType as S, VectorType as V};

    fn t8() -> V {
        V::new(S::U8, 8)
    }

    #[test]
    fn constants_are_points() {
        let mut ctx = BoundsCtx::new();
        assert_eq!(ctx.interval(&constant(42, t8())), Interval::point(42));
    }

    #[test]
    fn vars_default_to_type_range() {
        let mut ctx = BoundsCtx::new();
        assert_eq!(ctx.interval(&var("x", t8())), Interval::new(0, 255));
    }

    #[test]
    fn var_bounds_tighten() {
        let mut ctx = BoundsCtx::new();
        ctx.set_var_bound("x", Interval::new(0, 100));
        let e = add(var("x", t8()), constant(10, t8()));
        assert_eq!(ctx.interval(&e), Interval::new(10, 110));
    }

    #[test]
    fn wrapping_add_falls_back() {
        let mut ctx = BoundsCtx::new();
        let e = add(var("x", t8()), var("y", t8()));
        assert_eq!(ctx.interval(&e), Interval::new(0, 255));
    }

    #[test]
    fn widening_add_is_exact() {
        let mut ctx = BoundsCtx::new();
        let e = widening_add(var("x", t8()), var("y", t8()));
        assert_eq!(ctx.interval(&e), Interval::new(0, 510));
        assert!(ctx.fits(&e, S::I16));
    }

    #[test]
    fn sobel_kernel_fits_i16() {
        // u16(a) + u16(b) * 2 + u16(c): max 255 * 4 = 1020 < 32767 — this is
        // the bound that licenses vpackuswb / vsat in Figure 3(c).
        let w = |n: &str| widen(var(n, t8()));
        let e = add(add(w("a"), mul(w("b"), constant(2, V::new(S::U16, 8)))), w("c"));
        let mut ctx = BoundsCtx::new();
        assert_eq!(ctx.interval(&e), Interval::new(0, 1020));
        assert!(ctx.fits(&e, S::I16));
    }

    #[test]
    fn min_with_constant_bounds_above() {
        let mut ctx = BoundsCtx::new();
        let t = V::new(S::U16, 8);
        let e = min(var("x", t), constant(255, t));
        assert_eq!(ctx.interval(&e), Interval::new(0, 255));
    }

    #[test]
    fn select_unions_arms() {
        let mut ctx = BoundsCtx::new();
        let t = t8();
        let e = select(lt(var("x", t), var("y", t)), constant(3, t), constant(7, t));
        assert_eq!(ctx.interval(&e), Interval::new(3, 7));
    }

    #[test]
    fn absd_is_nonnegative_and_bounded() {
        let mut ctx = BoundsCtx::new();
        let e = absd(var("x", t8()), var("y", t8()));
        assert_eq!(ctx.interval(&e), Interval::new(0, 255));
    }

    #[test]
    fn saturating_cast_clamps() {
        let mut ctx = BoundsCtx::new();
        let t = V::new(S::U16, 8);
        let e = saturating_cast(S::U8, var("x", t));
        assert_eq!(ctx.interval(&e), Interval::new(0, 255));
    }

    #[test]
    fn shr_by_constant_scales() {
        let mut ctx = BoundsCtx::new();
        let t = V::new(S::U16, 8);
        let e = shr(var("x", t), constant(8, t));
        assert_eq!(ctx.interval(&e), Interval::new(0, 255));
    }

    #[test]
    fn cache_is_used() {
        let mut ctx = BoundsCtx::new();
        let shared = widening_add(var("x", t8()), var("y", t8()));
        let e = add(shared.clone(), shared);
        let _ = ctx.interval(&e);
        // x, y, widening_add, add: 4 unique nodes cached.
        assert_eq!(ctx.cache_len(), 4);
    }

    #[test]
    fn and_with_mask() {
        let mut ctx = BoundsCtx::new();
        let t = V::new(S::U16, 8);
        let e = bit_and(var("x", t), constant(15, t));
        assert_eq!(ctx.interval(&e), Interval::new(0, 15));
    }

    #[test]
    fn mul_shr_bounds() {
        let mut ctx = BoundsCtx::new();
        let t = V::new(S::I16, 8);
        let e = mul_shr(var("x", t), var("y", t), constant(16, t));
        let iv = ctx.interval(&e);
        assert!(iv.fits(S::I16));
        assert!(iv.min >= -16384 - 1 && iv.max <= 16384);
    }
}
