//! Unrolled stencil variants: the expression shapes Halide's
//! vectorize-and-unroll scheduling actually hands the instruction
//! selector.
//!
//! The figure-suite pipelines compute one output vector per expression.
//! Production Halide schedules additionally *unroll* the pure loop over
//! `x` and compute several adjacent output vectors together; because
//! adjacent stencil windows overlap, the unrolled right-hand side is a
//! DAG in which taps, smoothing kernels and column sums are shared
//! between neighbouring outputs instead of recomputed (§2 of the paper —
//! the selector is handed whole unrolled expressions, which is why its
//! cost must be linear in *unique* nodes rather than tree nodes).
//!
//! Each variant here fuses its unrolled outputs with the natural
//! decimating reduction — a Gaussian pyramid downsample, a max-pooled
//! gradient magnitude, a box-filter decimation — so the pipeline still
//! produces a single output vector and stays runnable on the reference
//! interpreter.

use crate::LANES;
use fpir::build::*;
use fpir::expr::RcExpr;
use fpir::types::{ScalarType as S, VectorType as V};
use fpir_halide::{tap, Pipeline};
use std::collections::HashMap;

/// An interned grid of widened `u8` taps: every `(dx, dy)` is one shared
/// node, exactly as a common-subexpression-eliminated unrolled loop body
/// references one load per distinct tap.
struct Taps(HashMap<(i32, i32), RcExpr>);

impl Taps {
    fn new() -> Taps {
        Taps(HashMap::new())
    }

    fn at(&mut self, dx: i32, dy: i32) -> RcExpr {
        self.0.entry((dx, dy)).or_insert_with(|| widen(tap("in", dx, dy, S::U8, LANES))).clone()
    }
}

fn c16(v: i128) -> RcExpr {
    constant(v, V::new(S::U16, LANES))
}

/// Weighted sum `Σ w_i · terms_i` (weight 1 skips the multiply).
fn weighted(terms: impl IntoIterator<Item = (i128, RcExpr)>) -> RcExpr {
    let mut sum: Option<RcExpr> = None;
    for (w, t) in terms {
        let term = if w == 1 { t } else { mul(t, c16(w)) };
        sum = Some(match sum {
            Some(s) => add(s, term),
            None => term,
        });
    }
    sum.expect("non-empty weighted sum")
}

/// Round-to-nearest renormalization `(e + 2^(k-1)) >> k`.
fn renorm(e: RcExpr, k: i128) -> RcExpr {
    shr(add(e.clone(), splat(1 << (k - 1), &e)), splat(k, &e))
}

/// One Gaussian-pyramid downsample step, unrolled by four: the separable
/// `[1 4 6 4 1]²` blur at four adjacent positions (vertical column sums
/// shared between overlapping horizontal windows), decimated 4:1 with a
/// rounding average.
pub fn gaussian5x5_u4() -> Pipeline {
    let w = [1i128, 4, 6, 4, 1];
    let mut taps = Taps::new();
    let cols: HashMap<i32, RcExpr> = (-2..=5)
        .map(|u| (u, weighted(w.iter().enumerate().map(|(j, &c)| (c, taps.at(u, j as i32 - 2))))))
        .collect();
    let outs: Vec<RcExpr> = (0..4)
        .map(|x| {
            let win = weighted(
                w.iter().enumerate().map(|(i, &c)| (c, cols[&(x + i as i32 - 2)].clone())),
            );
            renorm(win, 8)
        })
        .collect();
    let total = outs.into_iter().reduce(add).expect("four outputs");
    Pipeline::new("gaussian5x5_u4", cast(S::U8, renorm(total, 2)))
}

/// The Figure 2 Sobel filter, unrolled by four: gradient magnitude at
/// four adjacent positions (the vertical `[1 2 1]` smoothing kernels
/// shared between overlapping windows), max-pooled into one edge-presence
/// vector.
pub fn sobel3x3_u4() -> Pipeline {
    let mut taps = Taps::new();
    let mut smooth_v: HashMap<i32, RcExpr> = HashMap::new();
    for u in -1..=5 {
        let s = weighted([(1, taps.at(u, -1)), (2, taps.at(u, 0)), (1, taps.at(u, 1))]);
        smooth_v.insert(u, s);
    }
    let smooth_h = |taps: &mut Taps, o: i32, dy: i32| {
        weighted([(1, taps.at(o - 1, dy)), (2, taps.at(o, dy)), (1, taps.at(o + 1, dy))])
    };
    let outs: Vec<RcExpr> = (0..4)
        .map(|o| {
            let sx = absd(smooth_h(&mut taps, o, -1), smooth_h(&mut taps, o, 1));
            let sy = absd(smooth_v[&(o - 1)].clone(), smooth_v[&(o + 1)].clone());
            let sum = add(sx, sy);
            min(sum.clone(), splat(255, &sum))
        })
        .collect();
    let pooled = outs.into_iter().reduce(max).expect("four outputs");
    Pipeline::new("sobel3x3_u4", cast(S::U8, pooled))
}

/// A 4×4 box filter unrolled by eight: column sums shared between the
/// eight overlapping windows, decimated 8:1 with a rounding average —
/// the highest tree-to-DAG ratio in the suite.
pub fn box4x4_u8() -> Pipeline {
    let mut taps = Taps::new();
    let cols: HashMap<i32, RcExpr> =
        (0..=10).map(|u| (u, weighted((0..4).map(|j| (1, taps.at(u, j)))))).collect();
    let outs: Vec<RcExpr> = (0..8)
        .map(|x| {
            let win = weighted((0..4).map(|i| (1, cols[&(x + i)].clone())));
            renorm(win, 4)
        })
        .collect();
    let total = outs.into_iter().reduce(add).expect("eight outputs");
    Pipeline::new("box4x4_u8", cast(S::U8, renorm(total, 3)))
}

/// Six cascaded `[1 2 1]` smoothing passes (a 13-tap binomial low-pass —
/// the classic repeated-box Gaussian approximation), unrolled by four and
/// decimated 4:1. Every smoothing level is built over the *shared* level
/// below it, so tree size grows geometrically while unique nodes grow
/// linearly — the extreme of the DAG shapes unrolled schedules produce.
/// The accumulator renormalizes every two levels (kernel mass 16) to stay
/// within `u16`.
pub fn cascade121_u4() -> Pipeline {
    let mut taps = Taps::new();
    let mut level: HashMap<i32, RcExpr> = (-6..=9).map(|u| (u, taps.at(u, 0))).collect();
    let (mut lo, mut hi) = (-6i32, 9i32);
    for _ in 0..3 {
        for _ in 0..2 {
            lo += 1;
            hi -= 1;
            level = (lo..=hi)
                .map(|u| {
                    let s = weighted([
                        (1, level[&(u - 1)].clone()),
                        (2, level[&u].clone()),
                        (1, level[&(u + 1)].clone()),
                    ]);
                    (u, s)
                })
                .collect();
        }
        level = level.into_iter().map(|(u, e)| (u, renorm(e, 4))).collect();
    }
    let total = (0..4).map(|x| level[&x].clone()).reduce(add).expect("four outputs");
    Pipeline::new("cascade121_u4", cast(S::U8, renorm(total, 2)))
}

/// Morphological dilation by a 13-wide structuring element, as six
/// cascaded 3-wide maxima (the standard van Herk-style decomposition
/// before its running-max refinement), unrolled by four and max-pooled.
/// Like [`cascade121_u4`] the levels share geometrically.
pub fn dilate13_u4() -> Pipeline {
    let mut level: HashMap<i32, RcExpr> =
        (-6..=9).map(|u| (u, tap("in", u, 0, S::U8, LANES))).collect();
    let (mut lo, mut hi) = (-6i32, 9i32);
    for _ in 0..6 {
        lo += 1;
        hi -= 1;
        level = (lo..=hi)
            .map(|u| {
                let m =
                    max(max(level[&(u - 1)].clone(), level[&u].clone()), level[&(u + 1)].clone());
                (u, m)
            })
            .collect();
    }
    let pooled = (0..4).map(|x| level[&x].clone()).reduce(max).expect("four outputs");
    Pipeline::new("dilate13_u4", pooled)
}

/// A 16-tap symmetric FIR low-pass (weights summing to 128) with
/// round-to-nearest renormalization: the classic 1-D DSP kernel, one
/// long multiply-accumulate chain.
pub fn fir16() -> Pipeline {
    let w = [1i128, 2, 4, 6, 9, 12, 14, 16, 16, 14, 12, 9, 6, 4, 2, 1];
    debug_assert_eq!(w.iter().sum::<i128>(), 128);
    let mut taps = Taps::new();
    let sum = weighted(w.iter().enumerate().map(|(i, &c)| (c, taps.at(i as i32 - 8, 0))));
    Pipeline::new("fir16", cast(S::U8, renorm(sum, 7)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpir_halide::Image;
    use std::collections::BTreeMap;

    fn run_flat(p: &Pipeline, fill: i128) -> Vec<i128> {
        let mut inputs = BTreeMap::new();
        inputs.insert("in".to_string(), Image::filled(S::U8, 256, 8, fill));
        p.run_reference(&inputs).unwrap().samples()
    }

    #[test]
    fn unrolled_pipelines_normalize_on_constant_images() {
        // Every kernel's weights sum to its renormalization divisor, so a
        // constant image passes through unchanged.
        for p in [gaussian5x5_u4(), box4x4_u8(), fir16(), cascade121_u4(), dilate13_u4()] {
            let out = run_flat(&p, 200);
            assert!(out.iter().all(|&v| v == 200), "{}", p.name);
        }
        // A constant image has zero gradient everywhere.
        let out = run_flat(&sobel3x3_u4(), 200);
        assert!(out.iter().all(|&v| v == 0));
    }

    #[test]
    fn unrolled_bodies_are_dags_not_trees() {
        use fpir::expr::Expr;
        use std::collections::HashSet;
        fn uniques(e: &RcExpr, seen: &mut HashSet<usize>) {
            if seen.insert(Expr::ptr_id(e)) {
                for c in e.children() {
                    uniques(c, seen);
                }
            }
        }
        // Sobel's horizontal smoothing kernels belong to a single window
        // each, so it shares less than the separable filters do.
        for (p, min_ratio_pct) in [
            (gaussian5x5_u4(), 200),
            (sobel3x3_u4(), 150),
            (box4x4_u8(), 200),
            (cascade121_u4(), 1000),
            (dilate13_u4(), 1000),
        ] {
            let mut seen = HashSet::new();
            uniques(&p.expr, &mut seen);
            let tree = p.expr.size();
            assert!(
                tree * 100 >= min_ratio_pct * seen.len(),
                "{}: tree {} vs unique {} — unrolled windows must share",
                p.name,
                tree,
                seen.len()
            );
        }
    }
}
