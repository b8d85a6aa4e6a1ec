//! Image-processing and computer-vision benchmarks.
//!
//! All pipelines are written *portably*: primitive integer arithmetic with
//! the occasional FPIR instruction where a fixed-point expert would reach
//! for one (`absd` in Sobel, exactly as Figure 2 of the paper shows).

use crate::LANES;
use fpir::build::*;
use fpir::expr::RcExpr;
use fpir::types::{ScalarType as S, VectorType as V};
use fpir_halide::{tap, Pipeline};

fn u8_tap(buffer: &str, dx: i32, dy: i32) -> RcExpr {
    tap(buffer, dx, dy, S::U8, LANES)
}

fn wide(e: RcExpr) -> RcExpr {
    widen(e)
}

fn u16c(v: i128) -> RcExpr {
    constant(v, V::new(S::U16, LANES))
}

/// The 3×3 Sobel gradient filter of Figure 2: two `[1 2 1]` smoothing
/// kernels, absolute differences, and a saturating 8-bit output.
pub fn sobel3x3() -> Pipeline {
    let k = |dx: i32, dy: i32| {
        add(
            add(wide(u8_tap("in", dx - 1, dy)), mul(wide(u8_tap("in", dx, dy)), u16c(2))),
            wide(u8_tap("in", dx + 1, dy)),
        )
    };
    let kv = |dx: i32, dy: i32| {
        add(
            add(wide(u8_tap("in", dx, dy - 1)), mul(wide(u8_tap("in", dx, dy)), u16c(2))),
            wide(u8_tap("in", dx, dy + 1)),
        )
    };
    let sobel_x = absd(k(0, -1), k(0, 1));
    let sobel_y = absd(kv(-1, 0), kv(1, 0));
    let sum = add(sobel_x, sobel_y);
    let clamped = min(sum.clone(), splat(255, &sum));
    Pipeline::new("sobel3x3", cast(S::U8, clamped))
}

/// A 2×2 box blur with truncating narrow: `u8((a + b + c + d) >> 2)`.
pub fn blur3x3() -> Pipeline {
    let sum = add(
        add(wide(u8_tap("in", 0, 0)), wide(u8_tap("in", 1, 0))),
        add(wide(u8_tap("in", 0, 1)), wide(u8_tap("in", 1, 1))),
    );
    let shifted = shr(sum.clone(), splat(2, &sum));
    Pipeline::new("blur3x3", cast(S::U8, shifted))
}

/// Separable `[1 2 1]²` Gaussian with round-to-nearest renormalization:
/// `u8((K + 8) >> 4)` — the bounds-predicated rounding-shift benchmark.
pub fn gaussian3x3() -> Pipeline {
    let w = [[1, 2, 1], [2, 4, 2], [1, 2, 1]];
    let mut sum: Option<RcExpr> = None;
    for (j, row) in w.iter().enumerate() {
        for (i, &c) in row.iter().enumerate() {
            let t = wide(u8_tap("in", i as i32 - 1, j as i32 - 1));
            let term = if c == 1 { t } else { mul(t, u16c(c)) };
            sum = Some(match sum {
                Some(s) => add(s, term),
                None => term,
            });
        }
    }
    let sum = sum.expect("kernel is non-empty");
    let rounded = shr(add(sum.clone(), splat(8, &sum)), splat(4, &sum));
    Pipeline::new("gaussian3x3", cast(S::U8, rounded))
}

/// Horizontal 5-tap `[1 4 6 4 1]` Gaussian, `u8((K + 8) >> 4)`.
pub fn gaussian5x5() -> Pipeline {
    let w = [1, 4, 6, 4, 1];
    let mut sum: Option<RcExpr> = None;
    for (i, &c) in w.iter().enumerate() {
        let t = wide(u8_tap("in", i as i32 - 2, 0));
        let term = if c == 1 { t } else { mul(t, u16c(c)) };
        sum = Some(match sum {
            Some(s) => add(s, term),
            None => term,
        });
    }
    let sum = sum.expect("kernel is non-empty");
    let rounded = shr(add(sum.clone(), splat(8, &sum)), splat(4, &sum));
    Pipeline::new("gaussian5x5", cast(S::U8, rounded))
}

/// Horizontal 7-tap `[1 6 15 20 15 6 1]` Gaussian with non-power-of-two
/// weights (widening multiplies by constants), `u8((K + 32) >> 6)`.
pub fn gaussian7x7() -> Pipeline {
    let w = [1, 6, 15, 20, 15, 6, 1];
    let mut sum: Option<RcExpr> = None;
    for (i, &c) in w.iter().enumerate() {
        let t = wide(u8_tap("in", i as i32 - 3, 0));
        let term = if c == 1 { t } else { mul(t, u16c(c)) };
        sum = Some(match sum {
            Some(s) => add(s, term),
            None => term,
        });
    }
    let sum = sum.expect("kernel is non-empty");
    let rounded = shr(add(sum.clone(), splat(32, &sum)), splat(6, &sum));
    Pipeline::new("gaussian7x7", cast(S::U8, rounded))
}

/// Morphological dilation: the maximum over the 3×3 neighbourhood.
pub fn dilate3x3() -> Pipeline {
    let mut m: Option<RcExpr> = None;
    for dy in -1..=1 {
        for dx in -1..=1 {
            let t = u8_tap("in", dx, dy);
            m = Some(match m {
                Some(acc) => max(acc, t),
                None => t,
            });
        }
    }
    Pipeline::new("dilate3x3", m.expect("neighbourhood is non-empty"))
}

/// Approximate 3×3 median: the median of per-row medians (the classic
/// min/max network approximation).
pub fn median3x3() -> Pipeline {
    let med3 = |a: RcExpr, b: RcExpr, c: RcExpr| {
        // med(a,b,c) = max(min(a,b), min(max(a,b), c))
        max(min(a.clone(), b.clone()), min(max(a, b), c))
    };
    let row = |dy: i32| med3(u8_tap("in", -1, dy), u8_tap("in", 0, dy), u8_tap("in", 1, dy));
    Pipeline::new("median3x3", med3(row(-1), row(0), row(1)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelines_build_and_type_check() {
        for p in [
            sobel3x3(),
            blur3x3(),
            gaussian3x3(),
            gaussian5x5(),
            gaussian7x7(),
            dilate3x3(),
            median3x3(),
        ] {
            assert_eq!(p.out_elem(), S::U8, "{}", p.name);
            assert!(!p.taps().is_empty(), "{}", p.name);
        }
    }

    #[test]
    fn gaussian3x3_normalizes() {
        // A constant image must pass through unchanged (kernel sums to 16).
        use fpir_halide::Image;
        use std::collections::BTreeMap;
        let p = gaussian3x3();
        let mut inputs = BTreeMap::new();
        inputs.insert("in".to_string(), Image::filled(S::U8, 256, 4, 200));
        let out = p.run_reference(&inputs).unwrap();
        assert!(out.samples().iter().all(|&v| v == 200));
    }

    #[test]
    fn dilate_is_neighbourhood_max() {
        use fpir_halide::Image;
        use std::collections::BTreeMap;
        let p = dilate3x3();
        let mut img = Image::filled(S::U8, 256, 3, 10);
        img.set(128, 1, 99);
        let mut inputs = BTreeMap::new();
        inputs.insert("in".to_string(), img);
        let out = p.run_reference(&inputs).unwrap();
        assert_eq!(out.samples()[256 + 128], 99);
        assert_eq!(out.samples()[256 + 127], 99);
        assert_eq!(out.samples()[256 + 125], 10);
    }
}
