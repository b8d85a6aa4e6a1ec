//! Quantized machine-learning kernel benchmarks.
//!
//! These mirror the ML half of the Rake suite: elementwise quantized ops,
//! matrix-multiply inner loops with dot products, depthwise convolution
//! with Q-format requantization, and poolings. Several deliberately use
//! `rounding_mul_shr` on 32-bit lanes — the operation that needs 64-bit
//! intermediates when expressed with primitive integers, which Hexagon
//! HVX cannot compile through the baseline flow (§5.1).

use crate::LANES;
use fpir::build::*;
use fpir::expr::RcExpr;
use fpir::types::{ScalarType as S, VectorType as V};
use fpir_halide::{tap, Pipeline};

fn u8_tap(b: &str, dx: i32) -> RcExpr {
    tap(b, dx, 0, S::U8, LANES)
}

/// Quantized elementwise add: a weighted blend renormalized with a
/// round-to-nearest shift, `u8((u16(a) + u16(b)*2 + 2) >> 2)`.
pub fn add_bench() -> Pipeline {
    let t16 = V::new(S::U16, LANES);
    let sum = add(widen(u8_tap("a", 0)), mul(widen(u8_tap("b", 0)), constant(2, t16)));
    let rounded = shr(add(sum.clone(), splat(2, &sum)), splat(2, &sum));
    Pipeline::new("add", cast(S::U8, rounded))
}

/// Quantized elementwise multiply in Q31: `rounding_mul_shr(a, b, 31)` on
/// i32 lanes — one of the three benchmarks whose primitive-integer form
/// needs 64-bit intermediates (§5.1) — followed by a rounding rescale and
/// saturating narrow to i16.
pub fn mul_bench() -> Pipeline {
    let t = V::new(S::I32, LANES);
    let a = tap("a", 0, 0, S::I32, LANES);
    let b = tap("b", 0, 0, S::I32, LANES);
    let product = rounding_mul_shr(a, b, constant(31, t));
    let rescaled = shr(product, constant(16, t));
    Pipeline::new("mul", saturating_cast(S::I16, rescaled))
}

/// A matrix-multiply inner step: a 4-way u8 dot product accumulated into
/// u32 (the `udot`/`vrmpy` shape), then Q31 requantization and a
/// saturating narrow chain down to u8.
pub fn matmul() -> Pipeline {
    let ti32 = V::new(S::I32, LANES);
    let acc = tap("acc", 0, 0, S::U32, LANES);
    let mut dot = acc;
    for i in 0..4 {
        let m = widening_mul(u8_tap("a", i), u8_tap("b", i));
        dot = add(cast(S::U32, m), dot);
    }
    // Requantize: treat as signed, scale by a Q31 constant, narrow.
    let signed = reinterpret(S::I32, dot);
    let scaled = rounding_mul_shr(signed, constant(1_518_500_250, ti32), constant(31, ti32));
    let narrowed = saturating_cast(S::I16, scaled);
    Pipeline::new("matmul", saturating_cast(S::U8, narrowed))
}

/// 3×3 convolution with i16 data and coefficients — the paired
/// multiply-add shape (`vdmpy` / `vpmaddwd`), saturating back to i16.
pub fn conv3x3a16() -> Pipeline {
    let t16 = V::new(S::I16, LANES);
    let t32 = V::new(S::I32, LANES);
    let t = |dx: i32, dy: i32| tap("in", dx, dy, S::I16, LANES);
    let k = |v: i128| constant(v, t16);
    let pair = |a: RcExpr, ka: i128, b: RcExpr, kb: i128| {
        add(widening_mul(a, k(ka)), widening_mul(b, k(kb)))
    };
    let p0 = pair(t(-1, -1), 1, t(0, -1), 2);
    let p1 = pair(t(1, -1), 1, t(-1, 0), 2);
    let p2 = pair(t(0, 0), 4, t(1, 0), 2);
    let p3 = pair(t(-1, 1), 1, t(0, 1), 2);
    let center = widening_mul(t(1, 1), k(1));
    let acc = add(add(add(p0, p1), add(p2, p3)), center);
    let scaled = shr(acc, constant(4, t32));
    Pipeline::new("conv3x3a16", saturating_cast(S::I16, scaled))
}

/// Depthwise convolution: three taps times u8 weights accumulated in i32,
/// bias, Q31 requantization (64-bit through primitive integers — §5.1),
/// saturating narrow to u8.
pub fn depthwise_conv() -> Pipeline {
    let t32 = V::new(S::I32, LANES);
    let w = |dx: i32, wv: i128| {
        let m = widening_mul(u8_tap("in", dx), constant(wv, V::new(S::U8, LANES)));
        cast(S::I32, cast(S::U32, m))
    };
    let acc = add(add(w(-1, 29), w(0, 110)), add(w(1, 29), constant(1024, t32)));
    let scaled = rounding_mul_shr(acc, constant(1_340_780_600, t32), constant(31, t32));
    let narrowed = saturating_cast(S::I16, scaled);
    Pipeline::new("depthwise_conv", saturating_cast(S::U8, narrowed))
}

/// 2×2 average pooling written with the branch-free magic-average idioms
/// — `(x & y) + ((x ^ y) >> 1)` and `(x | y) - ((x ^ y) >> 1)` — the
/// patterns only the synthesized rules lift (the §5.3 ablation's largest
/// delta, 4.99× on HVX).
pub fn average_pool() -> Pipeline {
    let floor_avg = |x: RcExpr, y: RcExpr| {
        add(bit_and(x.clone(), y.clone()), shr(bit_xor(x.clone(), y), splat(1, &x)))
    };
    let ceil_avg = |x: RcExpr, y: RcExpr| {
        sub(bit_or(x.clone(), y.clone()), shr(bit_xor(x.clone(), y), splat(1, &x)))
    };
    let r0 = floor_avg(u8_tap("in", 0), u8_tap("in", 1));
    let r1 = floor_avg(tap("in", 0, 1, S::U8, LANES), tap("in", 1, 1, S::U8, LANES));
    Pipeline::new("average_pool", ceil_avg(r0, r1))
}

/// 2×2 max pooling with a saturation clamp.
pub fn max_pool() -> Pipeline {
    let m = max(
        max(u8_tap("in", 0), u8_tap("in", 1)),
        max(tap("in", 0, 1, S::U8, LANES), tap("in", 1, 1, S::U8, LANES)),
    );
    Pipeline::new("max_pool", min(m.clone(), splat(250, &m)))
}

/// Windowed mean of four samples with round-to-nearest:
/// `u8((u16(a) + u16(b) + u16(c) + u16(d) + 2) >> 2)`.
pub fn mean() -> Pipeline {
    let sum = add(
        add(widen(u8_tap("in", 0)), widen(u8_tap("in", 1))),
        add(widen(u8_tap("in", 2)), widen(u8_tap("in", 3))),
    );
    let rounded = shr(add(sum.clone(), splat(2, &sum)), splat(2, &sum));
    Pipeline::new("mean", cast(S::U8, rounded))
}

/// L2 norm inner step: a 4-way sum of squares accumulated into u32 (the
/// dot-product shape with `a == b`), then a Q31 scale and saturating
/// narrow chain.
pub fn l2norm() -> Pipeline {
    let ti32 = V::new(S::I32, LANES);
    let acc = tap("acc", 0, 0, S::U32, LANES);
    let mut dot = acc;
    for i in 0..4 {
        let x = u8_tap("x", i);
        let m = widening_mul(x.clone(), x);
        dot = add(cast(S::U32, m), dot);
    }
    let signed = reinterpret(S::I32, dot);
    let scaled = rounding_mul_shr(signed, constant(1_151_906_403, ti32), constant(31, ti32));
    let narrowed = saturating_cast(S::I16, scaled);
    Pipeline::new("l2norm", saturating_cast(S::U8, narrowed))
}

/// Quantized fully-connected inner step: 4-way u8·u8 dot product plus
/// bias, Q15 requantization, saturating narrow to u8 (the TFLite
/// fully-connected recipe).
pub fn fully_connected() -> Pipeline {
    let t16 = V::new(S::I16, LANES);
    let acc = tap("bias", 0, 0, S::U32, LANES);
    let mut dot = acc;
    for i in 0..4 {
        let m = widening_mul(u8_tap("x", i), u8_tap("w", i));
        dot = add(cast(S::U32, m), dot);
    }
    // Narrow the accumulator into i16 with saturation, then Q15 scale.
    let narrowed = saturating_cast(S::I16, shr(dot.clone(), splat(4, &dot)));
    let scaled = rounding_mul_shr(narrowed, constant(27000, t16), constant(15, t16));
    Pipeline::new("fully_connected", saturating_cast(S::U8, scaled))
}

/// A fixed-point softmax stage: subtract the running maximum, apply a
/// shifted quadratic exp approximation in Q12, combine the neighbouring
/// terms with saturating adds, and normalize with a Q15 reciprocal
/// multiply. Deliberately the *largest* expression in the suite — the
/// paper's biggest compile-time win (§5.2) comes from softmax's size.
pub fn softmax() -> Pipeline {
    let t16 = V::new(S::I16, LANES);
    let x = |i: i32| u8_tap("x", i);
    // Running maximum of the window.
    let m = max(max(x(0), x(1)), max(x(2), x(3)));
    // exp2 approximation per element: e = 4096 - d*16 + mul_shr(d*4, d*4, 8)
    // over d = m - x (all in i16; d in [0, 255]).
    let expi = |i: i32| {
        let d = widening_sub(m.clone(), x(i));
        let d = reinterpret(S::I16, cast(S::U16, d));
        let lin = shl(d.clone(), constant(4, t16));
        let dq = shl(d, constant(2, t16));
        let quad = mul_shr(dq.clone(), dq, constant(8, t16));
        saturating_sub(saturating_add(constant(4096, t16), quad), lin)
    };
    let e0 = expi(0);
    let sum = saturating_add(saturating_add(e0.clone(), expi(1)), saturating_add(expi(2), expi(3)));
    // Normalize: out = sat_u8(rounding_mul_shr(e0 * recip(sum)...)) with a
    // fixed Q15 reciprocal estimate refined by one multiply.
    let recip = sub(constant(32767, t16), shr(sum, constant(2, t16)));
    let ratio = rounding_mul_shr(e0, recip, constant(12, t16));
    Pipeline::new("softmax", saturating_cast(S::U8, ratio))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpir_halide::Image;
    use std::collections::BTreeMap;

    #[test]
    fn pipelines_build() {
        for p in [
            add_bench(),
            mul_bench(),
            matmul(),
            conv3x3a16(),
            depthwise_conv(),
            average_pool(),
            max_pool(),
            softmax(),
        ] {
            assert!(!p.taps().is_empty(), "{}", p.name);
            assert!(p.expr.size() > 1, "{}", p.name);
        }
    }

    #[test]
    fn average_pool_matches_plain_average() {
        // The magic idiom must equal the rounding average of floor
        // averages on a checkerboard.
        let p = average_pool();
        let mut inputs = BTreeMap::new();
        inputs.insert(
            "in".to_string(),
            Image::from_rows(S::U8, &[vec![10, 20, 10, 20], vec![30, 40, 30, 40]]),
        );
        let out = p.run_reference(&inputs).unwrap();
        // floor((10+20)/2)=15, floor((30+40)/2)=35, ceil((15+35)/2)=25.
        assert_eq!(out.samples()[0], 25);
    }

    #[test]
    fn mul_bench_is_q31_multiply() {
        let p = mul_bench();
        let mut inputs = BTreeMap::new();
        let half = 1i128 << 30; // 0.5 in Q31
        inputs.insert("a".to_string(), Image::filled(S::I32, 256, 1, half));
        inputs.insert("b".to_string(), Image::filled(S::I32, 256, 1, half));
        let out = p.run_reference(&inputs).unwrap();
        // 0.5 * 0.5 = 0.25 in Q31 = 2^29; rescaled by >> 16 = 8192, which
        // fits i16 without saturating.
        assert!(out.samples().iter().all(|&v| v == 1i128 << 13), "{:?}", &out.samples()[..2]);
    }

    #[test]
    fn softmax_is_largest_expression() {
        let sizes: Vec<(String, usize)> = crate::all_workloads()
            .into_iter()
            .map(|w| (w.pipeline.name.clone(), w.pipeline.expr.size()))
            .collect();
        let softmax_size = sizes.iter().find(|(n, _)| n == "softmax").unwrap().1;
        assert!(sizes.iter().all(|(n, s)| n == "softmax" || *s <= softmax_size), "{sizes:?}");
    }
}
