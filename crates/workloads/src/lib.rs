//! # fpir-workloads — the 16 fixed-point benchmarks
//!
//! The evaluation suite mirrors the fixed-point subset of the Rake
//! benchmarks the paper uses (§5): quantized machine-learning kernels,
//! computational photography, image processing, and computer vision — all
//! written as portable pipelines over image taps, with FPIR instructions
//! only where a fixed-point expert would write one.
//!
//! Each [`Workload`] carries its family tag and the input images a
//! benchmark run needs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod camera;
pub mod imaging;
pub mod ml;
pub mod unrolled;

use fpir_halide::{Image, Pipeline};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Vector width shared by every benchmark (one full HVX register of
/// bytes; wider types span multiple native registers on every target).
pub const LANES: u32 = 128;

/// Which corner of the evaluation suite a benchmark comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Quantized machine learning.
    QuantizedMl,
    /// Image processing.
    ImageProcessing,
    /// Computational photography.
    Photography,
    /// Computer vision.
    Vision,
}

impl std::fmt::Display for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Family::QuantizedMl => "quantized ML",
            Family::ImageProcessing => "image processing",
            Family::Photography => "computational photography",
            Family::Vision => "computer vision",
        };
        f.write_str(s)
    }
}

/// One benchmark: a pipeline plus metadata.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The pipeline (its name is the benchmark name).
    pub pipeline: Pipeline,
    /// Suite family.
    pub family: Family,
    /// One-line description.
    pub description: &'static str,
}

impl Workload {
    /// Benchmark name.
    pub fn name(&self) -> &str {
        &self.pipeline.name
    }

    /// Deterministic random input images sized `width × height` for every
    /// buffer the pipeline reads.
    pub fn random_inputs(&self, width: usize, height: usize, seed: u64) -> BTreeMap<String, Image> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = BTreeMap::new();
        for t in self.pipeline.taps() {
            out.entry(t.buffer.clone())
                .or_insert_with(|| Image::random(&mut rng, t.elem, width, height));
        }
        out
    }
}

fn w(pipeline: Pipeline, family: Family, description: &'static str) -> Workload {
    Workload { pipeline, family, description }
}

/// All 16 benchmarks of the evaluation suite, in the figure's
/// presentation order (the fixed-point subset of the Rake benchmarks).
pub fn all_workloads() -> Vec<Workload> {
    use Family::*;
    vec![
        w(ml::add_bench(), QuantizedMl, "quantized elementwise add with rounding renormalization"),
        w(ml::average_pool(), QuantizedMl, "2x2 average pooling via branch-free magic averages"),
        w(camera::camera_pipe(), Photography, "white balance, demosaic averages, tone shift"),
        w(ml::conv3x3a16(), QuantizedMl, "3x3 convolution, i16 data, paired multiply-adds"),
        w(
            ml::depthwise_conv(),
            QuantizedMl,
            "depthwise conv with Q31 requantization (64-bit through integers)",
        ),
        w(
            ml::fully_connected(),
            QuantizedMl,
            "quantized fully-connected: dot product + Q15 requant",
        ),
        w(
            imaging::gaussian3x3(),
            ImageProcessing,
            "separable [1 2 1]^2 Gaussian with rounding shift",
        ),
        w(imaging::gaussian5x5(), ImageProcessing, "5-tap Gaussian"),
        w(imaging::gaussian7x7(), ImageProcessing, "7-tap Gaussian with non-pow2 weights"),
        w(ml::l2norm(), QuantizedMl, "sum of squares + Q31 normalization"),
        w(ml::matmul(), QuantizedMl, "matmul inner step: 4-way u8 dot product + Q31 requant"),
        w(ml::mean(), QuantizedMl, "windowed mean with round-to-nearest"),
        w(ml::max_pool(), QuantizedMl, "2x2 max pooling with clamp"),
        w(ml::mul_bench(), QuantizedMl, "Q31 elementwise multiply (64-bit through integers)"),
        w(ml::softmax(), QuantizedMl, "fixed-point softmax stage (largest expression)"),
        w(imaging::sobel3x3(), Vision, "the Figure 2 Sobel gradient filter"),
    ]
}

/// Additional image-processing workloads exercised by the examples and
/// integration tests (not part of the 16-benchmark figure suite).
pub fn extra_workloads() -> Vec<Workload> {
    use Family::*;
    vec![
        w(imaging::blur3x3(), ImageProcessing, "box blur with truncating narrow"),
        w(imaging::dilate3x3(), Vision, "3x3 morphological dilation"),
        w(imaging::median3x3(), Vision, "approximate 3x3 median (min/max network)"),
    ]
}

/// The unrolled stencil variants (see [`unrolled`]): the DAG-shaped
/// expressions a vectorize-and-unroll Halide schedule hands the selector.
/// Compiled by the tier-1 selection gates and pfbench's `compile-unrolled`
/// workload alongside the figure suite; kept out
/// of [`all_workloads`] so the figure reproductions stay the paper's 16.
pub fn unrolled_workloads() -> Vec<Workload> {
    use Family::*;
    vec![
        w(
            unrolled::gaussian5x5_u4(),
            ImageProcessing,
            "5x5 Gaussian pyramid step, unrolled x4 with shared column sums",
        ),
        w(
            unrolled::sobel3x3_u4(),
            Vision,
            "Sobel magnitude unrolled x4, shared smoothing kernels, max-pooled",
        ),
        w(
            unrolled::box4x4_u8(),
            ImageProcessing,
            "4x4 box filter unrolled x8 with shared column sums, decimated 8:1",
        ),
        w(
            unrolled::cascade121_u4(),
            ImageProcessing,
            "six cascaded [1 2 1] smoothing passes (13-tap binomial), unrolled x4",
        ),
        w(
            unrolled::dilate13_u4(),
            Vision,
            "13-wide dilation as six cascaded 3-wide maxima, unrolled x4",
        ),
        w(unrolled::fir16(), ImageProcessing, "16-tap symmetric FIR low-pass with rounding"),
    ]
}

/// Look up one benchmark by name (searching every group).
pub fn workload(name: &str) -> Option<Workload> {
    all_workloads()
        .into_iter()
        .chain(extra_workloads())
        .chain(unrolled_workloads())
        .find(|w| w.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_sixteen() {
        assert_eq!(all_workloads().len(), 16);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<String> = all_workloads().iter().map(|w| w.name().to_string()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 16);
    }

    #[test]
    fn every_workload_runs_on_random_inputs() {
        for wl in all_workloads().into_iter().chain(extra_workloads()).chain(unrolled_workloads()) {
            let inputs = wl.random_inputs(256, 3, 42);
            let out =
                wl.pipeline.run_reference(&inputs).unwrap_or_else(|e| panic!("{}: {e}", wl.name()));
            assert_eq!(out.width(), 256, "{}", wl.name());
        }
    }

    #[test]
    fn lanes_are_uniform() {
        for wl in all_workloads().into_iter().chain(unrolled_workloads()) {
            assert_eq!(wl.pipeline.lanes(), LANES, "{}", wl.name());
        }
    }

    #[test]
    fn names_are_unique_across_groups() {
        let mut names: Vec<String> = all_workloads()
            .iter()
            .chain(extra_workloads().iter())
            .chain(unrolled_workloads().iter())
            .map(|w| w.name().to_string())
            .collect();
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn the_64_bit_trio_uses_wide_rounding_multiplies() {
        // §5.1: depthwise_conv, matmul and mul need 64-bit intermediates
        // when written with primitive integer arithmetic.
        use fpir::expr::{ExprKind, FpirOp};
        use fpir::types::ScalarType;
        for name in ["depthwise_conv", "matmul", "mul"] {
            let wl = workload(name).unwrap();
            let mut found = false;
            wl.pipeline.expr.visit(&mut |e| {
                if let ExprKind::Fpir(FpirOp::RoundingMulShr, _) = e.kind() {
                    found |= e.children()[0].elem() == ScalarType::I32;
                }
            });
            assert!(found, "{name} lacks the i32 rounding_mul_shr");
        }
    }
}
