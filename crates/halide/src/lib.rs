//! # fpir-halide — a mini image-pipeline front end
//!
//! The paper's prototype sits inside the Halide compiler: pipelines are
//! written as pure functions over image coordinates, inlined, and
//! vectorized into the flat vector expressions Pitchfork selects
//! instructions for (Figure 2a → 2b). This crate reproduces that front
//! end at the scale the reproduction needs:
//!
//! * [`Image`] — a 2-D integer image with clamped border access;
//! * [`tap`] — a *stencil tap*: the vectorized load `input(x + dx, y + dy)`,
//!   encoded as an expression variable (`in__p1_m1` is `in(x+1, y-1)`);
//! * [`Pipeline`] — a named output expression over taps, with a reference
//!   executor (the "run the algorithm in Halide's interpreter" ground
//!   truth) and per-row environments for driving compiled kernels;
//! * [`runner`] — whole-image execution of a linked program
//!   ([`run_tiled_exe`]): row segments fanned out over workers,
//!   bit-identical at any worker count to the interpreter's image.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod image;
pub mod pipeline;
pub mod runner;

pub use image::Image;
pub use pipeline::{tap, Pipeline, Tap};
pub use runner::run_tiled_exe;
