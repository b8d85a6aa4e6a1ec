//! Stencil pipelines: vectorized expressions over image taps.
//!
//! A *tap* is the vectorized load `input(x + dx, y + dy)`: a lane `i` of
//! the tap holds `input(x0 + i + dx, y + dy)`. Taps are plain expression
//! variables with an encoded name (`in__p1_m2` ⇔ `in(x+1, y-2)`), so the
//! whole instruction-selection stack works on pipelines unchanged, and a
//! [`Pipeline`] can rebuild the binding between variables and image
//! coordinates to execute itself — either through the reference
//! interpreter ([`Pipeline::run_reference`]) or through any executor fed
//! by [`Pipeline::env_at`].

use crate::image::Image;
use fpir::expr::{Expr, RcExpr};
use fpir::interp::{Env, Value};
use fpir::types::{ScalarType, VectorType};
use std::collections::BTreeMap;
use std::fmt;

/// A stencil tap: which input, at what spatial offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tap {
    /// Input buffer name.
    pub buffer: String,
    /// Horizontal offset.
    pub dx: i32,
    /// Vertical offset.
    pub dy: i32,
    /// Lane type of the input.
    pub elem: ScalarType,
}

fn encode_offset(d: i32) -> String {
    if d < 0 {
        format!("m{}", -d)
    } else {
        format!("p{d}")
    }
}

fn decode_offset(s: &str) -> Option<i32> {
    let (sign, digits) = s.split_at(1);
    let v: i32 = digits.parse().ok()?;
    match sign {
        "m" => Some(-v),
        "p" => Some(v),
        _ => None,
    }
}

/// The vectorized load `buffer(x + dx, y + dy)` as an expression variable.
pub fn tap(buffer: &str, dx: i32, dy: i32, elem: ScalarType, lanes: u32) -> RcExpr {
    assert!(!buffer.contains("__"), "buffer names must not contain the tap separator `__`");
    let name = format!("{buffer}__{}_{}", encode_offset(dx), encode_offset(dy));
    Expr::var(name, VectorType::new(elem, lanes))
}

pub(crate) fn parse_tap(name: &str, elem: ScalarType) -> Option<Tap> {
    let (buffer, offsets) = name.split_once("__")?;
    let (xs, ys) = offsets.split_once('_')?;
    Some(Tap { buffer: buffer.to_string(), dx: decode_offset(xs)?, dy: decode_offset(ys)?, elem })
}

/// A named, vectorized stencil pipeline.
#[derive(Debug, Clone)]
pub struct Pipeline {
    /// Benchmark/pipeline name.
    pub name: String,
    /// The output expression over taps.
    pub expr: RcExpr,
}

/// Failure to execute a pipeline on images.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineError {
    /// What went wrong.
    pub what: String,
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pipeline error: {}", self.what)
    }
}

impl std::error::Error for PipelineError {}

impl Pipeline {
    /// Create a pipeline.
    ///
    /// # Panics
    ///
    /// Panics if any free variable of `expr` is not a well-formed tap.
    pub fn new(name: impl Into<String>, expr: RcExpr) -> Pipeline {
        match Pipeline::try_new(name, expr) {
            Ok(p) => p,
            Err(e) => panic!("{}", e.what),
        }
    }

    /// Fallible [`Pipeline::new`] — the validation path for pipelines
    /// built from *untrusted* expressions (a served request), where a
    /// malformed tap must become an error response, not a panic.
    ///
    /// # Errors
    ///
    /// Fails if any free variable of `expr` is not a well-formed tap.
    pub fn try_new(name: impl Into<String>, expr: RcExpr) -> Result<Pipeline, PipelineError> {
        let p = Pipeline { name: name.into(), expr };
        for (name, ty) in p.expr.free_vars() {
            if parse_tap(&name, ty.elem).is_none() {
                return Err(PipelineError {
                    what: format!("`{name}` is not a tap (expected `buffer__pX_mY`)"),
                });
            }
        }
        Ok(p)
    }

    /// Vector width of the pipeline.
    pub fn lanes(&self) -> u32 {
        self.expr.ty().lanes
    }

    /// Output lane type.
    pub fn out_elem(&self) -> ScalarType {
        self.expr.elem()
    }

    /// The distinct taps the pipeline reads.
    pub fn taps(&self) -> Vec<Tap> {
        self.expr
            .free_vars()
            .into_iter()
            .map(|(name, ty)| parse_tap(&name, ty.elem).expect("validated in new"))
            .collect()
    }

    /// The distinct input buffer names.
    pub fn inputs(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for t in self.taps() {
            if !out.contains(&t.buffer) {
                out.push(t.buffer);
            }
        }
        out
    }

    /// Bind every tap for the vector starting at `(x0, y)`.
    ///
    /// # Errors
    ///
    /// Fails when an input image is missing or has the wrong lane type.
    pub fn env_at(
        &self,
        inputs: &BTreeMap<String, Image>,
        x0: i64,
        y: i64,
    ) -> Result<Env, PipelineError> {
        let lanes = self.lanes();
        let mut env = Env::new();
        for (name, ty) in self.expr.free_vars() {
            let t = parse_tap(&name, ty.elem).expect("validated in new");
            let img = inputs
                .get(&t.buffer)
                .ok_or_else(|| PipelineError { what: format!("missing input `{}`", t.buffer) })?;
            if img.elem() != t.elem {
                return Err(PipelineError {
                    what: format!(
                        "input `{}` is {}, pipeline reads {}",
                        t.buffer,
                        img.elem(),
                        t.elem
                    ),
                });
            }
            let data = (0..lanes as i64)
                .map(|i| img.get_clamped(x0 + i + t.dx as i64, y + t.dy as i64))
                .collect();
            env.insert(name, Value::new(ty, data));
        }
        Ok(env)
    }

    /// Output dimensions: those of the pipeline's first input.
    pub(crate) fn output_shape(
        &self,
        inputs: &BTreeMap<String, Image>,
    ) -> Result<(usize, usize), PipelineError> {
        let first = self
            .inputs()
            .first()
            .and_then(|n| inputs.get(n))
            .ok_or_else(|| PipelineError { what: "pipeline reads no inputs".into() })?;
        Ok((first.width(), first.height()))
    }

    /// Execute the whole pipeline with the reference interpreter.
    ///
    /// The output has the dimensions of the first input; the image width
    /// is processed in `lanes`-wide strips (the last strip clamps).
    ///
    /// # Errors
    ///
    /// Fails on missing/mistyped inputs or evaluation errors.
    pub fn run_reference(&self, inputs: &BTreeMap<String, Image>) -> Result<Image, PipelineError> {
        let (w, h) = self.output_shape(inputs)?;
        let mut out = Image::filled(self.out_elem(), w, h, 0);
        let lanes = self.lanes() as usize;
        for y in 0..h {
            let mut x0 = 0usize;
            while x0 < w {
                let env = self.env_at(inputs, x0 as i64, y as i64)?;
                let v = fpir::interp::eval(&self.expr, &env)
                    .map_err(|e| PipelineError { what: e.to_string() })?;
                for i in 0..lanes.min(w - x0) {
                    out.set(x0 + i, y, v.lane(i));
                }
                x0 += lanes;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpir::build;
    use fpir::types::ScalarType as S;

    fn avg_pipeline(lanes: u32) -> Pipeline {
        // out(x, y) = rounding average of in(x, y) and in(x+1, y).
        let a = tap("in", 0, 0, S::U8, lanes);
        let b = tap("in", 1, 0, S::U8, lanes);
        Pipeline::new("avg", build::rounding_halving_add(a, b))
    }

    #[test]
    fn taps_round_trip() {
        let p = avg_pipeline(4);
        let taps = p.taps();
        assert_eq!(taps.len(), 2);
        assert_eq!(taps[0], Tap { buffer: "in".into(), dx: 0, dy: 0, elem: S::U8 });
        assert_eq!(taps[1], Tap { buffer: "in".into(), dx: 1, dy: 0, elem: S::U8 });
    }

    #[test]
    fn negative_offsets_encode() {
        let t = tap("img", -2, 1, S::I16, 8);
        let p = Pipeline::new("t", t);
        assert_eq!(p.taps()[0].dx, -2);
        assert_eq!(p.taps()[0].dy, 1);
    }

    #[test]
    fn reference_execution_matches_hand_computation() {
        let p = avg_pipeline(4);
        let img = Image::from_rows(S::U8, &[vec![10, 20, 30, 40]]);
        let mut inputs = BTreeMap::new();
        inputs.insert("in".to_string(), img);
        let out = p.run_reference(&inputs).unwrap();
        // (10+20+1)/2=15, (20+30+1)/2=25, (30+40+1)/2=35, edge clamps: (40+40+1)/2=40.
        assert_eq!(out.samples(), &[15, 25, 35, 40]);
    }

    #[test]
    fn missing_input_errors() {
        let p = avg_pipeline(4);
        let inputs = BTreeMap::new();
        assert!(p.run_reference(&inputs).is_err());
    }

    #[test]
    #[should_panic(expected = "is not a tap")]
    fn non_tap_variables_are_rejected() {
        let e = build::var("plain", fpir::VectorType::new(S::U8, 4));
        let _ = Pipeline::new("bad", e);
    }
}
