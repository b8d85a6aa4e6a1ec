//! The camera-pipe benchmark: a slice of a raw-to-RGB camera pipeline.
//!
//! White balance (Q8 gain multiplies), a demosaic-style neighbourhood
//! average (rounding and halving averages — the idioms §5.1.2 highlights),
//! a saturating combine, and a tone-mapping shift with round-to-nearest
//! down to 8 bits.

use crate::LANES;
use fpir::build::*;
use fpir::expr::RcExpr;
use fpir::types::{ScalarType as S, VectorType as V};
use fpir_halide::{tap, Pipeline};

/// Build the camera-pipe pipeline over a `u16` raw input.
pub fn camera_pipe() -> Pipeline {
    let t16 = V::new(S::U16, LANES);
    let raw = |dx: i32, dy: i32| tap("raw", dx, dy, S::U16, LANES);
    // White balance: multiply by a Q8 gain (~1.4x for the red site,
    // ~0.8x for the blue site).
    let wb_r = |e: RcExpr| mul_shr(e, constant(358, t16), constant(8, t16));
    let wb_b = |e: RcExpr| mul_shr(e, constant(205, t16), constant(8, t16));
    // Demosaic-style interpolation: rounding average of the horizontal
    // red sites, halving average of the vertical blue sites.
    let red = rounding_halving_add(wb_r(raw(0, 0)), wb_r(raw(2, 0)));
    let blue = halving_add(wb_b(raw(1, -1)), wb_b(raw(1, 1)));
    // Luma-ish combine with saturation, then tone-map to 8 bits with a
    // rounding shift (the fused shift-round-saturate of §5.3.2).
    let luma = saturating_add(red, blue);
    let toned = rounding_shr(luma, constant(5, t16));
    Pipeline::new("camera_pipe", saturating_cast(S::U8, toned))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpir_halide::Image;
    use std::collections::BTreeMap;

    #[test]
    fn camera_pipe_builds_and_runs() {
        let p = camera_pipe();
        let mut inputs = BTreeMap::new();
        inputs.insert("raw".to_string(), Image::filled(S::U16, 256, 4, 1000));
        let out = p.run_reference(&inputs).unwrap();
        // wb_r(1000) = 1398, wb_b(1000) = 800; avg pairs equal themselves;
        // luma = 2198; round(2198 / 32) = 69.
        assert!(out.samples().iter().all(|&v| v == 69), "{:?}", &out.samples()[..4]);
    }

    #[test]
    fn saturation_engages_on_bright_input() {
        let p = camera_pipe();
        let mut inputs = BTreeMap::new();
        inputs.insert("raw".to_string(), Image::filled(S::U16, 256, 4, 65535));
        let out = p.run_reference(&inputs).unwrap();
        assert!(out.samples().iter().all(|&v| v == 255));
    }
}
