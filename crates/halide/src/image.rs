//! Two-dimensional integer images with clamped border access.

use fpir::types::ScalarType;
use fpir_isa::Lanes;
use rand::Rng;

/// A row-major 2-D image of integer samples in a given lane type, each
/// stored at the type's own width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    elem: ScalarType,
    width: usize,
    height: usize,
    data: Lanes,
}

impl Image {
    /// A `width × height` image filled with `fill`.
    ///
    /// # Panics
    ///
    /// Panics if `fill` is not representable in `elem` or a dimension is
    /// zero.
    pub fn filled(elem: ScalarType, width: usize, height: usize, fill: i128) -> Image {
        assert!(width > 0 && height > 0, "images must be non-empty");
        assert!(elem.contains(fill), "{fill} does not fit {elem}");
        Image { elem, width, height, data: Lanes::splat(elem, fill, width * height) }
    }

    /// An image of uniformly random samples.
    pub fn random(rng: &mut impl Rng, elem: ScalarType, width: usize, height: usize) -> Image {
        let mut img = Image::filled(elem, width, height, 0);
        for i in 0..width * height {
            img.data.set(i, rng.gen_range(elem.min_value()..=elem.max_value()));
        }
        img
    }

    /// Build from explicit rows.
    ///
    /// # Panics
    ///
    /// Panics on ragged rows or out-of-range samples.
    pub fn from_rows(elem: ScalarType, rows: &[Vec<i128>]) -> Image {
        let height = rows.len();
        let width = rows.first().map_or(0, Vec::len);
        let mut img = Image::filled(elem, width, height, 0);
        for (y, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), width, "row {y} has the wrong length");
            for (x, &v) in row.iter().enumerate() {
                img.set(x, y, v);
            }
        }
        img
    }

    /// Build directly from a row-major sample buffer — the tiled
    /// runner's output, written in place at the samples' own width.
    pub(crate) fn from_lanes(width: usize, height: usize, data: Lanes) -> Image {
        assert!(width > 0 && height > 0, "images must be non-empty");
        assert_eq!(data.len(), width * height, "sample count must match the dimensions");
        Image { elem: data.elem(), width, height, data }
    }

    /// Lane type of the samples.
    pub fn elem(&self) -> ScalarType {
        self.elem
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Sample at `(x, y)` with coordinates clamped to the image bounds —
    /// Halide's usual boundary condition for stencil inputs.
    pub fn get_clamped(&self, x: i64, y: i64) -> i128 {
        let x = x.clamp(0, self.width as i64 - 1) as usize;
        let y = y.clamp(0, self.height as i64 - 1) as usize;
        self.data.get(y * self.width + x)
    }

    /// Write the sample at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds or `v` does not fit the lane type.
    pub fn set(&mut self, x: usize, y: usize, v: i128) {
        assert!(x < self.width && y < self.height, "({x}, {y}) out of bounds");
        assert!(self.elem.contains(v), "{v} does not fit {}", self.elem);
        self.data.set(y * self.width + x, v);
    }

    /// All samples, row-major, at their own width.
    pub fn lanes(&self) -> &Lanes {
        &self.data
    }

    /// All samples' values, row-major.
    pub fn samples(&self) -> Vec<i128> {
        let mut out = Vec::with_capacity(self.data.len());
        self.data.write_to(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpir::types::ScalarType as S;

    #[test]
    fn clamped_access() {
        let img = Image::from_rows(S::U8, &[vec![1, 2], vec![3, 4]]);
        assert_eq!(img.get_clamped(0, 0), 1);
        assert_eq!(img.get_clamped(-5, 0), 1);
        assert_eq!(img.get_clamped(10, 10), 4);
        assert_eq!(img.get_clamped(1, -1), 2);
    }

    #[test]
    fn random_respects_type_range() {
        let mut rng = rand::thread_rng();
        let img = Image::random(&mut rng, S::I8, 16, 16);
        assert!(img.samples().iter().all(|&v| (-128..=127).contains(&v)));
        assert!(matches!(img.lanes(), Lanes::I8(v) if v.len() == 256), "one byte per sample");
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn set_rejects_out_of_range() {
        let mut img = Image::filled(S::U8, 2, 2, 0);
        img.set(0, 0, 300);
    }
}
