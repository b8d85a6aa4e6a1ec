//! Scalar and vector types for fixed-point expressions.
//!
//! FPIR works over fixed-width integer lanes. A [`ScalarType`] is one lane's
//! storage type; a [`VectorType`] pairs a scalar type with a lane count.
//! Following the paper, "widening" doubles the bit width and preserves
//! signedness, and "narrowing" halves it.

use std::fmt;

/// A fixed-width integer lane type.
///
/// These are the eight storage types supported by FPIR and by all three
/// virtual target ISAs (Hexagon HVX excepted for 64-bit lanes, which it
/// does not support — see the `fpir-isa` crate).
///
/// # Examples
///
/// ```
/// use fpir::types::ScalarType;
///
/// let t = ScalarType::U8;
/// assert_eq!(t.bits(), 8);
/// assert_eq!(t.widen(), Some(ScalarType::U16));
/// assert_eq!(t.max_value(), 255);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ScalarType {
    /// Unsigned 8-bit lane.
    U8,
    /// Unsigned 16-bit lane.
    U16,
    /// Unsigned 32-bit lane.
    U32,
    /// Unsigned 64-bit lane.
    U64,
    /// Signed 8-bit lane.
    I8,
    /// Signed 16-bit lane.
    I16,
    /// Signed 32-bit lane.
    I32,
    /// Signed 64-bit lane.
    I64,
}

/// All scalar types, narrowest-first within each signedness.
pub const ALL_SCALAR_TYPES: [ScalarType; 8] = [
    ScalarType::U8,
    ScalarType::U16,
    ScalarType::U32,
    ScalarType::U64,
    ScalarType::I8,
    ScalarType::I16,
    ScalarType::I32,
    ScalarType::I64,
];

impl ScalarType {
    /// Construct from signedness and bit width.
    ///
    /// Returns `None` if `bits` is not one of 8, 16, 32, 64.
    pub fn from_parts(signed: bool, bits: u32) -> Option<ScalarType> {
        Some(match (signed, bits) {
            (false, 8) => ScalarType::U8,
            (false, 16) => ScalarType::U16,
            (false, 32) => ScalarType::U32,
            (false, 64) => ScalarType::U64,
            (true, 8) => ScalarType::I8,
            (true, 16) => ScalarType::I16,
            (true, 32) => ScalarType::I32,
            (true, 64) => ScalarType::I64,
            _ => return None,
        })
    }

    /// Bit width of the lane.
    #[inline]
    pub fn bits(self) -> u32 {
        match self {
            ScalarType::U8 | ScalarType::I8 => 8,
            ScalarType::U16 | ScalarType::I16 => 16,
            ScalarType::U32 | ScalarType::I32 => 32,
            ScalarType::U64 | ScalarType::I64 => 64,
        }
    }

    /// Whether the lane is signed (two's complement).
    #[inline]
    pub fn is_signed(self) -> bool {
        matches!(self, ScalarType::I8 | ScalarType::I16 | ScalarType::I32 | ScalarType::I64)
    }

    /// The type with double the bits and the same signedness, if it exists.
    pub fn widen(self) -> Option<ScalarType> {
        ScalarType::from_parts(self.is_signed(), self.bits() * 2)
    }

    /// The type with half the bits and the same signedness, if it exists.
    pub fn narrow(self) -> Option<ScalarType> {
        if self.bits() == 8 {
            None
        } else {
            ScalarType::from_parts(self.is_signed(), self.bits() / 2)
        }
    }

    /// Same width, signed.
    pub fn with_signed(self) -> ScalarType {
        ScalarType::from_parts(true, self.bits()).expect("all widths have a signed type")
    }

    /// Same width, unsigned.
    pub fn with_unsigned(self) -> ScalarType {
        ScalarType::from_parts(false, self.bits()).expect("all widths have an unsigned type")
    }

    /// Smallest representable value.
    #[inline]
    pub fn min_value(self) -> i128 {
        if self.is_signed() {
            -(1i128 << (self.bits() - 1))
        } else {
            0
        }
    }

    /// Largest representable value.
    #[inline]
    pub fn max_value(self) -> i128 {
        if self.is_signed() {
            (1i128 << (self.bits() - 1)) - 1
        } else {
            (1i128 << self.bits()) - 1
        }
    }

    /// Whether `v` is representable in this type.
    #[inline]
    pub fn contains(self, v: i128) -> bool {
        v >= self.min_value() && v <= self.max_value()
    }

    /// Wrap `v` into this type using two's complement truncation.
    ///
    /// This is the semantics of a plain (non-saturating) cast.
    ///
    /// # Examples
    ///
    /// ```
    /// use fpir::types::ScalarType;
    /// assert_eq!(ScalarType::U8.wrap(256), 0);
    /// assert_eq!(ScalarType::I8.wrap(130), -126);
    /// ```
    #[inline]
    pub fn wrap(self, v: i128) -> i128 {
        self.wrapper().apply(v)
    }

    /// [`ScalarType::wrap`] with this type resolved, for a loop that
    /// wraps many values into one type.
    #[inline]
    pub fn wrapper(self) -> Wrap {
        let mask = (1i128 << self.bits()) - 1;
        Wrap { mask, half: if self.is_signed() { (mask >> 1) + 1 } else { 0 } }
    }

    /// Clamp `v` into this type's range (the semantics of a saturating cast).
    ///
    /// # Examples
    ///
    /// ```
    /// use fpir::types::ScalarType;
    /// assert_eq!(ScalarType::U8.saturate(300), 255);
    /// assert_eq!(ScalarType::I8.saturate(-300), -128);
    /// ```
    #[inline]
    pub fn saturate(self, v: i128) -> i128 {
        v.max(self.min_value()).min(self.max_value())
    }

    /// Short lowercase name, e.g. `"u8"` or `"i32"`.
    pub fn name(self) -> &'static str {
        match self {
            ScalarType::U8 => "u8",
            ScalarType::U16 => "u16",
            ScalarType::U32 => "u32",
            ScalarType::U64 => "u64",
            ScalarType::I8 => "i8",
            ScalarType::I16 => "i16",
            ScalarType::I32 => "i32",
            ScalarType::I64 => "i64",
        }
    }

    /// Parse a short name such as `"u8"` back into a type.
    pub fn from_name(name: &str) -> Option<ScalarType> {
        ALL_SCALAR_TYPES.iter().copied().find(|t| t.name() == name)
    }
}

/// Two's complement truncation into one [`ScalarType`], with the type's
/// width and signedness already resolved into two constants: the value's
/// low bits, sign-extended for a signed type by flipping and subtracting
/// the sign bit. No branch depends on the value.
///
/// # Examples
///
/// ```
/// use fpir::types::ScalarType;
/// let w = ScalarType::I8.wrapper();
/// assert_eq!(w.apply(130), ScalarType::I8.wrap(130));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wrap {
    /// `2^bits - 1`.
    mask: i128,
    /// The sign bit `2^(bits-1)` of a signed type, 0 for an unsigned one.
    half: i128,
}

impl Wrap {
    /// Wrap `v`: `((v & mask) ^ half) - half`. Only its low bits are read,
    /// so any `i128` is accepted.
    #[inline]
    pub fn apply(self, v: i128) -> i128 {
        ((v & self.mask) ^ self.half) - self.half
    }
}

impl fmt::Display for ScalarType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A vector type: an element type plus a lane count.
///
/// `lanes == 1` denotes a scalar. The lane count is a *logical* width; the
/// virtual ISAs split logical vectors across however many native registers
/// they need (see `fpir-isa`).
///
/// # Examples
///
/// ```
/// use fpir::types::{ScalarType, VectorType};
///
/// let v = VectorType::new(ScalarType::U16, 16);
/// assert_eq!(v.total_bits(), 256);
/// assert_eq!(v.to_string(), "u16x16");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VectorType {
    /// Element (lane) type.
    pub elem: ScalarType,
    /// Number of lanes; 1 for scalars.
    pub lanes: u32,
}

impl VectorType {
    /// Create a vector type.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn new(elem: ScalarType, lanes: u32) -> VectorType {
        assert!(lanes > 0, "vector types must have at least one lane");
        VectorType { elem, lanes }
    }

    /// A scalar (single-lane) type.
    pub fn scalar(elem: ScalarType) -> VectorType {
        VectorType { elem, lanes: 1 }
    }

    /// Replace the element type, keeping the lane count.
    pub fn with_elem(self, elem: ScalarType) -> VectorType {
        VectorType { elem, lanes: self.lanes }
    }

    /// Widen the element type (same lanes). `None` at 64 bits.
    pub fn widen(self) -> Option<VectorType> {
        self.elem.widen().map(|e| self.with_elem(e))
    }

    /// Narrow the element type (same lanes). `None` at 8 bits.
    pub fn narrow(self) -> Option<VectorType> {
        self.elem.narrow().map(|e| self.with_elem(e))
    }

    /// Total bits of the logical vector.
    pub fn total_bits(self) -> u64 {
        self.elem.bits() as u64 * self.lanes as u64
    }
}

impl fmt::Display for VectorType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.lanes == 1 {
            write!(f, "{}", self.elem)
        } else {
            write!(f, "{}x{}", self.elem, self.lanes)
        }
    }
}

impl From<ScalarType> for VectorType {
    fn from(elem: ScalarType) -> VectorType {
        VectorType::scalar(elem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widen_round_trips_through_narrow() {
        for t in ALL_SCALAR_TYPES {
            if let Some(w) = t.widen() {
                assert_eq!(w.narrow(), Some(t));
                assert_eq!(w.bits(), t.bits() * 2);
                assert_eq!(w.is_signed(), t.is_signed());
            }
        }
    }

    #[test]
    fn u64_and_i64_do_not_widen() {
        assert_eq!(ScalarType::U64.widen(), None);
        assert_eq!(ScalarType::I64.widen(), None);
    }

    #[test]
    fn wrap_matches_primitive_casts() {
        for v in [-300i128, -129, -128, -1, 0, 1, 127, 128, 255, 256, 1000] {
            assert_eq!(ScalarType::U8.wrap(v), (v as u8) as i128);
            assert_eq!(ScalarType::I8.wrap(v), (v as i8) as i128);
            assert_eq!(ScalarType::U16.wrap(v), (v as u16) as i128);
            assert_eq!(ScalarType::I16.wrap(v), (v as i16) as i128);
        }
    }

    /// The formulas `wrap` and `saturate` had before they were made
    /// branch-free, kept as the model the new ones are pinned against.
    fn model_wrap(t: ScalarType, v: i128) -> i128 {
        let b = t.bits();
        let low = (v as u128) & ((1u128 << b) - 1);
        if t.is_signed() && (low >> (b - 1)) & 1 == 1 {
            (low as i128) - (1i128 << b)
        } else {
            low as i128
        }
    }

    fn model_saturate(t: ScalarType, v: i128) -> i128 {
        v.clamp(t.min_value(), t.max_value())
    }

    #[test]
    fn wrap_and_saturate_match_their_models() {
        let mut vs: Vec<i128> = (-(1i128 << 17)..=(1 << 17)).collect();
        for b in [8u32, 16, 32, 64] {
            for p in [1i128 << b, -(1i128 << b), 1i128 << (b - 1), -(1i128 << (b - 1))] {
                vs.extend((-3..=3).map(|d| p.wrapping_add(d)));
            }
        }
        vs.extend([i128::MIN, i128::MIN + 1, i128::MAX - 1, i128::MAX]);
        let mut state: u64 = 0x5851_f42d_4c95_7f2d;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        };
        vs.extend((0..10_000).map(|_| ((next() as u128) << 64 | next() as u128) as i128));
        for t in ALL_SCALAR_TYPES {
            let w = t.wrapper();
            for &v in &vs {
                assert_eq!(t.wrap(v), model_wrap(t, v), "{t}.wrap({v})");
                assert_eq!(w.apply(v), model_wrap(t, v), "{t}.wrapper().apply({v})");
                assert_eq!(t.saturate(v), model_saturate(t, v), "{t}.saturate({v})");
            }
        }
    }

    #[test]
    fn saturate_clamps_to_range() {
        assert_eq!(ScalarType::I16.saturate(70000), i16::MAX as i128);
        assert_eq!(ScalarType::I16.saturate(-70000), i16::MIN as i128);
        assert_eq!(ScalarType::U16.saturate(-5), 0);
        assert_eq!(ScalarType::U16.saturate(5), 5);
    }

    #[test]
    fn range_endpoints() {
        assert_eq!(ScalarType::U64.max_value(), u64::MAX as i128);
        assert_eq!(ScalarType::I64.min_value(), i64::MIN as i128);
        assert_eq!(ScalarType::I64.max_value(), i64::MAX as i128);
    }

    #[test]
    fn names_round_trip() {
        for t in ALL_SCALAR_TYPES {
            assert_eq!(ScalarType::from_name(t.name()), Some(t));
        }
        assert_eq!(ScalarType::from_name("f32"), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(VectorType::new(ScalarType::I32, 8).to_string(), "i32x8");
        assert_eq!(VectorType::scalar(ScalarType::U8).to_string(), "u8");
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_panics() {
        let _ = VectorType::new(ScalarType::U8, 0);
    }
}
