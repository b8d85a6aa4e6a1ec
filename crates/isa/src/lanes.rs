//! Lane storage at each element type's own width.
//!
//! The fused engine holds every value — registers, kernel scratch rows,
//! pool constants and image samples — at the width of its element type:
//! a `u8` lane takes one byte, an `i32` lane four. [`Lanes`] owns such a
//! buffer, [`Slice`] and [`SliceMut`] borrow one. The element type is
//! the variant, so a lane kernel built for `u8` operands reads `&[u8]`
//! and nothing converts per lane at the storage boundary. Values stored
//! are always canonical lanes of their type; a store truncates, a load
//! zero- or sign-extends.
//!
//! [`fpir::interp::Value`] keeps one `i128` per lane and stays the
//! oracle's representation: the conversions here (`from_lanes`,
//! [`Lanes::get`], [`Lanes::write_to`]) are where the engine's boundary
//! meets it.

use fpir::types::ScalarType;
use std::ops::Range;

/// `$m!` applied to every (variant, native type) pair.
macro_rules! natives {
    ($m:ident) => {
        $m! { U8 u8, I8 i8, U16 u16, I16 i16, U32 u32, I32 i32, U64 u64, I64 i64 }
    };
}
pub(crate) use natives;

macro_rules! storage_enums {
    ($($v:ident $t:ty),*) => {
        /// An owned buffer of lanes of one element type, each at its
        /// native width.
        #[derive(Debug, Clone, PartialEq, Eq)]
        #[allow(missing_docs)]
        pub enum Lanes { $($v(Vec<$t>)),* }

        /// Borrowed lanes of one element type.
        #[derive(Debug, Clone, Copy)]
        #[allow(missing_docs)]
        pub enum Slice<'a> { $($v(&'a [$t])),* }

        /// Mutably borrowed lanes of one element type.
        #[derive(Debug)]
        #[allow(missing_docs)]
        pub enum SliceMut<'a> { $($v(&'a mut [$t])),* }

        impl Lanes {
            /// An empty buffer for lanes of `elem` (allocates nothing).
            pub fn new(elem: ScalarType) -> Lanes {
                match elem { $(ScalarType::$v => Lanes::$v(Vec::new())),* }
            }

            /// `n` lanes of `elem`, each `v` (truncated to the width).
            pub fn splat(elem: ScalarType, v: i128, n: usize) -> Lanes {
                match elem { $(ScalarType::$v => Lanes::$v(vec![v as $t; n])),* }
            }

            /// The element type.
            pub fn elem(&self) -> ScalarType {
                match self { $(Lanes::$v(_) => ScalarType::$v),* }
            }

            /// Number of lanes.
            #[inline]
            pub fn len(&self) -> usize {
                match self { $(Lanes::$v(v) => v.len()),* }
            }

            /// Whether there are no lanes.
            pub fn is_empty(&self) -> bool {
                self.len() == 0
            }

            /// Drop every lane, keeping the capacity.
            pub fn clear(&mut self) {
                match self { $(Lanes::$v(v) => v.clear()),* }
            }

            /// Grow or shrink to `n` lanes; new lanes are 0.
            pub fn resize(&mut self, n: usize) {
                match self { $(Lanes::$v(v) => v.resize(n, 0)),* }
            }

            /// Lane `i`, as its value.
            ///
            /// # Panics
            ///
            /// Panics if `i` is out of bounds.
            pub fn get(&self, i: usize) -> i128 {
                self.as_slice().get(i)
            }

            /// Overwrite lane `i` with `v`, truncated to the element
            /// width (callers store canonical lanes).
            ///
            /// # Panics
            ///
            /// Panics if `i` is out of bounds.
            pub fn set(&mut self, i: usize, v: i128) {
                match self { $(Lanes::$v(x) => x[i] = v as $t),* }
            }

            /// Append lanes, each truncated to the element width.
            pub fn extend_from(&mut self, lanes: &[i128]) {
                match self { $(Lanes::$v(x) => x.extend(lanes.iter().map(|&v| v as $t))),* }
            }

            /// Append every lane's value to `out`.
            pub fn write_to(&self, out: &mut Vec<i128>) {
                self.as_slice().write_to(out)
            }

            /// All lanes, borrowed.
            #[inline]
            pub fn as_slice(&self) -> Slice<'_> {
                match self { $(Lanes::$v(v) => Slice::$v(v)),* }
            }

            /// All lanes, mutably borrowed.
            #[inline]
            pub fn as_mut(&mut self) -> SliceMut<'_> {
                match self { $(Lanes::$v(v) => SliceMut::$v(v)),* }
            }
        }

        impl<'a> Slice<'a> {
            /// The element type.
            pub fn elem(&self) -> ScalarType {
                match self { $(Slice::$v(_) => ScalarType::$v),* }
            }

            /// Number of lanes.
            pub fn len(&self) -> usize {
                match self { $(Slice::$v(v) => v.len()),* }
            }

            /// Whether there are no lanes.
            pub fn is_empty(&self) -> bool {
                self.len() == 0
            }

            /// Lane `i`, as its value.
            ///
            /// # Panics
            ///
            /// Panics if `i` is out of bounds.
            pub fn get(&self, i: usize) -> i128 {
                match self { $(Slice::$v(v) => v[i] as i128),* }
            }

            /// The lanes in `r`.
            #[inline]
            pub fn slice(self, r: Range<usize>) -> Slice<'a> {
                match self { $(Slice::$v(v) => Slice::$v(&v[r])),* }
            }

            /// Append every lane's value to `out`.
            pub fn write_to(&self, out: &mut Vec<i128>) {
                match self { $(Slice::$v(v) => out.extend(v.iter().map(|&x| x as i128))),* }
            }
        }

        impl<'a> SliceMut<'a> {
            /// The element type.
            pub fn elem(&self) -> ScalarType {
                match self { $(SliceMut::$v(_) => ScalarType::$v),* }
            }

            /// Number of lanes.
            pub fn len(&self) -> usize {
                match self { $(SliceMut::$v(v) => v.len()),* }
            }

            /// Whether there are no lanes.
            pub fn is_empty(&self) -> bool {
                self.len() == 0
            }

            /// Split into the lanes before `mid` and the rest.
            ///
            /// # Panics
            ///
            /// Panics if `mid > self.len()`.
            #[inline]
            pub fn split_at(self, mid: usize) -> (SliceMut<'a>, SliceMut<'a>) {
                match self {
                    $(SliceMut::$v(v) => {
                        let (a, b) = v.split_at_mut(mid);
                        (SliceMut::$v(a), SliceMut::$v(b))
                    })*
                }
            }

            /// The lanes in `r`, mutably borrowed.
            pub fn slice_mut(&mut self, r: Range<usize>) -> SliceMut<'_> {
                match self { $(SliceMut::$v(v) => SliceMut::$v(&mut v[r])),* }
            }

            /// Set every lane to `v`, truncated to the element width.
            pub fn fill(&mut self, v: i128) {
                match self { $(SliceMut::$v(o) => o.fill(v as $t)),* }
            }

            /// Copy `src`'s lanes in.
            ///
            /// # Panics
            ///
            /// Panics if the element types or the lengths differ.
            pub fn copy_from(&mut self, src: Slice<'_>) {
                match (self, src) {
                    $((SliceMut::$v(d), Slice::$v(s)) => d.copy_from_slice(s),)*
                    (d, s) => panic!("copying {} lanes into {} lanes", s.elem(), d.elem()),
                }
            }
        }

        $(
            impl Native for $t {
                const ELEM: ScalarType = ScalarType::$v;
                const LO: i128 = <$t>::MIN as i128;
                const HI: i128 = <$t>::MAX as i128;
                #[inline]
                fn of<'a>(s: Slice<'a>) -> &'a [$t] {
                    match s {
                        Slice::$v(v) => v,
                        other => unreachable!("a {} kernel read {} lanes", ScalarType::$v, other.elem()),
                    }
                }
                #[inline]
                fn of_mut<'a>(s: SliceMut<'a>) -> &'a mut [$t] {
                    match s {
                        SliceMut::$v(v) => v,
                        other => unreachable!("a {} kernel wrote {} lanes", ScalarType::$v, other.elem()),
                    }
                }
                #[inline]
                fn load(self) -> i64 {
                    self as i64
                }
                #[inline]
                fn load32(self) -> i32 {
                    self as i32
                }
                #[inline]
                fn wide(self) -> i128 {
                    self as i128
                }
                #[inline]
                fn store32(v: i32) -> $t {
                    v as $t
                }
                #[inline]
                fn store(v: i64) -> $t {
                    v as $t
                }
                #[inline]
                fn store_wide(v: i128) -> $t {
                    v as $t
                }
            }
        )*
    };
}

natives!(storage_enums);

/// A native lane type: the storage of one [`ScalarType`].
pub(crate) trait Native: Copy + Default + Send + Sync + 'static {
    /// The element type stored.
    const ELEM: ScalarType;
    /// The least and greatest lanes.
    const LO: i128;
    const HI: i128;
    /// The lanes of a slice built for this type (a kernel reads only
    /// the types it was built for; the verifier audits the sources).
    fn of(s: Slice<'_>) -> &[Self];
    fn of_mut(s: SliceMut<'_>) -> &mut [Self];
    /// The lane in a 64-bit word: exact for every type but `u64`, whose
    /// kernels compute at `i128`.
    fn load(self) -> i64;
    /// The lane in a 32-bit word: exact for every type of 32 bits or
    /// fewer but `u32`, whose lanes above `i32::MAX` wrap. A kernel reads
    /// a `u32` lane there only for a result that keeps 32 bits or fewer
    /// of a wrapping computation, which the wrap leaves exact.
    fn load32(self) -> i32;
    /// The lane in a 128-bit word.
    fn wide(self) -> i128;
    /// A result truncated to the element width.
    fn store(v: i64) -> Self;
    fn store32(v: i32) -> Self;
    fn store_wide(v: i128) -> Self;
}

impl<'a> SliceMut<'a> {
    /// Consecutive runs of `n` lanes (the last may be shorter).
    pub fn into_chunks(self, n: usize) -> impl Iterator<Item = SliceMut<'a>> {
        let mut rest = Some(self);
        std::iter::from_fn(move || {
            let r = rest.take().filter(|r| !r.is_empty())?;
            let m = n.min(r.len());
            let (head, tail) = r.split_at(m);
            rest = Some(tail);
            Some(head)
        })
    }
}

impl Lanes {
    /// `lanes` at element type `elem`.
    pub fn from_lanes(elem: ScalarType, lanes: &[i128]) -> Lanes {
        let mut l = Lanes::new(elem);
        l.extend_from(lanes);
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpir::types::ALL_SCALAR_TYPES;

    #[test]
    fn lanes_round_trip_every_type_at_its_width() {
        for t in ALL_SCALAR_TYPES {
            let vals = [t.min_value(), (-1i128).max(t.min_value()), 0, 1, t.max_value()];
            let l = Lanes::from_lanes(t, &vals);
            assert_eq!(l.elem(), t);
            let mut back = Vec::new();
            l.write_to(&mut back);
            assert_eq!(back, vals, "{t}");
            let bytes = match &l {
                Lanes::U8(v) => std::mem::size_of_val(&v[..]),
                Lanes::I8(v) => std::mem::size_of_val(&v[..]),
                Lanes::U16(v) => std::mem::size_of_val(&v[..]),
                Lanes::I16(v) => std::mem::size_of_val(&v[..]),
                Lanes::U32(v) => std::mem::size_of_val(&v[..]),
                Lanes::I32(v) => std::mem::size_of_val(&v[..]),
                Lanes::U64(v) => std::mem::size_of_val(&v[..]),
                Lanes::I64(v) => std::mem::size_of_val(&v[..]),
            };
            assert_eq!(bytes, vals.len() * t.bits() as usize / 8, "{t} lanes at their own width");
        }
    }
}
