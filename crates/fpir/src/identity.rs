//! Hash maps keyed by node allocation identity.
//!
//! Every cache on the selection fast path — the rewriter's DAG memo and
//! cost cache, the legalizer's memo, the bounds-inference cache — and the
//! emitter's seen-node map (`fpir_sim::emit`) key on
//! [`crate::expr::Expr::ptr_id`], a `usize` derived from the `Arc`
//! allocation address (with the keyed `Arc` stored in the value, or
//! borrowed for the whole call, so the address cannot be recycled while
//! cached). Pointer keys are already
//! well-distributed apart from their low alignment bits, so hashing them
//! through SipHash wastes most of the lookup cost. [`IdMap`] swaps in a
//! single multiply-and-fold mix (Fibonacci hashing), which benchmarks
//! several times faster per probe and needs no external crates.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A hasher for `usize` identity keys: one Fibonacci multiply, then fold
/// the high bits down (allocation addresses differ mostly in their middle
/// bits; the fold spreads them into the bits hash tables consume).
#[derive(Debug, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("IdHasher only hashes usize identity keys");
    }

    fn write_usize(&mut self, v: usize) {
        let h = (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn write_u64(&mut self, v: u64) {
        self.write_usize(v as usize);
    }
}

/// A `HashMap` over identity keys using [`IdHasher`].
pub type IdMap<V> = HashMap<usize, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of identity keys using [`IdHasher`].
pub type IdSet = HashSet<usize, BuildHasherDefault<IdHasher>>;

/// FNV-1a for small structured keys (operator keys, type tuples).
///
/// SipHash's per-lookup setup dwarfs the work of hashing a 1–16 byte key;
/// FNV's one multiply-xor per byte makes those probes several times
/// cheaper. Only use this for trusted, attacker-free keys (compiler
/// internals), since FNV has no DoS resistance.
#[derive(Debug)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> FnvHasher {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// A `HashMap` over small structured keys using [`FnvHasher`].
pub type FnvMap<K, V> = HashMap<K, V, BuildHasherDefault<FnvHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behaves_like_a_map() {
        let mut m: IdMap<&str> = IdMap::default();
        m.insert(0x7f00_1234_5678, "a");
        m.insert(0x7f00_1234_5680, "b");
        assert_eq!(m.get(&0x7f00_1234_5678), Some(&"a"));
        assert_eq!(m.get(&0x7f00_1234_5680), Some(&"b"));
        assert_eq!(m.len(), 2);
        m.remove(&0x7f00_1234_5678);
        assert_eq!(m.get(&0x7f00_1234_5678), None);
    }

    #[test]
    fn aligned_keys_do_not_collide_in_low_bits() {
        // Arc allocations are 8/16-byte aligned: consecutive-slot keys
        // must spread across distinct hash values.
        let hashes: Vec<u64> = (0..64usize)
            .map(|i| {
                let mut h = IdHasher::default();
                h.write_usize(0x5600_0000 + i * 16);
                h.finish()
            })
            .collect();
        let distinct: std::collections::HashSet<_> = hashes.iter().collect();
        assert_eq!(distinct.len(), hashes.len());
    }
}
