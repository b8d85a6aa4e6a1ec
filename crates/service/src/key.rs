//! Content-addressed cache keys.
//!
//! An artifact is addressed by *everything that determines its bytes*:
//! the expression (printed structural form — two structurally equal
//! expressions print identically), its lane count, the target ISA, the
//! rule-provenance toggles, and a fingerprint of the loaded rule sets.
//! (No engine choice is part of it: the selector has one rewriter.) The
//! key is an exact structured value (`Eq + Hash`), so the cache can
//! never confuse two different compilations — the 64-bit FNV fingerprint
//! is only a *display* handle and a cheap way to invalidate across
//! rule-set changes, never the identity itself.

use crate::protocol::CompileSpec;
use fpir::expr::RcExpr;
use fpir::identity::FnvHasher;
use fpir::Isa;
use pitchfork::Pitchfork;
use std::hash::Hasher;

/// The exact identity of one compilation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The expression, printed (structural — not a pointer identity).
    pub expr: String,
    /// Vector width of the expression.
    pub lanes: u32,
    /// Target ISA.
    pub isa: Isa,
    /// Whether synthesized rules were loaded.
    pub synthesized_rules: bool,
    /// Leave-one-out benchmark, if any.
    pub leave_out: Option<String>,
    /// Fingerprint of the lift+lower rule sets actually loaded.
    pub rules_fp: u64,
}

impl CacheKey {
    /// The key for compiling `spec`, whose expression parsed to `expr`,
    /// with a selector whose rule-set fingerprint is `rules_fp`.
    pub fn for_spec(spec: &CompileSpec, expr: &RcExpr, rules_fp: u64) -> CacheKey {
        CacheKey {
            expr: expr.to_string(),
            lanes: spec.lanes,
            isa: spec.isa,
            synthesized_rules: spec.synthesized_rules,
            leave_out: spec.leave_out.clone(),
            rules_fp,
        }
    }

    /// A short printable handle for logs and `/stats` (not the identity),
    /// which also names the key's spill file and picks its peer owner.
    /// Variable-length members are length-prefixed and `leave_out` has a
    /// presence byte, so no two distinct keys hash the same byte stream.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FnvHasher::default();
        write_prefixed(&mut h, self.expr.as_bytes());
        h.write(&self.lanes.to_le_bytes());
        write_prefixed(&mut h, self.isa.short_name().as_bytes());
        h.write(&[self.synthesized_rules as u8]);
        match &self.leave_out {
            None => h.write(&[0]),
            Some(l) => {
                h.write(&[1]);
                write_prefixed(&mut h, l.as_bytes());
            }
        }
        h.write(&self.rules_fp.to_le_bytes());
        h.finish()
    }
}

/// Fingerprint of the rule sets a selector actually loaded: every rule's
/// printed form (the `Display` of a rule is its full lhs → rhs syntax),
/// in set order, lift then lower. Changes whenever a rule is added,
/// removed, reordered, or edited.
pub fn ruleset_fingerprint(pf: &Pitchfork) -> u64 {
    let mut h = FnvHasher::default();
    for (tag, set) in [("lift", pf.lift_rule_set()), ("lower", pf.lower_rule_set())] {
        h.write(tag.as_bytes());
        h.write(&(set.rules().len() as u64).to_le_bytes());
        for r in set.rules() {
            h.write(r.to_string().as_bytes());
            h.write(&[0]);
        }
    }
    h.finish()
}

/// Absorb `bytes` after their length, so adjacent fields cannot trade
/// bytes.
fn write_prefixed(h: &mut FnvHasher, bytes: &[u8]) {
    h.write(&(bytes.len() as u64).to_le_bytes());
    h.write(bytes);
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use fpir::build;
    use fpir::types::{ScalarType as S, VectorType as V};
    use pitchfork::Config;

    /// The key a daemon computes for compiling `expr` under `cfg`.
    pub(crate) fn key_for(cfg: &Config, expr: &RcExpr) -> CacheKey {
        let spec = CompileSpec {
            expr: expr.to_string(),
            lanes: expr.ty().lanes,
            isa: cfg.isa,
            synthesized_rules: cfg.synthesized_rules,
            leave_out: cfg.leave_out.clone(),
            timeout_ms: None,
        };
        CacheKey::for_spec(&spec, expr, ruleset_fingerprint(&Pitchfork::with_config(cfg.clone())))
    }

    fn sat_add(lanes: u32) -> RcExpr {
        let t = V::new(S::U8, lanes);
        let sum = build::add(build::widen(build::var("a", t)), build::widen(build::var("b", t)));
        build::cast(S::U8, build::min(sum.clone(), build::splat(255, &sum)))
    }

    #[test]
    fn structurally_equal_expressions_share_a_key() {
        let cfg = Config::new(Isa::ArmNeon);
        let a = key_for(&cfg, &sat_add(16));
        let b = key_for(&cfg, &sat_add(16));
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn every_config_axis_changes_the_key() {
        let base = key_for(&Config::new(Isa::ArmNeon), &sat_add(16));
        let variants = [
            key_for(&Config::new(Isa::ArmNeon), &sat_add(32)),
            key_for(&Config::new(Isa::X86Avx2), &sat_add(16)),
            key_for(&Config::new(Isa::ArmNeon).hand_written_only(), &sat_add(16)),
            key_for(&Config::new(Isa::ArmNeon).leaving_out("blur"), &sat_add(16)),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(base, *v, "variant {i} must not collide with the base key");
        }
    }

    #[test]
    fn rule_provenance_toggles_change_the_ruleset_fingerprint() {
        let full = ruleset_fingerprint(&Pitchfork::new(Isa::ArmNeon));
        let hand = ruleset_fingerprint(&Pitchfork::with_config(
            Config::new(Isa::ArmNeon).hand_written_only(),
        ));
        assert_ne!(full, hand);
        // Deterministic across selector instances.
        assert_eq!(full, ruleset_fingerprint(&Pitchfork::new(Isa::ArmNeon)));
    }

    #[test]
    fn flipping_a_rule_toggle_changes_the_fingerprint() {
        // The disk store names its files by `CacheKey::fingerprint` and
        // stamps the rule-set fingerprint into every envelope header; a
        // daemon whose rule toggles differ must therefore miss the
        // store on both counts, never load an artifact compiled under
        // other rules.
        let e = sat_add(16);
        let full = key_for(&Config::new(Isa::ArmNeon), &e);
        let hand = key_for(&Config::new(Isa::ArmNeon).hand_written_only(), &e);
        let leave = key_for(&Config::new(Isa::ArmNeon).leaving_out("blur"), &e);
        assert_ne!(full.fingerprint(), hand.fingerprint());
        assert_ne!(full.fingerprint(), leave.fingerprint());
        assert_ne!(full.rules_fp, hand.rules_fp, "the toggle reloads a different rule set");
    }

    #[test]
    fn absent_and_empty_leave_out_get_different_fingerprints_and_spill_files() {
        use crate::store::{DiskStore, Lookup, EXTENSION};
        let pf = Pitchfork::new(Isa::ArmNeon);
        let e = sat_add(16);
        let none = key_for(pf.config(), &e);
        let empty = CacheKey { leave_out: Some(String::new()), ..none.clone() };
        assert_ne!(none.fingerprint(), empty.fingerprint());
        // Each key spills to its own file, so neither overwrites the other.
        let dir = std::env::temp_dir().join(format!("pfkey-leave-out-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DiskStore::open(&dir).unwrap();
        let art = pitchfork::compile_to_executable(&pf, &e).unwrap();
        for key in [&none, &empty] {
            store.spill(key, &art).unwrap();
        }
        for key in [&none, &empty] {
            assert!(dir.join(format!("{:016x}.{EXTENSION}", key.fingerprint())).exists());
            assert!(matches!(store.load(key), Lookup::Hit(_)), "{:?}", key.leave_out);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fnv_matches_known_vectors() {
        // Standard FNV-1a 64 test vectors.
        let mut h = FnvHasher::default();
        h.write(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = FnvHasher::default();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = FnvHasher::default();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }
}
