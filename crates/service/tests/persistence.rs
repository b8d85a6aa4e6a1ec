//! Service-level tests of the disk spill store: restart-warm refill of
//! the whole suite, the crash-consistency matrix (every torn, tampered
//! or old-format file is skipped and unlinked at startup, never served),
//! rule-toggle isolation, and the disk-refill path when the in-memory
//! LRU is too small to retain what it compiled.

mod common;

use fpir::identity::FnvHasher;
use pitchfork_service::protocol::CompileSpec;
use pitchfork_service::{json, store, Json, Request, Service, ServiceConfig, Stats, StoreError};
use std::hash::Hasher;
use std::path::{Path, PathBuf};

const SAT_ADD: &str = "u8(min(u16(a_u8) + u16(b_u8), 255))";
const PLAIN_ADD: &str = "a_u8 + b_u8";
const MIN_EXPR: &str = "min(a_u8, b_u8)";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pf-persist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &Path, cache_bytes: usize) -> ServiceConfig {
    ServiceConfig {
        cache_bytes,
        workers: 2,
        default_timeout_ms: None,
        cache_dir: Some(dir.to_path_buf()),
        cache_max_bytes: None,
        cache_max_age: None,
    }
}

fn compile(expr: &str, synthesized_rules: bool) -> Request {
    Request::Compile(CompileSpec {
        expr: expr.to_string(),
        lanes: 16,
        isa: fpir::Isa::ArmNeon,
        synthesized_rules,
        leave_out: None,
        timeout_ms: None,
    })
}

fn assert_ok(v: &Json, what: &str) {
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{what}: {v:?}");
}

fn source(v: &Json) -> Option<&str> {
    v.get("source").and_then(Json::as_str)
}

/// The `.pfa` files in a spill directory, sorted.
fn spill_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "pfa"))
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
}

/// Restart-warm over the whole suite: a second daemon on the same
/// directory loads every spilled artifact at startup and answers every
/// key as a hit, byte-equal to the first daemon's compile and to the
/// direct compiler, without compiling anything.
#[test]
fn restart_refills_the_cache_from_disk() {
    let dir = temp_dir("warm");
    let suite = common::suite();
    let truth: Vec<_> = suite.iter().map(|k| common::direct(&k.expr, k.isa, true)).collect();

    let a = Service::new(config(&dir, 64 << 20));
    let mut rendered = Vec::new();
    for (k, t) in suite.iter().zip(&truth) {
        let v = a.handle_local(&Request::Compile(k.spec(true)));
        assert_eq!(source(&v), Some("computed"), "{}/{}: {v:?}", k.name, k.isa);
        common::assert_served(&v, t, &k.name);
        rendered.push(v.render());
    }
    // `cached`/`source` legitimately differ between a fresh compile and
    // a warm hit; everything else must round-trip exactly.
    fn strip_provenance(rendered: &str) -> String {
        match pitchfork_service::json::parse(rendered).unwrap() {
            Json::Object(members) => Json::Object(
                members
                    .into_iter()
                    .filter(|(k, _)| k != "cached" && k != "source")
                    .collect::<Vec<_>>(),
            )
            .render(),
            other => other.render(),
        }
    }
    assert_eq!(Stats::read(&a.stats().disk_spills), suite.len() as u64);
    drop(a);

    let b = Service::new(config(&dir, 64 << 20));
    assert_eq!(Stats::read(&b.stats().disk_loaded), suite.len() as u64);
    assert_eq!(Stats::read(&b.stats().disk_rejected), 0);
    for ((k, t), r) in suite.iter().zip(&truth).zip(&rendered) {
        let v = b.handle_local(&Request::Compile(k.spec(true)));
        let what = format!("{}/{}", k.name, k.isa);
        assert_eq!(source(&v), Some("hit"), "{what} must be restart-warm: {v:?}");
        common::assert_served(&v, t, &what);
        assert_eq!(
            strip_provenance(&v.render()),
            strip_provenance(r),
            "{what}: restart-warm artifact must be bit-identical"
        );
    }
    assert_eq!(Stats::read(&b.stats().compiles), 0, "nothing recompiles after a warm restart");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The crash-consistency matrix: a truncated entry, a flipped body
/// byte, a stale version header, and a leftover tmp file each get
/// skipped and unlinked at startup — and the intact entries still load.
#[test]
fn startup_sweeps_torn_and_tampered_entries() {
    let dir = temp_dir("crash");
    let a = Service::new(config(&dir, 64 << 20));
    for e in [SAT_ADD, PLAIN_ADD, MIN_EXPR] {
        assert_ok(&a.handle_local(&compile(e, true)), e);
    }
    drop(a);
    let files = spill_files(&dir);
    assert_eq!(files.len(), 3, "three artifacts spilled");

    // files[0]: truncate mid-body. files[1]: flip one body byte.
    // files[2]: stamp a stale format version into the magic. Plus a
    // leftover tmp file from a simulated mid-spill crash.
    let bytes = std::fs::read(&files[0]).unwrap();
    std::fs::write(&files[0], &bytes[..bytes.len() / 2]).unwrap();
    let mut bytes = std::fs::read(&files[1]).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&files[1], &bytes).unwrap();
    let mut bytes = std::fs::read(&files[2]).unwrap();
    bytes[7] = b'9'; // pfspill2 -> pfspill9
    std::fs::write(&files[2], &bytes).unwrap();
    let tmp = dir.join("deadbeefdeadbeef.pfa.tmp-1-1");
    std::fs::write(&tmp, b"torn half-write").unwrap();

    let b = Service::new(config(&dir, 64 << 20));
    assert_eq!(Stats::read(&b.stats().disk_loaded), 0, "every tampered entry is refused");
    // Three tampered entries plus the swept tmp leftover.
    assert_eq!(Stats::read(&b.stats().disk_rejected), 4);
    assert!(!tmp.exists(), "leftover tmp files are swept");
    assert!(spill_files(&dir).is_empty(), "rejected entries are unlinked");

    // The daemon still serves: the keys just compile (and re-spill).
    let v = b.handle_local(&compile(SAT_ADD, true));
    assert_ok(&v, "recompile after sweep");
    assert_eq!(source(&v), Some("computed"));
    assert_eq!(spill_files(&dir).len(), 1, "the fresh artifact spilled again");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An entry a daemon wrote before the engine left the cache key — magic
/// `pfspill1`, the key's `engine` bits in the body, a valid checksum — is
/// refused and unlinked by the startup scan, and the key recompiles.
#[test]
fn startup_sweeps_entries_in_the_old_format() {
    let dir = temp_dir("oldmagic");
    let a = Service::new(config(&dir, 64 << 20));
    assert_ok(&a.handle_local(&compile(SAT_ADD, true)), SAT_ADD);
    drop(a);
    let files = spill_files(&dir);
    assert_eq!(files.len(), 1);

    // Rewrite the entry exactly as the old format framed it.
    let bytes = std::fs::read(&files[0]).unwrap();
    let (rules_fp, body) = store::decode_envelope(&bytes).unwrap();
    let Json::Object(mut members) = json::parse(body).unwrap() else { panic!("body object") };
    for (name, value) in &mut members {
        if let (true, Json::Object(key)) = (name == "key", value) {
            let bits = vec![Json::Bool(true); 3];
            key.insert(3, ("engine".into(), Json::Array(bits)));
        }
    }
    let body = Json::Object(members).render();
    let mut old = b"pfspill1".to_vec();
    old.extend_from_slice(&rules_fp.to_be_bytes());
    old.extend_from_slice(&(body.len() as u32).to_be_bytes());
    old.extend_from_slice(body.as_bytes());
    let mut sum = FnvHasher::default();
    sum.write(&old);
    old.extend_from_slice(&sum.finish().to_be_bytes());
    assert!(matches!(store::decode_entry(&old), Err(StoreError::Envelope(_))));
    std::fs::write(&files[0], &old).unwrap();

    let b = Service::new(config(&dir, 64 << 20));
    assert_eq!(Stats::read(&b.stats().disk_loaded), 0);
    assert_eq!(Stats::read(&b.stats().disk_rejected), 1);
    assert!(spill_files(&dir).is_empty(), "the old entry is unlinked");
    let v = b.handle_local(&compile(SAT_ADD, true));
    assert_eq!(source(&v), Some("computed"), "{v:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Flipping a rule toggle changes the cache key (and its fingerprint),
/// so a store populated under one rule set never answers for another.
#[test]
fn rule_toggle_misses_the_store() {
    let dir = temp_dir("rules");
    let a = Service::new(config(&dir, 64 << 20));
    assert_ok(&a.handle_local(&compile(SAT_ADD, true)), "synthesized compile");
    drop(a);

    let b = Service::new(config(&dir, 64 << 20));
    let v = b.handle_local(&compile(SAT_ADD, false));
    assert_ok(&v, "hand-only compile");
    assert_eq!(
        source(&v),
        Some("computed"),
        "a hand-rules-only request must not hit the synthesized-rules spill: {v:?}"
    );
    assert_eq!(Stats::read(&b.stats().disk_hits), 0);
    assert_eq!(spill_files(&dir).len(), 2, "each rule configuration has its own entry");
    let _ = std::fs::remove_dir_all(&dir);
}

/// With an in-memory budget too small to retain anything, a repeated
/// request refills from disk instead of recompiling: eviction loses the
/// bytes, not the work.
#[test]
fn evicted_entries_refill_from_disk_without_recompiling() {
    let dir = temp_dir("refill");
    // A 1-byte LRU budget: every artifact is evicted the moment it is
    // inserted, so only the disk copy survives.
    let svc = Service::new(config(&dir, 1));
    let first = svc.handle_local(&compile(SAT_ADD, true));
    assert_ok(&first, "first compile");
    assert_eq!(source(&first), Some("computed"));
    assert_eq!(Stats::read(&svc.stats().compiles), 1);
    assert_eq!(Stats::read(&svc.stats().disk_spills), 1);

    let again = svc.handle_local(&compile(SAT_ADD, true));
    assert_ok(&again, "refill request");
    assert_eq!(Stats::read(&svc.stats().disk_hits), 1, "the miss refilled from disk");
    assert_eq!(Stats::read(&svc.stats().compiles), 1, "nothing recompiled");
    assert_eq!(
        strip_source(&first),
        strip_source(&again),
        "disk-refilled response must match the compiled one"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A response with its `source` member normalized away (a disk refill
/// legitimately reports a different source than the original compile).
fn strip_source(v: &Json) -> String {
    match v {
        Json::Object(members) => Json::Object(
            members.iter().filter(|(k, _)| k.as_str() != "source").cloned().collect::<Vec<_>>(),
        )
        .render(),
        other => other.render(),
    }
}
