//! The disk spill store: a content-addressed, crash-consistent on-disk
//! copy of the artifact cache, plus the portable artifact codec the
//! peer protocol shares.
//!
//! # Portable artifact encoding
//!
//! An [`Artifact`] is fully determined by its lowered expression and
//! target ISA: [`Artifact::from_lowered`] re-runs the deterministic
//! emit / cost / link phases and reproduces the program, cycle count,
//! and executable bit-for-bit. So the portable form is the lowered
//! expression's DAG (plus the full [`CacheKey`] and the expected cycle
//! count as a tripwire), not the compiled program.
//!
//! The DAG is serialized **by allocation identity** — one node per
//! distinct `Arc`, in dependency order, children as indices — and the
//! decoder allocates exactly one `Arc` per node. This matters:
//! `Expr::unique_count` (and therefore `Artifact::approx_bytes`, echoed
//! as `artifact_bytes` in every response) counts allocations, so a
//! structurally-deduplicating codec would change the served bytes.
//! Lowered expressions contain only `Var` / `Const` / `Mach` nodes;
//! anything else refuses to encode rather than guessing.
//!
//! # On-disk format
//!
//! One file per cache key, named `<fingerprint:016x>.pfa`:
//!
//! ```text
//! magic "pfspill2" (8)  — format version baked into the magic
//! rules_fp   u64 BE (8) — rule-set fingerprint header (fast reject)
//! body_len   u32 BE (4)
//! body       JSON (UTF-8) — full key, cycles, DAG nodes
//! checksum   u64 BE (8) — FNV-64 over everything above
//! ```
//!
//! Writes go to a `.tmp-*` sibling and `rename(2)` into place, so a
//! crash mid-write leaves either the old entry or a tmp leftover —
//! never a torn `.pfa`. Every load revalidates end to end: envelope
//! checksum, full-key equality (fingerprints address files but never
//! authenticate them), recomputed cycle count, and the static verifier
//! over the relinked executable — a disk or peer byte is untrusted
//! input until it survives all four.

use crate::json::Json;
use crate::key::CacheKey;
use crate::protocol::parse_isa;
use fpir::expr::{Expr, ExprKind, RcExpr};
use fpir::identity::FnvHasher;
use fpir::types::{ScalarType, VectorType};
use pitchfork::Artifact;
use std::collections::{HashMap, HashSet};
use std::fs;
use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Format magic; bump the trailing digit to invalidate old stores.
pub const MAGIC: &[u8; 8] = b"pfspill2";

/// Spill-file extension (entries are `<fingerprint:016x>.pfa`).
pub const EXTENSION: &str = "pfa";

/// Why an entry could not be encoded, decoded, or revalidated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Filesystem failure (the entry may be fine; nothing is unlinked
    /// for pure I/O errors at spill time).
    Io(String),
    /// Envelope rejection: bad magic/version, truncation, checksum
    /// mismatch, trailing bytes.
    Envelope(String),
    /// Body rejection: malformed JSON, bad key members, bad DAG, or a
    /// rebuilt artifact that failed revalidation.
    Body(String),
    /// The lowered expression holds a node kind the portable encoding
    /// does not carry (never produced by the driver's lowering).
    Unsupported(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(m) => write!(f, "spill store I/O: {m}"),
            StoreError::Envelope(m) => write!(f, "spill envelope: {m}"),
            StoreError::Body(m) => write!(f, "spill body: {m}"),
            StoreError::Unsupported(m) => write!(f, "not portable: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

fn body_err(msg: impl Into<String>) -> StoreError {
    StoreError::Body(msg.into())
}

// ---------------------------------------------------------------------
// Portable artifact codec (shared by the disk store and `peer_get`).
// ---------------------------------------------------------------------

fn encode_ty(members: &mut Vec<(String, Json)>, ty: VectorType) {
    members.push(("e".into(), Json::str(ty.elem.to_string())));
    members.push(("l".into(), Json::Int(ty.lanes as i128)));
}

fn decode_ty(node: &Json) -> Result<VectorType, StoreError> {
    let elem = node
        .get("e")
        .and_then(Json::as_str)
        .and_then(ScalarType::from_name)
        .ok_or_else(|| body_err("node has no valid element type"))?;
    let lanes = node
        .get("l")
        .and_then(Json::as_int)
        .and_then(|l| u32::try_from(l).ok())
        .filter(|l| (1..=65536).contains(l))
        .ok_or_else(|| body_err("node has no valid lane count"))?;
    Ok(VectorType::new(elem, lanes))
}

/// Serialize a lowered expression as a node list in dependency order,
/// one node per distinct allocation, children as indices.
fn encode_expr(root: &RcExpr) -> Result<(Vec<Json>, usize), StoreError> {
    enum Visit {
        Enter(RcExpr),
        Exit(RcExpr),
    }
    let mut ids: HashMap<usize, usize> = HashMap::new();
    let mut nodes: Vec<Json> = Vec::new();
    let mut stack = vec![Visit::Enter(root.clone())];
    while let Some(v) = stack.pop() {
        match v {
            Visit::Enter(e) => {
                if ids.contains_key(&Expr::ptr_id(&e)) {
                    continue;
                }
                for c in e.children() {
                    stack.push(Visit::Enter(c.clone()));
                }
                stack.push(Visit::Exit(e));
            }
            Visit::Exit(e) => {
                // Wait until every child is assigned; a diamond can
                // queue an Exit before a sibling finishes the shared
                // child, so re-enter instead of assuming.
                let pid = Expr::ptr_id(&e);
                if ids.contains_key(&pid) {
                    continue;
                }
                if e.children().into_iter().any(|c| !ids.contains_key(&Expr::ptr_id(c))) {
                    stack.push(Visit::Exit(e.clone()));
                    for c in e.children() {
                        stack.push(Visit::Enter(c.clone()));
                    }
                    continue;
                }
                let mut m: Vec<(String, Json)> = Vec::with_capacity(5);
                match e.kind() {
                    ExprKind::Var(name) => {
                        m.push(("k".into(), Json::str("var")));
                        m.push(("n".into(), Json::str(name.clone())));
                    }
                    ExprKind::Const(v) => {
                        m.push(("k".into(), Json::str("const")));
                        m.push(("v".into(), Json::Int(*v)));
                    }
                    ExprKind::Mach(op, args) => {
                        m.push(("k".into(), Json::str("mach")));
                        m.push(("c".into(), Json::Int(op.code as i128)));
                        m.push(("o".into(), Json::str(op.name)));
                        m.push((
                            "a".into(),
                            Json::Array(
                                args.iter()
                                    .map(|a| Json::Int(ids[&Expr::ptr_id(a)] as i128))
                                    .collect(),
                            ),
                        ));
                    }
                    other => {
                        return Err(StoreError::Unsupported(format!(
                            "lowered expression contains a non-machine node: {other:?}"
                        )))
                    }
                }
                encode_ty(&mut m, e.ty());
                ids.insert(pid, nodes.len());
                nodes.push(Json::Object(m));
            }
        }
    }
    Ok((nodes, ids[&Expr::ptr_id(root)]))
}

/// Rebuild the expression: one fresh `Arc` per serialized node, so
/// `Expr::unique_count` (and every byte-count derived from it) matches
/// the original exactly.
fn decode_expr(nodes: &[Json], root: usize, isa: fpir::Isa) -> Result<RcExpr, StoreError> {
    let target = fpir_isa::target(isa);
    let mut built: Vec<RcExpr> = Vec::with_capacity(nodes.len());
    for (i, node) in nodes.iter().enumerate() {
        let ty = decode_ty(node)?;
        let kind =
            node.get("k").and_then(Json::as_str).ok_or_else(|| body_err("node has no kind"))?;
        let e = match kind {
            "var" => {
                let name = node
                    .get("n")
                    .and_then(Json::as_str)
                    .ok_or_else(|| body_err("var node has no name"))?;
                Expr::var(name, ty)
            }
            "const" => {
                let v = node
                    .get("v")
                    .and_then(Json::as_int)
                    .ok_or_else(|| body_err("const node has no value"))?;
                Expr::constant(v, ty).map_err(|e| body_err(format!("const node: {e}")))?
            }
            "mach" => {
                let code = node
                    .get("c")
                    .and_then(Json::as_int)
                    .and_then(|c| usize::try_from(c).ok())
                    .ok_or_else(|| body_err("mach node has no opcode"))?;
                let def = target
                    .defs()
                    .get(code)
                    .ok_or_else(|| body_err(format!("opcode {code} out of range for {isa:?}")))?;
                // The stored mnemonic must match the opcode's: an
                // instruction table that changed between spill and load
                // would otherwise silently rebuild a different program.
                let name = node.get("o").and_then(Json::as_str).unwrap_or("");
                if name != def.op.name {
                    return Err(body_err(format!(
                        "opcode {code} is `{}` in this build, entry says `{name}`",
                        def.op.name
                    )));
                }
                let mut args = Vec::new();
                for a in node
                    .get("a")
                    .and_then(Json::as_array)
                    .ok_or_else(|| body_err("mach node has no args"))?
                {
                    let idx = a
                        .as_int()
                        .and_then(|x| usize::try_from(x).ok())
                        .filter(|&x| x < i)
                        .ok_or_else(|| body_err("mach arg is not an earlier node index"))?;
                    args.push(built[idx].clone());
                }
                Expr::mach(def.op, ty, args)
            }
            other => return Err(body_err(format!("unknown node kind `{other}`"))),
        };
        built.push(e);
    }
    built.into_iter().nth(root).ok_or_else(|| body_err("root index out of range"))
}

fn key_members(key: &CacheKey) -> Json {
    Json::Object(vec![
        ("expr".into(), Json::str(key.expr.clone())),
        ("lanes".into(), Json::Int(key.lanes as i128)),
        ("isa".into(), Json::str(key.isa.short_name())),
        ("synthesized_rules".into(), Json::Bool(key.synthesized_rules)),
        ("leave_out".into(), key.leave_out.clone().map_or(Json::Null, Json::str)),
        ("rules_fp".into(), Json::str(format!("{:016x}", key.rules_fp))),
    ])
}

fn decode_key(v: &Json) -> Result<CacheKey, StoreError> {
    let obj = v.get("key").ok_or_else(|| body_err("no key object"))?;
    let expr = obj
        .get("expr")
        .and_then(Json::as_str)
        .ok_or_else(|| body_err("key has no expr"))?
        .to_string();
    let lanes = obj
        .get("lanes")
        .and_then(Json::as_int)
        .and_then(|l| u32::try_from(l).ok())
        .ok_or_else(|| body_err("key has no lanes"))?;
    let isa =
        parse_isa(obj.get("isa").and_then(Json::as_str).ok_or_else(|| body_err("key has no isa"))?)
            .map_err(|e| body_err(e.to_string()))?;
    let synthesized_rules = obj
        .get("synthesized_rules")
        .and_then(Json::as_bool)
        .ok_or_else(|| body_err("key has no synthesized_rules"))?;
    let leave_out = match obj.get("leave_out") {
        None | Some(Json::Null) => None,
        Some(s) => {
            Some(s.as_str().ok_or_else(|| body_err("key leave_out is not a string"))?.to_string())
        }
    };
    let rules_fp = obj
        .get("rules_fp")
        .and_then(Json::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| body_err("key has no rules_fp"))?;
    Ok(CacheKey { expr, lanes, isa, synthesized_rules, leave_out, rules_fp })
}

/// Encode one cache entry as the portable JSON body (also the payload
/// of a `peer_get` response).
///
/// # Errors
///
/// [`StoreError::Unsupported`] if the lowered expression is not
/// representable (never the case for driver output).
pub fn encode_artifact_json(key: &CacheKey, art: &Artifact) -> Result<Json, StoreError> {
    let (nodes, root) = encode_expr(&art.lowered)?;
    Ok(Json::Object(vec![
        ("key".into(), key_members(key)),
        ("cycles".into(), Json::Int(art.cycles as i128)),
        ("root".into(), Json::Int(root as i128)),
        ("nodes".into(), Json::Array(nodes)),
    ]))
}

/// Decode and **revalidate** a portable artifact body: rebuild the
/// expression, re-run emit/cost/link, check the recomputed cycle count
/// against the stored one, and run the static verifier. The result is
/// bit-identical to a local compile of the same lowered expression.
///
/// # Errors
///
/// [`StoreError::Body`] describing the first check that failed.
pub fn decode_artifact_json(v: &Json) -> Result<(CacheKey, Artifact), StoreError> {
    let key = decode_key(v)?;
    let cycles = v
        .get("cycles")
        .and_then(Json::as_int)
        .and_then(|c| u64::try_from(c).ok())
        .ok_or_else(|| body_err("no cycle count"))?;
    let root = v
        .get("root")
        .and_then(Json::as_int)
        .and_then(|r| usize::try_from(r).ok())
        .ok_or_else(|| body_err("no root index"))?;
    let nodes = v.get("nodes").and_then(Json::as_array).ok_or_else(|| body_err("no node list"))?;
    let lowered = decode_expr(nodes, root, key.isa)?;
    let art = Artifact::from_lowered(lowered, key.isa)
        .map_err(|e| body_err(format!("artifact rebuild failed: {e}")))?;
    if art.cycles != cycles {
        return Err(body_err(format!(
            "cycle count drifted: entry says {cycles}, this build computes {}",
            art.cycles
        )));
    }
    fpir_sim::verify_executable(&art.exe)
        .map_err(|e| body_err(format!("rebuilt executable failed verification: {e}")))?;
    Ok((key, art))
}

// ---------------------------------------------------------------------
// Envelope (file framing + checksum).
// ---------------------------------------------------------------------

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = FnvHasher::default();
    h.write(bytes);
    h.finish()
}

/// Wrap a rendered body in the on-disk envelope.
pub fn encode_envelope(rules_fp: u64, body: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(MAGIC.len() + 20 + body.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&rules_fp.to_be_bytes());
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    out.extend_from_slice(body.as_bytes());
    let sum = fnv64(&out);
    out.extend_from_slice(&sum.to_be_bytes());
    out
}

/// Unwrap and authenticate an envelope, returning the header rule-set
/// fingerprint and the body bytes.
///
/// # Errors
///
/// [`StoreError::Envelope`] on any framing or checksum violation —
/// truncation, flipped bytes, stale magic/version, trailing garbage.
pub fn decode_envelope(bytes: &[u8]) -> Result<(u64, &str), StoreError> {
    let env_err = |m: &str| StoreError::Envelope(m.into());
    let header = MAGIC.len() + 12;
    if bytes.len() < header + 8 {
        return Err(env_err("truncated (shorter than the fixed envelope)"));
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(env_err("bad magic (stale format version or not a spill file)"));
    }
    let rules_fp = u64::from_be_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let body_len = u32::from_be_bytes(bytes[16..20].try_into().expect("4 bytes")) as usize;
    if bytes.len() != header + body_len + 8 {
        return Err(env_err("length mismatch (truncated or trailing bytes)"));
    }
    let sum = u64::from_be_bytes(bytes[header + body_len..].try_into().expect("8 bytes"));
    if fnv64(&bytes[..header + body_len]) != sum {
        return Err(env_err("checksum mismatch"));
    }
    let body = std::str::from_utf8(&bytes[header..header + body_len])
        .map_err(|_| env_err("body is not UTF-8"))?;
    Ok((rules_fp, body))
}

/// Encode one entry to its complete on-disk byte form.
///
/// # Errors
///
/// [`StoreError::Unsupported`] as for [`encode_artifact_json`].
pub fn encode_entry(key: &CacheKey, art: &Artifact) -> Result<Vec<u8>, StoreError> {
    let body = encode_artifact_json(key, art)?.render();
    Ok(encode_envelope(key.rules_fp, &body))
}

/// Decode + revalidate one on-disk entry end to end.
///
/// # Errors
///
/// Envelope or body rejection; see [`decode_envelope`] and
/// [`decode_artifact_json`].
pub fn decode_entry(bytes: &[u8]) -> Result<(CacheKey, Artifact), StoreError> {
    let (header_fp, body) = decode_envelope(bytes)?;
    let v = crate::json::parse(body).map_err(|e| body_err(format!("body JSON: {e}")))?;
    let (key, art) = decode_artifact_json(&v)?;
    if key.rules_fp != header_fp {
        return Err(body_err("header rule-set fingerprint does not match the key's"));
    }
    Ok((key, art))
}

// ---------------------------------------------------------------------
// The store itself.
// ---------------------------------------------------------------------

/// What came back from a keyed disk probe.
#[derive(Debug)]
pub enum Lookup {
    /// No valid on-disk copy for this key.
    Missing,
    /// A revalidated artifact, ready to re-admit.
    Hit(Box<Artifact>),
    /// A copy existed but failed validation and was unlinked.
    Rejected(StoreError),
}

/// What a startup scan found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanReport {
    /// Entries that validated and were re-admitted.
    pub loaded: u64,
    /// Entries (or tmp leftovers) that failed validation and were
    /// unlinked.
    pub rejected: u64,
}

/// Distinguishes concurrent tmp files within one process (the pid in
/// the name distinguishes processes sharing a directory).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// What a [`DiskStore::gc`] sweep did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Entries unlinked (stale or evicted for space).
    pub evicted: u64,
    /// Bytes of entries left on disk after the sweep.
    pub retained_bytes: u64,
}

/// The content-addressed spill directory plus an in-memory index of
/// the keys it is believed to hold, so the miss path pays a filesystem
/// read only for keys that were actually spilled.
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
    index: Mutex<HashSet<CacheKey>>,
    /// Byte budget for [`gc`](Self::gc); `None` means unbounded.
    max_bytes: Option<u64>,
    /// Age bound for [`gc`](Self::gc); `None` means entries never
    /// expire. Age is measured from the file's mtime, which
    /// [`load`](Self::load) refreshes on every hit, so the sweep is
    /// least-recently-*used*, not least-recently-written.
    max_age: Option<std::time::Duration>,
}

impl DiskStore {
    /// Open (creating if needed) a spill directory. No scan happens
    /// here — call [`scan`](Self::scan) to re-admit existing entries.
    ///
    /// # Errors
    ///
    /// The directory could not be created.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<DiskStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(DiskStore { dir, index: Mutex::new(HashSet::new()), max_bytes: None, max_age: None })
    }

    /// Bound the store: [`gc`](Self::gc) keeps total entry bytes within
    /// `max_bytes` and unlinks entries idle longer than `max_age`.
    #[must_use]
    pub fn with_limits(
        mut self,
        max_bytes: Option<u64>,
        max_age: Option<std::time::Duration>,
    ) -> DiskStore {
        self.max_bytes = max_bytes;
        self.max_age = max_age;
        self
    }

    /// The spill directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(format!("{:016x}.{EXTENSION}", key.fingerprint()))
    }

    /// `key` has a believed-valid on-disk copy (index probe only; the
    /// copy is still revalidated at [`load`](Self::load) time).
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.index.lock().expect("store index lock").contains(key)
    }

    /// Write one entry durably: tmp file + atomic rename, so readers
    /// (including this process after a crash) never see a torn file.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure, or
    /// [`StoreError::Unsupported`] for a non-portable artifact; the
    /// caller logs and moves on — spilling is an optimization.
    pub fn spill(&self, key: &CacheKey, art: &Artifact) -> Result<(), StoreError> {
        let bytes = encode_entry(key, art)?;
        let path = self.entry_path(key);
        let tmp = self.dir.join(format!(
            "{:016x}.{EXTENSION}.tmp-{}-{}",
            key.fingerprint(),
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let io = |e: std::io::Error| StoreError::Io(e.to_string());
        fs::write(&tmp, &bytes).map_err(io)?;
        if let Err(e) = fs::rename(&tmp, &path) {
            let _ = fs::remove_file(&tmp);
            return Err(io(e));
        }
        self.index.lock().expect("store index lock").insert(key.clone());
        Ok(())
    }

    /// Probe the store for `key`, revalidating the bytes end to end.
    /// Anything that fails validation is unlinked so it is never
    /// consulted (or trusted) again.
    pub fn load(&self, key: &CacheKey) -> Lookup {
        if !self.contains(key) {
            return Lookup::Missing;
        }
        let path = self.entry_path(key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                // Unlinked behind our back; drop the index entry.
                self.index.lock().expect("store index lock").remove(key);
                return Lookup::Missing;
            }
        };
        match decode_entry(&bytes) {
            Ok((stored_key, art)) if stored_key == *key => {
                // Refresh the mtime so the age/LRU sweep sees this
                // entry as recently used, not as old as its spill.
                let _ = fs::File::options()
                    .append(true)
                    .open(&path)
                    .and_then(|f| f.set_modified(std::time::SystemTime::now()));
                Lookup::Hit(Box::new(art))
            }
            Ok(_) => {
                // A valid entry for a *different* key (fingerprint
                // collision overwrote ours). Leave the file — it is
                // someone else's valid data — but stop probing for us.
                self.index.lock().expect("store index lock").remove(key);
                Lookup::Missing
            }
            Err(e) => {
                let _ = fs::remove_file(&path);
                self.index.lock().expect("store index lock").remove(key);
                Lookup::Rejected(e)
            }
        }
    }

    /// Scan the directory at startup: revalidate every `.pfa` entry and
    /// hand the good ones to `admit`; unlink (and count) every entry
    /// that fails validation or that `admit` refuses, and every tmp
    /// leftover from a crashed write. Never panics on file content.
    pub fn scan(
        &self,
        mut admit: impl FnMut(CacheKey, Artifact) -> Result<(), String>,
    ) -> ScanReport {
        let mut report = ScanReport::default();
        let entries = match fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(_) => return report,
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = match path.file_name().and_then(|n| n.to_str()) {
                Some(n) => n.to_string(),
                None => continue,
            };
            if name.contains(&format!(".{EXTENSION}.tmp-")) {
                // A crash between write and rename; the real entry (if
                // any) is intact under its final name.
                let _ = fs::remove_file(&path);
                report.rejected += 1;
                eprintln!("pitchforkd: removed partial spill file {name}");
                continue;
            }
            if path.extension().and_then(|e| e.to_str()) != Some(EXTENSION) {
                continue;
            }
            let admitted = fs::read(&path)
                .map_err(|e| StoreError::Io(e.to_string()))
                .and_then(|bytes| decode_entry(&bytes))
                .and_then(|(key, art)| {
                    admit(key.clone(), art).map(|()| key).map_err(StoreError::Body)
                });
            match admitted {
                Ok(key) => {
                    self.index.lock().expect("store index lock").insert(key);
                    report.loaded += 1;
                }
                Err(e) => {
                    let _ = fs::remove_file(&path);
                    report.rejected += 1;
                    eprintln!("pitchforkd: rejected spill entry {name}: {e}");
                }
            }
        }
        report
    }

    /// Sweep the directory against the configured bounds: unlink every
    /// entry idle longer than `max_age`, then — oldest mtime first —
    /// keep unlinking until total entry bytes fit in `max_bytes`.
    /// Because [`load`](Self::load) refreshes mtimes on hits, the space
    /// sweep evicts least-recently-used entries. A no-op when neither
    /// bound is set.
    pub fn gc(&self) -> GcReport {
        let mut report = GcReport::default();
        if self.max_bytes.is_none() && self.max_age.is_none() {
            return report;
        }
        let entries = match fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(_) => return report,
        };
        let mut files: Vec<(PathBuf, String, std::time::SystemTime, u64)> = Vec::new();
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some(EXTENSION) {
                continue;
            }
            let Some(name) = path.file_name().and_then(|n| n.to_str()).map(str::to_string) else {
                continue;
            };
            let Ok(meta) = entry.metadata() else { continue };
            let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
            files.push((path, name, mtime, meta.len()));
        }
        files.sort_by_key(|f| f.2);
        let mut total: u64 = files.iter().map(|f| f.3).sum();
        let now = std::time::SystemTime::now();
        let mut removed: HashSet<String> = HashSet::new();
        for (path, name, mtime, len) in files {
            let stale =
                self.max_age.is_some_and(|age| now.duration_since(mtime).unwrap_or_default() > age);
            let over = self.max_bytes.is_some_and(|budget| total > budget);
            if !stale && !over {
                // Files are oldest-first: the rest are younger still,
                // and the total already fits.
                break;
            }
            if fs::remove_file(&path).is_ok() {
                total -= len;
                removed.insert(name);
                report.evicted += 1;
            }
        }
        report.retained_bytes = total;
        if !removed.is_empty() {
            self.index.lock().expect("store index lock").retain(|key| {
                !removed.contains(&format!("{:016x}.{EXTENSION}", key.fingerprint()))
            });
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::ruleset_fingerprint;
    use fpir::Isa;
    use pitchfork::Pitchfork;

    fn compiled(expr: &str, lanes: u32, isa: Isa) -> (CacheKey, Artifact) {
        let pf = Pitchfork::new(isa);
        let e = fpir::parser::parse_expr(expr, lanes).unwrap();
        let art = pitchfork::compile_to_executable(&pf, &e).unwrap();
        let key = CacheKey {
            expr: e.to_string(),
            lanes,
            isa,
            synthesized_rules: true,
            leave_out: None,
            rules_fp: ruleset_fingerprint(&pf),
        };
        (key, art)
    }

    const SAT_ADD: &str = "u8(min(u16(a_u8) + u16(b_u8), 255))";

    #[test]
    fn entry_round_trip_is_bit_identical() {
        for (expr, isa) in
            [(SAT_ADD, Isa::ArmNeon), (SAT_ADD, Isa::X86Avx2), ("a_u8 + a_u8", Isa::ArmNeon)]
        {
            let (key, art) = compiled(expr, 16, isa);
            let bytes = encode_entry(&key, &art).unwrap();
            let (key2, art2) = decode_entry(&bytes).unwrap();
            assert_eq!(key, key2);
            assert_eq!(art.lowered.to_string(), art2.lowered.to_string());
            assert_eq!(art.program.render(), art2.program.render());
            assert_eq!(art.cycles, art2.cycles);
            // Allocation-identity serialization preserves the byte
            // estimate exactly (responses echo it).
            assert_eq!(art.approx_bytes(), art2.approx_bytes());
            assert_eq!(Expr::unique_count(&art.lowered), Expr::unique_count(&art2.lowered));
        }
    }

    #[test]
    fn envelope_rejects_every_tamper_mode() {
        let (key, art) = compiled(SAT_ADD, 8, Isa::ArmNeon);
        let good = encode_entry(&key, &art).unwrap();
        assert!(decode_entry(&good).is_ok());

        // Truncation, at several depths.
        for cut in [0, 10, good.len() / 2, good.len() - 1] {
            assert!(decode_entry(&good[..cut]).is_err(), "cut at {cut}");
        }
        // A flipped byte anywhere in the body.
        let mut flipped = good.clone();
        let mid = MAGIC.len() + 12 + 5;
        flipped[mid] ^= 0x20;
        assert!(decode_entry(&flipped).is_err());
        // Stale format version in the magic.
        let mut stale = good.clone();
        stale[MAGIC.len() - 1] = b'0';
        assert!(matches!(decode_entry(&stale), Err(StoreError::Envelope(_))));
        // Trailing garbage.
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(decode_entry(&trailing).is_err());
        // A flipped checksum byte.
        let mut sum = good.clone();
        let last = sum.len() - 1;
        sum[last] ^= 1;
        assert!(matches!(decode_entry(&sum), Err(StoreError::Envelope(_))));
    }

    #[test]
    fn header_fingerprint_must_match_the_key() {
        let (key, art) = compiled(SAT_ADD, 8, Isa::ArmNeon);
        let body = encode_artifact_json(&key, &art).unwrap().render();
        // A well-formed envelope whose header claims a different rule
        // set must be rejected even though the checksum is valid.
        let bytes = encode_envelope(key.rules_fp ^ 1, &body);
        assert!(matches!(decode_entry(&bytes), Err(StoreError::Body(_))));
    }

    #[test]
    fn cycle_drift_is_rejected() {
        let (key, art) = compiled(SAT_ADD, 8, Isa::ArmNeon);
        let mut v = encode_artifact_json(&key, &art).unwrap();
        if let Json::Object(members) = &mut v {
            for (name, value) in members.iter_mut() {
                if name == "cycles" {
                    *value = Json::Int(art.cycles as i128 + 1);
                }
            }
        }
        let bytes = encode_envelope(key.rules_fp, &v.render());
        let err = decode_entry(&bytes).unwrap_err();
        assert!(matches!(err, StoreError::Body(ref m) if m.contains("cycle count")));
    }

    #[test]
    fn store_spills_loads_and_rejects_corruption() {
        let dir = std::env::temp_dir().join(format!("pfstore-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = DiskStore::open(&dir).unwrap();
        let (key, art) = compiled(SAT_ADD, 16, Isa::ArmNeon);
        store.spill(&key, &art).unwrap();
        assert!(store.contains(&key));
        match store.load(&key) {
            Lookup::Hit(got) => assert_eq!(got.program.render(), art.program.render()),
            other => panic!("expected hit, got {other:?}"),
        }

        // A fresh store over the same directory scans it back in.
        let store2 = DiskStore::open(&dir).unwrap();
        let mut admitted = Vec::new();
        let report = store2.scan(|k, a| {
            admitted.push((k, a));
            Ok(())
        });
        assert_eq!((report.loaded, report.rejected), (1, 0));
        assert_eq!(admitted[0].0, key);
        assert!(store2.contains(&key));

        // Corrupt the file: the next load rejects AND unlinks it.
        let path = dir.join(format!("{:016x}.{EXTENSION}", key.fingerprint()));
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(store2.load(&key), Lookup::Rejected(_)));
        assert!(!path.exists(), "corrupt entry must be unlinked");
        assert!(matches!(store2.load(&key), Lookup::Missing));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_is_a_noop_without_limits() {
        let dir = std::env::temp_dir().join(format!("pfstore-gc0-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = DiskStore::open(&dir).unwrap();
        let (key, art) = compiled(SAT_ADD, 16, Isa::ArmNeon);
        store.spill(&key, &art).unwrap();
        let report = store.gc();
        assert_eq!(report, GcReport::default());
        assert!(matches!(store.load(&key), Lookup::Hit(_)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_evicts_oldest_when_over_budget_and_load_refreshes_age() {
        let dir = std::env::temp_dir().join(format!("pfstore-gc-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let exprs = ["a_u8 + a_u8", "a_u8 + b_u8", "min(a_u8, b_u8)"];
        let entries: Vec<(CacheKey, Artifact)> =
            exprs.iter().map(|e| compiled(e, 16, Isa::ArmNeon)).collect();

        // Budget for exactly two of the three entries (they are within a
        // few bytes of each other).
        let one = encode_entry(&entries[0].0, &entries[0].1).unwrap().len() as u64;
        let store = DiskStore::open(&dir).unwrap().with_limits(Some(one * 2 + one / 2), None);
        let old = std::time::SystemTime::now() - std::time::Duration::from_secs(3600);
        for (i, (key, art)) in entries.iter().enumerate() {
            store.spill(key, art).unwrap();
            // Stamp distinct mtimes, oldest first, so LRU order is
            // deterministic regardless of filesystem timestamp
            // granularity.
            let f = fs::File::options()
                .append(true)
                .open(store.dir().join(format!("{:016x}.{EXTENSION}", key.fingerprint())));
            f.unwrap().set_modified(old + std::time::Duration::from_secs(i as u64)).unwrap();
        }
        // A hit on the oldest entry refreshes its mtime, so the sweep
        // evicts entry 1 (now the least recently used) instead.
        assert!(matches!(store.load(&entries[0].0), Lookup::Hit(_)));
        let report = store.gc();
        assert_eq!(report.evicted, 1);
        assert!(report.retained_bytes <= one * 2 + one / 2);
        assert!(store.contains(&entries[0].0), "recently-used entry survives");
        assert!(!store.contains(&entries[1].0), "LRU entry is evicted");
        assert!(store.contains(&entries[2].0));
        assert!(matches!(store.load(&entries[1].0), Lookup::Missing));

        // The survivors still validate end to end.
        assert!(matches!(store.load(&entries[0].0), Lookup::Hit(_)));
        assert!(matches!(store.load(&entries[2].0), Lookup::Hit(_)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_expires_idle_entries_by_age() {
        let dir = std::env::temp_dir().join(format!("pfstore-age-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = DiskStore::open(&dir)
            .unwrap()
            .with_limits(None, Some(std::time::Duration::from_secs(60)));
        let (k1, a1) = compiled("a_u8 + a_u8", 16, Isa::ArmNeon);
        let (k2, a2) = compiled("a_u8 + b_u8", 16, Isa::ArmNeon);
        store.spill(&k1, &a1).unwrap();
        store.spill(&k2, &a2).unwrap();
        // Backdate one entry past the idle bound.
        let path = store.dir().join(format!("{:016x}.{EXTENSION}", k1.fingerprint()));
        let old = std::time::SystemTime::now() - std::time::Duration::from_secs(3600);
        fs::File::options().append(true).open(&path).unwrap().set_modified(old).unwrap();

        let report = store.gc();
        assert_eq!(report.evicted, 1);
        assert!(!path.exists());
        assert!(!store.contains(&k1));
        assert!(matches!(store.load(&k2), Lookup::Hit(_)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn service_persistence_respects_gc_bounds() {
        use crate::protocol::{CompileSpec, Request};
        use crate::service::{Service, ServiceConfig};
        use crate::stats::Stats;
        let dir = std::env::temp_dir().join(format!("pfstore-svcgc-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let spec = |expr: &str| CompileSpec {
            expr: expr.into(),
            lanes: 8,
            isa: Isa::ArmNeon,
            synthesized_rules: true,
            leave_out: None,
            timeout_ms: None,
        };
        let exprs = ["a_u8 + a_u8", "a_u8 + b_u8", "min(a_u8, b_u8)"];
        {
            let svc = Service::new(ServiceConfig {
                cache_dir: Some(dir.clone()),
                ..ServiceConfig::default()
            });
            for e in exprs {
                let r = svc.handle_local(&Request::Compile(spec(e)));
                assert!(r.get("error").is_none(), "compile of {e} failed: {r:?}");
            }
        }
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 3);

        // Restarting with a two-entry budget sweeps the oldest spill at
        // startup; the survivors are still served restart-warm.
        let one = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.metadata().unwrap().len())
            .max()
            .unwrap();
        let svc = Service::new(ServiceConfig {
            cache_dir: Some(dir.clone()),
            cache_max_bytes: Some(one * 2 + one / 2),
            ..ServiceConfig::default()
        });
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 2);
        assert_eq!(Stats::read(&svc.stats().disk_evicted), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_sweeps_tmp_leftovers_and_bad_entries() {
        let dir = std::env::temp_dir().join(format!("pfstore-scan-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = DiskStore::open(&dir).unwrap();
        let (key, art) = compiled(SAT_ADD, 16, Isa::X86Avx2);
        store.spill(&key, &art).unwrap();
        // A crashed write leaves a partial tmp file behind.
        fs::write(dir.join(format!("dead.{EXTENSION}.tmp-999-0")), b"partial").unwrap();
        // A truncated entry.
        let good = encode_entry(&key, &art).unwrap();
        fs::write(dir.join(format!("{:016x}.{EXTENSION}", 7u64)), &good[..good.len() / 3]).unwrap();
        // An unrelated file is left alone.
        fs::write(dir.join("README"), b"not a spill file").unwrap();

        let store2 = DiskStore::open(&dir).unwrap();
        let mut admitted = 0;
        let report = store2.scan(|_, _| {
            admitted += 1;
            Ok(())
        });
        assert_eq!((report.loaded, report.rejected), (1, 2));
        assert_eq!(admitted, 1);
        let left: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(left.len(), 2, "good entry + README survive: {left:?}");
        assert!(left.iter().any(|n| n == "README"));
        let _ = fs::remove_dir_all(&dir);
    }
}
