//! The service core: everything `pitchforkd` does, minus the sockets.
//!
//! Two request methods, both safe to call from any number of threads at
//! once: [`Service::classify`] answers a request from warm state or says
//! it needs a worker, and [`Service::handle_local`] is that worker: it
//! maps one parsed [`Request`] to one JSON response, compiling on the
//! calling thread. A request `classify` dispatches carries what it
//! already resolved (the parsed expression, the selector and the cache
//! key, as a [`Resolved`]) to the event loop's worker, so a miss parses
//! and keys its expression once. The pieces:
//!
//! * a **selector registry** — one warm [`Pitchfork`] (rule sets loaded
//!   and indexed) per distinct loaded rule set, built on first use and
//!   kept for the life of the server. A `leave_out` that drops no loaded
//!   rule shares the full-rule selector, so client-chosen names cannot
//!   grow the registry;
//! * the **artifact cache** — content-addressed, byte-bounded LRU with
//!   single-flight deduplication ([`crate::cache`]). A miss's flight
//!   leader tries three sources in order: the disk store, the key's
//!   owner in the daemon fleet ([`crate::peer`]; the event loop's
//!   workers pass the fleet, [`Service::handle_local`] does not), and a
//!   local compile. Every request for the key joins that one flight,
//!   whichever source answers;
//! * **deadlines** — a request's `timeout_ms` bounds its flight: the
//!   peer fetch stops at it, and the compile checks it between pipeline
//!   phases via the driver's cancellation hook. Flight waiters time out
//!   independently while the flight continues for the others. The
//!   event loop charges the time a request waited for a worker against
//!   the same budget first.
//!
//! Admission control lives in the event loop's bounded dispatch queue;
//! the service owns no threads.
//!
//! **One rendered body per answer.** Every answer is a rendered JSON
//! object, built once. An artifact enters the cache with its
//! `compile`-hit response rendered beside it; every `compile`, `run` and
//! `run_pipeline` answer about it is that body with its leading
//! `"cached"`/`"source"` members swapped and its own members spliced in
//! before the closing brace. The lowered expression is printed once, on
//! the way in, and the print stops at the 16 MiB frame limit: a DAG
//! prints as a tree, which can be exponentially longer than its unique
//! nodes, so an artifact whose print would not fit in a frame is
//! answered with an error and never cached or spilled. Its key is
//! remembered instead (a bounded set of refused keys), so a repeat gets
//! the same error frame without compiling and printing again.
//!
//! Served results are **bit-identical** to a direct
//! [`pitchfork::compile_to_executable`] call with the same
//! configuration — the cache stores exactly what the driver produced,
//! and execution uses the same linked executable.

use crate::cache::{Cache, CacheError, CacheStats, Source};
use crate::error::ServiceError;
use crate::json::Json;
use crate::key::{ruleset_fingerprint, CacheKey};
use crate::peer::{Fetched, Fleet};
use crate::protocol::{
    error_response, frame_too_large, ok_response, splice_members, CompileSpec, ImageSpec, Request,
    StatsFormat, MAX_FRAME,
};
use crate::stats::Stats;
use crate::store::{self, DiskStore, Lookup};
use fpir::expr::RcExpr;
use fpir::interp::{Env, Value};
use fpir_halide::{run_tiled_exe, Image, Pipeline};
use fpir_trs::Provenance;
use pitchfork::{compile_to_executable_with, Artifact, Config, DriverError, Pitchfork};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::{self, Write as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tunables for one [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Artifact-cache byte budget.
    pub cache_bytes: usize,
    /// Worker threads the event loop dispatches requests to.
    pub workers: usize,
    /// Deadline applied when a request doesn't carry its own.
    pub default_timeout_ms: Option<u64>,
    /// Spill directory for the on-disk artifact store. `None` disables
    /// persistence; with a directory, compiled artifacts are written
    /// through and re-admitted on the next startup (restart-warm).
    pub cache_dir: Option<PathBuf>,
    /// Disk-store byte budget: after startup and after every spill, an
    /// LRU sweep (by mtime, refreshed on disk hits) unlinks the oldest
    /// entries until the directory fits. `None` leaves it unbounded.
    pub cache_max_bytes: Option<u64>,
    /// Disk-store idle bound: entries not spilled or hit for this long
    /// are unlinked by the same sweep. `None` disables expiry.
    pub cache_max_age: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            cache_bytes: 64 << 20,
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2).min(8),
            default_timeout_ms: None,
            cache_dir: None,
            cache_max_bytes: None,
            cache_max_age: None,
        }
    }
}

/// One warm selector: the `Pitchfork` instance plus its precomputed
/// rule-set fingerprint (hashing every rule per request would defeat
/// the point of keeping the selector warm).
#[derive(Debug)]
struct Selector {
    pf: Pitchfork,
    rules_fp: u64,
}

/// How many refused keys a service remembers; a full set starts over.
const REFUSED_CAP: usize = 256;

/// The part of a [`CompileSpec`] that picks a selector: the ISA, the
/// synthesized-rules toggle, and the `leave_out` benchmark when it drops
/// a loaded rule.
type SelectorKey = (fpir::Isa, bool, Option<String>);

/// What the cache stores for one key: the driver's artifact plus its
/// `compile`-hit response, rendered once at insert time, so no answer
/// prints the expression or renders the program again.
#[derive(Debug)]
struct Served {
    art: Artifact,
    /// The complete `compile`-hit response. Its `artifact_bytes` member
    /// is the size the cache charges (the artifact's estimate plus the
    /// printed `lowered` and `program` members), so hits and misses echo
    /// the same value.
    hit_body: String,
}

impl Served {
    /// The cache value for `art` and its charged size.
    ///
    /// # Errors
    ///
    /// The frame-limit error when the lowered expression prints past
    /// [`MAX_FRAME`].
    fn new(art: Artifact, key_fp: u64) -> Result<(Served, usize), ServiceError> {
        let lowered = print_lowered(&art.lowered)?;
        let program = art.program.render();
        let bytes = art.approx_bytes() + lowered.len() + program.len();
        let mut hit_body = format!("{}}}", source_prefix(Source::Hit));
        splice_members(
            &mut hit_body,
            &[
                ("key", &Json::str(format!("{key_fp:016x}"))),
                ("isa", &Json::str(art.isa.short_name())),
                ("lowered", &Json::Str(lowered)),
                ("program", &Json::Str(program)),
                ("cycles", &Json::Int(art.cycles.into())),
                ("ops", &Json::Int(art.exe.op_count() as i128)),
                ("artifact_bytes", &Json::Int(bytes as i128)),
            ],
        );
        Ok((Served { art, hit_body }, bytes))
    }

    /// The response for this artifact obtained as `source`, with `extra`
    /// members after the artifact's: the hit body with its leading
    /// `"cached"`/`"source"` members swapped and `extra` spliced in, byte
    /// for byte what rendering every member again gives.
    fn body(&self, source: Source, extra: &[(&str, &Json)]) -> String {
        let artifact_members = &self.hit_body[source_prefix(Source::Hit).len()..];
        let mut body = [source_prefix(source), artifact_members].concat();
        splice_members(&mut body, extra);
        body
    }

    /// Execute the artifact over one environment of vectors: the `run`
    /// response.
    fn run(
        &self,
        expr: &RcExpr,
        source: Source,
        inputs: &[(String, Vec<i128>)],
    ) -> Result<String, ServiceError> {
        // Bind every free variable, validating counts and ranges before
        // constructing `Value`s (whose constructors panic on bad data).
        // Inputs may be keyed either by the bare variable name (`a`) or
        // by its printed, type-suffixed form (`a_u8`).
        let mut env = Env::new();
        for (name, ty) in expr.free_vars() {
            let printed = format!("{name}_{}", ty.elem);
            let lanes = inputs
                .iter()
                .find(|(n, _)| *n == name || *n == printed)
                .map(|(_, v)| v)
                .ok_or_else(|| ServiceError::BadRequest(format!("missing input `{name}`")))?;
            if lanes.len() != ty.lanes as usize {
                return Err(ServiceError::BadRequest(format!(
                    "input `{name}` has {} lanes, expected {}",
                    lanes.len(),
                    ty.lanes
                )));
            }
            if let Some(&v) = lanes.iter().find(|&&v| !ty.elem.contains(v)) {
                return Err(ServiceError::BadRequest(format!(
                    "input `{name}`: {v} does not fit in {}",
                    ty.elem
                )));
            }
            env.insert(name, Value::new(ty, lanes.clone()));
        }
        let mut ctx = self.art.exe.new_ctx();
        let out = self
            .art
            .exe
            .run(&mut ctx, &env)
            .map_err(|e| ServiceError::Internal(format!("execution failed: {e}")))?;
        let elem = Json::str(out.ty().elem.to_string());
        let output = Json::Array(out.lanes().iter().map(|&v| Json::Int(v)).collect());
        Ok(self.body(source, &[("elem", &elem), ("output", &output)]))
    }

    /// Run the artifact as a stencil pipeline over whole images: the
    /// `run_pipeline` response.
    fn run_pipeline(
        &self,
        expr: &RcExpr,
        source: Source,
        inputs: &[(String, ImageSpec)],
        jobs: usize,
    ) -> Result<String, ServiceError> {
        let pipe = Pipeline::try_new("served", expr.clone())
            .map_err(|e| ServiceError::BadRequest(e.what))?;
        let mut images = BTreeMap::new();
        for (name, img) in inputs {
            // `ImageSpec` is validated at parse time (rectangular,
            // in-range for its element type), which is exactly what
            // `Image::from_rows` requires.
            images.insert(name.clone(), Image::from_rows(img.elem, &img.rows));
        }
        let out = run_tiled_exe(&pipe, &self.art.exe, &images, jobs)
            .map_err(|e| ServiceError::BadRequest(e.what))?;
        let rows = Json::Array(
            (0..out.height())
                .map(|y| {
                    Json::Array(
                        (0..out.width())
                            .map(|x| Json::Int(out.get_clamped(x as i64, y as i64)))
                            .collect(),
                    )
                })
                .collect(),
        );
        Ok(self.body(
            source,
            &[
                ("elem", &Json::str(out.elem().to_string())),
                ("width", &Json::Int(out.width() as i128)),
                ("height", &Json::Int(out.height() as i128)),
                ("rows", &rows),
            ],
        ))
    }
}

/// Print the lowered expression for the `lowered` member. The printer
/// writes the DAG as a tree, which can be exponentially longer than its
/// unique nodes, so the sink refuses text past [`MAX_FRAME`] (no frame
/// could carry it) and the printer's `?` ends the walk there.
fn print_lowered(lowered: &RcExpr) -> Result<String, ServiceError> {
    struct Bounded(String);
    impl fmt::Write for Bounded {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            if self.0.len() + s.len() > MAX_FRAME {
                return Err(fmt::Error);
            }
            self.0.push_str(s);
            Ok(())
        }
    }
    let mut out = Bounded(String::new());
    write!(out, "{lowered}").map_err(|_| frame_too_large())?;
    Ok(out.0)
}

/// The rendered start of every artifact-bearing response, up to its
/// `"cached"`/`"source"` members (whether the artifact was cached, and
/// where it came from): the object left open.
fn source_prefix(source: Source) -> &'static str {
    match source {
        Source::Hit => r#"{"ok":true,"cached":true,"source":"hit""#,
        Source::Computed => r#"{"ok":true,"cached":false,"source":"computed""#,
        Source::Joined => r#"{"ok":true,"cached":false,"source":"joined""#,
    }
}

/// A compile-bearing request as [`Service::classify`] resolved it: the
/// parsed expression, its warm selector and its cache key. The event
/// loop hands it to the worker that serves the request, so a miss parses,
/// prints and fingerprints its expression once.
#[derive(Debug)]
pub struct Resolved {
    expr: RcExpr,
    selector: Arc<Selector>,
    key: CacheKey,
    key_fp: u64,
}

impl Resolved {
    fn new(expr: RcExpr, selector: Arc<Selector>, key: CacheKey) -> Resolved {
        let key_fp = key.fingerprint();
        Resolved { expr, selector, key, key_fp }
    }
}

/// How the event loop should treat one ready frame: answer it from
/// warm state, or hand it to a worker. A dispatched compile, run or
/// pipeline request carries its [`Resolved`] form for the worker.
#[derive(Debug)]
pub enum CacheDecision {
    /// Answerable right now with this rendered response body; no worker
    /// needed.
    Reply(String),
    /// Needs a worker (a cache miss, warm pipeline execution, or a
    /// sibling's `peer_get`, which carries no resolution).
    Dispatch(Option<Resolved>),
}

/// The concurrent compile-and-run service.
#[derive(Debug)]
pub struct Service {
    config: ServiceConfig,
    selectors: Mutex<HashMap<SelectorKey, Arc<Selector>>>,
    /// Per ISA, the benchmarks whose leave-one-out drops a loaded rule:
    /// the sole source of some synthesized rule (`Rule::synthesized_from`
    /// names at least one). Any other `leave_out` loads the full rules.
    sole_sources: HashMap<fpir::Isa, HashSet<String>>,
    cache: Cache<CacheKey, Served, ServiceError>,
    /// Keys whose compiled artifact prints past the frame limit: a
    /// repeat answers the same error without compiling. At most
    /// [`REFUSED_CAP`] keys; a full set is cleared.
    refused: Mutex<HashSet<CacheKey>>,
    store: Option<DiskStore>,
    stats: Stats,
    /// Monotonic rule-set generation. Anything memoizing *rendered
    /// responses* outside the cache (the event loop's hot-request memo)
    /// records the generation it was seeded under and must discard
    /// entries from older generations. Today rule sets are fixed at
    /// startup, so this only moves when tests (or a future rule-reload
    /// path) bump it — but the memo checks it on every hit, so reloads
    /// can never serve another configuration's bytes.
    rules_gen: AtomicU64,
}

impl Service {
    /// Build a service and warm the default selector for every ISA, so
    /// the first request doesn't pay rule-set construction. With a
    /// `cache_dir`, the spill directory is scanned and every valid
    /// entry re-admitted into the cache before the service is handed
    /// out (restart-warm).
    pub fn new(config: ServiceConfig) -> Service {
        let store = config.cache_dir.as_ref().and_then(|dir| match DiskStore::open(dir) {
            Ok(s) => Some(s.with_limits(config.cache_max_bytes, config.cache_max_age)),
            Err(e) => {
                eprintln!(
                    "pitchforkd: cannot open cache dir {}: {e}; persistence disabled",
                    dir.display()
                );
                None
            }
        });
        let mut svc = Service {
            cache: Cache::new(config.cache_bytes),
            refused: Mutex::new(HashSet::new()),
            stats: Stats::new(),
            selectors: Mutex::new(HashMap::new()),
            sole_sources: HashMap::new(),
            store,
            rules_gen: AtomicU64::new(1),
            config,
        };
        for isa in fpir::machine::ALL_ISAS {
            let spec = CompileSpec {
                expr: String::new(),
                lanes: 1,
                isa,
                synthesized_rules: true,
                leave_out: None,
                timeout_ms: None,
            };
            let full = svc.selector(&spec);
            let (lift, lower) = (full.pf.lift_rule_set(), full.pf.lower_rule_set());
            let sole =
                lift.rules().iter().chain(lower.rules()).filter_map(|r| match &r.provenance {
                    Provenance::Synthesized { sources } => match sources.as_slice() {
                        [first, rest @ ..] if rest.iter().all(|s| s == first) => {
                            Some(first.clone())
                        }
                        _ => None,
                    },
                    Provenance::HandWritten => None,
                });
            svc.sole_sources.insert(isa, sole.collect());
        }
        if let Some(store) = &svc.store {
            let report = store.scan(|key, art| {
                let (served, bytes) =
                    Served::new(art, key.fingerprint()).map_err(|e| e.to_string())?;
                svc.cache.insert(key, served, bytes);
                Ok(())
            });
            svc.stats.disk_loaded.fetch_add(report.loaded, Ordering::Relaxed);
            svc.stats.disk_rejected.fetch_add(report.rejected, Ordering::Relaxed);
            // Enforce the size/age bounds on whatever the scan left;
            // re-admitted cache entries stay warm even if their disk
            // copy is swept.
            let gc = store.gc();
            if gc.evicted > 0 {
                svc.stats.disk_evicted.fetch_add(gc.evicted, Ordering::Relaxed);
                eprintln!(
                    "pitchforkd: spill GC evicted {} entries at startup ({} bytes retained)",
                    gc.evicted, gc.retained_bytes
                );
            }
        }
        svc
    }

    /// The configuration the service was built with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The request counters (shared with the server's `/stats`).
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The current rule-set generation (see the field doc on
    /// `rules_gen`). Response memos outside the cache key on this.
    pub fn rules_generation(&self) -> u64 {
        self.rules_gen.load(Ordering::Relaxed)
    }

    /// Invalidate every externally-memoized rendered response by
    /// advancing the rule-set generation. Call whenever the loaded rule
    /// sets could have changed.
    pub fn bump_rules_generation(&self) {
        self.rules_gen.fetch_add(1, Ordering::Relaxed);
    }

    /// Whether a spec's `leave_out` drops a rule its selector would
    /// otherwise load. Only synthesized rules can be left out.
    fn leaves_out_a_rule(&self, spec: &CompileSpec) -> bool {
        spec.synthesized_rules
            && spec.leave_out.as_ref().is_some_and(|b| {
                self.sole_sources.get(&spec.isa).is_some_and(|sole| sole.contains(b))
            })
    }

    /// The warm selector for a spec's loaded rules. A `leave_out` that
    /// drops no rule loads the same rules, with the same fingerprint, as
    /// none, so it shares that selector; the cache key still names it.
    fn selector(&self, spec: &CompileSpec) -> Arc<Selector> {
        let leave_out = spec.leave_out.clone().filter(|_| self.leaves_out_a_rule(spec));
        let key: SelectorKey = (spec.isa, spec.synthesized_rules, leave_out.clone());
        let mut map = self.selectors.lock().expect("selector lock");
        if let Some(s) = map.get(&key) {
            return s.clone();
        }
        let mut cfg = Config::new(spec.isa);
        if !spec.synthesized_rules {
            cfg = cfg.hand_written_only();
        }
        if let Some(l) = leave_out {
            cfg = cfg.leaving_out(l);
        }
        let pf = Pitchfork::with_config(cfg);
        let s = Arc::new(Selector { rules_fp: ruleset_fingerprint(&pf), pf });
        map.insert(key, s.clone());
        s
    }

    /// Handle one request, returning the response frame. A cache miss
    /// is refilled from the disk store or compiled right here on the
    /// calling thread — never fetched from a peer. Concurrent identical
    /// requests share one compile (single-flight). Never panics on
    /// request content; all failures become `{"ok": false}` frames.
    pub fn handle_local(&self, req: &Request) -> Json {
        crate::json::parse(&self.reply(req, None, None)).expect("a rendered response parses")
    }

    /// Answer one request with its rendered response body, on the
    /// calling thread: the worker entry behind
    /// [`handle_local`](Self::handle_local). The event loop's workers
    /// also pass what [`classify`](Self::classify) resolved for this same
    /// request and, on a daemon in a fleet that is not stopping, the
    /// fleet whose key owners a miss may fetch from.
    pub(crate) fn reply(
        &self,
        req: &Request,
        resolved: Option<Resolved>,
        fleet: Option<&Fleet>,
    ) -> String {
        Stats::bump(&self.stats.requests);
        let started = Instant::now();
        let out = match req {
            Request::Ping => Ok(ok_response(vec![("pong".into(), Json::Bool(true))]).render()),
            Request::Stats { format } => Ok(match format {
                StatsFormat::Json => ok_response(self.stat_members()),
                StatsFormat::Text => ok_response(vec![
                    ("format".into(), Json::str("text")),
                    ("text".into(), Json::str(self.stats_text())),
                ]),
            }
            .render()),
            Request::Shutdown => {
                // The transport layer watches for this op; the core just
                // acknowledges it.
                Ok(ok_response(vec![("stopping".into(), Json::Bool(true))]).render())
            }
            Request::Compile(spec) => self
                .artifact(spec, resolved, fleet)
                .map(|(_, served, source)| served.body(source, &[])),
            Request::Run { spec, inputs } => self
                .artifact(spec, resolved, fleet)
                .and_then(|(expr, served, source)| served.run(&expr, source, inputs)),
            Request::RunPipeline { spec, inputs, jobs } => {
                self.artifact(spec, resolved, fleet).and_then(|(expr, served, source)| {
                    served.run_pipeline(&expr, source, inputs, *jobs)
                })
            }
            Request::PeerGet { spec, rules_fp } => {
                self.handle_peer_get(spec, *rules_fp).map(|v| v.render())
            }
        };
        self.finish(started, out)
    }

    /// Classify one ready frame: answer it inline from warm state, or
    /// dispatch it to a worker with what was resolved for it. Never
    /// blocks on a compile.
    pub fn classify(&self, req: &Request) -> CacheDecision {
        self.classify_memo(req).0
    }

    /// [`classify`](Self::classify), also saying whether its reply is a
    /// `compile` answered from the artifact cache: the only reply the
    /// event loop's hot memo may replay for the same request bytes.
    pub(crate) fn classify_memo(&self, req: &Request) -> (CacheDecision, bool) {
        let spec = match req {
            // Control ops never compile; answer inline.
            Request::Ping | Request::Stats { .. } | Request::Shutdown => {
                return (CacheDecision::Reply(self.reply(req, None, None)), false);
            }
            Request::Compile(spec)
            | Request::Run { spec, .. }
            | Request::RunPipeline { spec, .. } => spec,
            // A sibling's lookup is answered by a worker and is never
            // forwarded again — ownership is a function of the key, so
            // a second hop could only be a routing loop.
            Request::PeerGet { .. } => return (CacheDecision::Dispatch(None), false),
        };
        let started = Instant::now();
        let Ok(expr) = fpir::parser::parse_expr(&spec.expr, spec.lanes) else {
            // Malformed expressions are cheap to reject inline.
            return (CacheDecision::Reply(self.reply(req, None, None)), false);
        };
        let selector = self.selector(spec);
        let key = CacheKey::for_spec(spec, &expr, selector.rules_fp);
        let Some(served) = self.cache.try_get(&key) else {
            // A refused key's error frame needs no worker.
            let refused = self.is_refused(&key);
            let resolved = Some(Resolved::new(expr, selector, key));
            if refused {
                return (CacheDecision::Reply(self.reply(req, resolved, None)), false);
            }
            return (CacheDecision::Dispatch(resolved), false);
        };
        let out = match req {
            Request::Compile(_) => Ok(served.body(Source::Hit, &[])),
            Request::Run { inputs, .. } => served.run(&expr, Source::Hit, inputs),
            // Whole-image runs are real work even when the artifact is
            // warm; always dispatch (the worker's own accounting
            // applies — counting here too would double-book).
            Request::RunPipeline { .. } => {
                return (CacheDecision::Dispatch(Some(Resolved::new(expr, selector, key))), false)
            }
            _ => unreachable!("filtered above"),
        };
        Stats::bump(&self.stats.requests);
        Stats::bump(&self.stats.cache_hits);
        (CacheDecision::Reply(self.finish(started, out)), matches!(req, Request::Compile(_)))
    }

    /// Success records a latency sample; failure maps onto the timeout
    /// / error counters and the structured error frame.
    fn finish(&self, started: Instant, out: Result<String, ServiceError>) -> String {
        match out {
            Ok(body) => {
                self.stats.record_latency_us(started.elapsed().as_micros() as u64);
                body
            }
            Err(e) => {
                match e {
                    ServiceError::Timeout { .. } => Stats::bump(&self.stats.timeouts),
                    _ => Stats::bump(&self.stats.errors),
                }
                error_response(&e).render()
            }
        }
    }

    /// Parse a spec's expression and build its cache key.
    fn resolve(&self, spec: &CompileSpec) -> Result<Resolved, ServiceError> {
        let expr = fpir::parser::parse_expr(&spec.expr, spec.lanes)
            .map_err(|e| ServiceError::BadRequest(format!("expression: {e}")))?;
        let selector = self.selector(spec);
        let key = CacheKey::for_spec(spec, &expr, selector.rules_fp);
        Ok(Resolved::new(expr, selector, key))
    }

    /// Fetch-or-compile the artifact for `spec`, resolving it here unless
    /// [`classify`](Self::classify) already did. Also returns the parsed
    /// expression (`run` and `run_pipeline` execute over it).
    fn artifact(
        &self,
        spec: &CompileSpec,
        resolved: Option<Resolved>,
        fleet: Option<&Fleet>,
    ) -> Result<(RcExpr, Arc<Served>, Source), ServiceError> {
        let Resolved { expr, selector, key, key_fp } = match resolved {
            Some(r) => r,
            None => self.resolve(spec)?,
        };
        if self.is_refused(&key) {
            return Err(frame_too_large());
        }
        let timeout_ms = spec.timeout_ms.or(self.config.default_timeout_ms);
        let deadline = timeout_ms.map(|ms| Instant::now() + Duration::from_millis(ms));

        let computed = self.cache.get_or_compute(&key, deadline, || {
            // The single-flight leader tries the cheaper sources first:
            // a previously-evicted (or previous-process) artifact
            // refills from disk, then the key's owner in the fleet may
            // have it. Concurrent requests join either exactly like a
            // compile.
            if let Some(served) = self.fetch_from_disk(&key, key_fp) {
                return Ok(served);
            }
            if let Some(served) =
                fleet.and_then(|f| self.fetch_from_peer(f, &key, key_fp, deadline))
            {
                self.spill(&key, &served.0.art);
                return Ok(served);
            }
            let r = self.compile(&selector, &expr, &key, key_fp, deadline, timeout_ms);
            if let Ok((served, _)) = &r {
                self.spill(&key, &served.art);
            }
            r
        });
        match computed {
            Ok((art, source)) => {
                match source {
                    Source::Hit => Stats::bump(&self.stats.cache_hits),
                    Source::Computed => Stats::bump(&self.stats.cache_misses),
                    Source::Joined => Stats::bump(&self.stats.flight_joins),
                }
                Ok((expr, art, source))
            }
            Err(CacheError::Compute(e)) => Err(e),
            Err(CacheError::TimedOut) => {
                Err(ServiceError::Timeout { budget_ms: timeout_ms.unwrap_or(0) })
            }
        }
    }

    /// Whether `key`'s artifact was refused for its print's size.
    fn is_refused(&self, key: &CacheKey) -> bool {
        self.refused.lock().expect("refused-key lock").contains(key)
    }

    /// The single-flight leader's compute, on the calling thread: run
    /// the driver under the deadline and map its result onto
    /// cache-insertable state, auditing the artifact in debug builds. An
    /// artifact refused for its print's size leaves its key in the
    /// refused set.
    fn compile(
        &self,
        selector: &Selector,
        expr: &RcExpr,
        key: &CacheKey,
        key_fp: u64,
        deadline: Option<Instant>,
        timeout_ms: Option<u64>,
    ) -> Result<(Served, usize), ServiceError> {
        let mut keep_going = |_p| deadline.is_none_or(|d| Instant::now() < d);
        match compile_to_executable_with(&selector.pf, expr, &mut keep_going) {
            Ok((art, _)) => {
                Stats::bump(&self.stats.compiles);
                // Debug builds audit every artifact entering the cache
                // with the static verifier; a cached artifact is served
                // to every later hit, so a malformed one must never get
                // in. Mirrors the gate inside `Executable::link_with` and
                // catches corruption between compile and insert.
                #[cfg(debug_assertions)]
                if let Err(v) = fpir_sim::verify_executable(&art.exe) {
                    panic!("refusing to cache an unverifiable artifact: {v}");
                }
                Served::new(art, key_fp).inspect_err(|_| {
                    let mut refused = self.refused.lock().expect("refused-key lock");
                    if refused.len() == REFUSED_CAP {
                        refused.clear();
                    }
                    refused.insert(key.clone());
                })
            }
            Err(DriverError::Cancelled(_)) => {
                Err(ServiceError::Timeout { budget_ms: timeout_ms.unwrap_or(0) })
            }
            Err(e) => Err(ServiceError::Compile(e.to_string())),
        }
    }

    /// Leader-side disk probe: a validated spill entry becomes the
    /// flight's value without compiling. An entry the cache cannot hold
    /// (its print passes the frame limit) counts as rejected.
    fn fetch_from_disk(&self, key: &CacheKey, key_fp: u64) -> Option<(Served, usize)> {
        let rejected = match self.store.as_ref()?.load(key) {
            Lookup::Missing => return None,
            Lookup::Hit(art) => match Served::new(*art, key_fp) {
                Ok(served) => {
                    Stats::bump(&self.stats.disk_hits);
                    return Some(served);
                }
                Err(e) => e.to_string(),
            },
            Lookup::Rejected(e) => e.to_string(),
        };
        Stats::bump(&self.stats.disk_rejected);
        eprintln!("pitchforkd: rejected spill entry {key_fp:016x}: {rejected}");
        None
    }

    /// Write-through to the disk store. Failure is logged and swallowed
    /// — persistence is an optimization, never on the serving path.
    fn spill(&self, key: &CacheKey, art: &Artifact) {
        let Some(store) = &self.store else { return };
        match store.spill(key, art) {
            Ok(()) => {
                Stats::bump(&self.stats.disk_spills);
                // Keep the directory within its bounds as it grows; a
                // no-op unless limits are configured.
                let gc = store.gc();
                if gc.evicted > 0 {
                    self.stats.disk_evicted.fetch_add(gc.evicted, Ordering::Relaxed);
                }
            }
            Err(e) => eprintln!("pitchforkd: spill of {:016x} failed: {e}", key.fingerprint()),
        }
    }

    /// Leader-side fleet fetch: ask the key's owner, then treat its
    /// answer as untrusted input. The payload is decoded, rebuilt and
    /// verified end to end (see [`store::decode_artifact_json`]), its
    /// embedded key must equal the one asked for, and its print must fit
    /// in a frame. `None` (after counting why) sends the leader on to a
    /// local compile.
    fn fetch_from_peer(
        &self,
        fleet: &Fleet,
        key: &CacheKey,
        key_fp: u64,
        deadline: Option<Instant>,
    ) -> Option<(Served, usize)> {
        let counter = match fleet.fetch(key, key_fp, deadline)? {
            Fetched::Artifact(body) => {
                let rejected = match store::decode_artifact_json(&body) {
                    Ok((got, art)) if got == *key => match Served::new(art, key_fp) {
                        Ok(served) => {
                            Stats::bump(&self.stats.peer_hits);
                            return Some(served);
                        }
                        Err(e) => e.to_string(),
                    },
                    Ok(_) => "it is for a different key".to_string(),
                    Err(e) => e.to_string(),
                };
                eprintln!("pitchforkd: peer artifact for {key_fp:016x} rejected: {rejected}");
                &self.stats.peer_errors
            }
            Fetched::Missing => &self.stats.peer_misses,
            Fetched::TimedOut => &self.stats.peer_timeouts,
            Fetched::Failed => &self.stats.peer_errors,
        };
        Stats::bump(counter);
        None
    }

    /// Serve a sibling daemon's `peer_get`: fetch-or-compile the key
    /// (this is what concentrates each key's one fleet-wide compile at
    /// its owner) and return the portable artifact encoding. The owner
    /// never asks the fleet in turn: ownership is a function of the key,
    /// so a second hop could only be a routing loop. A rule-set
    /// fingerprint mismatch answers `found: false` — this daemon's
    /// bytes belong to a different configuration than the requester's.
    fn handle_peer_get(&self, spec: &CompileSpec, rules_fp: u64) -> Result<Json, ServiceError> {
        Stats::bump(&self.stats.peer_serves);
        let not_found = |reason: &str| {
            Ok(ok_response(vec![
                ("found".into(), Json::Bool(false)),
                ("reason".into(), Json::str(reason)),
            ]))
        };
        if self.selector(spec).rules_fp != rules_fp {
            return not_found("rules_mismatch");
        }
        let resolved = self.resolve(spec)?;
        let key = resolved.key.clone();
        let (_, served, _) = self.artifact(spec, Some(resolved), None)?;
        match store::encode_artifact_json(&key, &served.art) {
            Ok(body) => {
                Ok(ok_response(vec![("found".into(), Json::Bool(true)), ("artifact".into(), body)]))
            }
            Err(e) => not_found(&e.to_string()),
        }
    }

    /// Every stat as `(name, integer)` — the shared source for both the
    /// JSON `stats` payload and the plaintext scrape format.
    fn stat_members(&self) -> Vec<(String, Json)> {
        let c = self.cache.stats();
        let l = self.stats.latency_summary();
        vec![
            ("requests".into(), Json::Int(Stats::read(&self.stats.requests).into())),
            ("cache_hits".into(), Json::Int(Stats::read(&self.stats.cache_hits).into())),
            ("cache_misses".into(), Json::Int(Stats::read(&self.stats.cache_misses).into())),
            ("flight_joins".into(), Json::Int(Stats::read(&self.stats.flight_joins).into())),
            ("compiles".into(), Json::Int(Stats::read(&self.stats.compiles).into())),
            ("sheds".into(), Json::Int(Stats::read(&self.stats.sheds).into())),
            ("timeouts".into(), Json::Int(Stats::read(&self.stats.timeouts).into())),
            ("errors".into(), Json::Int(Stats::read(&self.stats.errors).into())),
            ("disk_hits".into(), Json::Int(Stats::read(&self.stats.disk_hits).into())),
            ("disk_spills".into(), Json::Int(Stats::read(&self.stats.disk_spills).into())),
            ("disk_loaded".into(), Json::Int(Stats::read(&self.stats.disk_loaded).into())),
            ("disk_rejected".into(), Json::Int(Stats::read(&self.stats.disk_rejected).into())),
            ("disk_evicted".into(), Json::Int(Stats::read(&self.stats.disk_evicted).into())),
            ("peer_hits".into(), Json::Int(Stats::read(&self.stats.peer_hits).into())),
            ("peer_misses".into(), Json::Int(Stats::read(&self.stats.peer_misses).into())),
            ("peer_timeouts".into(), Json::Int(Stats::read(&self.stats.peer_timeouts).into())),
            ("peer_errors".into(), Json::Int(Stats::read(&self.stats.peer_errors).into())),
            ("peer_serves".into(), Json::Int(Stats::read(&self.stats.peer_serves).into())),
            ("hot_hits".into(), Json::Int(Stats::read(&self.stats.hot_hits).into())),
            ("cache_resident_bytes".into(), Json::Int(c.resident_bytes as i128)),
            ("cache_resident_count".into(), Json::Int(c.resident_count as i128)),
            ("cache_evictions".into(), Json::Int(c.evictions as i128)),
            ("cache_budget_bytes".into(), Json::Int(self.cache.budget_bytes() as i128)),
            ("workers".into(), Json::Int(self.config.workers as i128)),
            (
                "open_connections".into(),
                Json::Int(Stats::read(&self.stats.open_connections).into()),
            ),
            ("inflight_frames".into(), Json::Int(Stats::read(&self.stats.inflight_frames).into())),
            (
                "dispatch_queue_depth".into(),
                Json::Int(Stats::read(&self.stats.dispatch_queue_depth).into()),
            ),
            (
                "dispatch_batch_max".into(),
                Json::Int(Stats::read(&self.stats.dispatch_batch_max).into()),
            ),
            ("latency_count".into(), Json::Int(l.count as i128)),
            ("latency_p50_us".into(), Json::Int(l.p50_us.into())),
            ("latency_p99_us".into(), Json::Int(l.p99_us.into())),
            ("latency_max_us".into(), Json::Int(l.max_us.into())),
        ]
    }

    /// The Prometheus-style plaintext scrape: one `pitchforkd_<name>
    /// <value>` line per stat, same names and order as the JSON form.
    pub fn stats_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.stat_members() {
            if let Json::Int(n) = value {
                out.push_str("pitchforkd_");
                out.push_str(&name);
                out.push(' ');
                out.push_str(&n.to_string());
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{attach_tag_rendered, parse_request};

    fn service() -> Service {
        Service::new(ServiceConfig {
            cache_bytes: 16 << 20,
            workers: 2,
            default_timeout_ms: None,
            cache_dir: None,
            cache_max_bytes: None,
            cache_max_age: None,
        })
    }

    fn handle_src(svc: &Service, src: &str) -> Json {
        let frame = crate::json::parse(src).unwrap();
        match parse_request(&frame) {
            Ok(req) => svc.handle_local(&req),
            Err(e) => error_response(&e),
        }
    }

    const SAT_ADD: &str = "u8(min(u16(a_u8) + u16(b_u8), 255))";

    #[test]
    fn ping_pongs() {
        let svc = service();
        let v = handle_src(&svc, r#"{"op":"ping"}"#);
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("pong").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn compile_then_hit() {
        let svc = service();
        let req = format!(r#"{{"op":"compile","expr":"{SAT_ADD}","lanes":16,"isa":"arm"}}"#);
        let first = handle_src(&svc, &req);
        assert_eq!(first.get("ok").unwrap().as_bool(), Some(true), "{first:?}");
        assert_eq!(first.get("cached").unwrap().as_bool(), Some(false));
        assert_eq!(first.get("lowered").unwrap().as_str(), Some("arm.uqadd(a_u8, b_u8)"));

        let second = handle_src(&svc, &req);
        assert_eq!(second.get("cached").unwrap().as_bool(), Some(true));
        assert_eq!(second.get("source").unwrap().as_str(), Some("hit"));
        // Identical payload either way.
        assert_eq!(first.get("program"), second.get("program"));
        assert_eq!(first.get("key"), second.get("key"));
        assert_eq!(Stats::read(&svc.stats().compiles), 1);
    }

    #[test]
    fn compile_bodies_match_the_rendered_members() {
        // Every artifact-bearing reply is the hit body with its source
        // swapped and its own members spliced in, tagged by the event
        // loop's splice: byte for byte `ok_response` of the full member
        // list, tag last, for every source.
        let svc = service();
        let tag = Json::str("t-1");
        let tagged = |mut body: String| {
            attach_tag_rendered(&mut body, &tag);
            body
        };
        let ints = |lanes: &[i128]| Json::Array(lanes.iter().map(|&v| Json::Int(v)).collect());
        let cases: [(String, Vec<(&str, Json)>); 3] = [
            (format!(r#"{{"op":"compile","expr":"{SAT_ADD}","lanes":16,"isa":"hvx"}}"#), vec![]),
            (
                format!(
                    r#"{{"op":"run","expr":"{SAT_ADD}","lanes":4,"isa":"arm",
                        "inputs":{{"a_u8":[250,1,128,255],"b_u8":[10,2,128,255]}}}}"#
                ),
                vec![("elem", Json::str("u8")), ("output", ints(&[255, 3, 255, 255]))],
            ),
            (
                r#"{"op":"run_pipeline","expr":"rounding_halving_add(in__p0_p0_u8, in__p1_p0_u8)",
                    "lanes":4,"isa":"hvx","inputs":{"in":{"elem":"u8","rows":[[10,20,30,40]]}}}"#
                    .to_string(),
                vec![
                    ("elem", Json::str("u8")),
                    ("width", Json::Int(4)),
                    ("height", Json::Int(1)),
                    ("rows", Json::Array(vec![ints(&[15, 25, 35, 40])])),
                ],
            ),
        ];
        for (src, extra) in cases {
            let request = parse_request(&crate::json::parse(&src).unwrap()).unwrap();
            let computed = svc.reply(&request, None, None);
            let hit = svc.reply(&request, None, None);
            let (Request::Compile(spec)
            | Request::Run { spec, .. }
            | Request::RunPipeline { spec, .. }) = &request
            else {
                unreachable!()
            };
            let key_fp = svc.resolve(spec).unwrap().key_fp;
            let (expr, served, source) = svc.artifact(spec, None, None).unwrap();
            assert_eq!(source, Source::Hit);
            let (art, lowered, program) =
                (&served.art, served.art.lowered.to_string(), served.art.program.render());
            let bytes = art.approx_bytes() + lowered.len() + program.len();
            let render = |source| {
                let name = match source {
                    Source::Hit => "hit",
                    Source::Computed => "computed",
                    Source::Joined => "joined",
                };
                let mut members = vec![
                    ("cached".into(), Json::Bool(source == Source::Hit)),
                    ("source".into(), Json::str(name)),
                ];
                members.extend([
                    ("key".into(), Json::str(format!("{key_fp:016x}"))),
                    ("isa".into(), Json::str(art.isa.short_name())),
                    ("lowered".into(), Json::str(lowered.clone())),
                    ("program".into(), Json::str(program.clone())),
                    ("cycles".into(), Json::Int(art.cycles.into())),
                    ("ops".into(), Json::Int(art.exe.op_count() as i128)),
                    ("artifact_bytes".into(), Json::Int(bytes as i128)),
                ]);
                members.extend(extra.iter().map(|(k, v)| (k.to_string(), v.clone())));
                members.push(("tag".into(), tag.clone()));
                ok_response(members).render()
            };
            assert_eq!(svc.handle_local(&request).render(), hit, "{src}");
            assert_eq!(tagged(computed), render(Source::Computed), "{src}");
            assert_eq!(tagged(hit), render(Source::Hit), "{src}");
            // A joined reply takes the worker's path with its own source.
            for source in [Source::Hit, Source::Computed, Source::Joined] {
                let body = match &request {
                    Request::Compile(_) => served.body(source, &[]),
                    Request::Run { inputs, .. } => served.run(&expr, source, inputs).unwrap(),
                    Request::RunPipeline { inputs, jobs, .. } => {
                        served.run_pipeline(&expr, source, inputs, *jobs).unwrap()
                    }
                    _ => unreachable!(),
                };
                assert_eq!(tagged(body), render(source), "{src} {source:?}");
            }
        }
    }

    #[test]
    fn a_leave_out_that_drops_no_rule_shares_the_full_rule_selector() {
        use fpir::machine::ALL_ISAS;
        use fpir_workloads::{all_workloads, extra_workloads, unrolled_workloads};
        let svc = service();
        let selectors = || svc.selectors.lock().unwrap().len();
        let warmed = selectors();
        let spec = |isa, leave_out: &str| CompileSpec {
            expr: SAT_ADD.into(),
            lanes: 16,
            isa,
            synthesized_rules: true,
            leave_out: Some(leave_out.into()),
            timeout_ms: None,
        };
        // The precomputed answer is leave-one-out's own, for every
        // workload name and for a name no rule comes from.
        let workloads = all_workloads().into_iter().chain(extra_workloads());
        let mut names: Vec<String> =
            workloads.chain(unrolled_workloads()).map(|w| w.name().to_string()).collect();
        names.push("no-such-benchmark".into());
        let loaded = |pf: &Pitchfork| pf.lift_rule_set().len() + pf.lower_rule_set().len();
        let mut dropping = 0;
        for isa in ALL_ISAS {
            let full = loaded(&Pitchfork::new(isa));
            for name in &names {
                let left = loaded(&Pitchfork::with_config(Config::new(isa).leaving_out(name)));
                let drops = svc.leaves_out_a_rule(&spec(isa, name));
                assert_eq!(drops, left < full, "{isa} {name}");
                dropping += usize::from(drops);
                let hand = CompileSpec { synthesized_rules: false, ..spec(isa, name) };
                assert!(!svc.leaves_out_a_rule(&hand), "hand-written rules are never left out");
            }
        }
        assert!(dropping > 0);
        // Junk names key their requests without growing the registry,
        // and each reply is a direct compile's under that leave-out.
        let expr = fpir::parser::parse_expr(SAT_ADD, 16).unwrap();
        for i in 0..1000 {
            let (isa, name) = (ALL_ISAS[i % ALL_ISAS.len()], format!("junk-{i}"));
            let req = Request::Compile(spec(isa, &name));
            assert!(matches!(svc.classify(&req), CacheDecision::Dispatch(Some(_))));
            let pf = Pitchfork::with_config(Config::new(isa).leaving_out(name));
            let art = pitchfork::compile_to_executable(&pf, &expr).unwrap();
            let key = crate::key::tests::key_for(pf.config(), &expr);
            let (direct, _) = Served::new(art, key.fingerprint()).unwrap();
            assert_eq!(svc.reply(&req, None, None), direct.body(Source::Computed, &[]), "{i}");
        }
        assert_eq!(selectors(), warmed);
        // A name that drops a rule gets its own selector.
        let _ = svc.classify(&Request::Compile(spec(fpir::Isa::ArmNeon, "matmul")));
        assert_eq!(selectors(), warmed + 1);
    }

    #[test]
    fn a_lowered_print_past_the_frame_limit_is_an_error() {
        // Nested `absd` lowers on x86 to a DAG whose unique nodes grow
        // linearly with the depth while its printed tree grows about 3x
        // per level: 60 MB at depth 16. The print stops at the frame
        // limit, the request gets the oversized-response error, and
        // nothing is cached.
        let svc = service();
        for depth in [16, 24] {
            let spec = CompileSpec {
                expr: nested_absd(depth),
                lanes: 32,
                isa: fpir::Isa::X86Avx2,
                synthesized_rules: true,
                leave_out: None,
                timeout_ms: None,
            };
            let v = svc.handle_local(&Request::Compile(spec));
            assert_eq!(v.get("ok").unwrap().as_bool(), Some(false), "depth {depth}");
            assert_eq!(v.get("code").unwrap().as_str(), Some("internal"), "depth {depth}");
            assert_eq!(
                v.get("error").unwrap().as_str(),
                Some(error_response(&frame_too_large()).get("error").unwrap().as_str().unwrap())
            );
        }
        assert_eq!(Stats::read(&svc.stats().compiles), 2);
        assert_eq!(svc.cache_stats().resident_count, 0, "nothing is cached");
        let v = handle_src(
            &svc,
            &format!(r#"{{"op":"compile","expr":"{SAT_ADD}","lanes":16,"isa":"x86"}}"#),
        );
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{v:?}");
    }

    #[test]
    fn a_refused_key_is_answered_again_without_compiling() {
        // The same oversized request twice, through the worker entry and
        // through `classify`, then as a `run`: one compile, the same error
        // frame each time, and the refused key answers inline.
        let svc = service();
        let spec = CompileSpec {
            expr: nested_absd(16),
            lanes: 32,
            isa: fpir::Isa::X86Avx2,
            synthesized_rules: true,
            leave_out: None,
            timeout_ms: None,
        };
        let want = error_response(&frame_too_large()).render();
        let compile = Request::Compile(spec.clone());
        assert_eq!(svc.handle_local(&compile).render(), want);
        assert_eq!(Stats::read(&svc.stats().compiles), 1);
        assert_eq!(svc.handle_local(&compile).render(), want);
        match svc.classify(&compile) {
            CacheDecision::Reply(body) => assert_eq!(body, want),
            other => panic!("a refused key needs no worker: {other:?}"),
        }
        let run = Request::Run { spec, inputs: Vec::new() };
        assert_eq!(svc.handle_local(&run).render(), want);
        assert_eq!(Stats::read(&svc.stats().compiles), 1, "the key compiled once");
        assert_eq!(Stats::read(&svc.stats().errors), 4);
        assert_eq!(svc.cache_stats().resident_count, 0, "nothing is cached");
    }

    /// `depth` nested `absd(…, b_u8)` around `a_u8`.
    fn nested_absd(depth: usize) -> String {
        (0..depth).fold("a_u8".to_string(), |e, _| format!("absd({e}, b_u8)"))
    }

    #[test]
    fn a_spilled_artifact_past_the_print_bound_is_rejected_at_startup() {
        let dir = std::env::temp_dir().join(format!("pfservice-bound-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let pf = Pitchfork::new(fpir::Isa::X86Avx2);
        let expr = fpir::parser::parse_expr(&nested_absd(16), 32).unwrap();
        let art = pitchfork::compile_to_executable(&pf, &expr).unwrap();
        let key = crate::key::tests::key_for(pf.config(), &expr);
        DiskStore::open(&dir).unwrap().spill(&key, &art).unwrap();
        let svc = Service::new(ServiceConfig { cache_dir: Some(dir.clone()), ..service().config });
        assert_eq!(Stats::read(&svc.stats().disk_rejected), 1);
        assert_eq!(Stats::read(&svc.stats().disk_loaded), 0);
        assert_eq!(svc.cache_stats().resident_count, 0, "nothing is cached");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "the entry is unlinked");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn served_compile_matches_direct_driver_call() {
        let svc = service();
        let req = format!(r#"{{"op":"compile","expr":"{SAT_ADD}","lanes":16,"isa":"x86"}}"#);
        let v = handle_src(&svc, &req);
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{v:?}");
        let pf = Pitchfork::new(fpir::Isa::X86Avx2);
        let e = fpir::parser::parse_expr(SAT_ADD, 16).unwrap();
        let direct = pitchfork::compile_to_executable(&pf, &e).unwrap();
        assert_eq!(v.get("lowered").unwrap().as_str(), Some(direct.lowered.to_string().as_str()));
        assert_eq!(v.get("program").unwrap().as_str(), Some(direct.program.render().as_str()));
        assert_eq!(v.get("cycles").unwrap().as_int(), Some(direct.cycles.into()));
    }

    #[test]
    fn run_executes_and_matches_the_interpreter() {
        let svc = service();
        let v = handle_src(
            &svc,
            &format!(
                r#"{{"op":"run","expr":"{SAT_ADD}","lanes":4,"isa":"arm",
                    "inputs":{{"a_u8":[250,1,128,255],"b_u8":[10,2,128,255]}}}}"#
            ),
        );
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{v:?}");
        let out: Vec<i128> = v
            .get("output")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|x| x.as_int().unwrap())
            .collect();
        assert_eq!(out, vec![255, 3, 255, 255]);
        assert_eq!(v.get("elem").unwrap().as_str(), Some("u8"));
    }

    #[test]
    fn run_pipeline_matches_reference() {
        let svc = service();
        // Rounding average of in(x,y) and in(x+1,y).
        let expr = "rounding_halving_add(in__p0_p0_u8, in__p1_p0_u8)";
        let v = handle_src(
            &svc,
            &format!(
                r#"{{"op":"run_pipeline","expr":"{expr}","lanes":4,"isa":"hvx",
                    "inputs":{{"in":{{"elem":"u8","rows":[[10,20,30,40]]}}}},"jobs":2}}"#
            ),
        );
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{v:?}");
        let rows = v.get("rows").unwrap().as_array().unwrap();
        let row0: Vec<i128> =
            rows[0].as_array().unwrap().iter().map(|x| x.as_int().unwrap()).collect();
        assert_eq!(row0, vec![15, 25, 35, 40]);
    }

    #[test]
    fn bad_requests_are_structured_errors() {
        let svc = service();
        // Unparseable expression.
        let v = handle_src(&svc, r#"{"op":"compile","expr":"][","lanes":4,"isa":"arm"}"#);
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("code").unwrap().as_str(), Some("bad_request"));
        // Missing run input.
        let v = handle_src(
            &svc,
            &format!(r#"{{"op":"run","expr":"{SAT_ADD}","lanes":4,"isa":"arm","inputs":{{}}}}"#),
        );
        assert_eq!(v.get("code").unwrap().as_str(), Some("bad_request"));
        // Out-of-range lane.
        let v = handle_src(
            &svc,
            &format!(
                r#"{{"op":"run","expr":"{SAT_ADD}","lanes":4,"isa":"arm",
                    "inputs":{{"a_u8":[300,0,0,0],"b_u8":[0,0,0,0]}}}}"#
            ),
        );
        assert_eq!(v.get("code").unwrap().as_str(), Some("bad_request"));
        // Non-tap variables can't be served as a pipeline.
        let v = handle_src(
            &svc,
            &format!(
                r#"{{"op":"run_pipeline","expr":"{SAT_ADD}","lanes":4,"isa":"arm",
                    "inputs":{{"a":{{"elem":"u8","rows":[[1]]}}}}}}"#
            ),
        );
        assert_eq!(v.get("code").unwrap().as_str(), Some("bad_request"));
        // The error path leaves the service healthy.
        assert_eq!(handle_src(&svc, r#"{"op":"ping"}"#).get("ok").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn uncompilable_expression_is_a_compile_error() {
        let svc = service();
        // 64-bit lanes don't exist on HVX.
        let v =
            handle_src(&svc, r#"{"op":"compile","expr":"a_i64 + b_i64","lanes":4,"isa":"hvx"}"#);
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("code").unwrap().as_str(), Some("compile_error"));
    }

    #[test]
    fn stats_reflect_traffic() {
        let svc = service();
        let req = format!(r#"{{"op":"compile","expr":"{SAT_ADD}","lanes":16,"isa":"arm"}}"#);
        handle_src(&svc, &req);
        handle_src(&svc, &req);
        let v = handle_src(&svc, r#"{"op":"stats"}"#);
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("cache_hits").unwrap().as_int(), Some(1));
        assert_eq!(v.get("cache_misses").unwrap().as_int(), Some(1));
        assert_eq!(v.get("compiles").unwrap().as_int(), Some(1));
        assert_eq!(v.get("requests").unwrap().as_int(), Some(3));
        assert!(v.get("latency_p50_us").unwrap().as_int().is_some());
        assert!(v.get("cache_resident_bytes").unwrap().as_int().unwrap() > 0);
    }

    #[test]
    fn distinct_configs_do_not_share_artifacts() {
        let svc = service();
        let a = handle_src(
            &svc,
            &format!(r#"{{"op":"compile","expr":"{SAT_ADD}","lanes":16,"isa":"arm"}}"#),
        );
        let b = handle_src(
            &svc,
            &format!(
                r#"{{"op":"compile","expr":"{SAT_ADD}","lanes":16,"isa":"arm","synthesized_rules":false}}"#
            ),
        );
        assert_ne!(a.get("key"), b.get("key"));
        assert_eq!(Stats::read(&svc.stats().compiles), 2, "no false sharing");
    }

    #[test]
    fn tiny_deadline_times_out_and_cache_stays_consistent() {
        let svc = service();
        // A 1 ms budget that is already spent by the time the compile
        // task reaches its first phase check. (The queue wait plus
        // selector lookup comfortably exceeds it.)
        let req = format!(
            r#"{{"op":"compile","expr":"{SAT_ADD}","lanes":16,"isa":"x86","timeout_ms":1}}"#
        );
        // Burn the budget deterministically: the deadline is computed at
        // admission, so sleeping 2 ms inside the phase hook isn't
        // possible from here — instead rely on the first check seeing an
        // expired deadline only if the machine is slow. Accept either
        // outcome, but in both cases the cache must stay consistent.
        let v = handle_src(&svc, &req);
        let ok = v.get("ok").unwrap().as_bool() == Some(true);
        if !ok {
            assert_eq!(v.get("code").unwrap().as_str(), Some("timeout"));
        }
        // Either way, a follow-up request with a sane budget succeeds
        // and matches the direct compiler.
        let v2 = handle_src(
            &svc,
            &format!(r#"{{"op":"compile","expr":"{SAT_ADD}","lanes":16,"isa":"x86"}}"#),
        );
        assert_eq!(v2.get("ok").unwrap().as_bool(), Some(true), "{v2:?}");
        let pf = Pitchfork::new(fpir::Isa::X86Avx2);
        let e = fpir::parser::parse_expr(SAT_ADD, 16).unwrap();
        let direct = pitchfork::compile_to_executable(&pf, &e).unwrap();
        assert_eq!(v2.get("program").unwrap().as_str(), Some(direct.program.render().as_str()));
    }
}
