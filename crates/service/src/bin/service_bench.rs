//! `service-bench` — serving-layer latency and throughput benchmark.
//!
//! Measures two layers:
//!
//! * **in-process** — drives a [`Service`] directly (the same object
//!   `pitchforkd` wraps in sockets), reporting cold compile latency
//!   (guaranteed miss, full lift → lower → legalize → emit → link),
//!   warm latency (cache hit, min over `--warm-reps` probes), and the
//!   warm/cold speedup geomean;
//! * **over the socket** — starts the readiness-driven event-loop
//!   server on a Unix socket and sweeps sustained throughput at
//!   1/2/4/8/16 serial client threads, plus a **pipelined** mode where
//!   each connection keeps a window of tagged frames in flight
//!   (protocol v2), so one poll iteration carries many requests.
//!
//! The suite is every figure workload on every registered backend,
//! minus the combinations a backend's inherent lane-width limit rules
//! out (probed with a direct compile; a target with full-width lanes
//! must serve everything, and limited targets record their skips under
//! `capability` instead of silently dropping them).
//!
//! Gates, all fatal (exit 1, full runs only — `--smoke` reports but
//! does not gate):
//!
//! * every served response must be **bit-identical** (lowered
//!   expression, rendered program, cycle price) to a direct
//!   [`pitchfork::compile_to_executable`] call — the served path may
//!   never change what the compiler produces (gated in smoke runs too);
//! * warm latency must beat cold by ≥10x on the suite geomean;
//! * the socket throughput curve must be monotone non-decreasing from
//!   1→2→4→8 client threads (batched readiness dispatch has to beat
//!   thread-per-connection, which peaked at 2 threads), and 4-thread
//!   throughput must exceed the old 43.3k req/s peak.
//!
//! Writes `BENCH_service.json`.
//!
//! Usage: `cargo run --release -p pitchfork-service --bin service-bench
//!         -- [--smoke] [--out PATH]`

use fpir::Isa;
use fpir_halide::{run_program_reference, run_tiled_exe};
use fpir_isa::target;
use fpir_workloads::{all_workloads, LANES};
use pitchfork::{compile_to_executable, Config, Pitchfork};
use pitchfork_service::protocol::CompileSpec;
use pitchfork_service::{
    serve_with, write_frame, Client, Endpoint, Json, Request, ServeOptions, Service, ServiceConfig,
    Stats,
};
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// The thread-per-connection server's best sweep point (2 threads,
/// previous `BENCH_service.json`); the event loop must beat it at 4.
const OLD_PEAK_RPS: f64 = 43_300.0;

/// The pipelined sweep's window depths (tagged frames in flight per
/// connection). 128 is the server's default `max_pipeline` cap.
const PIPELINE_DEPTHS: &[usize] = &[1, 2, 8, 32, 64, 128];

/// How much faster a restart-warm cold start must be (p99, seen keys)
/// than a genuinely cold daemon on an empty cache dir.
const RESTART_WARM_SPEEDUP: f64 = 5.0;

/// Fleet gate: total compiles across the fleet may exceed the unique
/// key count only by this factor (rendezvous forwarding should make it
/// exactly 1.0; the slack absorbs a lost race, not a design failure).
const FLEET_COMPILE_SLACK: f64 = 1.25;

/// One workload × target measurement.
struct Row {
    workload: String,
    isa: Isa,
    cold_ns: u128,
    warm_ns: u128,
}

fn spec(expr: &str, isa: Isa) -> CompileSpec {
    CompileSpec {
        expr: expr.to_string(),
        lanes: LANES,
        isa,
        synthesized_rules: true,
        leave_out: None,
        timeout_ms: None,
    }
}

fn get<'a>(v: &'a Json, k: &str) -> Option<&'a Json> {
    v.get(k)
}

/// The wire bytes of one `compile` request (defaults match [`spec`]).
fn encode_compile(expr: &str, isa: Isa, tag: Option<&str>) -> Vec<u8> {
    let mut members = vec![
        ("op".to_string(), Json::str("compile")),
        ("expr".to_string(), Json::str(expr)),
        ("lanes".to_string(), Json::Int(i128::from(LANES))),
        ("isa".to_string(), Json::str(isa.slug())),
    ];
    if let Some(t) = tag {
        members.push(("tag".to_string(), Json::str(t)));
    }
    let mut bytes = Vec::new();
    write_frame(&mut bytes, &Json::Object(members)).expect("in-memory write");
    bytes
}

/// Read one response frame through a client-side buffer (typically one
/// `read` syscall per frame), asserting only the `{"ok":true` prefix —
/// byte-level equality with the direct compiler is gated separately,
/// and parsing every response would bench the client's JSON parser,
/// not the server.
fn read_ok(stream: &mut UnixStream, acc: &mut Vec<u8>) {
    loop {
        if acc.len() >= 4 {
            let n = u32::from_be_bytes([acc[0], acc[1], acc[2], acc[3]]) as usize;
            if acc.len() >= 4 + n {
                assert!(
                    acc[4..4 + n].starts_with(b"{\"ok\":true"),
                    "request failed: {}",
                    String::from_utf8_lossy(&acc[4..4 + n])
                );
                acc.drain(..4 + n);
                return;
            }
        }
        let mut chunk = [0u8; 16384];
        let got = stream.read(&mut chunk).expect("response read");
        assert!(got > 0, "server closed mid-response");
        acc.extend_from_slice(&chunk[..got]);
    }
}

#[repr(C)]
struct SchedParam {
    priority: i32,
}
extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// Put the calling client thread under `SCHED_BATCH` (no privilege
/// needed to lower one's own policy). On this bench's single-core
/// containers the clients otherwise wakeup-preempt the server loop on
/// every response write, and that preemption cost scales with the
/// thread count — batch policy lets the loop finish whole iterations
/// and makes the sweep measure the server, not CFS wakeup heuristics.
fn set_batch_sched() {
    const SCHED_BATCH: i32 = 3;
    let p = SchedParam { priority: 0 };
    unsafe {
        sched_setscheduler(0, SCHED_BATCH, &p);
    }
}

/// Sustained serial throughput: `threads` connections, each sending one
/// untagged request and waiting for its response (the v1 pattern).
fn sweep_point(path: &std::path::Path, frames: &[Vec<u8>], threads: usize, total: usize) -> f64 {
    let per_thread = total / threads;
    let gate = Arc::new(Barrier::new(threads + 1));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let gate = Arc::clone(&gate);
            let frames = frames.to_vec();
            let mut stream = UnixStream::connect(path).expect("connect");
            std::thread::spawn(move || {
                set_batch_sched();
                let mut body = Vec::new();
                gate.wait();
                for i in 0..per_thread {
                    let frame = &frames[(i + t) % frames.len()];
                    stream.write_all(frame).expect("request write");
                    read_ok(&mut stream, &mut body);
                }
            })
        })
        .collect();
    gate.wait();
    let t0 = Instant::now();
    for h in handles {
        h.join().expect("client thread");
    }
    (threads * per_thread) as f64 / t0.elapsed().as_secs_f64().max(1e-9)
}

/// Pipelined throughput: `threads` connections, each writing `depth`
/// tagged requests back-to-back (one `write`), then reading the window
/// of responses.
fn pipelined_point(
    path: &std::path::Path,
    batches: &[Vec<u8>],
    threads: usize,
    total: usize,
    depth: usize,
) -> f64 {
    let windows_per_thread = (total / threads / depth).max(1);
    let gate = Arc::new(Barrier::new(threads + 1));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let gate = Arc::clone(&gate);
            let batches = batches.to_vec();
            let mut stream = UnixStream::connect(path).expect("connect");
            std::thread::spawn(move || {
                set_batch_sched();
                let mut body = Vec::new();
                gate.wait();
                for i in 0..windows_per_thread {
                    stream.write_all(&batches[(i + t) % batches.len()]).expect("batch write");
                    for _ in 0..depth {
                        read_ok(&mut stream, &mut body);
                    }
                }
            })
        })
        .collect();
    gate.wait();
    let t0 = Instant::now();
    for h in handles {
        h.join().expect("client thread");
    }
    (threads * windows_per_thread * depth) as f64 / t0.elapsed().as_secs_f64().max(1e-9)
}

/// p99 over raw nanosecond samples (the max for fewer than 100).
fn p99_ns(samples: &[u128]) -> u128 {
    let mut xs = samples.to_vec();
    xs.sort_unstable();
    let idx = (xs.len().saturating_mul(99)).div_ceil(100).saturating_sub(1);
    xs.get(idx.min(xs.len() - 1)).copied().unwrap_or(0)
}

/// One untagged compile request as a [`Json`] value (for the blocking
/// [`Client`] used by the scenario drivers).
fn compile_json(expr: &str, isa: Isa, synthesized_rules: bool) -> Json {
    let mut members = vec![
        ("op".to_string(), Json::str("compile")),
        ("expr".to_string(), Json::str(expr)),
        ("lanes".to_string(), Json::Int(i128::from(LANES))),
        ("isa".to_string(), Json::str(isa.slug())),
    ];
    if !synthesized_rules {
        members.push(("synthesized_rules".to_string(), Json::Bool(false)));
    }
    Json::Object(members)
}

/// `true` when the response's lowered expression, rendered program, and
/// cycle price all match the direct compiler's.
fn matches_truth(v: &Json, truth: &(String, String, u64)) -> bool {
    v.get("lowered").and_then(Json::as_str) == Some(truth.0.as_str())
        && v.get("program").and_then(Json::as_str) == Some(truth.1.as_str())
        && v.get("cycles").and_then(Json::as_int) == Some(i128::from(truth.2))
}

/// What the restart-warm scenario measured.
struct RestartWarm {
    cold_p99_ns: u128,
    warm_p99_ns: u128,
    disk_loaded: u64,
    disk_spills: u64,
}

/// Restart-warm: a daemon with an empty `--cache-dir` compiles the
/// whole suite (true cold starts, spilling each artifact), is dropped,
/// and a second daemon on the same directory re-admits the spill store
/// at startup — every request it then sees must be a cache hit,
/// bit-identical to the direct compiler, and its cold-start p99 must
/// beat the empty-dir p99 by [`RESTART_WARM_SPEEDUP`].
fn restart_warm_scenario(
    combos: &[(String, String, Isa)],
    truth: &[(String, String, u64)],
    gate_failed: &mut bool,
) -> RestartWarm {
    let dir = std::env::temp_dir().join(format!("service-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServiceConfig {
        cache_bytes: 256 << 20,
        workers: 2,
        default_timeout_ms: None,
        cache_dir: Some(dir.clone()),
        cache_max_bytes: None,
        cache_max_age: None,
    };

    // Generation A: an empty cache dir, so every first compile pays the
    // full pipeline. These timings are the "cold daemon" baseline.
    let a = Service::new(config.clone());
    let mut cold_ns: Vec<u128> = Vec::with_capacity(combos.len());
    for ((name, expr, isa), t) in combos.iter().zip(truth) {
        let req = Request::Compile(spec(expr, *isa));
        let t0 = Instant::now();
        let v = a.handle_local(&req);
        cold_ns.push(t0.elapsed().as_nanos());
        if get(&v, "source").and_then(Json::as_str) != Some("computed") || !matches_truth(&v, t) {
            eprintln!("DIVERGENCE {name}/{isa}: cold spill-store response is wrong: {v:?}");
            *gate_failed = true;
        }
    }
    let disk_spills = Stats::read(&a.stats().disk_spills);
    drop(a);

    // Generation B: the same directory. Startup re-admits every spilled
    // artifact, so the first request for every seen key is already a
    // hit — the restart-warm promise.
    let b = Service::new(config);
    let disk_loaded = Stats::read(&b.stats().disk_loaded);
    let mut warm_ns: Vec<u128> = Vec::with_capacity(combos.len());
    for ((name, expr, isa), t) in combos.iter().zip(truth) {
        let req = Request::Compile(spec(expr, *isa));
        let t0 = Instant::now();
        let v = b.handle_local(&req);
        warm_ns.push(t0.elapsed().as_nanos());
        if get(&v, "source").and_then(Json::as_str) != Some("hit") {
            eprintln!(
                "service-bench: {name}/{isa} was not restart-warm (source {:?})",
                get(&v, "source")
            );
            *gate_failed = true;
        }
        if !matches_truth(&v, t) {
            eprintln!("DIVERGENCE {name}/{isa}: restart-warm response differs from the compiler");
            *gate_failed = true;
        }
    }
    if disk_loaded != combos.len() as u64 {
        eprintln!(
            "service-bench: restart loaded {disk_loaded} of {} spilled artifacts",
            combos.len()
        );
        *gate_failed = true;
    }
    let _ = std::fs::remove_dir_all(&dir);
    RestartWarm {
        cold_p99_ns: p99_ns(&cold_ns),
        warm_p99_ns: p99_ns(&warm_ns),
        disk_loaded,
        disk_spills,
    }
}

/// What the fleet scenario measured.
struct FleetReport {
    daemons: usize,
    unique_keys: usize,
    total_compiles: u64,
    peer_hits: u64,
    peer_misses: u64,
    peer_timeouts: u64,
    peer_errors: u64,
    fallback_keys: usize,
}

/// Fleet: three daemons on Unix sockets, each configured with the other
/// two as peers. Phase 1 sends every suite key to every daemon — each
/// key must compile exactly once fleet-wide (at its rendezvous owner),
/// the other daemons serving it via `peer_get`, all responses
/// bit-identical to the direct compiler. Phase 2 shuts one daemon down
/// and sweeps fresh keys (hand-written rules only) through the
/// survivors: keys owned by the dead daemon must degrade to local
/// compiles, never errors.
fn fleet_scenario(
    combos: &[(String, String, Isa)],
    truth: &[(String, String, u64)],
    gate_failed: &mut bool,
) -> FleetReport {
    const N: usize = 3;
    let pid = std::process::id();
    let socks: Vec<PathBuf> = (0..N)
        .map(|i| std::env::temp_dir().join(format!("service-bench-fleet-{pid}-{i}.sock")))
        .collect();
    for s in &socks {
        let _ = std::fs::remove_file(s);
    }
    let eps: Vec<Endpoint> = socks.iter().map(|s| Endpoint::Unix(s.clone())).collect();
    let svcs: Vec<Arc<Service>> = (0..N)
        .map(|_| {
            Arc::new(Service::new(ServiceConfig {
                cache_bytes: 256 << 20,
                workers: 2,
                default_timeout_ms: None,
                cache_dir: None,
                cache_max_bytes: None,
                cache_max_age: None,
            }))
        })
        .collect();
    let mut servers: Vec<_> = (0..N)
        .map(|i| {
            let svc = Arc::clone(&svcs[i]);
            let ep = eps[i].clone();
            let opts = ServeOptions {
                peers: eps
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, e)| e.clone())
                    .collect(),
                peer_timeout_ms: 3000,
                ..ServeOptions::default()
            };
            std::thread::spawn(move || serve_with(svc, &ep, &opts))
        })
        .collect();
    for s in &socks {
        for _ in 0..100 {
            if s.exists() {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    // Phase 1: every daemon sees every key; the fleet compiles each
    // once.
    let mut clients: Vec<Client> =
        eps.iter().map(|e| Client::connect(e).expect("fleet connect")).collect();
    for ((name, expr, isa), t) in combos.iter().zip(truth) {
        let req = compile_json(expr, *isa, true);
        for (d, client) in clients.iter_mut().enumerate() {
            let v = client.request(&req).expect("fleet request");
            if get(&v, "ok").and_then(Json::as_bool) != Some(true) || !matches_truth(&v, t) {
                eprintln!("DIVERGENCE {name}/{isa} via daemon {d}: fleet response is wrong: {v:?}");
                *gate_failed = true;
            }
        }
    }
    let total_compiles: u64 = svcs.iter().map(|s| Stats::read(&s.stats().compiles)).sum();
    let peer_hits: u64 = svcs.iter().map(|s| Stats::read(&s.stats().peer_hits)).sum();
    let peer_misses: u64 = svcs.iter().map(|s| Stats::read(&s.stats().peer_misses)).sum();

    // Phase 2: kill daemon 0, then sweep fresh keys (hand-written rules
    // only — a configuration nothing has cached) through the survivors.
    // Keys owned by the dead daemon must fall back to local compiles.
    let bye = clients[0]
        .request(&Json::Object(vec![("op".into(), Json::str("shutdown"))]))
        .expect("fleet shutdown");
    assert_eq!(get(&bye, "stopping").and_then(Json::as_bool), Some(true), "daemon 0 shutdown");
    drop(clients);
    servers.remove(0).join().expect("daemon 0 thread").expect("daemon 0 result");

    let mut fallback_keys = 0usize;
    for (name, expr, isa) in combos {
        // Hand-only truth; a workload that needs synthesized rules to
        // lower is skipped (the service would refuse it identically).
        let cfg = Config::new(*isa).hand_written_only();
        let pf = Pitchfork::with_config(cfg);
        let e = fpir::parser::parse_expr(expr, LANES).expect("suite expr parses");
        let Ok(art) = compile_to_executable(&pf, &e) else {
            continue;
        };
        let hand_truth = (art.lowered.to_string(), art.program.render(), art.cycles);
        fallback_keys += 1;
        let req = compile_json(expr, *isa, false);
        for (d, ep) in eps.iter().enumerate().skip(1) {
            let mut client = Client::connect(ep).expect("survivor connect");
            let v = client.request(&req).expect("survivor request");
            if get(&v, "ok").and_then(Json::as_bool) != Some(true)
                || !matches_truth(&v, &hand_truth)
            {
                eprintln!(
                    "DIVERGENCE {name}/{isa} via surviving daemon {d}: \
                     degraded response is wrong: {v:?}"
                );
                *gate_failed = true;
            }
        }
    }
    let peer_timeouts: u64 = svcs.iter().map(|s| Stats::read(&s.stats().peer_timeouts)).sum();
    let peer_errors: u64 = svcs.iter().map(|s| Stats::read(&s.stats().peer_errors)).sum();

    for ep in eps.iter().skip(1) {
        let mut client = Client::connect(ep).expect("shutdown connect");
        let _ = client.request(&Json::Object(vec![("op".into(), Json::str("shutdown"))]));
    }
    for h in servers {
        h.join().expect("fleet server thread").expect("fleet server result");
    }
    FleetReport {
        daemons: N,
        unique_keys: combos.len(),
        total_compiles,
        peer_hits,
        peer_misses,
        peer_timeouts,
        peer_errors,
        fallback_keys,
    }
}

fn main() -> ExitCode {
    let mut smoke = false;
    let mut out_path = String::from("BENCH_service.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => match args.next() {
                Some(p) => out_path = p,
                None => {
                    eprintln!("service-bench: `--out` expects a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: service-bench [--smoke] [--out PATH]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("service-bench: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let warm_reps = if smoke { 5 } else { 25 };
    let sweep_total = if smoke { 600 } else { 96_000 };
    let sweep_trials = if smoke { 1 } else { 4 };
    let mut workloads = all_workloads();
    if smoke {
        workloads.truncate(3);
    }

    // The suite: every figure workload on every registered backend,
    // minus what a backend's inherent limits rule out. Several
    // pipelines widen through 64-bit lanes internally, which e.g. HVX
    // does not have, so each workload is probed with a direct compile;
    // failures on limited targets are recorded, not silently dropped,
    // and a full-width target failing to compile anything is a bug.
    let mut gate_failed = false;
    let mut combos: Vec<(String, String, Isa)> = Vec::new();
    let mut truth: Vec<(String, String, u64)> = Vec::new();
    let mut capability: Vec<Capability> = fpir::machine::ALL_ISAS
        .into_iter()
        .map(|isa| Capability { isa, served: Vec::new(), skipped: Vec::new() })
        .collect();
    for wl in &workloads {
        let expr_src = wl.pipeline.expr.to_string();
        let e = fpir::parser::parse_expr(&expr_src, LANES)
            .unwrap_or_else(|e| panic!("{}: workload expr must parse: {e}", wl.name()));
        let exec_inputs = wl.random_inputs(64, 8, 0x5E2C);
        for (slot, isa) in fpir::machine::ALL_ISAS.into_iter().enumerate() {
            let pf = Pitchfork::new(isa);
            match compile_to_executable(&pf, &e) {
                Ok(art) => {
                    capability[slot].served.push(wl.name().to_string());
                    // The execution gate on the artifact the service
                    // serves: the fused executable must be bit-identical
                    // to the reference interpreter on a real image. The
                    // service's `run_pipeline` executes exactly this
                    // `exe`, so a fusion bug can never hide behind the
                    // compile-equality gates below.
                    let want = run_program_reference(
                        &wl.pipeline,
                        &art.program,
                        target(isa),
                        &exec_inputs,
                    )
                    .unwrap_or_else(|e| {
                        panic!("{}/{isa}: reference run must succeed: {e}", wl.name())
                    });
                    let got = run_tiled_exe(&wl.pipeline, &art.exe, &exec_inputs, 2)
                        .unwrap_or_else(|e| {
                            panic!("{}/{isa}: fused run must succeed: {e}", wl.name())
                        });
                    if got != want {
                        eprintln!(
                            "DIVERGENCE {name}/{isa}: fused executable diverges from the                              reference interpreter",
                            name = wl.name()
                        );
                        gate_failed = true;
                    }
                    combos.push((wl.name().to_string(), expr_src.clone(), isa));
                    truth.push((art.lowered.to_string(), art.program.render(), art.cycles));
                }
                // Only a backend with an inherent lane-width limit may
                // shrink its menu; full-width targets serve everything.
                Err(e) if target(isa).max_lane_bits() < 64 => {
                    capability[slot].skipped.push(wl.name().to_string());
                    let _ = e;
                }
                Err(e) => panic!("{}/{isa}: direct compile must succeed: {e}", wl.name()),
            }
        }
    }

    let svc = Arc::new(Service::new(ServiceConfig {
        cache_bytes: 256 << 20,
        workers: std::thread::available_parallelism().map_or(4, |n| n.get().min(8)),
        default_timeout_ms: None,
        cache_dir: None,
        cache_max_bytes: None,
        cache_max_age: None,
    }));

    let mut rows: Vec<Row> = Vec::new();

    for ((name, expr, isa), (lowered, program, cycles)) in combos.iter().zip(&truth) {
        let req = Request::Compile(spec(expr, *isa));

        // Cold: the first request for this key is a guaranteed miss.
        let t0 = Instant::now();
        let v = svc.handle_local(&req);
        let cold_ns = t0.elapsed().as_nanos();
        if get(&v, "ok").and_then(Json::as_bool) != Some(true) {
            eprintln!("service-bench: {name}/{isa} cold request failed: {v:?}");
            return ExitCode::FAILURE;
        }
        if get(&v, "source").and_then(Json::as_str) != Some("computed") {
            eprintln!("service-bench: {name}/{isa} first request was not a miss: {v:?}");
            return ExitCode::FAILURE;
        }

        // The equality gate on the cold (freshly computed) response.
        let same = get(&v, "lowered").and_then(Json::as_str) == Some(lowered.as_str())
            && get(&v, "program").and_then(Json::as_str) == Some(program.as_str())
            && get(&v, "cycles").and_then(Json::as_int) == Some(i128::from(*cycles));
        if !same {
            eprintln!("DIVERGENCE {name}/{isa}: served response differs from the direct compiler");
            gate_failed = true;
        }

        // Warm: the same request again, min over `warm_reps` probes; each
        // must be a cache hit and identical to the cold response.
        let mut warm_ns = u128::MAX;
        for _ in 0..warm_reps {
            let t0 = Instant::now();
            let w = svc.handle_local(&req);
            warm_ns = warm_ns.min(t0.elapsed().as_nanos());
            if get(&w, "source").and_then(Json::as_str) != Some("hit") {
                eprintln!("service-bench: {name}/{isa} warm request was not a hit: {w:?}");
                return ExitCode::FAILURE;
            }
            if get(&w, "lowered").and_then(Json::as_str) != Some(lowered.as_str())
                || get(&w, "program").and_then(Json::as_str) != Some(program.as_str())
            {
                eprintln!(
                    "DIVERGENCE {name}/{isa}: warm response differs from the direct compiler"
                );
                gate_failed = true;
            }
        }

        rows.push(Row { workload: name.clone(), isa: *isa, cold_ns, warm_ns });
    }

    // ── socket throughput against the warmed cache ──────────────────
    // One event-loop server in-process; clients are real Unix-socket
    // connections, so the sweep measures the transport the daemon
    // actually runs, not just `Service::handle_local`.
    let sock = std::env::temp_dir().join(format!("service-bench-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let ep = Endpoint::Unix(sock.clone());
    let server = {
        let svc = Arc::clone(&svc);
        let ep = ep.clone();
        std::thread::spawn(move || serve_with(svc, &ep, &ServeOptions::default()))
    };
    for _ in 0..100 {
        if sock.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    let frames: Vec<Vec<u8>> =
        combos.iter().map(|(_, expr, isa)| encode_compile(expr, *isa, None)).collect();

    let thread_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8, 16] };
    // Trials run as interleaved ladders (1..16, then again) and each
    // point keeps its best, so background-load drift during the sweep
    // lands on every thread count instead of biasing one.
    let mut rps: Vec<(usize, f64)> = thread_counts.iter().map(|&t| (t, 0.0f64)).collect();
    for _ in 0..sweep_trials {
        for (i, &threads) in thread_counts.iter().enumerate() {
            let r = sweep_point(&sock, &frames, threads, sweep_total);
            if r > rps[i].1 {
                rps[i].1 = r;
            }
        }
    }

    // Pipelined depth sweep: windows of `depth` tagged requests
    // concatenated so each window costs the client one `write`.
    let pipelined_threads = if smoke { 2 } else { 4 };
    let depths: &[usize] = if smoke { &[1, 8] } else { PIPELINE_DEPTHS };
    let mut pipelined: Vec<(usize, f64)> = Vec::with_capacity(depths.len());
    for &depth in depths {
        let batches: Vec<Vec<u8>> = combos
            .iter()
            .enumerate()
            .map(|(i, _)| {
                let mut batch = Vec::new();
                for d in 0..depth {
                    let (_, expr, isa) = &combos[(i + d) % combos.len()];
                    batch.extend_from_slice(&encode_compile(expr, *isa, Some(&format!("w{d}"))));
                }
                batch
            })
            .collect();
        let mut best = 0.0f64;
        for _ in 0..sweep_trials {
            best =
                best.max(pipelined_point(&sock, &batches, pipelined_threads, sweep_total, depth));
        }
        pipelined.push((depth, best));
    }

    // Stop the server the way a client would.
    {
        let mut stream = UnixStream::connect(&sock).expect("connect for shutdown");
        let mut frame = Vec::new();
        write_frame(&mut frame, &Json::Object(vec![("op".into(), Json::str("shutdown"))]))
            .expect("in-memory write");
        stream.write_all(&frame).expect("shutdown write");
        let mut body = Vec::new();
        read_ok(&mut stream, &mut body);
    }
    server.join().expect("server thread").expect("server result");

    // ── persistence & fleet scenarios ───────────────────────────────
    let restart = restart_warm_scenario(&combos, &truth, &mut gate_failed);
    let fleet = fleet_scenario(&combos, &truth, &mut gate_failed);

    let speedups: Vec<f64> =
        rows.iter().map(|r| r.cold_ns as f64 / r.warm_ns.max(1) as f64).collect();
    let geo = geomean(&speedups);

    println!("{:<18} {:>4} {:>12} {:>12} {:>9}", "workload", "isa", "cold", "warm", "speedup");
    for r in &rows {
        println!(
            "{:<18} {:>4} {:>10}us {:>10}us {:>8.1}x",
            r.workload,
            r.isa.slug(),
            r.cold_ns / 1_000,
            r.warm_ns / 1_000,
            r.cold_ns as f64 / r.warm_ns.max(1) as f64,
        );
    }
    println!("\ngeomean warm speedup (cold / warm): {geo:.1}x");
    for cap in &capability {
        if !cap.skipped.is_empty() {
            println!(
                "{}: served {} workloads, skipped {:?}",
                cap.isa.slug(),
                cap.served.len(),
                cap.skipped
            );
        }
    }
    for (threads, r) in &rps {
        println!("sustained (socket), {threads} client thread(s): {r:.0} req/s");
    }
    for (depth, r) in &pipelined {
        println!("pipelined (socket), {pipelined_threads} conns x depth {depth}: {r:.0} req/s");
    }
    let lat = svc.stats().latency_summary();
    println!(
        "service latency over {} requests: p50 {}us, p99 {}us",
        lat.count, lat.p50_us, lat.p99_us
    );
    let restart_speedup = restart.cold_p99_ns as f64 / restart.warm_p99_ns.max(1) as f64;
    println!(
        "restart-warm: cold p99 {}us -> warm p99 {}us ({restart_speedup:.1}x, \
         {} spilled / {} loaded)",
        restart.cold_p99_ns / 1_000,
        restart.warm_p99_ns / 1_000,
        restart.disk_spills,
        restart.disk_loaded
    );
    println!(
        "fleet of {}: {} unique keys, {} compiles, {} peer hits, {} misses, \
         {} timeouts, {} errors, {} fallback keys after daemon death",
        fleet.daemons,
        fleet.unique_keys,
        fleet.total_compiles,
        fleet.peer_hits,
        fleet.peer_misses,
        fleet.peer_timeouts,
        fleet.peer_errors,
        fleet.fallback_keys
    );

    let json = render_json(&RenderInputs {
        svc: &svc,
        rows: &rows,
        rps: &rps,
        pipelined: &pipelined,
        pipelined_threads,
        restart: &restart,
        fleet: &fleet,
        capability: &capability,
        geo,
        smoke,
        warm_reps,
        sweep_total,
    });
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("service-bench: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");

    if gate_failed {
        eprintln!("service-bench: FAILED — served responses diverged from the direct compiler");
        return ExitCode::FAILURE;
    }
    // The remaining bars are judged on the full suite; smoke runs are
    // too short and noise-sensitive to gate on (equality stays fatal
    // above).
    if !smoke {
        if geo < 10.0 {
            eprintln!(
                "service-bench: FAILED — warm speedup {geo:.1}x is below the 10x acceptance bar"
            );
            return ExitCode::FAILURE;
        }
        for pair in rps.windows(2).filter(|w| w[1].0 <= 8) {
            if pair[1].1 < pair[0].1 {
                eprintln!(
                    "service-bench: FAILED — throughput regressed {} → {} threads \
                     ({:.0} → {:.0} req/s); the curve must be monotone through 8",
                    pair[0].0, pair[1].0, pair[0].1, pair[1].1
                );
                return ExitCode::FAILURE;
            }
        }
        let at4 = rps.iter().find(|(t, _)| *t == 4).map_or(0.0, |(_, r)| *r);
        if at4 <= OLD_PEAK_RPS {
            eprintln!(
                "service-bench: FAILED — 4-thread throughput {at4:.0} req/s does not beat \
                 the thread-per-connection peak ({OLD_PEAK_RPS:.0})"
            );
            return ExitCode::FAILURE;
        }
        if restart_speedup < RESTART_WARM_SPEEDUP {
            eprintln!(
                "service-bench: FAILED — restart-warm cold-start p99 improved only \
                 {restart_speedup:.1}x (needs {RESTART_WARM_SPEEDUP}x)"
            );
            return ExitCode::FAILURE;
        }
        let compile_budget = (fleet.unique_keys as f64 * FLEET_COMPILE_SLACK).ceil() as u64;
        if fleet.total_compiles > compile_budget {
            eprintln!(
                "service-bench: FAILED — fleet compiled {} times for {} unique keys \
                 (budget {compile_budget})",
                fleet.total_compiles, fleet.unique_keys
            );
            return ExitCode::FAILURE;
        }
        if fleet.peer_hits < fleet.unique_keys as u64 {
            eprintln!(
                "service-bench: FAILED — only {} peer hits for {} unique keys; \
                 forwarding is not carrying the fleet",
                fleet.peer_hits, fleet.unique_keys
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// One backend's probed serving menu.
struct Capability {
    isa: Isa,
    served: Vec<String>,
    skipped: Vec<String>,
}

/// Geometric mean (the bench crate's helper, duplicated locally so the
/// service crate does not grow a dependency on the figure harness).
fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

struct RenderInputs<'a> {
    svc: &'a Service,
    rows: &'a [Row],
    rps: &'a [(usize, f64)],
    pipelined: &'a [(usize, f64)],
    pipelined_threads: usize,
    restart: &'a RestartWarm,
    fleet: &'a FleetReport,
    capability: &'a [Capability],
    geo: f64,
    smoke: bool,
    warm_reps: usize,
    sweep_total: usize,
}

/// Hand-built JSON (the environment has no serde; the shape is flat).
fn render_json(r: &RenderInputs<'_>) -> String {
    let stats = r.svc.stats();
    let lat = stats.latency_summary();
    let cache = r.svc.cache_stats();
    let names =
        |xs: &[String]| xs.iter().map(|n| format!("\"{n}\"")).collect::<Vec<_>>().join(", ");
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"schema\": \"pitchfork-service-bench/v4\",");
    let _ = writeln!(s, "  \"smoke\": {},", r.smoke);
    let _ = writeln!(s, "  \"transport\": \"unix-socket-eventloop\",");
    let _ = writeln!(s, "  \"warm_reps\": {},", r.warm_reps);
    let _ = writeln!(s, "  \"sweep_requests_per_point\": {},", r.sweep_total);
    let _ = writeln!(s, "  \"geomean_warm_speedup\": {:.4},", r.geo);
    let _ = writeln!(s, "  \"throughput\": {{");
    for (i, (threads, rate)) in r.rps.iter().enumerate() {
        let _ = writeln!(
            s,
            "    \"{threads}\": {rate:.1}{}",
            if i + 1 < r.rps.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "  }},");
    let _ = writeln!(s, "  \"throughput_pipelined\": {{");
    let _ = writeln!(s, "    \"threads\": {},", r.pipelined_threads);
    let _ = writeln!(s, "    \"by_depth\": {{");
    for (i, (depth, rate)) in r.pipelined.iter().enumerate() {
        let _ = writeln!(
            s,
            "      \"{depth}\": {rate:.1}{}",
            if i + 1 < r.pipelined.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "    }}");
    let _ = writeln!(s, "  }},");
    let _ = writeln!(s, "  \"restart_warm\": {{");
    let _ = writeln!(s, "    \"cold_p99_ns\": {},", r.restart.cold_p99_ns);
    let _ = writeln!(s, "    \"warm_p99_ns\": {},", r.restart.warm_p99_ns);
    let _ = writeln!(
        s,
        "    \"speedup\": {:.4},",
        r.restart.cold_p99_ns as f64 / r.restart.warm_p99_ns.max(1) as f64
    );
    let _ = writeln!(s, "    \"disk_spills\": {},", r.restart.disk_spills);
    let _ = writeln!(s, "    \"disk_loaded\": {}", r.restart.disk_loaded);
    let _ = writeln!(s, "  }},");
    let _ = writeln!(s, "  \"fleet\": {{");
    let _ = writeln!(s, "    \"daemons\": {},", r.fleet.daemons);
    let _ = writeln!(s, "    \"unique_keys\": {},", r.fleet.unique_keys);
    let _ = writeln!(s, "    \"total_compiles\": {},", r.fleet.total_compiles);
    let _ = writeln!(s, "    \"peer_hits\": {},", r.fleet.peer_hits);
    let _ = writeln!(s, "    \"peer_misses\": {},", r.fleet.peer_misses);
    let _ = writeln!(s, "    \"peer_timeouts\": {},", r.fleet.peer_timeouts);
    let _ = writeln!(s, "    \"peer_errors\": {},", r.fleet.peer_errors);
    let _ = writeln!(s, "    \"fallback_keys\": {}", r.fleet.fallback_keys);
    let _ = writeln!(s, "  }},");
    let _ = writeln!(s, "  \"capability\": {{");
    for (i, cap) in r.capability.iter().enumerate() {
        let _ = writeln!(s, "    \"{}\": {{", cap.isa.slug());
        let _ = writeln!(s, "      \"served\": [{}],", names(&cap.served));
        let _ = writeln!(s, "      \"skipped\": [{}]", names(&cap.skipped));
        let _ = writeln!(s, "    }}{}", if i + 1 < r.capability.len() { "," } else { "" });
    }
    let _ = writeln!(s, "  }},");
    let _ = writeln!(s, "  \"stats\": {{");
    let _ = writeln!(s, "    \"requests\": {},", Stats::read(&stats.requests));
    let _ = writeln!(s, "    \"cache_hits\": {},", Stats::read(&stats.cache_hits));
    let _ = writeln!(s, "    \"cache_misses\": {},", Stats::read(&stats.cache_misses));
    let _ = writeln!(s, "    \"compiles\": {},", Stats::read(&stats.compiles));
    let _ = writeln!(s, "    \"flight_joins\": {},", Stats::read(&stats.flight_joins));
    let _ = writeln!(s, "    \"dispatch_batch_max\": {},", Stats::read(&stats.dispatch_batch_max));
    let _ = writeln!(s, "    \"evictions\": {},", cache.evictions);
    let _ = writeln!(s, "    \"resident_bytes\": {},", cache.resident_bytes);
    let _ = writeln!(s, "    \"p50_us\": {},", lat.p50_us);
    let _ = writeln!(s, "    \"p99_us\": {}", lat.p99_us);
    let _ = writeln!(s, "  }},");
    let _ = writeln!(s, "  \"results\": [");
    for (i, row) in r.rows.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"workload\": \"{}\",", row.workload);
        let _ = writeln!(s, "      \"isa\": \"{}\",", row.isa.slug());
        let _ = writeln!(s, "      \"cold_ns\": {},", row.cold_ns);
        let _ = writeln!(s, "      \"warm_ns\": {},", row.warm_ns);
        let _ =
            writeln!(s, "      \"speedup\": {:.4}", row.cold_ns as f64 / row.warm_ns.max(1) as f64);
        let _ = writeln!(s, "    }}{}", if i + 1 < r.rows.len() { "," } else { "" });
    }
    s.push_str("  ]\n}\n");
    s
}
