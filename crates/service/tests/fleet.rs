//! End-to-end tests of the warm fleet: three event-loop daemons peering
//! over Unix sockets across the whole served suite (miss forwarding,
//! single fleet-wide compile, graceful degradation when a peer dies,
//! every reply byte-equal to a direct compile); one daemon against a
//! scripted fake owner that stalls, misses, answers for the wrong key or
//! closes mid-frame; and the hot-request memo's rule-set generation
//! keying.

mod common;

use pitchfork::{compile_to_executable, Pitchfork};
use pitchfork_service::key::ruleset_fingerprint;
use pitchfork_service::peer::owner_index;
use pitchfork_service::{
    serve_with, store, write_frame, CacheKey, Client, Endpoint, FrameReader, Json, ServeOptions,
    Service, ServiceConfig, Stats,
};
use std::io::{self, Write};
use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

type Server = std::thread::JoinHandle<io::Result<()>>;

const SAT_ADD: &str = "u8(min(u16(a_u8) + u16(b_u8), 255))";

fn parse(src: &str) -> Json {
    pitchfork_service::json::parse(src).unwrap()
}

fn sock_path(tag: &str, i: usize) -> PathBuf {
    std::env::temp_dir().join(format!("pf-fleet-{tag}-{}-{i}.sock", std::process::id()))
}

fn service() -> Arc<Service> {
    Arc::new(Service::new(ServiceConfig {
        cache_bytes: 8 << 20,
        workers: 2,
        default_timeout_ms: None,
        cache_dir: None,
        cache_max_bytes: None,
        cache_max_age: None,
    }))
}

fn start(svc: &Arc<Service>, path: &Path, peers: Vec<Endpoint>, peer_timeout_ms: u64) -> Server {
    let _ = std::fs::remove_file(path);
    let svc = Arc::clone(svc);
    let ep = Endpoint::Unix(path.to_path_buf());
    let opts = ServeOptions { peers, peer_timeout_ms, ..ServeOptions::default() };
    std::thread::spawn(move || serve_with(svc, &ep, &opts))
}

fn client_with_retry(path: &Path) -> Client {
    for _ in 0..100 {
        if let Ok(c) = Client::connect(&Endpoint::Unix(path.to_path_buf())) {
            return c;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("server at {} never came up", path.display());
}

fn shutdown(path: &Path) {
    let mut c = client_with_retry(path);
    let bye = c.request(&parse(r#"{"op":"shutdown"}"#)).unwrap();
    assert_eq!(bye.get("stopping").and_then(Json::as_bool), Some(true));
}

fn compile_req(expr: &str) -> Json {
    parse(&format!(r#"{{"op":"compile","expr":"{expr}","lanes":16,"isa":"arm"}}"#))
}

/// Start three daemons, each peering with the other two.
fn start_fleet(tag: &str) -> (Vec<PathBuf>, Vec<Arc<Service>>, Vec<Server>) {
    let paths: Vec<PathBuf> = (0..3).map(|i| sock_path(tag, i)).collect();
    let eps: Vec<Endpoint> = paths.iter().map(|p| Endpoint::Unix(p.clone())).collect();
    let svcs: Vec<Arc<Service>> = (0..3).map(|_| service()).collect();
    let servers = (0..3)
        .map(|i| {
            let peers = eps.iter().enumerate().filter(|&(j, _)| j != i).map(|(_, e)| e.clone());
            start(&svcs[i], &paths[i], peers.collect(), 3000)
        })
        .collect();
    (paths, svcs, servers)
}

fn total(svcs: &[Arc<Service>], counter: impl Fn(&Stats) -> &AtomicU64) -> u64 {
    svcs.iter().map(|s| Stats::read(counter(s.stats()))).sum()
}

#[test]
fn a_three_daemon_fleet_compiles_each_key_once() {
    let (paths, svcs, servers) = start_fleet("trio");
    let mut clients: Vec<Client> = paths.iter().map(|p| client_with_retry(p)).collect();

    // Every suite key goes to every daemon: each reply is the direct
    // compiler's, and the fleet compiles each key exactly once, at its
    // owner, while the other two daemons forward to it.
    let suite = common::suite();
    for key in &suite {
        let truth = common::direct(&key.expr, key.isa, true);
        for (d, client) in clients.iter_mut().enumerate() {
            let v = client.request(&key.wire(true)).unwrap();
            common::assert_served(&v, &truth, &format!("{}/{} via daemon {d}", key.name, key.isa));
        }
    }

    let keys = suite.len() as u64;
    assert_eq!(total(&svcs, |s| &s.compiles), keys, "every key compiles once across the fleet");
    assert_eq!(total(&svcs, |s| &s.peer_hits), 2 * keys, "both non-owners of every key forwarded");
    assert!(total(&svcs, |s| &s.peer_serves) >= 2 * keys, "every hit was served by someone");

    for p in &paths {
        shutdown(p);
    }
    for s in servers {
        s.join().unwrap().unwrap();
    }
}

#[test]
fn a_dead_peer_degrades_to_local_compiles() {
    let (paths, svcs, servers) = start_fleet("dead");
    // All up, then daemon 0 dies before serving anything of interest.
    for p in &paths {
        client_with_retry(p);
    }
    shutdown(&paths[0]);
    let mut servers = servers.into_iter();
    servers.next().unwrap().join().unwrap().unwrap();

    // Fresh keys (hand-written rules only) on both survivors: whatever
    // daemon 0 owned falls back to a local compile, and every reply is
    // still byte-equal to a direct hand-written-rules compile.
    let mut clients = [client_with_retry(&paths[1]), client_with_retry(&paths[2])];
    let suite = common::suite();
    for key in &suite {
        let truth = common::direct(&key.expr, key.isa, false);
        for (d, client) in clients.iter_mut().enumerate() {
            let v = client.request(&key.wire(false)).unwrap();
            let what = format!("{}/{} via survivor {}", key.name, key.isa, d + 1);
            common::assert_served(&v, &truth, &what);
        }
    }
    // Each of the 2 × keys requests either compiled on its survivor or
    // was forwarded to the live owner, which compiled it once.
    let survivors = &svcs[1..];
    let (compiles, peer_hits) =
        (total(survivors, |s| &s.compiles), total(survivors, |s| &s.peer_hits));
    assert!(compiles >= suite.len() as u64, "every key compiled somewhere: {compiles}");
    assert_eq!(compiles + peer_hits, 2 * suite.len() as u64, "no request was lost");

    for p in &paths[1..] {
        shutdown(p);
    }
    for s in servers {
        s.join().unwrap().unwrap();
    }
}

/// Two daemons with two workers each, asked at once for four cold keys
/// apiece that the other owns: every worker waits on a fetch from the
/// other daemon, yet each key still compiles once, at its owner, and no
/// fetch times out, because a daemon serves `peer_get` on a pool whose
/// tasks never fetch.
#[test]
fn cross_owned_misses_do_not_stall_each_other() {
    let paths = [sock_path("cross", 0), sock_path("cross", 1)];
    let ids = paths.each_ref().map(|p| Endpoint::Unix(p.clone()).to_string());
    let svcs = [service(), service()];
    let servers: Vec<Server> = (0..2)
        .map(|i| start(&svcs[i], &paths[i], vec![Endpoint::Unix(paths[1 - i].clone())], 3000))
        .collect();
    let barrier = Arc::new(Barrier::new(8));
    let mut asks = Vec::new();
    for i in 0..2 {
        let other = [ids[1 - i].clone()];
        let owned_by_other = common::suite()
            .into_iter()
            .filter(|k| owner_index(&ids[i], &other, cache_key(k).fingerprint()) == Some(0))
            .take(4);
        for key in owned_by_other {
            let (mut client, barrier) = (client_with_retry(&paths[i]), Arc::clone(&barrier));
            asks.push(std::thread::spawn(move || {
                barrier.wait();
                (client.request(&key.wire(true)).unwrap(), key)
            }));
        }
    }
    assert_eq!(asks.len(), 8, "each daemon got four keys the other owns");
    for ask in asks {
        let (v, key) = ask.join().unwrap();
        let truth = common::direct(&key.expr, key.isa, true);
        common::assert_served(&v, &truth, &format!("{}/{}", key.name, key.isa));
    }
    assert_eq!(total(&svcs, |s| &s.compiles), 8, "each key compiled once, at its owner");
    assert_eq!(total(&svcs, |s| &s.peer_hits), 8, "every key came from its owner");
    assert_eq!(total(&svcs, |s| &s.peer_timeouts), 0, "no fetch waited out its bound");

    for p in &paths {
        shutdown(p);
    }
    for s in servers {
        s.join().unwrap().unwrap();
    }
}

/// What a scripted fake owner does with the one `peer_get` it receives.
enum Script {
    /// Never answer; hold the connection until the test has its reply.
    Stall,
    /// Answer with this frame.
    Answer(Json),
    /// Send a frame header and part of its body, then close.
    CloseMidFrame,
}

/// A stand-in for a key's owner: a listener on a test thread that takes
/// one connection, reads one frame, follows `script`, and returns the
/// frame it read. A stall lasts until `release` is signalled or dropped.
fn fake_owner(
    path: &Path,
    script: Script,
    release: mpsc::Receiver<()>,
) -> std::thread::JoinHandle<Json> {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path).unwrap();
    std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        let req = FrameReader::new().next_frame(&mut conn).unwrap().expect("a request frame");
        match script {
            Script::Stall => {
                let _ = release.recv();
            }
            Script::Answer(mut v) => {
                // Echo a tag as the last member, as a real daemon does.
                if let (Some(tag), Json::Object(members)) = (req.get("tag"), &mut v) {
                    members.push(("tag".into(), tag.clone()));
                }
                write_frame(&mut conn, &v).unwrap();
            }
            Script::CloseMidFrame => conn.write_all(b"\0\0\0\x64{\"ok\":true").unwrap(),
        }
        req
    })
}

/// The cache key a daemon computes for a suite key's compile request.
fn cache_key(key: &common::Key) -> CacheKey {
    let expr = fpir::parser::parse_expr(&key.expr, fpir_workloads::LANES).unwrap();
    CacheKey::for_spec(&key.spec(true), &expr, ruleset_fingerprint(&Pitchfork::new(key.isa)))
}

/// One compile, on a daemon whose only peer is a fake owner following
/// the script `script_for` writes for the key, of a suite key that the
/// fake owns. Returns the reply, how long it took, the suite key, the
/// daemon's `(peer_hits, peer_misses, peer_timeouts, peer_errors)` and
/// its compile count.
fn against_fake_owner(
    tag: &str,
    script_for: impl FnOnce(&common::Key) -> Script,
    peer_timeout_ms: u64,
    timeout_ms: Option<u64>,
) -> (Json, Duration, common::Key, [u64; 4], u64) {
    let (daemon, owner) = (sock_path(tag, 0), sock_path(tag, 1));
    let me = Endpoint::Unix(daemon.clone()).to_string();
    let peers = [Endpoint::Unix(owner.clone()).to_string()];
    let key = common::suite()
        .into_iter()
        .find(|k| owner_index(&me, &peers, cache_key(k).fingerprint()) == Some(0))
        .expect("the fake owns some suite key");
    let (release, held) = mpsc::channel();
    let fake = fake_owner(&owner, script_for(&key), held);
    let svc = service();
    let server = start(&svc, &daemon, vec![Endpoint::Unix(owner.clone())], peer_timeout_ms);
    let mut client = client_with_retry(&daemon);

    let Json::Object(mut req) = key.wire(true) else { unreachable!("wire() builds an object") };
    if let Some(ms) = timeout_ms {
        req.push(("timeout_ms".into(), Json::Int(i128::from(ms))));
    }
    let t0 = Instant::now();
    let reply = client.request(&Json::Object(req)).unwrap();
    let took = t0.elapsed();

    drop(release);
    let asked = fake.join().unwrap();
    let _ = std::fs::remove_file(&owner);
    assert_eq!(asked.get("op").and_then(Json::as_str), Some("peer_get"), "{asked:?}");
    let s = svc.stats();
    let peer = [&s.peer_hits, &s.peer_misses, &s.peer_timeouts, &s.peer_errors].map(Stats::read);
    let compiles = Stats::read(&s.compiles);
    shutdown(&daemon);
    server.join().unwrap().unwrap();
    (reply, took, key, peer, compiles)
}

/// Each way a fake owner can fail the daemon ends in a reply equal to
/// the direct compile, one compile, and one count on the matching peer
/// counter.
fn assert_falls_back(tag: &str, script_for: impl FnOnce(&common::Key) -> Script, want: [u64; 4]) {
    let (reply, _, key, peer, compiles) = against_fake_owner(tag, script_for, 300, None);
    let truth = common::direct(&key.expr, key.isa, true);
    common::assert_served(&reply, &truth, &format!("{}/{} via {tag}", key.name, key.isa));
    assert_eq!(peer, want, "[peer_hits, peer_misses, peer_timeouts, peer_errors]");
    assert_eq!(compiles, 1, "the fallback compiles once");
}

#[test]
fn a_stalled_owner_times_out_to_a_local_compile() {
    assert_falls_back("stall", |_| Script::Stall, [0, 0, 1, 0]);
}

#[test]
fn an_owner_without_the_key_falls_back_to_a_local_compile() {
    let not_found = parse(r#"{"ok":true,"found":false,"reason":"scripted"}"#);
    assert_falls_back("miss", |_| Script::Answer(not_found), [0, 1, 0, 0]);
}

#[test]
fn an_artifact_for_another_key_is_refused() {
    let wrong = |key: &common::Key| {
        let other = common::suite().into_iter().find(|k| k.expr != key.expr).unwrap();
        let expr = fpir::parser::parse_expr(&other.expr, fpir_workloads::LANES).unwrap();
        let art = compile_to_executable(&Pitchfork::new(other.isa), &expr).unwrap();
        let body = store::encode_artifact_json(&cache_key(&other), &art).unwrap();
        Script::Answer(Json::Object(vec![
            ("ok".into(), Json::Bool(true)),
            ("found".into(), Json::Bool(true)),
            ("artifact".into(), body),
        ]))
    };
    assert_falls_back("wrong", wrong, [0, 0, 0, 1]);
}

#[test]
fn an_owner_closing_mid_frame_is_a_peer_error() {
    assert_falls_back("torn", |_| Script::CloseMidFrame, [0, 0, 0, 1]);
}

/// A peer fetch is charged to the request's deadline: a 100 ms request
/// is answered (compiled, or refused as `timeout`) well before a stalled
/// owner's 3 s peer timeout.
#[test]
fn a_stalled_owner_cannot_hold_a_request_past_its_deadline() {
    let (reply, took, key, peer, _) =
        against_fake_owner("late", |_| Script::Stall, 3000, Some(100));
    assert!(took < Duration::from_secs(1), "answered after {took:?}: {reply:?}");
    if reply.get("ok").and_then(Json::as_bool) != Some(true) {
        assert_eq!(reply.get("code").and_then(Json::as_str), Some("timeout"), "{reply:?}");
    } else {
        common::assert_served(&reply, &common::direct(&key.expr, key.isa, true), "late");
    }
    assert_eq!(peer, [0, 0, 1, 0], "[peer_hits, peer_misses, peer_timeouts, peer_errors]");
}

/// The hot-request memo is keyed on the rule-set generation: bumping it
/// makes byte-identical requests miss the memo (and re-seed it) instead
/// of serving a response rendered under superseded rules.
#[test]
fn hot_memo_misses_after_a_rules_generation_bump() {
    let path = sock_path("memo", 0);
    let svc = service();
    let server = start(&svc, &path, Vec::new(), 3000);
    let mut client = client_with_retry(&path);
    let req = compile_req(SAT_ADD);
    let hot = || Stats::read(&svc.stats().hot_hits);

    // 1st: compile (miss). 2nd: cache hit, seeds the memo. 3rd: memo.
    for _ in 0..3 {
        let v = client.request(&req).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
    }
    let after_seed = hot();
    assert_eq!(after_seed, 1, "the third identical frame hits the memo");

    svc.bump_rules_generation();
    let v = client.request(&req).unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
    assert_eq!(hot(), after_seed, "a stale-generation entry must read as a miss");

    // That miss re-seeded under the new generation; the next one hits.
    let v = client.request(&req).unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
    assert_eq!(hot(), after_seed + 1, "the memo recovers in one round of traffic");

    shutdown(&path);
    server.join().unwrap().unwrap();
}
