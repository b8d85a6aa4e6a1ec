//! End-to-end tests of the warm fleet: two event-loop daemons peering
//! over Unix sockets (miss forwarding, single fleet-wide compile,
//! graceful degradation when a peer dies) and the hot-request memo's
//! rule-set generation keying.

use pitchfork_service::{
    serve_with, Client, Endpoint, Json, ServeOptions, Service, ServiceConfig, Stats,
};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

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

fn start(
    svc: &Arc<Service>,
    path: &Path,
    peers: Vec<Endpoint>,
) -> std::thread::JoinHandle<io::Result<()>> {
    let _ = std::fs::remove_file(path);
    let svc = Arc::clone(svc);
    let ep = Endpoint::Unix(path.to_path_buf());
    let opts = ServeOptions { peers, peer_timeout_ms: 3000, ..ServeOptions::default() };
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

#[test]
fn a_two_daemon_fleet_compiles_each_key_once() {
    let paths = [sock_path("pair", 0), sock_path("pair", 1)];
    let eps: Vec<Endpoint> = paths.iter().map(|p| Endpoint::Unix(p.clone())).collect();
    let svcs = [service(), service()];
    let servers = [
        start(&svcs[0], &paths[0], vec![eps[1].clone()]),
        start(&svcs[1], &paths[1], vec![eps[0].clone()]),
    ];
    let mut clients = [client_with_retry(&paths[0]), client_with_retry(&paths[1])];

    // Several distinct keys so ownership lands on both daemons; each
    // key goes to both, and the fleet compiles it exactly once.
    let exprs =
        [SAT_ADD, "a_u8 + b_u8", "min(a_u8, b_u8)", "max(a_u8, b_u8)", "a_u8 - min(a_u8, b_u8)"];
    for expr in exprs {
        let req = compile_req(expr);
        let first = clients[0].request(&req).unwrap();
        let second = clients[1].request(&req).unwrap();
        assert_eq!(first.get("ok").and_then(Json::as_bool), Some(true), "{expr}: {first:?}");
        for field in ["lowered", "program", "cycles"] {
            assert_eq!(
                first.get(field).map(Json::render),
                second.get(field).map(Json::render),
                "{expr}: both daemons must serve identical artifacts"
            );
        }
    }

    let compiles: u64 = svcs.iter().map(|s| Stats::read(&s.stats().compiles)).sum();
    let peer_hits: u64 = svcs.iter().map(|s| Stats::read(&s.stats().peer_hits)).sum();
    let peer_serves: u64 = svcs.iter().map(|s| Stats::read(&s.stats().peer_serves)).sum();
    assert_eq!(compiles, exprs.len() as u64, "every key compiles exactly once across the fleet");
    assert_eq!(peer_hits, exprs.len() as u64, "the non-owner side of every key forwarded");
    assert!(peer_serves >= peer_hits, "every hit was served by someone");

    for p in &paths {
        shutdown(p);
    }
    for s in servers {
        s.join().unwrap().unwrap();
    }
}

#[test]
fn a_dead_peer_degrades_to_local_compiles() {
    let paths = [sock_path("dead", 0), sock_path("dead", 1)];
    let eps: Vec<Endpoint> = paths.iter().map(|p| Endpoint::Unix(p.clone())).collect();
    let svcs = [service(), service()];
    let servers = [
        start(&svcs[0], &paths[0], vec![eps[1].clone()]),
        start(&svcs[1], &paths[1], vec![eps[0].clone()]),
    ];
    // Both up, then daemon 0 dies before serving anything of interest.
    client_with_retry(&paths[1]);
    shutdown(&paths[0]);
    let mut servers = servers.into_iter();
    servers.next().unwrap().join().unwrap().unwrap();

    // Fresh keys on the survivor: whatever daemon 0 owned must fall
    // back to a local compile — every request still succeeds.
    let mut client = client_with_retry(&paths[1]);
    let exprs =
        [SAT_ADD, "a_u8 + b_u8", "min(a_u8, b_u8)", "max(a_u8, b_u8)", "a_u8 - min(a_u8, b_u8)"];
    for expr in exprs {
        let v = client.request(&compile_req(expr)).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{expr}: {v:?}");
        assert_eq!(v.get("source").and_then(Json::as_str), Some("computed"), "{expr}: {v:?}");
    }
    assert_eq!(
        Stats::read(&svcs[1].stats().compiles),
        exprs.len() as u64,
        "the survivor compiled everything itself"
    );
    assert_eq!(Stats::read(&svcs[1].stats().peer_hits), 0);

    shutdown(&paths[1]);
    servers.next().unwrap().join().unwrap().unwrap();
}

/// The hot-request memo is keyed on the rule-set generation: bumping it
/// makes byte-identical requests miss the memo (and re-seed it) instead
/// of serving a response rendered under superseded rules.
#[test]
fn hot_memo_misses_after_a_rules_generation_bump() {
    let path = sock_path("memo", 0);
    let svc = service();
    let server = start(&svc, &path, Vec::new());
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
