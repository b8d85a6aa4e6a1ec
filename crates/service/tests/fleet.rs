//! End-to-end tests of the warm fleet: three event-loop daemons peering
//! over Unix sockets across the whole served suite (miss forwarding,
//! single fleet-wide compile, graceful degradation when a peer dies,
//! every reply byte-equal to a direct compile) and the hot-request
//! memo's rule-set generation keying.

mod common;

use pitchfork_service::{
    serve_with, Client, Endpoint, Json, ServeOptions, Service, ServiceConfig, Stats,
};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;

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

fn start(svc: &Arc<Service>, path: &Path, peers: Vec<Endpoint>) -> Server {
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

/// Start three daemons, each peering with the other two.
fn start_fleet(tag: &str) -> (Vec<PathBuf>, Vec<Arc<Service>>, Vec<Server>) {
    let paths: Vec<PathBuf> = (0..3).map(|i| sock_path(tag, i)).collect();
    let eps: Vec<Endpoint> = paths.iter().map(|p| Endpoint::Unix(p.clone())).collect();
    let svcs: Vec<Arc<Service>> = (0..3).map(|_| service()).collect();
    let servers = (0..3)
        .map(|i| {
            let peers = eps.iter().enumerate().filter(|&(j, _)| j != i).map(|(_, e)| e.clone());
            start(&svcs[i], &paths[i], peers.collect())
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
