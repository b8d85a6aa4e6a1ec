//! Served == direct over the whole suite: every figure kernel on every
//! ISA is served exactly as `pitchfork::compile_to_executable` compiles
//! it, on the miss that computes it and on the hit that repeats it.

mod common;

use pitchfork_service::{Json, Request, Service, ServiceConfig, Stats};

#[test]
fn every_suite_key_is_served_as_compiled() {
    let svc = Service::new(ServiceConfig {
        cache_bytes: 64 << 20,
        workers: 2,
        default_timeout_ms: None,
        cache_dir: None,
        cache_max_bytes: None,
        cache_max_age: None,
    });
    let suite = common::suite();
    assert_eq!(suite.len(), 64, "every figure kernel is served on every ISA");
    for key in &suite {
        let truth = common::direct(&key.expr, key.isa, true);
        let req = Request::Compile(key.spec(true));
        for want in ["computed", "hit"] {
            let v = svc.handle_local(&req);
            let what = format!("{}/{} ({want})", key.name, key.isa);
            assert_eq!(v.get("source").and_then(Json::as_str), Some(want), "{what}: {v:?}");
            common::assert_served(&v, &truth, &what);
        }
    }
    assert_eq!(Stats::read(&svc.stats().compiles), suite.len() as u64);
}
