//! Concurrency stress tests for the service core: many threads, many
//! duplicate requests, tiny cache budgets, and expiring deadlines.
//!
//! The contract under test, end to end:
//!
//! 1. every served response is **bit-identical** to a direct
//!    single-shot `pitchfork::compile_to_executable` call;
//! 2. duplicate concurrent requests are **deduplicated** — the number
//!    of compilations equals the number of distinct cache keys;
//! 3. a pathologically small byte budget forces constant eviction but
//!    **never** a wrong artifact;
//! 4. a request whose deadline expires gets a structured `timeout`
//!    error and leaves the cache consistent for the next request.

mod common;

use fpir::machine::ALL_ISAS;
use fpir_workloads::{all_workloads, LANES};
use pitchfork::{compile_to_executable, Pitchfork};
use pitchfork_service::protocol::CompileSpec;
use pitchfork_service::{Json, Request, Service, ServiceConfig, Stats};
use std::sync::{Arc, Barrier};

/// The distinct (expression, isa) combos the stress tests request: the
/// first six figure kernels, spread over every ISA (each kernel compiles
/// on each of them).
fn combos() -> Vec<(String, fpir::Isa)> {
    all_workloads()
        .into_iter()
        .take(6)
        .enumerate()
        .map(|(i, wl)| (wl.pipeline.expr.to_string(), ALL_ISAS[i % ALL_ISAS.len()]))
        .collect()
}

fn spec(expr: &str, isa: fpir::Isa, timeout_ms: Option<u64>) -> CompileSpec {
    CompileSpec {
        expr: expr.to_string(),
        lanes: LANES,
        isa,
        synthesized_rules: true,
        leave_out: None,
        timeout_ms,
    }
}

fn get<'a>(v: &'a Json, k: &str) -> &'a Json {
    v.get(k).unwrap_or_else(|| panic!("response missing `{k}`: {v:?}"))
}

#[test]
fn duplicate_storm_is_deduplicated_and_bit_identical() {
    let combos = combos();
    let truth: Vec<(String, String, u64)> =
        combos.iter().map(|(e, isa)| common::direct(e, *isa, true)).collect();

    let svc = Arc::new(Service::new(ServiceConfig {
        cache_bytes: 256 << 20, // roomy: nothing should evict
        workers: 4,
        default_timeout_ms: None,
        cache_dir: None,
        cache_max_bytes: None,
        cache_max_age: None,
    }));

    const THREADS: usize = 8;
    let barrier = Arc::new(Barrier::new(THREADS));
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let svc = svc.clone();
        let combos = combos.clone();
        let barrier = barrier.clone();
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            // Each thread walks the combos at a different rotation so
            // duplicates collide both in-flight and post-cache.
            (0..combos.len())
                .map(|i| {
                    let (expr, isa) = &combos[(i + t) % combos.len()];
                    let v = svc.handle_local(&Request::Compile(spec(expr, *isa, None)));
                    ((i + t) % combos.len(), v)
                })
                .collect::<Vec<(usize, Json)>>()
        }));
    }

    let mut computed = 0usize;
    for h in handles {
        for (combo, v) in h.join().expect("stress thread") {
            assert_eq!(get(&v, "ok").as_bool(), Some(true), "{v:?}");
            let (lowered, program, cycles) = &truth[combo];
            assert_eq!(get(&v, "lowered").as_str(), Some(lowered.as_str()), "combo {combo}");
            assert_eq!(get(&v, "program").as_str(), Some(program.as_str()), "combo {combo}");
            assert_eq!(get(&v, "cycles").as_int(), Some(i128::from(*cycles)), "combo {combo}");
            if get(&v, "source").as_str() == Some("computed") {
                computed += 1;
            }
        }
    }

    // Deduplication: one compile per distinct key, no matter how many
    // concurrent duplicates arrived.
    assert_eq!(
        Stats::read(&svc.stats().compiles),
        combos.len() as u64,
        "compile count must equal distinct-key count"
    );
    assert_eq!(computed, combos.len(), "exactly one leader per distinct key");
    assert_eq!(svc.cache_stats().evictions, 0, "roomy cache must not evict");
    assert_eq!(Stats::read(&svc.stats().errors), 0);
    assert_eq!(Stats::read(&svc.stats().sheds), 0);
}

#[test]
fn tiny_budget_thrashes_but_never_serves_a_wrong_artifact() {
    let combos = combos();
    let truth: Vec<(String, String, u64)> =
        combos.iter().map(|(e, isa)| common::direct(e, *isa, true)).collect();

    // A budget far below one artifact: every insert evicts, every
    // request recompiles. Correctness must be unaffected.
    let svc = Arc::new(Service::new(ServiceConfig {
        cache_bytes: 512,
        workers: 4,
        default_timeout_ms: None,
        cache_dir: None,
        cache_max_bytes: None,
        cache_max_age: None,
    }));

    const THREADS: usize = 4;
    const ROUNDS: usize = 3;
    let barrier = Arc::new(Barrier::new(THREADS));
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let svc = svc.clone();
        let combos = combos.clone();
        let barrier = barrier.clone();
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            let mut out = Vec::new();
            for r in 0..ROUNDS {
                for i in 0..combos.len() {
                    let at = (i + t + r) % combos.len();
                    let (expr, isa) = &combos[at];
                    out.push((at, svc.handle_local(&Request::Compile(spec(expr, *isa, None)))));
                }
            }
            out
        }));
    }
    for h in handles {
        for (combo, v) in h.join().expect("stress thread") {
            assert_eq!(get(&v, "ok").as_bool(), Some(true), "{v:?}");
            let (lowered, program, _) = &truth[combo];
            assert_eq!(get(&v, "lowered").as_str(), Some(lowered.as_str()), "combo {combo}");
            assert_eq!(get(&v, "program").as_str(), Some(program.as_str()), "combo {combo}");
        }
    }
    let cs = svc.cache_stats();
    assert!(cs.evictions > 0, "a 512-byte budget must evict constantly");
    assert!(cs.resident_bytes <= 512 || cs.resident_count <= 1, "budget overshoot: {cs:?}");
}

#[test]
fn run_responses_match_direct_execution() {
    let svc = Service::new(ServiceConfig {
        cache_bytes: 64 << 20,
        workers: 2,
        default_timeout_ms: None,
        cache_dir: None,
        cache_max_bytes: None,
        cache_max_age: None,
    });
    let expr = "u8(min(u16(a_u8) + u16(b_u8), 255))";
    let lanes = 32u32;
    let a: Vec<i128> = (0..lanes as i128).map(|i| (i * 9) % 256).collect();
    let b: Vec<i128> = (0..lanes as i128).map(|i| (i * 31) % 256).collect();

    let mut sp = spec(expr, fpir::Isa::ArmNeon, None);
    sp.lanes = lanes;
    let v = svc.handle_local(&Request::Run {
        spec: sp,
        inputs: vec![("a".to_string(), a.clone()), ("b".to_string(), b.clone())],
    });
    assert_eq!(get(&v, "ok").as_bool(), Some(true), "{v:?}");
    let served: Vec<i128> =
        get(&v, "output").as_array().unwrap().iter().map(|x| x.as_int().unwrap()).collect();

    // Ground truth: the direct driver + linked executable.
    let pf = Pitchfork::new(fpir::Isa::ArmNeon);
    let e = fpir::parser::parse_expr(expr, lanes).unwrap();
    let art = compile_to_executable(&pf, &e).unwrap();
    let mut env = fpir::interp::Env::new();
    for (name, ty) in e.free_vars() {
        let data = if name == "a" { a.clone() } else { b.clone() };
        env.insert(name, fpir::interp::Value::new(ty, data));
    }
    let mut ctx = art.exe.new_ctx();
    let direct = art.exe.run(&mut ctx, &env).unwrap();
    assert_eq!(served, direct.lanes(), "served run must be bit-identical to direct execution");
}

#[test]
fn expired_deadline_is_a_structured_timeout_and_cache_stays_consistent() {
    // A slow compile runs on another thread while a 1 ms request
    // compiles on this one: the driver's phase checks cancel it once
    // the budget is spent.
    let svc = Arc::new(Service::new(ServiceConfig {
        cache_bytes: 64 << 20,
        workers: 2,
        default_timeout_ms: None,
        cache_dir: None,
        cache_max_bytes: None,
        cache_max_age: None,
    }));
    let combos = combos();
    let (slow_expr, slow_isa) = combos.last().unwrap().clone();
    let (fast_expr, fast_isa) = combos.first().unwrap().clone();

    let slow = {
        let svc = svc.clone();
        let e = slow_expr.clone();
        std::thread::spawn(move || svc.handle_local(&Request::Compile(spec(&e, slow_isa, None))))
    };
    // Let the slow compile get going, then race a 1 ms deadline beside
    // it.
    std::thread::sleep(std::time::Duration::from_millis(5));
    let v = svc.handle_local(&Request::Compile(spec(&fast_expr, fast_isa, Some(1))));
    let timed_out = get(&v, "ok").as_bool() == Some(false);
    if timed_out {
        assert_eq!(get(&v, "code").as_str(), Some("timeout"), "{v:?}");
        assert!(Stats::read(&svc.stats().timeouts) >= 1);
    }
    // Whether or not the race produced the timeout (a fast machine may
    // finish the compile inside 1 ms), the cache must stay consistent:
    // the same request with a sane budget succeeds and matches the
    // direct compiler.
    let ok = svc.handle_local(&Request::Compile(spec(&fast_expr, fast_isa, Some(60_000))));
    assert_eq!(get(&ok, "ok").as_bool(), Some(true), "{ok:?}");
    let (lowered, program, _) = common::direct(&fast_expr, fast_isa, true);
    assert_eq!(get(&ok, "lowered").as_str(), Some(lowered.as_str()));
    assert_eq!(get(&ok, "program").as_str(), Some(program.as_str()));
    let slow_v = slow.join().unwrap();
    assert_eq!(get(&slow_v, "ok").as_bool(), Some(true), "{slow_v:?}");
}
