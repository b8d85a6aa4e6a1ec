//! The compile workloads, and the traced compile probe every other
//! workload runs over its own keys.
//!
//! A compile is timed from outside, around `compile_to_executable_with`;
//! a traced compile also stamps each call of its `keep_going` phase
//! hook, which fires just before each phase starts, and cuts the compile
//! span into one child per phase at those stamps.

use crate::keys::{self, Kernel, Key, Suite};
use crate::report::{self, Layers, Outcome};
use crate::speed::{Calibrator, Trials, SENSITIVITY};
use crate::trace::{self, Tracer};
use crate::util::{self, geomean, ns32, percentile, sorted_us, Rng};
use crate::{exec, serve, Args};
use fpir::expr::RcExpr;
use fpir_isa::target;
use fpir_sim::{ExecConfig, Executable};
use pitchfork::{compile_to_executable_with, CompilePhase, Phase, Pitchfork};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Set-up is repeated this many times per run and its median reported.
const SETUP_REPS: usize = 9;
/// Measured trials per run, short enough that most fall inside one
/// spell of the host's speed; rates are their median.
pub const TRIALS: usize = 20;
/// Gate images: a few rows at two vector strips' width.
const GATE_W: usize = 256;
const GATE_H: usize = 4;

fn phase_span(p: Phase) -> &'static str {
    match p {
        Phase::Select(CompilePhase::Lift) => "core.lift",
        Phase::Select(CompilePhase::LowerPredicated) => "core.lower_predicated",
        Phase::Select(CompilePhase::Lower) => "core.lower",
        Phase::Select(CompilePhase::Legalize) => "isa.legalize",
        Phase::Emit => "sim.emit",
        Phase::Link => "sim.link",
    }
}

/// Rewrite-engine counters summed over traced compiles.
#[derive(Debug, Default)]
struct Counters {
    compiles: u64,
    lift_apps: u64,
    lift_nodes: u64,
    lower_apps: u64,
    lower_nodes: u64,
    lower_memo: u64,
    cost_hits: u64,
    cost_misses: u64,
    bounds_hits: u64,
    bounds_misses: u64,
}

/// The traced half of a compile run: spans plus counters.
struct Traced {
    tracer: Tracer,
    counters: Counters,
}

/// Compile every key once per pass, in a fresh seeded order each pass,
/// until `budget` has elapsed; returns the compiles done and the time
/// taken. Each artifact must price and link exactly as the key's direct
/// compile did.
fn compile_passes(
    sels: &[Pitchfork],
    keys: &[Key],
    exprs: &[RcExpr],
    rng: &mut Rng,
    budget: Duration,
    mut traced: Option<&mut Traced>,
    samples: &mut Vec<u32>,
    out: &mut Outcome,
) -> (u64, Duration) {
    let mut order: Vec<usize> = (0..keys.len()).collect();
    let mut done = 0u64;
    let start = Instant::now();
    loop {
        rng.shuffle(&mut order);
        for &i in &order {
            let key = &keys[i];
            let pf = &sels[keys::isa_slot(key.isa)];
            let expr = &exprs[key.kernel];
            let req = out.attempted;
            out.attempted += 1;
            let mut hooks = [(Phase::Emit, start); 8];
            let mut n = 0usize;
            let t0 = Instant::now();
            let r = match traced {
                None => compile_to_executable_with(pf, expr, &mut |_| true),
                Some(_) => compile_to_executable_with(pf, expr, &mut |p| {
                    if let Some(slot) = hooks.get_mut(n) {
                        *slot = (p, Instant::now());
                    }
                    n += 1;
                    true
                }),
            };
            let t1 = Instant::now();
            samples.push(ns32(t1 - t0));
            done += 1;
            let (art, compiled) = match r {
                Ok(ok) => ok,
                Err(e) => {
                    out.fail(format!("{}: {e}", key.lowered));
                    continue;
                }
            };
            if art.cycles != key.truth.cycles || art.exe.op_count() != key.truth.exe.op_count() {
                out.fail(format!(
                    "compile #{req} ({}) differs from the key's first compile",
                    key.isa.slug()
                ));
            }
            if let Some(t) = traced.as_deref_mut() {
                let root = t.tracer.record("compile", t0, t1, None, req);
                let hooks = &hooks[..n.min(hooks.len())];
                for (j, &(phase, from)) in hooks.iter().enumerate() {
                    let to = hooks.get(j + 1).map_or(t1, |h| h.1);
                    t.tracer.record(phase_span(phase), from, to, Some(root), req);
                }
                let c = &mut t.counters;
                c.compiles += 1;
                c.lift_apps += compiled.lift_stats.applications as u64;
                c.lift_nodes += compiled.lift_stats.nodes_visited as u64;
                let low = &compiled.lower_stats;
                c.lower_apps += low.applications as u64;
                c.lower_nodes += low.nodes_visited as u64;
                c.lower_memo += low.memo_hits as u64;
                c.cost_hits += low.cost_cache_hits as u64;
                c.cost_misses += low.cost_cache_misses as u64;
                c.bounds_hits += low.bounds_cache_hits;
                c.bounds_misses += low.bounds_cache_misses;
                // The plain link of the same program, outside the compile
                // span: link minus link_plain is roughly the fuse cost.
                let t2 = Instant::now();
                let plain =
                    Executable::link_with(&art.program, target(key.isa), &ExecConfig::REFERENCE);
                let t3 = Instant::now();
                black_box(plain.is_ok());
                t.tracer.record("sim.link_plain", t2, t3, None, req);
            }
            black_box(art);
        }
        if start.elapsed() >= budget {
            return (done, start.elapsed());
        }
    }
}

/// Selection, emit, link and driver layers from traced compiles, with
/// the tracing overhead against interleaved untraced ones.
fn compile_layers(
    t: &Traced,
    untraced_ns: &[u32],
    traced_ns: &[u32],
    keys: &[Key],
    layers: &mut Layers,
) {
    let named = trace::by_name(&t.tracer.spans);
    let per_compile = |name: &str| {
        named.get(name).map_or(0.0, |&(ns, _)| ns as f64 / 1e3 / t.counters.compiles.max(1) as f64)
    };
    let phases = [
        ("core.lift", "core.lift.us"),
        ("core.lower_predicated", "core.lower_predicated.us"),
        ("core.lower", "core.lower.us"),
        ("isa.legalize", "isa.legalize.us"),
        ("sim.emit", "sim.emit.us"),
        ("sim.link", "sim.link.us"),
        ("compile", "driver.other.us"),
    ];
    let mut phase_sum = 0.0;
    for (span, metric) in phases {
        phase_sum += per_compile(span);
        layers.set(metric, per_compile(span));
    }
    layers.set("sim.link_plain.us", per_compile("sim.link_plain"));
    let untraced_mean_us = untraced_ns.iter().map(|&n| f64::from(n)).sum::<f64>()
        / untraced_ns.len().max(1) as f64
        / 1e3;
    layers.set("trace.phase_sum_ratio", phase_sum / untraced_mean_us);
    let (u, tr) = (sorted_us(untraced_ns), sorted_us(traced_ns));
    layers.set("trace.overhead_us", percentile(&tr, 0.5) - percentile(&u, 0.5));
    eprintln!(
        "pfbench: traced compile p50 {:.1}us vs untraced {:.1}us (overhead {:+.2}us); \
         phase self times sum to {phase_sum:.1}us per compile against an untraced mean of \
         {untraced_mean_us:.1}us",
        percentile(&tr, 0.5),
        percentile(&u, 0.5),
        percentile(&tr, 0.5) - percentile(&u, 0.5),
    );

    let c = &t.counters;
    let n = c.compiles.max(1) as f64;
    layers.set("trs.lift.applications", c.lift_apps as f64 / n);
    layers.set("trs.lift.nodes_visited", c.lift_nodes as f64 / n);
    layers.set("trs.lower.applications", c.lower_apps as f64 / n);
    layers.set("trs.lower.nodes_visited", c.lower_nodes as f64 / n);
    layers.set("trs.lower.memo_hits", c.lower_memo as f64 / n);
    let ratio = |h: u64, m: u64| h as f64 / (h + m).max(1) as f64;
    layers.set("trs.lower.cost_cache_hit_ratio", ratio(c.cost_hits, c.cost_misses));
    layers.set("trs.lower.bounds_cache_hit_ratio", ratio(c.bounds_hits, c.bounds_misses));

    let facts: Vec<[f64; 5]> = keys.iter().map(keys::code_facts).collect();
    let mean = |i: usize| facts.iter().map(|f| f[i]).sum::<f64>() / facts.len().max(1) as f64;
    layers.set("sim.emit.insts", mean(0));
    layers.set("sim.emit.dag_ratio", mean(1));
    layers.set("sim.fuse.kernels", mean(2));
    layers.set("sim.exec.peak_regs", mean(3));
    layers.set("sim.fuse.dispatch_ratio", mean(4));
}

/// Alternate untraced and traced compile passes over `keys`, `budget`
/// in all, and fill the compile layers. Workloads whose own traffic is
/// not compiles use this to measure those layers on their keys.
pub fn probe(
    sels: &[Pitchfork],
    keys: &[Key],
    exprs: &[RcExpr],
    rng: &mut Rng,
    budget: Duration,
    tracer: &mut Tracer,
    layers: &mut Layers,
    out: &mut Outcome,
) {
    let blank = tracer.fork();
    let mut traced =
        Traced { tracer: std::mem::replace(tracer, blank), counters: Counters::default() };
    let (mut untraced_ns, mut traced_ns) = (Vec::new(), Vec::new());
    // Probe compiles are not the workload's traffic.
    let attempted = out.attempted;
    for i in 0..4 {
        let slice = budget / 4;
        if i % 2 == 0 {
            compile_passes(sels, keys, exprs, rng, slice, None, &mut untraced_ns, out);
        } else {
            compile_passes(sels, keys, exprs, rng, slice, Some(&mut traced), &mut traced_ns, out);
        }
    }
    out.attempted = attempted;
    compile_layers(&traced, &untraced_ns, &traced_ns, keys, layers);
    *tracer = traced.tracer;
}

/// What set-up leaves for the trials.
pub struct Setup {
    pub sels: Vec<Pitchfork>,
    pub keys: Vec<Key>,
    pub skipped: Vec<String>,
    /// Each repetition's seconds, scaled to an undisturbed core.
    pub secs: Vec<f64>,
}

/// Set-up of the in-process workloads, repeated [`SETUP_REPS`] times:
/// four fresh selectors compile every key once, which also builds their
/// rule indexes. The last repetition's selectors and keys serve the run.
pub fn setup(kernels: &[Kernel], cal: &mut Calibrator) -> Result<Setup, String> {
    let before = cal.slowdown();
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let sels = keys::selectors();
        let built = keys::build_keys(kernels, &sels, |k| k.wl.pipeline.expr.clone())?;
        secs.push(t.elapsed().as_secs_f64());
        last = Some((sels, built));
    }
    let slowdown = (before + cal.slowdown()) / 2.0;
    let (sels, (keys, skipped)) = last.expect("set-up ran");
    Ok(Setup { sels, keys, skipped, secs: secs.iter().map(|s| s / slowdown).collect() })
}

/// `compile-figure` and `compile-unrolled`: a closed loop of fresh
/// compiles on warm selectors, one thread.
pub fn run(suite: Suite, a: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut rng = Rng::new(a.seed);
    let mut cal = Calibrator::new(SENSITIVITY);
    let kernels = keys::kernels(suite);
    let dags: Vec<RcExpr> = kernels.iter().map(|k| k.wl.pipeline.expr.clone()).collect();
    let Setup { sels, keys, skipped, secs } = match setup(&kernels, &mut cal) {
        Ok(s) => s,
        Err(e) => {
            out.fail(e);
            return out;
        }
    };
    out.extra.push(("skipped".into(), skipped_json(&skipped)));
    gate_artifacts(&kernels, &keys, a, &mut out);

    let slice = Duration::from_secs_f64(a.seconds as f64) / TRIALS as u32;
    if !a.trace {
        let mut samples = Vec::new();
        let mut trials = Trials::default();
        for _ in 0..TRIALS {
            let before = cal.slowdown();
            let mark = samples.len();
            let (n, took) =
                compile_passes(&sels, &keys, &dags, &mut rng, slice, None, &mut samples, &mut out);
            let slowdown = (before + cal.slowdown()) / 2.0;
            trials.record(n, took.as_secs_f64(), slowdown, &mut [&mut samples[mark..]]);
        }
        let rss = util::peak_rss_mib(None).unwrap_or(0.0);
        let cycles = cycles_geomean(&keys);
        report::end_to_end(&mut out, secs, &trials, &samples, rss, cycles);
        return out;
    }

    // Traced: the same loop, trials alternating untraced and traced so
    // the tracing overhead is measured under the same conditions.
    let mut layers = Layers::default();
    let mut slowdowns = vec![cal.slowdown()];
    let mut traced = Traced { tracer: Tracer::new(Instant::now()), counters: Counters::default() };
    let (mut untraced_ns, mut traced_ns) = (Vec::new(), Vec::new());
    for i in 0..TRIALS {
        if i % 2 == 0 {
            compile_passes(&sels, &keys, &dags, &mut rng, slice, None, &mut untraced_ns, &mut out);
        } else {
            let t = Some(&mut traced);
            compile_passes(&sels, &keys, &dags, &mut rng, slice, t, &mut traced_ns, &mut out);
        }
        slowdowns.push(cal.slowdown());
    }
    layers.set("host.slowdown", util::median(&slowdowns));
    compile_layers(&traced, &untraced_ns, &traced_ns, &keys, &mut layers);
    let mut tracer = traced.tracer;
    exec::probe(&kernels, &keys, a.seed, &mut tracer, &mut layers, &mut out);
    serve::probe(&kernels, &sels, a.seed, &mut tracer, &mut layers, &mut out);
    layers.into_outcome(&mut out);
    out.spans = tracer.spans;
    out
}

/// Every key's artifact runs bit-identically to the reference
/// interpreter on a seeded image.
fn gate_artifacts(kernels: &[Kernel], keys: &[Key], a: &Args, out: &mut Outcome) {
    for (k, kernel) in kernels.iter().enumerate() {
        let (inputs, mut want) = keys::reference_case(kernel, GATE_W, GATE_H, a.seed ^ k as u64);
        if a.plant_failure {
            keys::corrupt(&mut want);
        }
        for key in keys.iter().filter(|key| key.kernel == k) {
            if let Err(e) = keys::exec_gate(kernel, key.isa, &key.truth.exe, &inputs, &want) {
                out.fail(e);
            }
        }
    }
}

pub fn cycles_geomean(keys: &[Key]) -> f64 {
    geomean(&keys.iter().map(|k| k.truth.cycles as f64).collect::<Vec<_>>())
}

pub fn skipped_json(skipped: &[String]) -> pitchfork_service::Json {
    pitchfork_service::Json::Array(skipped.iter().map(pitchfork_service::Json::str).collect())
}
