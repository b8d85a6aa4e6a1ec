//! `exec-images`: the speed of the generated code. The artifacts are
//! compiled during set-up, so the compile layers do no work while the
//! trials run `run_tiled_exe` over whole seeded images.

use crate::keys::{self, Kernel, Key, Suite};
use crate::report::{self, Layers, Outcome};
use crate::speed::{Calibrator, Trials, SENSITIVITY};
use crate::trace::Tracer;
use crate::util::{self, geomean, ns32, Rng};
use crate::{compile, serve, Args};
use fpir_halide::{run_tiled_exe, Image};
use fpir_workloads::LANES;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The measured image size, per kernel input.
const WIDTH: usize = 512;
const HEIGHT: usize = 128;
/// Rows per image when another workload probes the execution layers.
const PROBE_HEIGHT: usize = 8;

/// Execution work summed over timed image runs.
#[derive(Debug, Default)]
struct Totals {
    ns: u64,
    rows: u64,
    strips: u64,
    dispatches: u64,
    /// Per key: busy nanoseconds and pixels produced.
    per_key: Vec<(u64, u64)>,
}

/// Run every key's artifact once per pass over its kernel's images, in a
/// fresh seeded order each pass, until `budget` has elapsed. With
/// `want`, each output of the first pass must equal the reference.
fn run_passes(
    keys: &[Key],
    kernels: &[Kernel],
    images: &[BTreeMap<String, Image>],
    want: Option<&[Image]>,
    rng: &mut Rng,
    budget: Duration,
    mut tracer: Option<&mut Tracer>,
    samples: &mut Vec<u32>,
    totals: &mut Totals,
    out: &mut Outcome,
) -> (u64, Duration) {
    totals.per_key.resize(keys.len(), (0, 0));
    let mut order: Vec<usize> = (0..keys.len()).collect();
    let (mut done, mut first) = (0u64, true);
    let start = Instant::now();
    loop {
        rng.shuffle(&mut order);
        for &i in &order {
            let key = &keys[i];
            let pipe = &kernels[key.kernel].wl.pipeline;
            let req = out.attempted;
            out.attempted += 1;
            let t0 = Instant::now();
            let r = run_tiled_exe(pipe, &key.truth.exe, &images[key.kernel], 1);
            let t1 = Instant::now();
            samples.push(ns32(t1 - t0));
            done += 1;
            let img = match r {
                Ok(img) => img,
                Err(e) => {
                    out.fail(format!("{}/{}: {e}", pipe.name, key.isa.slug()));
                    continue;
                }
            };
            if let Some(t) = tracer.as_deref_mut() {
                t.record("halide.run_tiled", t0, t1, None, req);
            }
            let ns = (t1 - t0).as_nanos() as u64;
            let strips = (img.height() * img.width().div_ceil(LANES as usize)) as u64;
            totals.ns += ns;
            totals.rows += img.height() as u64;
            totals.strips += strips;
            totals.dispatches += strips * key.truth.exe.op_count() as u64;
            totals.per_key[i].0 += ns;
            totals.per_key[i].1 += (img.width() * img.height()) as u64;
            if let (true, Some(want)) = (first, want) {
                if img != want[key.kernel] {
                    out.fail(format!(
                        "{}/{}: output differs from the reference interpreter",
                        pipe.name,
                        key.isa.slug()
                    ));
                }
            }
            black_box(img);
        }
        first = false;
        if start.elapsed() >= budget {
            return (done, start.elapsed());
        }
    }
}

fn exec_layers(t: &Totals, layers: &mut Layers) {
    layers.set("halide.run_tiled.row_us", t.ns as f64 / 1e3 / t.rows.max(1) as f64);
    let mpx: Vec<f64> =
        t.per_key.iter().filter(|k| k.0 > 0).map(|&(ns, px)| px as f64 / ns as f64 * 1e3).collect();
    layers.set("halide.mpix_per_s", geomean(&mpx));
    layers.set("sim.exec.dispatches_per_strip", t.dispatches as f64 / t.strips.max(1) as f64);
    layers.set("sim.exec.ns_per_dispatch", t.ns as f64 / t.dispatches.max(1) as f64);
}

/// Measure the execution layers on another workload's keys: passes over
/// short seeded images for about half a second.
pub fn probe(
    kernels: &[Kernel],
    keys: &[Key],
    seed: u64,
    tracer: &mut Tracer,
    layers: &mut Layers,
    out: &mut Outcome,
) {
    let images: Vec<_> = kernels
        .iter()
        .enumerate()
        .map(|(k, kernel)| kernel.wl.random_inputs(WIDTH, PROBE_HEIGHT, seed ^ k as u64))
        .collect();
    let mut totals = Totals::default();
    let attempted = out.attempted;
    let budget = Duration::from_millis(500);
    let mut rng = Rng::new(seed);
    let t = Some(&mut *tracer);
    run_passes(
        keys,
        kernels,
        &images,
        None,
        &mut rng,
        budget,
        t,
        &mut Vec::new(),
        &mut totals,
        out,
    );
    out.attempted = attempted;
    exec_layers(&totals, layers);
}

/// `exec-images`: one thread and one runner worker running the fused
/// artifacts round-robin over seeded images.
pub fn run(a: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut rng = Rng::new(a.seed);
    let mut cal = Calibrator::new(SENSITIVITY);
    let kernels = keys::kernels(Suite::Figure);
    let compile::Setup { sels, keys, skipped, secs } = match compile::setup(&kernels, &mut cal) {
        Ok(s) => s,
        Err(e) => {
            out.fail(e);
            return out;
        }
    };
    out.extra.push(("skipped".into(), compile::skipped_json(&skipped)));

    let (images, mut want): (Vec<_>, Vec<_>) = kernels
        .iter()
        .enumerate()
        .map(|(k, kernel)| keys::reference_case(kernel, WIDTH, HEIGHT, a.seed ^ k as u64))
        .unzip();
    if a.plant_failure {
        want.iter_mut().for_each(keys::corrupt);
    }
    let slice = Duration::from_secs_f64(a.seconds as f64) / compile::TRIALS as u32;
    let mut totals = Totals::default();
    let mut samples = Vec::new();
    let mut trials = Trials::default();
    let mut tracer = Tracer::new(Instant::now());
    for _ in 0..compile::TRIALS {
        let before = cal.slowdown();
        let mark = samples.len();
        let t = a.trace.then_some(&mut tracer);
        let (n, took) = run_passes(
            &keys,
            &kernels,
            &images,
            Some(&want),
            &mut rng,
            slice,
            t,
            &mut samples,
            &mut totals,
            &mut out,
        );
        let slowdown = (before + cal.slowdown()) / 2.0;
        trials.record(n, took.as_secs_f64(), slowdown, &mut [&mut samples[mark..]]);
    }

    if !a.trace {
        let rss = util::peak_rss_mib(None).unwrap_or(0.0);
        let cycles = compile::cycles_geomean(&keys);
        report::end_to_end(&mut out, secs, &trials, &samples, rss, cycles);
        return out;
    }
    let mut layers = Layers::default();
    layers.set("host.slowdown", util::median(&trials.slowdowns));
    exec_layers(&totals, &mut layers);
    let dags: Vec<_> = kernels.iter().map(|k| k.wl.pipeline.expr.clone()).collect();
    let probe_budget = Duration::from_secs(1);
    compile::probe(&sels, &keys, &dags, &mut rng, probe_budget, &mut tracer, &mut layers, &mut out);
    serve::probe(&kernels, &sels, a.seed, &mut tracer, &mut layers, &mut out);
    layers.into_outcome(&mut out);
    out.spans = tracer.spans;
    out
}
