//! The pass-timer probe: what each kind of kernel step costs per lane
//! inside real image runs. Every step is one compiled pass over the
//! lanes. The probe runs the 64 figure artifacts (16 kernels × 4 ISAs,
//! as pfbench's `exec-images` does) over seeded 512×128 images, one row
//! segment of up to [`RUN_LANES`] lanes at a time (here the whole
//! 512-lane row, as the tiled runner makes it) through
//! [`Executable::run_lanes_observed`], times
//! every step, and prints ns/lane per step kind, its share of the step
//! time, and the steps' share of the whole run. The timer's own cost per
//! step is measured and subtracted.
//!
//! It asserts nothing about speed, so it is ignored by default. Run it
//! in release, pinned to one CPU, to reproduce the ns/lane tables of
//! `docs/perf.md`:
//!
//! ```text
//! taskset -c 1 cargo test --release -p fpir-sim --test pass_timer -- --ignored --nocapture
//! ```

use fpir_isa::Lanes;
use fpir_sim::{ExecCtx, Executable, PassObserver, RUN_LANES};
use fpir_workloads::all_workloads;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const WIDTH: usize = 512;
const HEIGHT: usize = 128;
/// Rounds over the artifact set; each step kind reports its total.
const ROUNDS: usize = 3;

/// Nanoseconds and lanes per step of one executable.
struct Timer {
    start: Instant,
    ns: Vec<u64>,
    lanes: Vec<u64>,
    calls: Vec<u64>,
}

impl PassObserver for Timer {
    fn before(&mut self, _: usize) {
        self.start = Instant::now();
    }
    fn after(&mut self, step: usize, lanes: usize) {
        self.ns[step] += self.start.elapsed().as_nanos() as u64;
        self.lanes[step] += lanes as u64;
        self.calls[step] += 1;
    }
}

/// The timer's own cost per step, in ns: an empty step timed as the
/// engine times one, fastest of several batches.
fn timer_overhead() -> f64 {
    let mut t = Timer { start: Instant::now(), ns: vec![0], lanes: vec![0], calls: vec![0] };
    (0..20)
        .map(|_| {
            t.ns[0] = 0;
            for _ in 0..10_000 {
                t.before(0);
                t.after(0, 0);
            }
            t.ns[0] as f64 / 10_000.0
        })
        .fold(f64::INFINITY, f64::min)
}

/// A tap's input buffer and offsets, from its slot name
/// (`<buffer>__<dx>_<dy>`, offsets written `m3` or `p0`).
fn tap(name: &str) -> (String, i64, i64) {
    let offset = |s: &str| {
        let v: i64 = s[1..].parse().expect("a tap offset");
        if s.starts_with('m') {
            -v
        } else {
            v
        }
    };
    let (buffer, offsets) = name.split_once("__").expect("a tap");
    let (dx, dy) = offsets.split_once('_').expect("two offsets");
    (buffer.to_string(), offset(dx), offset(dy))
}

#[test]
#[ignore = "a probe: prints per-step costs, asserts nothing about speed"]
fn step_kinds_ns_per_lane_in_images() {
    let overhead = timer_overhead();
    // (ns, lanes, calls) per step kind, over every artifact and round.
    let mut kinds: BTreeMap<String, (f64, u64, u64)> = BTreeMap::new();
    let (mut run_ns, mut step_ns) = (0f64, 0f64);
    let mut artifacts = 0;
    for isa in fpir::machine::ALL_ISAS {
        let pf = pitchfork::Pitchfork::new(isa);
        for (w, wl) in all_workloads().into_iter().enumerate() {
            let exe: Executable =
                pitchfork::compile_to_executable(&pf, &wl.pipeline.expr).unwrap().exe;
            let images = wl.random_inputs(WIDTH, HEIGHT, 7 + w as u64);
            let seg = RUN_LANES.min(WIDTH);
            let slots: Vec<(&Lanes, usize, i64, i64)> = exe
                .inputs()
                .iter()
                .map(|slot| {
                    let (buffer, dx, dy) = tap(&slot.name);
                    let img = &images[&buffer];
                    (img.lanes(), img.width(), dx, dy)
                })
                .collect();
            let n = exe.step_count();
            let mut t = Timer {
                start: Instant::now(),
                ns: vec![0; n],
                lanes: vec![0; n],
                calls: vec![0; n],
            };
            let mut ctx = ExecCtx::new();
            let mut ins: Vec<Lanes> = Vec::new();
            let mut busy = Duration::ZERO;
            for _ in 0..ROUNDS {
                for y in 0..HEIGHT as i64 {
                    for x0 in (0..WIDTH as i64).step_by(seg) {
                        let lanes = seg.min(WIDTH - x0 as usize);
                        for l in ins.drain(..) {
                            ctx.recycle_lanes(l);
                        }
                        for &(img, width, dx, dy) in &slots {
                            let mut buf = ctx.take_lanes(img.elem());
                            let ry = (y + dy).clamp(0, HEIGHT as i64 - 1) as usize;
                            let row: Vec<i128> = (0..lanes as i64)
                                .map(|i| {
                                    img.get(
                                        ry * width
                                            + (x0 + dx + i).clamp(0, width as i64 - 1) as usize,
                                    )
                                })
                                .collect();
                            buf.extend_from(&row);
                            ins.push(buf);
                        }
                        let t0 = Instant::now();
                        exe.run_lanes_observed(&mut ctx, &ins, &mut t).unwrap();
                        busy += t0.elapsed();
                    }
                }
            }
            run_ns += busy.as_nanos() as f64 - overhead * t.calls.iter().sum::<u64>() as f64;
            for i in 0..n {
                let ns = t.ns[i] as f64 - overhead * t.calls[i] as f64;
                step_ns += ns;
                let e = kinds.entry(exe.step_kind(i)).or_default();
                e.0 += ns;
                e.1 += t.lanes[i];
                e.2 += t.calls[i];
            }
            artifacts += 1;
        }
    }
    assert_eq!(artifacts, 64);
    let mut rows: Vec<_> = kinds.into_iter().collect();
    rows.sort_by(|a, b| b.1 .0.total_cmp(&a.1 .0));
    println!("timer overhead {overhead:.1} ns per step, subtracted");
    println!(
        "steps {:.1}% of {:.1} ms of runs ({} rounds)",
        100.0 * step_ns / run_ns,
        run_ns / 1e6,
        ROUNDS
    );
    println!("{:>8} {:>6} {:>10}  step kind", "ns/lane", "share", "calls");
    for (kind, (ns, lanes, calls)) in rows {
        println!("{:>8.2} {:>5.1}% {:>10}  {kind}", ns / lanes as f64, 100.0 * ns / step_ns, calls);
    }
}
