//! Differential properties of the three execution engines.
//!
//! The linked engine ([`fpir_sim::Executable`]), linked one kernel per
//! instruction ([`fpir_sim::ExecConfig::REFERENCE`]) and fused
//! ([`fpir_sim::ExecConfig::FAST`]), must be observationally identical to
//! the reference VM ([`fpir_sim::execute`]): the *same `Result`* on
//! every program and environment — equal values on success and equal
//! [`fpir_sim::ExecError`]s on failure, including which input a broken
//! environment is blamed on.
//!
//! The lane-wise gate checks what lets a run take any width: one
//! [`Executable::run_lanes`] call over `n` lanes, for `n` from 1 to
//! [`RUN_LANES`], equals the runs at the linked width over the same
//! lanes, window by window, and each window equals the reference VM's.

use fpir::interp::{Env, Value};
use fpir::rand_expr::{gen_expr, rand_lane, random_env, GenConfig};
use fpir::types::ScalarType;
use fpir_isa::{legalize, target, Lanes, Target};
use fpir_sim::{emit, execute, ExecConfig, Executable, Program, RUN_LANES};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TYPES: [ScalarType; 6] = [
    ScalarType::U8,
    ScalarType::U16,
    ScalarType::U32,
    ScalarType::I8,
    ScalarType::I16,
    ScalarType::I32,
];

/// The run widths of the lane-wise gate: one lane, a partial window,
/// one and just over one 128-lane window, several, and the most a run
/// takes.
const WIDTHS: [usize; 6] = [1, 37, 128, 129, 300, RUN_LANES];

/// The lane-wise gate for one executable of `p`: for every width `n` of
/// [`WIDTHS`], one run over `n` random lanes per slot equals, in each
/// window of the linked width `w`, the run at `w` over that window's
/// lanes and [`execute`] on them. A window past the last lane is padded
/// with lanes from the start, and only its first lanes are compared.
fn check_lane_wise(p: &Program, t: &Target, exe: &Executable, rng: &mut StdRng, what: &str) {
    let Some(w) = exe.inputs().first().map(|s| s.ty.lanes as usize) else { return };
    let mut ctx = exe.new_ctx();
    let (mut wide, mut narrow) = (Vec::new(), Vec::new());
    for n in WIDTHS {
        let lanes: Vec<Vec<i128>> = exe
            .inputs()
            .iter()
            .map(|s| (0..n).map(|_| rand_lane(rng, s.ty.elem)).collect())
            .collect();
        let slots: Vec<Lanes> =
            exe.inputs().iter().zip(&lanes).map(|(s, l)| Lanes::from_lanes(s.ty.elem, l)).collect();
        wide.clear();
        exe.run_lanes(&mut ctx, &slots).unwrap().write_to(&mut wide);
        assert_eq!(wide.len(), n, "{what}: {n} lanes");
        for x0 in (0..n).step_by(w) {
            let m = w.min(n - x0);
            let window: Vec<Vec<i128>> =
                lanes.iter().map(|l| (x0..x0 + w).map(|i| l[i % n]).collect()).collect();
            let slots: Vec<Lanes> = exe
                .inputs()
                .iter()
                .zip(&window)
                .map(|(s, l)| Lanes::from_lanes(s.ty.elem, l))
                .collect();
            narrow.clear();
            exe.run_lanes(&mut ctx, &slots).unwrap().write_to(&mut narrow);
            assert_eq!(wide[x0..x0 + m], narrow[..m], "{what}: {n} lanes, window at {x0}");
            let env: Env = exe
                .inputs()
                .iter()
                .zip(&window)
                .map(|(s, l)| (s.name.clone(), Value::new(s.ty, l.clone())))
                .collect();
            let want = execute(p, &env, t).unwrap();
            assert_eq!(narrow, want.lanes(), "{what}: {n} lanes, window at {x0} against the VM");
        }
    }
}

/// The lane-wise gate on every workload × ISA artifact the driver ships,
/// and on the REFERENCE link of its program.
#[test]
fn one_run_over_any_width_equals_runs_at_the_linked_width_on_every_artifact() {
    use fpir_workloads::{all_workloads, extra_workloads, unrolled_workloads};
    let mut rng = StdRng::seed_from_u64(31);
    let mut artifacts = 0;
    for wl in all_workloads().into_iter().chain(unrolled_workloads()).chain(extra_workloads()) {
        for isa in fpir::machine::ALL_ISAS {
            let pf = pitchfork::Pitchfork::new(isa);
            let art = pitchfork::compile_to_executable(&pf, &wl.pipeline.expr).unwrap();
            let t = target(isa);
            let linked = Executable::link_with(&art.program, t, &ExecConfig::REFERENCE).unwrap();
            for (shape, exe) in [("fused", &art.exe), ("linked", &linked)] {
                let what = format!("{}/{isa} {shape}", wl.name());
                check_lane_wise(&art.program, t, exe, &mut rng, &what);
            }
            artifacts += 1;
        }
    }
    assert_eq!(artifacts, 100);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The lane-wise gate on random programs, through both links.
    #[test]
    fn one_run_over_any_width_equals_runs_at_the_linked_width(
        seed in any::<u64>(),
        ti in 0usize..TYPES.len(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = GenConfig { lanes: 8, ..GenConfig::default() };
        let e = gen_expr(&mut rng, &cfg, TYPES[ti]);
        for isa in fpir::machine::ALL_ISAS {
            let t = target(isa);
            let Ok(m) = legalize(&e, t) else { continue };
            let p = emit(&m, t).unwrap();
            for cfg in [ExecConfig::REFERENCE, ExecConfig::FAST] {
                let exe = Executable::link_with(&p, t, &cfg).unwrap();
                check_lane_wise(&p, t, &exe, &mut rng, &format!("{isa} {cfg:?} on {e}"));
            }
        }
    }

    /// On random programs and random well-formed environments, the linked
    /// engine and the reference VM return the same `Result`. One context
    /// is reused across all rounds, so this also exercises the recycled
    /// register file with varying live values.
    #[test]
    fn engines_agree_on_random_programs(seed in any::<u64>(), ti in 0usize..TYPES.len()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = GenConfig { lanes: 8, ..GenConfig::default() };
        let e = gen_expr(&mut rng, &cfg, TYPES[ti]);
        for isa in fpir::machine::ALL_ISAS {
            let t = target(isa);
            let Ok(m) = legalize(&e, t) else { continue };
            let p = emit(&m, t).unwrap();
            let exe = Executable::link_with(&p, t, &ExecConfig::REFERENCE).unwrap();
            let fused = Executable::link_with(&p, t, &ExecConfig::FAST).unwrap();
            let mut ctx = exe.new_ctx();
            let mut fctx = fused.new_ctx();
            for _ in 0..3 {
                let env = random_env(&mut rng, &e);
                let reference = execute(&p, &env, t);
                let fast = exe.run(&mut ctx, &env);
                let fout = fused.run(&mut fctx, &env);
                prop_assert_eq!(&fast, &reference, "{} diverged on {}", isa, e);
                prop_assert_eq!(&fout, &reference, "{} fused diverged on {}", isa, e);
            }
        }
    }

    /// The engines also agree on *broken* environments: with a binding
    /// missing or bound at the wrong type, both fail with the identical
    /// error — same variant, same input name, same program position and
    /// register — or, if the program never loads that input, both still
    /// succeed with equal values.
    #[test]
    fn engines_agree_on_broken_environments(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = GenConfig { lanes: 8, ..GenConfig::default() };
        let e = gen_expr(&mut rng, &cfg, ScalarType::I16);
        let vars = e.free_vars();
        if vars.is_empty() {
            return Ok(());
        }
        let broken = rng.gen_range(0..vars.len());
        for isa in fpir::machine::ALL_ISAS {
            let t = target(isa);
            let Ok(m) = legalize(&e, t) else { continue };
            let p = emit(&m, t).unwrap();
            let exe = Executable::link_with(&p, t, &ExecConfig::REFERENCE).unwrap();
            let fused = Executable::link_with(&p, t, &ExecConfig::FAST).unwrap();
            let mut ctx = exe.new_ctx();
            let mut fctx = fused.new_ctx();

            // Missing binding.
            let env: fpir::interp::Env = vars
                .iter()
                .filter(|(n, _)| *n != vars[broken].0)
                .map(|(n, ty)| (n.clone(), Value::splat(0, *ty)))
                .collect();
            prop_assert_eq!(exe.run(&mut ctx, &env), execute(&p, &env, t), "{isa}: missing");
            prop_assert_eq!(
                fused.run(&mut fctx, &env),
                execute(&p, &env, t),
                "{isa}: missing (fused)"
            );

            // Mistyped binding: same lane count, different element type.
            let env: fpir::interp::Env = vars
                .iter()
                .enumerate()
                .map(|(i, (n, ty))| {
                    let elem = match (i == broken, ty.elem) {
                        (true, ScalarType::U8) => ScalarType::U16,
                        (true, _) => ScalarType::U8,
                        (false, e) => e,
                    };
                    (n.clone(), Value::splat(0, fpir::types::VectorType { elem, lanes: ty.lanes }))
                })
                .collect();
            prop_assert_eq!(exe.run(&mut ctx, &env), execute(&p, &env, t), "{isa}: mistyped");
            prop_assert_eq!(
                fused.run(&mut fctx, &env),
                execute(&p, &env, t),
                "{isa}: mistyped (fused)"
            );
        }
    }
}
