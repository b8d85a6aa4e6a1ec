//! Differential properties of the three execution engines.
//!
//! The linked engine ([`fpir_sim::Executable`]), linked one kernel per
//! instruction ([`fpir_sim::ExecConfig::REFERENCE`]) and fused
//! ([`fpir_sim::ExecConfig::FAST`]), must be observationally identical to
//! the reference VM ([`fpir_sim::execute`]): the *same `Result`* on
//! every program and environment — equal values on success and equal
//! [`fpir_sim::ExecError`]s on failure, including which input a broken
//! environment is blamed on.

use fpir::interp::Value;
use fpir::rand_expr::{gen_expr, random_env, GenConfig};
use fpir::types::ScalarType;
use fpir_isa::{legalize, target};
use fpir_sim::{emit, execute, ExecConfig, Executable};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

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
