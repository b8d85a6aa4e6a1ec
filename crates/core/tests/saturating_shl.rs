//! §8.4 extensibility: `saturating_shl` end-to-end.
//!
//! The paper demonstrates Pitchfork's extensibility by adding one
//! instruction — `saturating_shl(x, y) = saturating_cast<T>(widening_shl(
//! x, y))` — with a one-line semantic definition, one lifting rule, a few
//! backend mappings, and the shared emulation path. This test exercises
//! all of those pieces.

use fpir::build::*;
use fpir::interp::{eval, eval_with};
use fpir::types::{ScalarType as S, VectorType as V};
use fpir::Isa;
use pitchfork::Pitchfork;
use rand::SeedableRng;

#[test]
fn lifts_from_the_section_8_4_pattern() {
    // saturating_cast<u16>(widening_shl(x_u16, 3)) -> saturating_shl(x, 3).
    let t = V::new(S::U16, 16);
    let e = saturating_cast(S::U16, widening_shl(var("x", t), constant(3, t)));
    let pf = Pitchfork::new(Isa::ArmNeon);
    let (lifted, _) = pf.lift(&e);
    assert_eq!(lifted.to_string(), "saturating_shl(x_u16, 3)");
}

#[test]
fn maps_to_uqshl_on_arm_and_emulates_elsewhere() {
    let t = V::new(S::U16, 16);
    let e = saturating_shl(var("x", t), constant(3, t));
    // ARM has the native instruction family (uqshl/sqshl).
    let out = Pitchfork::new(Isa::ArmNeon).compile(&e).unwrap();
    assert_eq!(out.lowered.to_string(), "arm.uqshl(x_u16, 3)");
    // x86 has no equivalent: the shared emulation path (widen, shift,
    // clamp, narrow) takes over, and stays correct.
    let out = Pitchfork::new(Isa::X86Avx2).compile(&e).unwrap();
    assert!(!out.lowered.to_string().contains("uqshl"));
    let mut rng = rand::rngs::StdRng::seed_from_u64(84);
    let evaluator = fpir_isa::MachEvaluator;
    for _ in 0..40 {
        let env = fpir::rand_expr::random_env(&mut rng, &e);
        assert_eq!(
            eval(&e, &env).unwrap(),
            eval_with(&out.lowered, &env, Some(&evaluator)).unwrap()
        );
    }
}

#[test]
fn saturation_actually_engages() {
    let t = V::new(S::I16, 4);
    let e = saturating_shl(var("x", t), constant(8, t));
    let env =
        fpir::interp::Env::new().bind("x", fpir::interp::Value::new(t, vec![1000, -1000, 1, -1]));
    let v = eval(&e, &env).unwrap();
    assert_eq!(v.lanes(), &[i16::MAX as i128, i16::MIN as i128, 256, -256]);
}

#[test]
fn the_synthesis_system_knows_the_new_instruction() {
    // §8.4's last step: the synthesis engine's instruction list includes
    // the extension, so the enumerator can produce it.
    let t = V::new(S::I16, 64);
    let lhs = saturating_cast(S::I16, widening_shl(var("x", t), constant(2, t)));
    let rhs = fpir_synth::synthesize_lift(
        &lhs,
        &fpir_synth::SynthBudget::default(),
        &fpir_pool::Pool::sequential(),
    )
    .expect("synthesizable");
    assert!(rhs.to_string().contains("saturating_shl"), "{rhs}");
}
