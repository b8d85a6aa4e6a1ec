//! Differential tests for the fast rewrite engine: the accelerated
//! dispatch paths (root-operator indexing, DAG memoization, cost caching)
//! must be observationally identical to the original linear-scan,
//! tree-walking engine on every workload and on arbitrary well-typed
//! expressions, on every target, and on every shipped rule's own
//! left-hand-side instantiations. (`tests/mask_dispatch.rs` checks the
//! index on its own: every rule that applies at a node is admitted.)

use fpir::interp::{eval, eval_with};
use fpir::rand_expr::{gen_expr, random_env, GenConfig};
use fpir::types::ScalarType;
use fpir_isa::MachEvaluator;
use fpir_workloads::{all_workloads, extra_workloads, unrolled_workloads};
use pitchfork::{Config, Engine, Pitchfork};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

mod common;

const TYPES: [ScalarType; 6] = [
    ScalarType::U8,
    ScalarType::U16,
    ScalarType::U32,
    ScalarType::I8,
    ScalarType::I16,
    ScalarType::I32,
];

fn gen_from_seed(seed: u64, elem: ScalarType) -> fpir::RcExpr {
    let mut rng = StdRng::seed_from_u64(seed);
    gen_expr(&mut rng, &GenConfig { lanes: 8, ..GenConfig::default() }, elem)
}

/// FAST == REFERENCE on every workload × ISA artifact — the 16 paper
/// kernels, the extra kernels and the unrolled DAG kernels on all four
/// targets — and on every shipped rule's own left-hand-side
/// instantiations, which reach the rules no workload exercises:
/// identical lifted and identical lowered expressions.
#[test]
fn fast_engine_matches_reference_on_every_workload() {
    let mut artifacts = 0;
    for isa in fpir::machine::ALL_ISAS {
        let fast = Pitchfork::new(isa);
        let reference = Pitchfork::with_config(Config::new(isa).with_engine(Engine::Reference));
        for wl in all_workloads().into_iter().chain(extra_workloads()).chain(unrolled_workloads()) {
            let name = wl.name();
            let f = fast.compile(&wl.pipeline.expr).unwrap_or_else(|e| panic!("{name}/{isa}: {e}"));
            let r = reference
                .compile(&wl.pipeline.expr)
                .unwrap_or_else(|e| panic!("{name}/{isa}: reference engine: {e}"));
            assert_eq!(f.lifted, r.lifted, "{name}/{isa}: lift diverged");
            assert_eq!(f.lowered, r.lowered, "{name}/{isa}: lowering diverged");
            artifacts += 1;
        }
        for (label, e) in common::rule_instantiations(isa) {
            match (fast.compile(&e), reference.compile(&e)) {
                (Ok(f), Ok(r)) => {
                    assert_eq!(f.lifted, r.lifted, "{label}: lift diverged");
                    assert_eq!(f.lowered, r.lowered, "{label}: lowering diverged");
                }
                (Err(f), Err(r)) => assert_eq!(f.to_string(), r.to_string(), "{label}"),
                (f, r) => panic!(
                    "{label}: engines disagree on compilability (fast {:?}, reference {:?})",
                    f.map(|c| c.lowered.to_string()),
                    r.map(|c| c.lowered.to_string())
                ),
            }
        }
    }
    assert_eq!(artifacts, 100);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The full fast engine (memo + index + cost cache) compiles to the
    /// same machine code as the reference engine, and both agree with the
    /// reference interpreter.
    #[test]
    fn fast_engine_matches_reference_end_to_end(seed in any::<u64>(), ti in 0usize..TYPES.len()) {
        let e = gen_from_seed(seed, TYPES[ti]);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(23));
        for isa in fpir::machine::ALL_ISAS {
            let fast = Pitchfork::with_config(Config::new(isa));
            let reference =
                Pitchfork::with_config(Config::new(isa).with_engine(Engine::Reference));
            match (fast.compile(&e), reference.compile(&e)) {
                (Ok(f), Ok(r)) => {
                    prop_assert_eq!(&f.lifted, &r.lifted, "{} lift diverged on {}", isa, e);
                    prop_assert_eq!(&f.lowered, &r.lowered, "{} lowering diverged on {}", isa, e);
                    for _ in 0..3 {
                        let env = random_env(&mut rng, &e);
                        let want = eval(&e, &env).unwrap();
                        let got =
                            eval_with(&f.lowered, &env, Some(&MachEvaluator)).unwrap();
                        prop_assert_eq!(want, got, "{} fast engine miscompiled {}", isa, e);
                    }
                }
                (Err(_), Err(_)) => {} // width limits fail identically
                (f, r) => prop_assert!(
                    false,
                    "{}: engines disagree on compilability of {} (fast {:?}, reference {:?})",
                    isa, e, f.map(|c| c.lowered.to_string()), r.map(|c| c.lowered.to_string())
                ),
            }
        }
    }
}
