//! Differential tests for the rewriter: its memo, rule index and cost
//! cache must be observationally identical to the reference compile
//! ([`Pitchfork::compile_reference`]: the tree-walking, linear-scan
//! `fpir_trs::rewrite_reference` and the uncached legalizer) on every
//! workload and on arbitrary well-typed expressions, on every target,
//! and on every shipped rule's own left-hand-side instantiations — with
//! the full rule set and with the two configurations the figures
//! compile under (leave-one-out, hand-written only).
//! (`tests/mask_dispatch.rs` checks the index on its own: every rule
//! that applies at a node is admitted.)

use fpir::interp::{eval, eval_with};
use fpir::rand_expr::{gen_expr, random_env, GenConfig};
use fpir::types::ScalarType;
use fpir::RcExpr;
use fpir_isa::MachEvaluator;
use fpir_workloads::{all_workloads, extra_workloads, unrolled_workloads};
use pitchfork::{Config, Pitchfork};
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

/// Compile `e` with `pf` and with its reference compile: identical
/// lifted and identical lowered expressions, or the same error. Returns
/// whether `e` compiled.
fn matches_reference(pf: &Pitchfork, label: &str, e: &RcExpr) -> bool {
    match (pf.compile(e), pf.compile_reference(e)) {
        (Ok(f), Ok(r)) => {
            assert_eq!(f.lifted, r.lifted, "{label}: lift diverged");
            assert_eq!(f.lowered, r.lowered, "{label}: lowering diverged");
            true
        }
        (Err(f), Err(r)) => {
            assert_eq!(f.to_string(), r.to_string(), "{label}");
            false
        }
        (f, r) => panic!(
            "{label}: compile and reference disagree on compilability ({:?}, reference {:?})",
            f.map(|c| c.lowered.to_string()),
            r.map(|c| c.lowered.to_string())
        ),
    }
}

/// The rewriter == the reference on every workload × ISA artifact — the
/// 16 paper kernels, the extra kernels and the unrolled DAG kernels on
/// all four targets — and on every shipped rule's own left-hand-side
/// instantiations, which reach the rules no workload exercises.
#[test]
fn fast_engine_matches_reference_on_every_workload() {
    let mut artifacts = 0;
    for isa in fpir::machine::ALL_ISAS {
        let pf = Pitchfork::new(isa);
        for wl in all_workloads().into_iter().chain(extra_workloads()).chain(unrolled_workloads()) {
            let label = format!("{}/{isa}", wl.name());
            assert!(matches_reference(&pf, &label, &wl.pipeline.expr), "{label} does not compile");
            artifacts += 1;
        }
        for (label, e) in common::rule_instantiations(isa) {
            matches_reference(&pf, &label, &e);
        }
    }
    assert_eq!(artifacts, 100);
}

/// The rewriter == the reference under the configurations the figures
/// compile with: Figure 5's Pitchfork column (each of the 16 paper
/// kernels with its own synthesized rules left out) and §5.3's ablation
/// (hand-written rules only), on the kernels and on every shipped rule's
/// left-hand-side instantiations. Some rules fire only here, such as
/// `hvx-vmpa-acc-mul-{mul,shl}` under hand-written only.
#[test]
fn fast_engine_matches_reference_on_the_figure_configurations() {
    for isa in fpir::machine::ALL_ISAS {
        let instantiations = common::rule_instantiations(isa);
        let hand = Pitchfork::with_config(Config::new(isa).hand_written_only());
        for wl in all_workloads() {
            let (name, e) = (wl.name(), &wl.pipeline.expr);
            let loo = Pitchfork::with_config(Config::new(isa).leaving_out(name));
            for (pf, config) in [(&loo, "leaving out its rules"), (&hand, "hand-written")] {
                let label = format!("{name}/{isa} {config}");
                assert!(matches_reference(pf, &label, e), "{label} does not compile");
            }
            for (label, e) in &instantiations {
                matches_reference(&loo, &format!("{label} leaving out {name}"), e);
            }
        }
        for (label, e) in &instantiations {
            matches_reference(&hand, &format!("{label} hand-written"), e);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The rewriter (memo + index + cost cache) compiles to the same
    /// machine code as the reference compile, and both agree with the
    /// reference interpreter.
    #[test]
    fn fast_engine_matches_reference_end_to_end(seed in any::<u64>(), ti in 0usize..TYPES.len()) {
        let e = gen_from_seed(seed, TYPES[ti]);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(23));
        for isa in fpir::machine::ALL_ISAS {
            let pf = Pitchfork::new(isa);
            match (pf.compile(&e), pf.compile_reference(&e)) {
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
