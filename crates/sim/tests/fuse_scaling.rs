//! Regression test: the FAST link (link + fuse) scales linearly with the
//! linked program.
//!
//! Fusion grows each group from a worklist of its members' producers,
//! and both the linker's pool and the fuser's folded constants are
//! interned through a map, so a ~49k-instruction program and one with
//! 2^14 distinct constants link in a blink. Each must also stay within
//! the kernel caps (the static verifier checks them) and run equal to
//! the plain link and to the reference VM.

use fpir::build;
use fpir::interp::{Env, Value};
use fpir::types::{ScalarType as S, VectorType as V};
use fpir::{Isa, RcExpr};
use fpir_isa::{legalize, target};
use fpir_sim::{emit, execute, verify_executable, ExecConfig, Executable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TERMS: usize = 1 << 14;

fn balanced_sum(terms: &[RcExpr]) -> RcExpr {
    match terms {
        [one] => one.clone(),
        _ => {
            let (l, r) = terms.split_at(terms.len() / 2);
            build::add(balanced_sum(l), balanced_sum(r))
        }
    }
}

/// FAST-link `e`, check every kernel against the caps, and run it equal
/// to the plain link and to the VM on a seeded environment.
fn check(e: &RcExpr, t: V, isa: Isa) {
    let tg = target(isa);
    let p = emit(&legalize(e, tg).unwrap(), tg).unwrap();
    let plain = Executable::link_with(&p, tg, &ExecConfig::REFERENCE).unwrap();
    let fast = Executable::link_with(&p, tg, &ExecConfig::FAST).unwrap();
    verify_executable(&fast).unwrap();
    assert!(fast.fused_count() > 0 && fast.op_count() < plain.op_count(), "{isa}");

    let mut rng = StdRng::seed_from_u64(7);
    let env = fast.inputs().iter().fold(Env::new(), |env, slot| {
        let lanes = (0..t.lanes).map(|_| rng.gen_range(0..256)).collect();
        env.bind(&slot.name, Value::new(t, lanes))
    });
    let want = execute(&p, &env, tg).unwrap();
    assert_eq!(plain.run(&mut plain.new_ctx(), &env).unwrap(), want, "{isa} plain");
    assert_eq!(fast.run(&mut fast.new_ctx(), &env).unwrap(), want, "{isa} fast");
}

/// `sum_k x_k * c_k` over 2^14 distinct inputs and 16 constants: ~49k
/// linked instructions.
#[test]
fn a_large_sum_of_products_fuses_within_the_caps() {
    let t = V::new(S::U16, 8);
    let terms: Vec<RcExpr> = (0..TERMS)
        .map(|k| {
            build::mul(build::var(&format!("x{k}"), t), build::constant(k as i128 % 16 + 2, t))
        })
        .collect();
    let e = balanced_sum(&terms);
    for isa in fpir::machine::ALL_ISAS {
        check(&e, t, isa);
    }
}

/// `sum_k x * widen(c_k)` over 2^14 distinct narrow constants: the
/// linker pools 2^14 splats and the fuser folds every widening into a
/// new pool entry.
#[test]
fn distinct_constants_intern_linearly() {
    let t = V::new(S::U32, 4);
    let x = build::var("x", t);
    let terms: Vec<RcExpr> = (0..TERMS)
        .map(|k| {
            build::mul(
                x.clone(),
                build::cast(S::U32, build::constant(k as i128, V::new(S::U16, 4))),
            )
        })
        .collect();
    check(&balanced_sum(&terms), t, Isa::ArmNeon);
}
