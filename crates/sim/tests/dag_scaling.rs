//! Regression test: emission scales with *unique* DAG nodes, not with
//! tree size.
//!
//! Unrolled stencils alias subexpressions heavily, so a lowered DAG of n
//! unique nodes can be a tree of 2^n nodes. Emission must visit each
//! unique node once — a deeply shared chain that could never be walked
//! as a tree must emit instantly, both through `emit` and through
//! `Artifact::from_lowered` (the path that rebuilds persisted and peer
//! artifacts). (Nothing here may call `size()`, `to_string()` or a
//! structural hash: those are all tree walks.)

use fpir::build;
use fpir::expr::{Expr, ExprKind};
use fpir::types::{ScalarType as S, VectorType as V};
use fpir::Isa;
use fpir_isa::{legalize, target};
use fpir_sim::{emit, PKind};
use pitchfork::Artifact;

const DEPTH: usize = 64; // tree size 2^64 — unwalkable

/// `x_{k+1} = add(x_k, x_k)` in machine ops, `DEPTH` levels over one
/// load: `DEPTH + 1` unique nodes.
fn machine_chain(isa: Isa) -> fpir::RcExpr {
    let t = V::new(S::U8, 16);
    let a = build::var("a", t);
    let one = legalize(&build::add(a.clone(), a.clone()), target(isa)).unwrap();
    let ExprKind::Mach(add, _) = one.kind() else { panic!("add must lower to one machine op") };
    let mut e = a;
    for _ in 0..DEPTH {
        e = Expr::mach(*add, t, vec![e.clone(), e]);
    }
    e
}

#[test]
fn emit_scales_with_unique_nodes_not_tree_size() {
    for isa in fpir::machine::ALL_ISAS {
        let e = machine_chain(isa);
        assert_eq!(Expr::unique_count(&e), DEPTH + 1);
        let p = emit(&e, target(isa)).unwrap();
        assert_eq!(p.insts().len(), DEPTH + 1, "{isa}");
        assert_eq!(p.op_count(), DEPTH, "{isa}");
        // Each add reads its predecessor twice.
        for (i, inst) in p.insts().iter().enumerate().skip(1) {
            let PKind::Op { args, .. } = &inst.kind else { panic!("{isa}: {inst:?}") };
            assert_eq!(args, &[i - 1, i - 1], "{isa}");
        }
        assert_eq!(p.output(), DEPTH);
    }
}

#[test]
fn artifacts_rebuild_from_deep_dags() {
    for isa in fpir::machine::ALL_ISAS {
        let art = Artifact::from_lowered(machine_chain(isa), isa).unwrap();
        assert_eq!(art.program.insts().len(), DEPTH + 1, "{isa}");
        assert_eq!(art.program.op_count(), DEPTH, "{isa}");
    }
}
