//! Pinned output of instruction selection: a digest over everything the
//! rewriter decides, so an engine change that alters any lifted or lowered
//! expression, the order in which lifting rules fire, or how often each
//! lowering rule fires fails here even when the result is still correct.
//!
//! The corpus is every workload × ISA artifact (the 16 paper kernels, the
//! extra kernels and the unrolled DAG kernels, on all four targets) plus
//! fixed seeds of the random-expression generator used by the engine
//! differential tests. A second digest covers every shipped rule's own
//! left-hand-side instantiations, which reach most of the rules no
//! workload or generator seed exercises. Six rules remain gaps, in that
//! removing any one of them changes no lifted or lowered output:
//! - `rounding-shr`: another rule yields the same output, so only the
//!   digested firing order notices its removal;
//! - `x86-rounding-shr-bounded-{i16,u32,i32}`: they never fire, since
//!   their predicate needs an operand with headroom below its type's
//!   maximum and no input in either corpus has one;
//! - `hvx-vmpa-acc-mul-{mul,shl}`: they fire only under the
//!   hand-written-only configuration, and both digests use the full one
//!   (`engine_differential.rs` compares that configuration against the
//!   reference compile).
//!
//! Expressions are serialized by structural value numbering, one line
//! per distinct subtree in first post-order occurrence, so a digest is a
//! function of the expression tree and costs time linear in the DAG
//! rather than in the tree.
//!
//! When a change is *meant* to alter selection, recompute the constants
//! with `cargo test -p pitchfork --test byte_identity -- --nocapture` and
//! say why in the change description.

use fpir::expr::{Expr, ExprKind, RcExpr};
use fpir::identity::FnvHasher;
use fpir::machine::ALL_ISAS;
use fpir::rand_expr::{gen_expr, GenConfig};
use fpir::types::ScalarType;
use fpir_workloads::{all_workloads, extra_workloads, unrolled_workloads};
use pitchfork::Pitchfork;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::hash::Hasher;

mod common;

/// The digest of the corpus below, as selected by the shipped engine.
const PINNED: u64 = 0x0c97_5f84_fdc7_c5af;

/// The digest of every shipped rule's left-hand-side instantiations.
const PINNED_RULES: u64 = 0x9958_ad44_5c80_4626;

/// Generator seeds per element type.
const SEEDS: u64 = 64;

const TYPES: [ScalarType; 6] = [
    ScalarType::U8,
    ScalarType::U16,
    ScalarType::U32,
    ScalarType::I8,
    ScalarType::I16,
    ScalarType::I32,
];

/// Fold one line into a digest. FNV-1a is stable across platforms and
/// toolchains.
fn fold(h: &mut FnvHasher, s: &str) {
    h.write(s.as_bytes());
    h.write(b"\n");
}

/// Serialize `e` as one line per distinct subtree, numbered by structure.
fn serialize(e: &RcExpr) -> String {
    fn head(e: &Expr) -> String {
        match e.kind() {
            ExprKind::Var(name) => format!("var {name}"),
            ExprKind::Const(v) => format!("const {v}"),
            ExprKind::Bin(op, ..) => format!("{op:?}"),
            ExprKind::Cmp(op, ..) => format!("cmp {op:?}"),
            ExprKind::Select(..) => "select".into(),
            ExprKind::Cast(_) => "cast".into(),
            ExprKind::Reinterpret(_) => "reinterpret".into(),
            ExprKind::Fpir(op, _) => format!("{op:?}"),
            ExprKind::Mach(op, _) => format!("{op:?}"),
        }
    }
    fn walk(
        e: &RcExpr,
        by_ptr: &mut HashMap<usize, usize>,
        by_shape: &mut HashMap<String, usize>,
        out: &mut String,
    ) -> usize {
        if let Some(&id) = by_ptr.get(&Expr::ptr_id(e)) {
            return id;
        }
        let kids: Vec<String> =
            (0..e.arity()).map(|i| walk(e.child(i), by_ptr, by_shape, out).to_string()).collect();
        let shape = format!("{} {} [{}]", head(e), e.ty(), kids.join(","));
        let next = by_shape.len();
        let id = *by_shape.entry(shape.clone()).or_insert_with(|| {
            out.push_str(&shape);
            out.push('\n');
            next
        });
        by_ptr.insert(Expr::ptr_id(e), id);
        id
    }
    let mut out = String::new();
    walk(e, &mut HashMap::new(), &mut HashMap::new(), &mut out);
    out
}

/// Fold one compilation into the digest.
fn record(h: &mut FnvHasher, label: &str, pf: &Pitchfork, e: &RcExpr) {
    fold(h, label);
    match pf.compile(e) {
        Ok(c) => {
            fold(h, &serialize(&c.lifted));
            fold(h, &serialize(&c.lowered));
            fold(h, &format!("{:?}", c.lift_stats.fired_seq()));
            fold(h, &format!("{:?}", c.lower_stats.fired()));
        }
        Err(err) => fold(h, &format!("error: {err}")),
    }
}

#[test]
fn selection_output_matches_the_pinned_digest() {
    let mut h = FnvHasher::default();
    let mut rules = FnvHasher::default();
    let (mut artifacts, mut instantiations) = (0, 0);
    for isa in ALL_ISAS {
        let pf = Pitchfork::new(isa);
        for wl in all_workloads().into_iter().chain(extra_workloads()).chain(unrolled_workloads()) {
            record(&mut h, &format!("{}/{isa}", wl.name()), &pf, &wl.pipeline.expr);
            artifacts += 1;
        }
        for (ti, elem) in TYPES.into_iter().enumerate() {
            for seed in 0..SEEDS {
                let mut rng = StdRng::seed_from_u64(seed);
                let e = gen_expr(&mut rng, &GenConfig { lanes: 8, ..GenConfig::default() }, elem);
                record(&mut h, &format!("gen {ti} {seed}/{isa}"), &pf, &e);
            }
        }
        for (label, e) in common::rule_instantiations(isa) {
            record(&mut rules, &label, &pf, &e);
            instantiations += 1;
        }
    }
    assert_eq!(artifacts, 100);
    assert_eq!(instantiations, 973);
    let (h, rules) = (h.finish(), rules.finish());
    println!("selection digest: {h:#018x}");
    println!("rule instantiation digest: {rules:#018x}");
    assert_eq!(h, PINNED, "selection output changed: digest {h:#018x}");
    assert_eq!(rules, PINNED_RULES, "rule instantiation output changed: digest {rules:#018x}");
}
