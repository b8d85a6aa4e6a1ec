//! Regression test: rewriting work scales with *unique* DAG nodes, not
//! with tree size.
//!
//! Stencil pipelines alias subexpressions heavily, so an `Arc`-shared DAG
//! of n unique nodes can print as a tree of 2^n nodes. The memoizing
//! engine must process each unique node once per pass — a deeply shared
//! chain that would take longer than the age of the universe to walk as a
//! tree must rewrite instantly. (Nothing here may call `size()`,
//! `to_string()`, or `rewrite_reference`: those are all tree walks.)

use fpir::build;
use fpir::expr::Expr;
use fpir::types::{ScalarType as S, VectorType as V};
use fpir::FpirOp;
use fpir_trs::cost::AgnosticCost;
use fpir_trs::dsl::*;
use fpir_trs::pattern::{Pat, TypePat};
use fpir_trs::rewrite::Rewriter;
use fpir_trs::rule::{Rule, RuleClass, RuleSet};
use fpir_trs::template::Template;
use std::sync::Arc;

/// One lift rule: u16(x_u8) + u16(y_u8) -> widening_add(x, y).
fn rules() -> RuleSet {
    let mut rs = RuleSet::new("dag-demo");
    rs.push(Rule::new(
        "lift-widening-add",
        RuleClass::Lift,
        pat_add(
            Pat::Cast(TypePat::WidenOf(0), Box::new(wild_t(0, TypePat::Var(0)))),
            Pat::Cast(TypePat::WidenOf(0), Box::new(wild_t(1, TypePat::Var(0)))),
        ),
        Template::Fpir(FpirOp::WideningAdd, vec![Template::Wild(0), Template::Wild(1)]),
    ));
    rs
}

/// min(c, c) nested `depth` times over a single shared redex: tree size
/// 2^depth, unique size depth + O(1).
fn shared_chain(depth: usize) -> fpir::RcExpr {
    let t = V::new(S::U8, 16);
    let redex = build::add(build::widen(build::var("a", t)), build::widen(build::var("b", t)));
    let mut e = redex;
    for _ in 0..depth {
        e = build::min(e.clone(), e);
    }
    e
}

#[test]
fn work_scales_with_unique_nodes_not_tree_size() {
    const DEPTH: usize = 64; // tree size 2^64 — unwalkable
    let e = shared_chain(DEPTH);
    let unique = Expr::unique_count(&e);
    assert!(unique <= DEPTH + 8, "chain should be small as a DAG: {unique}");

    let rules = rules();
    let mut rw = Rewriter::new(&rules, AgnosticCost);
    let out = rw.run(&e);

    // The one redex fired exactly once, no matter how many of its 2^64
    // tree occurrences exist.
    assert_eq!(rw.stats.applications, 1);
    // Per-pass work is bounded by unique nodes (new nodes built by the
    // rewrite add a small constant).
    assert!(
        rw.stats.nodes_visited <= rw.stats.passes * (unique + 8),
        "visited {} nodes over {} passes for {} unique nodes",
        rw.stats.nodes_visited,
        rw.stats.passes,
        unique
    );
    assert!(rw.stats.memo_hits > 0, "shared children must hit the memo");

    // Sharing survives the rewrite: the output is still a DAG of the same
    // shape, not an exponentially exploded tree.
    assert!(Expr::unique_count(&out) <= unique + 2);
    assert!(Arc::ptr_eq(out.children()[0], out.children()[1]));
}

#[test]
fn converged_dag_needs_no_further_work() {
    // Running the rewriter over its own output: everything is already at
    // fixpoint, so the second run must fire nothing.
    let e = shared_chain(32);
    let rules = rules();
    let mut rw = Rewriter::new(&rules, AgnosticCost);
    let out = rw.run(&e);
    let mut rw2 = Rewriter::new(&rules, AgnosticCost);
    let out2 = rw2.run(&out);
    assert_eq!(rw2.stats.applications, 0);
    assert!(Arc::ptr_eq(&out, &out2), "fixpoint rewriting must preserve identity");
}
