//! Operand-mask dispatch admits exactly what the per-rule prefilter does.
//!
//! The rewriter asks `RuleIndex::admitted` for the rules a node's operands
//! allow; `RuleIndex::admits` is the per-rule depth-1 filter those masks
//! are compiled from. For every shipped rule set the rewriter runs — the
//! lifting TRS, each target's lowering TRS and each target's predicated
//! subset — and for every unique node of every workload before lifting,
//! after lifting and after lowering, the mask-dispatched list must equal
//! `candidates_for(node)` filtered by `admits`, in the same order.

use fpir::expr::{Expr, RcExpr};
use fpir_trs::index::OpKey;
use fpir_trs::rule::{RuleClass, RuleSet};
use fpir_workloads::{all_workloads, extra_workloads, unrolled_workloads};
use pitchfork::{lift_rules, lower_rules, Pitchfork};

fn rule_sets() -> Vec<RuleSet> {
    let mut sets = vec![lift_rules()];
    for isa in fpir::machine::ALL_ISAS {
        let lower = lower_rules(isa);
        sets.push(lower.of_class(RuleClass::Predicated));
        sets.push(lower);
    }
    sets
}

fn unique_nodes(e: &RcExpr, out: &mut Vec<RcExpr>) {
    Expr::visit_unique(e, &mut |n| out.push(n.clone()));
}

#[test]
fn mask_dispatch_matches_the_per_rule_filter_on_every_workload_node() {
    let mut nodes = Vec::new();
    for wl in all_workloads().into_iter().chain(extra_workloads()).chain(unrolled_workloads()) {
        unique_nodes(&wl.pipeline.expr, &mut nodes);
        for isa in fpir::machine::ALL_ISAS {
            let out = Pitchfork::new(isa).compile(&wl.pipeline.expr).unwrap();
            unique_nodes(&out.lifted, &mut nodes);
            unique_nodes(&out.lowered, &mut nodes);
        }
    }
    let sets = rule_sets();
    assert_eq!(sets.len(), 9);
    let (mut checked, mut refused) = (0usize, 0usize);
    for set in &sets {
        let ix = set.index();
        for node in &nodes {
            let candidates: Vec<u32> = ix.candidates_for(node).collect();
            let want: Vec<u32> =
                candidates.iter().copied().filter(|&i| ix.admits(i, node)).collect();
            let got: Vec<u32> = ix.admitted(node).collect();
            let head = OpKey::of_expr(node);
            assert_eq!(got, want, "{}: dispatch diverged at a {head:?} node", set.name);
            checked += 1;
            refused += candidates.len() - want.len();
        }
    }
    // The corpus exercises the masks: plenty of nodes, and the prefilter
    // really refuses candidates.
    assert!(checked > 10_000, "{checked}");
    assert!(refused > 1_000, "{refused}");
}
