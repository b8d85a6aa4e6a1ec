//! Operand-mask dispatch admits exactly what the per-rule prefilter does,
//! and never refuses a rule that applies.
//!
//! The rewriter asks `RuleIndex::admitted` for the rules a node's operands
//! allow; `RuleIndex::admits` is the per-rule depth-1 filter those masks
//! are compiled from. For every shipped rule set the rewriter runs — the
//! lifting TRS, each target's lowering TRS and each target's predicated
//! subset — and for every unique node of every workload and of the
//! byte-identity generator seeds, before lifting, after lifting and after
//! lowering:
//!
//! * the mask-dispatched list equals `candidates_for(node)` filtered by
//!   `admits`, in the same order;
//! * every rule whose `Rule::apply` succeeds is in that list, which is in
//!   ascending rule order — so indexed dispatch tries every rule a linear
//!   scan would fire, in the same order, and picks the same one.

use fpir::bounds::BoundsCtx;
use fpir::expr::{Expr, RcExpr};
use fpir::rand_expr::{gen_expr, GenConfig};
use fpir::types::ScalarType;
use fpir_trs::index::OpKey;
use fpir_trs::rule::{RuleClass, RuleSet};
use fpir_workloads::{all_workloads, extra_workloads, unrolled_workloads};
use pitchfork::{lift_rules, lower_rules, Pitchfork};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Generator seeds per element type, as in `tests/byte_identity.rs`.
const SEEDS: u64 = 64;

const TYPES: [ScalarType; 6] = [
    ScalarType::U8,
    ScalarType::U16,
    ScalarType::U32,
    ScalarType::I8,
    ScalarType::I16,
    ScalarType::I32,
];

fn rule_sets() -> Vec<RuleSet> {
    let mut sets = vec![lift_rules()];
    for isa in fpir::machine::ALL_ISAS {
        let lower = lower_rules(isa);
        sets.push(lower.of_class(RuleClass::Predicated));
        sets.push(lower);
    }
    assert_eq!(sets.len(), 9);
    sets
}

fn unique_nodes(e: &RcExpr, out: &mut Vec<RcExpr>) {
    Expr::visit_unique(e, &mut |n| out.push(n.clone()));
}

/// Every unique node of the workloads and generator seeds, before
/// lifting, after lifting and after lowering on each target.
fn corpus() -> Vec<RcExpr> {
    let mut inputs: Vec<RcExpr> = all_workloads()
        .into_iter()
        .chain(extra_workloads())
        .chain(unrolled_workloads())
        .map(|wl| wl.pipeline.expr)
        .collect();
    for elem in TYPES {
        for seed in 0..SEEDS {
            let mut rng = StdRng::seed_from_u64(seed);
            inputs.push(gen_expr(&mut rng, &GenConfig { lanes: 8, ..GenConfig::default() }, elem));
        }
    }
    let mut nodes = Vec::new();
    for e in &inputs {
        unique_nodes(e, &mut nodes);
        for isa in fpir::machine::ALL_ISAS {
            let pf = Pitchfork::new(isa);
            match pf.compile(e) {
                Ok(out) => {
                    unique_nodes(&out.lifted, &mut nodes);
                    unique_nodes(&out.lowered, &mut nodes);
                }
                // Width limits (64-bit lanes on HVX): lifting still runs.
                Err(_) => unique_nodes(&pf.lift(e).0, &mut nodes),
            }
        }
    }
    nodes
}

#[test]
fn mask_dispatch_matches_the_per_rule_filter_on_every_workload_node() {
    let nodes = corpus();
    let (mut checked, mut refused) = (0usize, 0usize);
    for set in &rule_sets() {
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

#[test]
fn every_applicable_rule_is_admitted() {
    let nodes = corpus();
    let mut matches = 0usize;
    for set in &rule_sets() {
        let ix = set.index();
        let mut bounds = BoundsCtx::new();
        for node in &nodes {
            let admitted: Vec<u32> = ix.admitted(node).collect();
            assert!(admitted.windows(2).all(|w| w[0] < w[1]), "{}: not ascending", set.name);
            for (i, rule) in set.rules().iter().enumerate() {
                if rule.apply(node, &mut bounds).is_some() {
                    assert!(
                        admitted.binary_search(&(i as u32)).is_ok(),
                        "{}: `{}` applies at a {:?} node but is not admitted",
                        set.name,
                        rule.name,
                        OpKey::of_expr(node)
                    );
                    matches += 1;
                }
            }
        }
    }
    // The corpus exercises the rules, not only the masks.
    assert!(matches > 1_000, "{matches}");
}
