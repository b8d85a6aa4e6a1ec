//! Inputs shared by the selection gates.

use fpir::{Isa, RcExpr};
use fpir_trs::rule::instantiate_lhs_all;
use pitchfork::RuleSetKind;

/// The left-hand-side instantiations at 8 lanes of every shipped rule
/// that applies on `isa` (the lift rules and `isa`'s lowering rules),
/// labelled `rule index/isa`. Workloads and generator seeds leave about
/// half the rule pack unexercised; these reach each rule directly.
pub fn rule_instantiations(isa: Isa) -> Vec<(String, RcExpr)> {
    let own = |k: RuleSetKind| k == RuleSetKind::Lift || k == RuleSetKind::Lower(isa);
    let mut out = Vec::new();
    for reg in pitchfork::all_rule_sets().into_iter().filter(|r| own(r.kind)) {
        for rule in reg.set.rules() {
            for (i, e) in instantiate_lhs_all(rule, 8).into_iter().enumerate() {
                out.push((format!("{} {i}/{isa}", rule.name), e));
            }
        }
    }
    out
}
