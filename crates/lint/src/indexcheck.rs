//! Index-soundness analysis: the root-operator discrimination index must
//! never hide a rule from an expression it matches.
//!
//! The fast rewriter dispatches rules through `fpir_trs::index::RuleIndex`
//! instead of a linear scan (see `crates/trs/src/index.rs`): a rule whose
//! pattern is rooted at `+` is only tried at `Add` nodes, and only
//! wildcard-rooted rules are tried everywhere. That is sound exactly when
//! every expression a rule can match carries the same [`OpKey`] the rule
//! was bucketed under. This analysis checks that property *statically* by
//! replaying each rule's own exhaustive small-type instantiations (the
//! same corpus the termination analysis walks) through the index:
//!
//! * **error** — some instantiation of a rule keys to a bucket the rule is
//!   not in (IDX002), or the rule's depth-1 operand prefilter or the
//!   bucket's compiled operand masks refuse it (IDX003), so indexed
//!   dispatch would silently skip a matching rule and the rewriter would
//!   diverge from its linear-scan oracle, `fpir_trs::rewrite_reference`;
//! * **note** — a rule landed in the wildcard bucket (its pattern is
//!   rooted at a wildcard, constant wildcard, or literal). Such rules are
//!   tried at *every* node, which is correct but defeats the index; a
//!   large wildcard bucket is an authoring smell worth seeing.
//!
//! The runtime counterpart is `pitchfork`'s `tests/mask_dispatch.rs`,
//! which checks on every node of the workloads and generator seeds that
//! every rule whose `Rule::apply` succeeds is admitted by the index, in
//! ascending rule order.

use crate::diagnostic::{Analysis, Diagnostic, Severity};
use fpir_trs::index::{OpKey, RuleIndex};
use fpir_trs::rule::{instantiate_lhs_all, RuleSet};

/// Run the index-soundness analysis over one rule set.
pub fn check(set: &RuleSet) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let idx = RuleIndex::build(set);

    for (i, rule) in set.rules().iter().enumerate() {
        let i = i as u32;
        let bucket = idx.key_of_rule(i);
        if bucket.is_none() {
            out.push(Diagnostic {
                severity: Severity::Note,
                analysis: Analysis::Index,
                code: "IDX001",
                ruleset: set.name.clone(),
                rule: Some(rule.name.clone()),
                detail: "pattern is rooted at a wildcard, so the rule lands in the \
                         fallback bucket and is tried at every node"
                    .into(),
                witness: None,
            });
            continue;
        }
        for inst in instantiate_lhs_all(rule, 4) {
            let key = OpKey::of_expr(&inst);
            if !idx.candidates(key).any(|c| c == i) {
                out.push(Diagnostic {
                    severity: Severity::Error,
                    analysis: Analysis::Index,
                    code: "IDX002",
                    ruleset: set.name.clone(),
                    rule: Some(rule.name.clone()),
                    detail: format!(
                        "rule matches an expression keyed {key:?}, but it was bucketed \
                         under {bucket:?}; indexed dispatch would skip it"
                    ),
                    witness: Some(inst.to_string()),
                });
                break; // one witness per rule is enough
            }
            // The depth-1 operand prefilter must likewise never refuse an
            // expression the rule's own pattern produced: `admits == false`
            // promises a full match would fail. The rewriter evaluates the
            // prefilter through the bucket's operand masks, so those must
            // admit it too.
            let refused_by = if !idx.admits(i, &inst) {
                Some("depth-1 operand prefilter")
            } else if !idx.admitted(&inst).any(|c| c == i) {
                Some("operand-mask dispatch")
            } else {
                None
            };
            if let Some(what) = refused_by {
                out.push(Diagnostic {
                    severity: Severity::Error,
                    analysis: Analysis::Index,
                    code: "IDX003",
                    ruleset: set.name.clone(),
                    rule: Some(rule.name.clone()),
                    detail: format!(
                        "the {what} refuses an instantiation of the rule's own pattern; \
                         indexed dispatch would skip a matching rule"
                    ),
                    witness: Some(inst.to_string()),
                });
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpir_trs::dsl::*;
    use fpir_trs::rule::{Rule, RuleClass};
    use fpir_trs::template::Template;

    #[test]
    fn shipped_rule_sets_are_index_sound() {
        for reg in pitchfork::all_rule_sets() {
            let errors: Vec<_> =
                check(&reg.set).into_iter().filter(|d| d.severity == Severity::Error).collect();
            assert!(errors.is_empty(), "{}: {:?}", reg.set.name, errors);
        }
    }

    #[test]
    fn wildcard_rooted_rule_is_noted() {
        let mut rs = RuleSet::new("wild-demo");
        rs.push(Rule::new("w", RuleClass::Lift, wild(0), Template::Wild(0)));
        let diags = check(&rs);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].severity, Severity::Note);
        assert!(diags[0].detail.contains("fallback bucket"));
    }

    #[test]
    fn operator_rooted_rule_is_silent() {
        let mut rs = RuleSet::new("add-demo");
        rs.push(Rule::new("a", RuleClass::Lift, pat_add(wild(0), wild(1)), Template::Wild(0)));
        assert!(check(&rs).is_empty());
    }
}
