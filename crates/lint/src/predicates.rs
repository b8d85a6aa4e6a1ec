//! Predicate-soundness analysis: malformed side conditions and rule
//! structure that can never work.
//!
//! Everything here is per-rule and purely structural:
//!
//! * wildcard indices (pattern, predicate, and template) must stay below
//!   `MAX_WILDS` — out-of-range ids panic at match time;
//! * predicate references must resolve: a constant predicate on a
//!   wildcard the LHS never binds is always false (the rule is dead), and
//!   one on an *expression* wildcard only holds if that expression happens
//!   to be a broadcast constant (almost always an authoring slip);
//! * template references must be bound by the LHS, or substitution fails
//!   on every match;
//! * `ConstInRange` must be non-empty, and conjunctions must be free of
//!   duplicates and of contradictions (`c == 3 && is_pow2(c)` can never
//!   fire).

use crate::diagnostic::{Analysis, Diagnostic, Severity};
use fpir_trs::pattern::MAX_WILDS;
use fpir_trs::rule::{collect_const_wilds, collect_type_vars, first_uses, Rule, RuleSet};
use fpir_trs::{Pat, Predicate, Template, Term, TyRef};

/// Run the predicate analysis over one rule set.
pub fn check(set: &RuleSet) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for rule in set.rules() {
        check_rule(rule, &set.name, &mut out);
    }
    out
}

fn check_rule(rule: &Rule, ruleset: &str, out: &mut Vec<Diagnostic>) {
    let mut diag = |code: &'static str, severity: Severity, detail: String| {
        out.push(Diagnostic {
            severity,
            analysis: Analysis::Predicates,
            code,
            ruleset: ruleset.to_string(),
            rule: Some(rule.name.clone()),
            detail,
            witness: None,
        });
    };

    let expr_wilds = collect_expr_wilds(&rule.lhs);
    let const_wilds = collect_const_wilds(&rule.lhs);
    let type_vars = collect_type_vars(&rule.lhs);

    // --- index ranges ---------------------------------------------------
    for &id in expr_wilds.iter().chain(&const_wilds) {
        if id as usize >= MAX_WILDS {
            diag(
                "PRED001",
                Severity::Error,
                format!("pattern wildcard index {id} is out of range (max {})", MAX_WILDS - 1),
            );
        }
    }
    for &id in &type_vars {
        if id as usize >= MAX_WILDS {
            diag(
                "PRED001",
                Severity::Error,
                format!("type variable index {id} is out of range (max {})", MAX_WILDS - 1),
            );
        }
    }
    for id in rule.pred.const_refs().into_iter().chain(rule.pred.expr_refs()) {
        if id as usize >= MAX_WILDS {
            diag(
                "PRED001",
                Severity::Error,
                format!("predicate wildcard index {id} is out of range (max {})", MAX_WILDS - 1),
            );
        }
    }

    // --- predicate references resolve ------------------------------------
    for id in rule.pred.const_refs() {
        if const_wilds.contains(&id) {
            continue;
        }
        if expr_wilds.contains(&id) {
            diag(
                "PRED002",
                Severity::Warning,
                format!(
                    "constant predicate reads wildcard x{id}, which the pattern binds as an \
                     arbitrary expression — the rule only fires when it happens to be a \
                     broadcast constant"
                ),
            );
        } else {
            diag(
                "PRED003",
                Severity::Error,
                format!(
                    "constant predicate reads wildcard c{id}, which the pattern never binds \
                     — the predicate is always false and the rule is dead"
                ),
            );
        }
    }
    for id in rule.pred.expr_refs() {
        if !expr_wilds.contains(&id) && !const_wilds.contains(&id) {
            diag(
                "PRED004",
                Severity::Error,
                format!(
                    "predicate reads wildcard x{id}, which the pattern never binds — the \
                     predicate is always false and the rule is dead"
                ),
            );
        }
    }

    // --- template references resolve --------------------------------------
    for id in collect_template_refs(&rule.rhs) {
        if id as usize >= MAX_WILDS {
            diag(
                "PRED001",
                Severity::Error,
                format!("template wildcard index {id} is out of range (max {})", MAX_WILDS - 1),
            );
        } else if !expr_wilds.contains(&id) && !const_wilds.contains(&id) {
            diag(
                "PRED005",
                Severity::Error,
                format!(
                    "template references wildcard x{id}, which the pattern never binds — \
                     substitution fails on every match"
                ),
            );
        }
    }

    // --- conjunction structure --------------------------------------------
    if has_empty_all(&rule.pred) {
        diag(
            "PRED007",
            Severity::Warning,
            "predicate contains an empty conjunction `All([])`, which is trivially true — \
             probably an unfinished side condition"
                .to_string(),
        );
    }
    let leaves = rule.pred.conjuncts();
    for (i, a) in leaves.iter().enumerate() {
        if leaves[..i].contains(a) && !matches!(a, Predicate::True) {
            diag("PRED008", Severity::Warning, format!("duplicate conjunct {a:?}"));
        }
    }

    // --- per-leaf sanity ---------------------------------------------------
    for leaf in &leaves {
        if let Predicate::ConstInRange { id, lo, hi } = leaf {
            if lo > hi {
                diag(
                    "PRED009",
                    Severity::Error,
                    format!("`ConstInRange` on c{id} is empty ({lo}..={hi}) — the rule is dead"),
                );
            } else if lo == hi {
                diag(
                    "PRED010",
                    Severity::Note,
                    format!(
                        "`ConstInRange` on c{id} admits the single value {lo}; `ConstEq` says \
                         the same thing more directly"
                    ),
                );
            }
        }
    }

    // --- contradictions ----------------------------------------------------
    for (i, a) in leaves.iter().enumerate() {
        for b in &leaves[i + 1..] {
            if let Some(why) = contradicts(a, b) {
                diag(
                    "PRED011",
                    Severity::Error,
                    format!("contradictory conjuncts — {why}; the rule is dead"),
                );
            }
        }
    }
}

/// Why two conjuncts can never hold together, if they cannot.
fn contradicts(a: &Predicate, b: &Predicate) -> Option<String> {
    use Predicate::*;
    // Normalize so the match below only needs one order.
    let pair = [(a, b), (b, a)];
    for (p, q) in pair {
        match (p, q) {
            (ConstEq { id: i1, value: v1 }, ConstEq { id: i2, value: v2 })
                if i1 == i2 && v1 != v2 =>
            {
                return Some(format!("c{i1} cannot equal both {v1} and {v2}"));
            }
            (ConstEq { id: i1, value }, ConstInRange { id: i2, lo, hi })
                if i1 == i2 && (value < lo || value > hi) =>
            {
                return Some(format!("c{i1} == {value} is outside {lo}..={hi}"));
            }
            (
                ConstInRange { id: i1, lo: lo1, hi: hi1 },
                ConstInRange { id: i2, lo: lo2, hi: hi2 },
            ) if i1 == i2 && (lo1 > hi2 || lo2 > hi1) => {
                return Some(format!(
                    "ranges {lo1}..={hi1} and {lo2}..={hi2} for c{i1} are disjoint"
                ));
            }
            (IsPow2(i1), ConstEq { id: i2, value })
                if i1 == i2 && !fpir::simplify::is_pow2(*value) =>
            {
                return Some(format!("c{i1} must be a power of two but also equal {value}"));
            }
            (IsPow2(i1), ConstInRange { id: i2, hi, .. }) if i1 == i2 && *hi < 1 => {
                return Some(format!("c{i1} must be a power of two but is bounded above by {hi}"));
            }
            _ => {}
        }
    }
    None
}

/// The expression-wildcard ids bound by a pattern.
fn collect_expr_wilds(pat: &Pat) -> Vec<u8> {
    first_uses(pat.subterms().filter_map(|p| match p {
        Pat::Wild { id, .. } => Some(*id),
        _ => None,
    }))
}

/// Is `All([])` present anywhere in the predicate tree?
fn has_empty_all(p: &Predicate) -> bool {
    match p {
        Predicate::All(ps) => ps.is_empty() || ps.iter().any(has_empty_all),
        _ => false,
    }
}

/// Every wildcard a template reads, in pre-order: a node's own
/// reference (a substituted or constant wildcard, then its type's
/// wildcard) before its operands'.
fn collect_template_refs(t: &Template) -> Vec<u8> {
    let mut refs = Vec::new();
    for node in t.subterms() {
        if let Template::Wild(i) | Template::Const { of: i, .. } = node {
            refs.push(*i);
        }
        refs.extend(node.ty_ref().and_then(TyRef::wild));
    }
    refs
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpir_trs::dsl::*;
    use fpir_trs::RuleClass;

    fn one_rule_set(rule: Rule) -> RuleSet {
        let mut set = RuleSet::new("test");
        set.push(rule);
        set
    }

    #[test]
    fn empty_range_is_an_error() {
        let rule = Rule::new("bad-range", RuleClass::Direct, pat_add(wild(0), cwild(1)), tw(0))
            .with_pred(Predicate::ConstInRange { id: 1, lo: 5, hi: 1 });
        let diags = check(&one_rule_set(rule));
        assert!(diags.iter().any(|d| d.severity == Severity::Error && d.detail.contains("empty")));
    }

    #[test]
    fn unbound_predicate_wildcard_is_an_error() {
        let rule = Rule::new("unbound", RuleClass::Direct, pat_add(wild(0), wild(1)), tw(0))
            .with_pred(Predicate::IsPow2(7));
        let diags = check(&one_rule_set(rule));
        assert!(diags
            .iter()
            .any(|d| d.severity == Severity::Error && d.detail.contains("never binds")));
    }

    #[test]
    fn contradiction_is_an_error() {
        let rule =
            Rule::new("contra", RuleClass::Direct, pat_add(wild(0), cwild(1)), tw(0)).with_pred(
                Predicate::All(vec![Predicate::IsPow2(1), Predicate::ConstEq { id: 1, value: 3 }]),
            );
        let diags = check(&one_rule_set(rule));
        assert!(diags
            .iter()
            .any(|d| d.severity == Severity::Error && d.detail.contains("contradictory")));
    }

    #[test]
    fn empty_all_is_a_warning() {
        let rule = Rule::new("empty-all", RuleClass::Direct, pat_add(wild(0), wild(1)), tw(0))
            .with_pred(Predicate::All(vec![]));
        let diags = check(&one_rule_set(rule));
        assert!(diags
            .iter()
            .any(|d| d.severity == Severity::Warning && d.detail.contains("trivially true")));
    }

    #[test]
    fn unbound_template_wildcard_is_an_error() {
        let rule = Rule::new("bad-rhs", RuleClass::Direct, pat_add(wild(0), wild(1)), tw(5));
        let diags = check(&one_rule_set(rule));
        assert!(diags
            .iter()
            .any(|d| d.severity == Severity::Error && d.detail.contains("substitution fails")));
    }
}
