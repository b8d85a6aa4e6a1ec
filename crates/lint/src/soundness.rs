//! Rule-soundness analysis: a semantic verdict for every rule.
//!
//! Unlike the other analyses this one *does* evaluate semantics — it
//! delegates to `fpir-synth`'s verdict-producing checker
//! ([`fpir_synth::check_rule`]), which tries, in order: an abstract
//! equivalence proof over the rule's full predicated domain (interval +
//! known-bits domains over the expanded primitive programs), exhaustive
//! enumeration when the instantiated input space is small enough, and
//! boundary-biased sampling as the fallback. Three diagnostic codes:
//!
//! * `SOUND001` (**error**) — a concrete counterexample: the rule
//!   rewrites to something semantically different;
//! * `SOUND002` (**warning**) — the rule could not be instantiated, so
//!   nothing about it was checked;
//! * `SOUND003` (**note**) — the per-rule verdict record
//!   (`proved` / `exhausted` / `sampled`), emitted for every sound rule
//!   so `rulecheck --json` is a complete verdict report.

use crate::diagnostic::{Analysis, Diagnostic, Severity};
use fpir_synth::{check_rule, RuleVerdict, VerifyOptions};
use fpir_trs::rule::RuleSet;

/// Run the soundness checker over one rule set with the shipped effort
/// (sampling plus small-space enumeration in debug builds, the full
/// exhaustive sweep in release).
pub fn check(set: &RuleSet) -> Vec<Diagnostic> {
    check_with(set, &VerifyOptions::shipped())
}

/// [`check`] at an explicit effort level.
pub fn check_with(set: &RuleSet, opts: &VerifyOptions) -> Vec<Diagnostic> {
    set.rules().iter().map(|r| diagnose(&set.name, check_rule(r, opts))).collect()
}

fn diagnose(ruleset: &str, v: RuleVerdict) -> Diagnostic {
    let base = |code, severity, detail, witness| Diagnostic {
        severity,
        analysis: Analysis::Soundness,
        code,
        ruleset: ruleset.to_string(),
        rule: Some(v.rule.clone()),
        detail,
        witness,
    };
    match &v.error {
        Some(e) if e.detail.contains("could not instantiate") => base(
            "SOUND002",
            Severity::Warning,
            "left-hand side could not be instantiated; soundness is unverified".into(),
            None,
        ),
        Some(e) => base(
            "SOUND001",
            Severity::Error,
            "semantically unsound: LHS and RHS differ on a concrete input".into(),
            Some(e.detail.clone()),
        ),
        None => base(
            "SOUND003",
            Severity::Note,
            format!(
                "verdict: {} ({} instantiation{})",
                v.verdict,
                v.instantiations,
                if v.instantiations == 1 { "" } else { "s" }
            ),
            None,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpir::FpirOp;
    use fpir_trs::dsl::*;
    use fpir_trs::pattern::TypePat;
    use fpir_trs::rule::{Rule, RuleClass, RuleSet};

    fn one_rule_set(rule: Rule) -> RuleSet {
        let mut set = RuleSet::new("fixture");
        set.push(rule);
        set
    }

    #[test]
    fn sound_rule_gets_a_verdict_note() {
        let rule = Rule::new(
            "widening-add",
            RuleClass::Lift,
            pat_add(
                widen_cast(0),
                fpir_trs::pattern::Pat::Cast(
                    TypePat::WidenOf(0),
                    Box::new(wild_t(1, TypePat::Var(0))),
                ),
            ),
            tfpir2(FpirOp::WideningAdd, tw(0), tw(1)),
        );
        let diags = check(&one_rule_set(rule));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "SOUND003");
        assert_eq!(diags[0].severity, Severity::Note);
        assert!(diags[0].detail.contains("proved"), "{}", diags[0].detail);
    }

    #[test]
    fn unsound_rule_is_an_error_with_a_witness() {
        // Floor average claimed to be the round-up average.
        let rule = Rule::new(
            "planted-wrong-rounding",
            RuleClass::Lift,
            pat_fpir2(FpirOp::RoundingHalvingAdd, wild_v(0), wild_t(1, TypePat::Var(0))),
            tfpir2(FpirOp::HalvingAdd, tw(0), tw(1)),
        );
        let diags = check(&one_rule_set(rule));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "SOUND001");
        assert_eq!(diags[0].severity, Severity::Error);
        assert_eq!(diags[0].rule.as_deref(), Some("planted-wrong-rounding"));
        assert!(diags[0].witness.as_deref().unwrap_or("").contains("counterexample"));
    }
}
