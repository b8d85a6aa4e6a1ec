//! Satellite-requirement tests: a fixture set of known-bad rules, each of
//! which `rulecheck`'s analyses must flag — with the right analysis name.

use fpir::expr::{BinOp, CmpOp, FpirOp, RcExpr};
use fpir::Isa;
use fpir_synth::VerifyOptions;
use fpir_trs::dsl::*;
use fpir_trs::pattern::TypePat;
use fpir_trs::{Predicate, Rule, RuleClass, RuleSet, Template};
use pitchfork::{RegisteredRuleSet, RuleSetKind};
use pitchfork_lint::{coverage, predicates, shadowing, soundness, termination};
use pitchfork_lint::{Analysis, Severity};

/// A general rule followed by the specific rule it shadows.
#[test]
fn shadowed_rule_is_flagged_by_shadowing() {
    let mut set = RuleSet::new("fixture");
    // General: x + y -> widening-style rewrite (never mind the output).
    set.push(Rule::new(
        "general-add",
        RuleClass::Lift,
        pat_add(wild(0), wild(1)),
        tfpir2(FpirOp::SaturatingAdd, tw(0), tw(1)),
    ));
    // Specific: x + c — strictly fewer matches, same (trivial) predicate.
    set.push(Rule::new(
        "specific-add-const",
        RuleClass::Lift,
        pat_add(wild(0), cwild(1)),
        tfpir2(FpirOp::SaturatingAdd, tw(0), tw(1)),
    ));
    let diags = shadowing::check(&set);
    let hit = diags
        .iter()
        .find(|d| d.rule.as_deref() == Some("specific-add-const"))
        .expect("the shadowed rule must be reported");
    assert_eq!(hit.analysis, Analysis::Shadowing);
    assert_eq!(hit.severity, Severity::Warning);
    assert!(hit.detail.contains("general-add"));
}

/// A lift rule whose right-hand side costs more than its left-hand side.
#[test]
fn cost_increasing_lift_rule_is_flagged_by_termination() {
    let mut set = RuleSet::new("fixture");
    // x + y -> (x + y) + 0: strictly more expensive, can never fire.
    set.push(Rule::new(
        "inflate",
        RuleClass::Lift,
        pat_add(wild(0), wild(1)),
        tbin(
            fpir::expr::BinOp::Add,
            tbin(fpir::expr::BinOp::Add, tw(0), tw(1)),
            Template::Lit { value: 0, ty: fpir_trs::TyRef::OfWild(0) },
        ),
    ));
    let reg = RegisteredRuleSet { kind: RuleSetKind::Lift, set };
    let diags = termination::check(&reg);
    let hit = diags
        .iter()
        .find(|d| d.rule.as_deref() == Some("inflate") && d.severity == Severity::Error)
        .expect("the cost-increasing rule must be an error");
    assert_eq!(hit.analysis, Analysis::Termination);
    assert!(hit.detail.contains("cost"));
    assert!(hit.witness.is_some(), "descent failures carry a witness rewrite");
}

/// Two cost-neutral rules that rewrite into each other's left-hand sides.
#[test]
fn undischarged_rewrite_cycle_is_flagged_by_termination() {
    let mut set = RuleSet::new("fixture");
    // min(x, y) <-> min(y, x): each output matches the other (and itself)
    // and never descends, so the cycle is not broken by the cost measure.
    set.push(Rule::new(
        "swap-min",
        RuleClass::Lift,
        pat_min(wild(0), wild(1)),
        tbin(fpir::expr::BinOp::Min, tw(1), tw(0)),
    ));
    let reg = RegisteredRuleSet { kind: RuleSetKind::Lift, set };
    let diags = termination::check(&reg);
    assert!(
        diags.iter().any(|d| d.analysis == Analysis::Termination && d.detail.contains("cycle")),
        "cycle must be reported: {diags:?}"
    );
}

/// A coverage hole: one op/type pair the backend refuses.
#[test]
fn coverage_hole_is_flagged_with_witness() {
    let oracle = |e: &RcExpr| -> Result<(), String> {
        if e.to_string().contains("halving_add") {
            Err("planted hole".into())
        } else {
            Ok(())
        }
    };
    let diags = coverage::check_with_oracle("fixture-backend", &oracle, &|_| false);
    assert!(!diags.is_empty());
    for d in &diags {
        assert_eq!(d.analysis, Analysis::Coverage);
        assert_eq!(d.severity, Severity::Error);
        assert!(d.witness.as_deref().unwrap().contains("halving_add"));
    }
}

/// An empty lowering rule set produces no *errors* on a real target: every
/// remaining hole is the target's own limitation, not the (absent) rules'.
#[test]
fn empty_lower_set_blames_only_the_target() {
    let empty = RuleSet::new("empty");
    let diags = coverage::check(Isa::X86Avx2, &empty);
    assert!(diags.iter().all(|d| d.severity == Severity::Note), "{diags:?}");
}

/// A wrap-vs-saturate mismatch: `saturating_add(x, y)` rewritten to the
/// plain wrapping add. The abstract domains refuse to prove the two
/// equal, and the concrete check produces a counterexample (any pair
/// whose true sum overflows), so the rule is a `SOUND001` error.
#[test]
fn wrap_vs_saturate_rule_is_flagged_by_soundness() {
    let mut set = RuleSet::new("fixture");
    set.push(Rule::new(
        "planted-wrap-vs-saturate",
        RuleClass::Lift,
        pat_fpir2(FpirOp::SaturatingAdd, wild_v(0), wild_t(1, TypePat::Var(0))),
        tbin(BinOp::Add, tw(0), tw(1)),
    ));
    let diags = soundness::check(&set);
    let hit = diags
        .iter()
        .find(|d| d.rule.as_deref() == Some("planted-wrap-vs-saturate"))
        .expect("the unsound rule must be reported");
    assert_eq!(hit.analysis, Analysis::Soundness);
    assert_eq!(hit.code, "SOUND001");
    assert_eq!(hit.severity, Severity::Error);
    assert!(hit.witness.as_deref().unwrap_or("").contains("counterexample"), "{hit:?}");
}

/// A rule that is wrong at exactly one interior input pair — `x * y`
/// rewritten to something that sneaks in `x + y` when `(x, y) ==
/// (77, 123)`. Boundary-biased sampling never lands on that needle, so
/// with exhaustion disabled the rule passes as `sampled`; the 2^16-point
/// exhaustive sweep over the 8-bit instantiations finds it.
#[test]
fn needle_rule_is_caught_only_by_exhaustion() {
    let needle = Template::Select(
        Box::new(Template::Bin(
            BinOp::And,
            Box::new(Template::Cmp(CmpOp::Eq, Box::new(tw(0)), Box::new(tlit(77, 0)))),
            Box::new(Template::Cmp(CmpOp::Eq, Box::new(tw(1)), Box::new(tlit(123, 0)))),
        )),
        Box::new(tbin(BinOp::Add, tw(0), tw(1))),
        Box::new(tbin(BinOp::Mul, tw(0), tw(1))),
    );
    let mut set = RuleSet::new("fixture");
    set.push(Rule::new(
        "planted-needle",
        RuleClass::Lift,
        pat_mul(wild_v(0), wild_t(1, TypePat::Var(0))),
        needle,
    ));

    // Sampling alone (exhaustion off) misses the single bad point and
    // records an honest `sampled` verdict...
    let sampled_only = VerifyOptions { samples: 8, lanes: 64, exhaustive_points: 0 };
    let diags = soundness::check_with(&set, &sampled_only);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].code, "SOUND003", "sampling must miss the needle: {:?}", diags[0]);
    assert!(diags[0].detail.contains("sampled"), "{:?}", diags[0]);

    // ...while the exhaustive 8-bit sweep pins it as unsound.
    let exhaustive = VerifyOptions { samples: 8, lanes: 64, exhaustive_points: 1 << 16 };
    let diags = soundness::check_with(&set, &exhaustive);
    assert_eq!(diags.len(), 1);
    let hit = &diags[0];
    assert_eq!(hit.rule.as_deref(), Some("planted-needle"));
    assert_eq!(hit.code, "SOUND001");
    assert_eq!(hit.severity, Severity::Error);
    assert!(hit.witness.as_deref().unwrap_or("").contains("counterexample"), "{hit:?}");
}

/// A malformed predicate: empty range, unbound reference, contradiction.
#[test]
fn malformed_predicates_are_flagged_by_predicates_analysis() {
    let mut set = RuleSet::new("fixture");
    set.push(
        Rule::new("empty-range", RuleClass::Lift, pat_add(wild(0), cwild(1)), tw(0))
            .with_pred(Predicate::ConstInRange { id: 1, lo: 9, hi: 3 }),
    );
    set.push(
        Rule::new("unbound-ref", RuleClass::Lift, pat_add(wild(0), wild(1)), tw(0))
            .with_pred(Predicate::IsPow2(9)),
    );
    set.push(
        Rule::new("contradiction", RuleClass::Lift, pat_add(wild(0), cwild(1)), tw(0)).with_pred(
            Predicate::All(vec![
                Predicate::ConstEq { id: 1, value: 4 },
                Predicate::ConstEq { id: 1, value: 5 },
            ]),
        ),
    );
    let diags = predicates::check(&set);
    for rule in ["empty-range", "unbound-ref", "contradiction"] {
        let hit = diags
            .iter()
            .find(|d| d.rule.as_deref() == Some(rule) && d.severity == Severity::Error)
            .unwrap_or_else(|| panic!("rule `{rule}` must produce an error: {diags:?}"));
        assert_eq!(hit.analysis, Analysis::Predicates);
    }
}
