//! The acceptance gate: the shipped hand-written lift rules and every
//! lowering rule set must come through `rulecheck` with no errors and no
//! warnings (notes — inherent target limits like HVX's missing 64-bit
//! lanes — are expected and allowed).

use fpir_pool::Pool;
use fpir_synth::Verdict;
use pitchfork::RegisteredRuleSet;
use pitchfork_lint::{
    check_rule_sets, render_json, summarize_coverage, tally, Diagnostic, Severity,
};
use std::sync::OnceLock;

/// The shipped rule sets and one sequential all-analyses run over them,
/// computed once and shared by every test here.
fn shipped() -> &'static (Vec<RegisteredRuleSet>, Vec<Diagnostic>) {
    static RUN: OnceLock<(Vec<RegisteredRuleSet>, Vec<Diagnostic>)> = OnceLock::new();
    RUN.get_or_init(|| {
        let sets = pitchfork::all_rule_sets();
        let diags = check_rule_sets(&sets, &Pool::sequential());
        (sets, diags)
    })
}

#[test]
fn shipped_rule_sets_pass_rulecheck_at_deny_warnings() {
    let (sets, diags) = shipped();
    let loud: Vec<String> =
        diags.iter().filter(|d| d.severity >= Severity::Warning).map(ToString::to_string).collect();
    assert!(loud.is_empty(), "rulecheck is not clean:\n{}", loud.join("\n"));
    // `rulecheck --jobs N` reports the same diagnostics, in the same
    // order, for any worker count.
    let parallel = check_rule_sets(sets, &Pool::new(4));
    assert_eq!(render_json(&parallel), render_json(diags), "4 workers vs 1");
}

#[test]
fn hvx_width_limits_show_up_as_notes() {
    // The paper's §5.1 compile failures: 32-bit widening ops on HVX. The
    // analysis must still *see* them — as notes, pinned on the target.
    let (_, diags) = shipped();
    let (_, _, notes) = tally(diags);
    assert!(notes > 0, "expected inherent HVX/x86 width-limit notes");
    assert!(diags.iter().any(|d| d.severity == Severity::Note && d.ruleset == "lower-hvx"));
}

#[test]
fn coverage_summary_has_one_hole_free_row_per_backend() {
    let (sets, diags) = shipped();
    let summary = summarize_coverage(sets, diags);
    // One census row per registered lowering TRS, in ALL_ISAS order.
    let names: Vec<&str> = summary.iter().map(|r| r.ruleset.as_str()).collect();
    assert_eq!(names, ["lower-x86", "lower-arm", "lower-hvx", "lower-rvv"]);
    for row in &summary {
        assert_eq!(row.holes, 0, "{row}");
        assert!(row.rules > 0, "{row}");
    }
    // HVX's missing 64-bit lanes surface here; RVV has no inherent limits.
    assert!(summary.iter().any(|r| r.ruleset == "lower-hvx" && r.notes > 0));
    assert!(summary.iter().any(|r| r.ruleset == "lower-rvv" && r.notes == 0));
}

#[test]
fn shipped_rules_reach_the_static_verdict_bar() {
    let (sets, diags) = shipped();
    let total: usize = sets.iter().map(|s| s.set.len()).sum();
    let verdicts: Vec<&str> =
        diags.iter().filter(|d| d.code == "SOUND003").map(|d| d.detail.as_str()).collect();
    assert_eq!(verdicts.len(), total, "every shipped rule gets a soundness verdict");
    let count =
        |v: Verdict| verdicts.iter().filter(|d| d.starts_with(&format!("verdict: {v} "))).count();
    let (proved, exhausted, sampled) =
        (count(Verdict::Proved), count(Verdict::Exhausted), count(Verdict::Sampled));
    assert_eq!(proved + exhausted + sampled, total, "{verdicts:#?}");
    println!("verdicts over {total} shipped rules: {proved} proved, {exhausted} exhausted, {sampled} sampled");
    // The acceptance bar: at least 60% of shipped rules statically
    // verified (proved or exhausted), not merely sampled. Debug builds
    // shrink the enumeration budget, so the bar is asserted where it is
    // measured — under the release configuration.
    if !cfg!(debug_assertions) {
        assert!(
            (proved + exhausted) * 10 >= total * 6,
            "only {proved}+{exhausted} of {total} rules statically verified"
        );
    }
}
