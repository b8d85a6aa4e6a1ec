//! The acceptance gate: the shipped hand-written lift rules and every
//! lowering rule set must come through `rulecheck` with no errors and no
//! warnings (notes — inherent target limits like HVX's missing 64-bit
//! lanes — are expected and allowed).

use fpir_pool::Pool;
use pitchfork_lint::{check_rule_sets, render_json, summarize_coverage, tally, Analysis, Severity};

#[test]
fn shipped_rule_sets_pass_rulecheck_at_deny_warnings() {
    let sets = pitchfork::all_rule_sets();
    let diags = check_rule_sets(&sets, &Analysis::ALL, &Pool::sequential());
    let loud: Vec<String> =
        diags.iter().filter(|d| d.severity >= Severity::Warning).map(ToString::to_string).collect();
    assert!(loud.is_empty(), "rulecheck is not clean:\n{}", loud.join("\n"));
    // `rulecheck --jobs N` reports the same diagnostics, in the same
    // order, for any worker count.
    let parallel = check_rule_sets(&sets, &Analysis::ALL, &Pool::new(4));
    assert_eq!(render_json(&parallel), render_json(&diags), "4 workers vs 1");
}

#[test]
fn hvx_width_limits_show_up_as_notes() {
    // The paper's §5.1 compile failures: 32-bit widening ops on HVX. The
    // analysis must still *see* them — as notes, pinned on the target.
    let diags = check_rule_sets(&pitchfork::all_rule_sets(), &Analysis::ALL, &Pool::sequential());
    let (_, _, notes) = tally(&diags);
    assert!(notes > 0, "expected inherent HVX/x86 width-limit notes");
    assert!(diags.iter().any(|d| d.severity == Severity::Note && d.ruleset == "lower-hvx"));
}

#[test]
fn coverage_summary_has_one_hole_free_row_per_backend() {
    let sets = pitchfork::all_rule_sets();
    let diags = check_rule_sets(&sets, &Analysis::ALL, &Pool::sequential());
    let summary = summarize_coverage(&sets, &diags);
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
