//! # pitchfork-lint — static analysis over the lift/lower rule sets
//!
//! The compiler's correctness story leans on properties of its term-
//! rewriting systems that nothing previously checked ahead of time:
//!
//! * **[`termination`]** — every lift rule strictly descends in the
//!   target-agnostic cost on every type instantiation (the paper's §3.2
//!   convergence requirement), and no family of rules forms a rewrite
//!   cycle the cost measure fails to break;
//! * **[`shadowing`]** — no rule is dead because an earlier, more general
//!   rule always matches first with an implied predicate;
//! * **[`coverage`]** — every FPIR instruction the lifting TRS can
//!   produce is selectable on every backend (lowering TRS + legalizer),
//!   with inherent lane-width limits (HVX's missing 64-bit lanes)
//!   reported as notes rather than errors;
//! * **[`predicates`]** — side conditions are well-formed: indices in
//!   range, references bound, ranges non-empty, conjunctions free of
//!   contradictions;
//! * **[`indexcheck`]** — the fast rewriter's root-operator rule index
//!   never hides a rule from an expression it matches (every LHS
//!   instantiation keys back to the rule's own bucket);
//! * **[`soundness`]** — every rule carries a semantic verdict
//!   (`proved` / `exhausted` / `sampled`) from `fpir-synth`'s
//!   abstract-interpretation checker, and a rule with a concrete
//!   counterexample is an error.
//!
//! The first five analyses are *static*: they inspect rule structure
//! (plus exhaustive small-type instantiation) without running the
//! compiler on user programs. Soundness additionally evaluates rule
//! semantics through `fpir-synth` — see `docs/verify.md` and
//! `docs/rulecheck.md` for the trade-offs.
//!
//! The `rulecheck` binary runs everything over the shipped rule sets and
//! gates CI via `--deny warnings`.
//!
//! ```
//! use pitchfork_lint::{check_rule_sets, Severity};
//!
//! let sets = pitchfork::all_rule_sets();
//! let diags = check_rule_sets(&sets, &fpir_pool::Pool::sequential());
//! assert!(diags.iter().all(|d| d.severity < Severity::Error));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod coverage;
pub mod diagnostic;
pub mod indexcheck;
pub mod predicates;
pub mod shadowing;
pub mod soundness;
pub mod termination;

pub use diagnostic::{
    render_json, render_report_json, Analysis, CoverageSummary, Diagnostic, Severity,
};

use pitchfork::{RegisteredRuleSet, RuleSetKind};

/// Run every analysis ([`Analysis::ALL`]) over a collection of registered
/// rule sets, fanning the independent (analysis × rule-set) units out
/// over `pool`.
///
/// Shadowing, predicate, and soundness checks are per-set; termination
/// picks its cost model from the set's [`RuleSetKind`]; coverage runs
/// once per lowering backend. Diagnostics come back grouped by analysis
/// in a stable order: the work list is built in that order and the
/// pool's map preserves it, so the list is identical for any worker
/// count.
pub fn check_rule_sets(sets: &[RegisteredRuleSet], pool: &fpir_pool::Pool) -> Vec<Diagnostic> {
    let mut work: Vec<(Analysis, usize)> = Vec::new();
    for analysis in Analysis::ALL {
        for (i, reg) in sets.iter().enumerate() {
            // Coverage is a per-backend analysis: it exercises the
            // lowering TRS + legalizer, so only lowering sets apply.
            if analysis != Analysis::Coverage || matches!(reg.kind, RuleSetKind::Lower(_)) {
                work.push((analysis, i));
            }
        }
    }
    pool.map(&work, |&(analysis, i)| {
        let reg = &sets[i];
        match analysis {
            Analysis::Termination => termination::check(reg),
            Analysis::Shadowing => shadowing::check(&reg.set),
            Analysis::Predicates => predicates::check(&reg.set),
            Analysis::Index => indexcheck::check(&reg.set),
            Analysis::Soundness => soundness::check(&reg.set),
            Analysis::Coverage => match reg.kind {
                RuleSetKind::Lower(isa) => coverage::check(isa, &reg.set),
                _ => unreachable!("coverage work items are lowering sets only"),
            },
        }
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Build the per-backend coverage census from a finished run: one
/// [`CoverageSummary`] row per registered lowering TRS, counting that
/// backend's pack size plus the coverage holes (warning or worse) and
/// inherent-limitation notes attributed to it in `diags`.
pub fn summarize_coverage(
    sets: &[RegisteredRuleSet],
    diags: &[Diagnostic],
) -> Vec<CoverageSummary> {
    sets.iter()
        .filter(|reg| matches!(reg.kind, RuleSetKind::Lower(_)))
        .map(|reg| {
            let name = reg.kind.to_string();
            let cov =
                diags.iter().filter(|d| d.analysis == Analysis::Coverage && d.ruleset == name);
            let (mut holes, mut notes) = (0, 0);
            for d in cov {
                if d.severity >= Severity::Warning {
                    holes += 1;
                } else {
                    notes += 1;
                }
            }
            CoverageSummary { ruleset: name, rules: reg.set.len(), holes, notes }
        })
        .collect()
}

/// Count diagnostics at each severity: `(errors, warnings, notes)`.
pub fn tally(diags: &[Diagnostic]) -> (usize, usize, usize) {
    let mut counts = (0, 0, 0);
    for d in diags {
        match d.severity {
            Severity::Error => counts.0 += 1,
            Severity::Warning => counts.1 += 1,
            Severity::Note => counts.2 += 1,
        }
    }
    counts
}
