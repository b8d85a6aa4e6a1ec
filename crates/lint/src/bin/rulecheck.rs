//! `rulecheck` — run the static rule-set analyses over every shipped TRS.
//!
//! ```text
//! rulecheck [--json] [--deny warnings] [--jobs N]
//! ```
//!
//! Exits non-zero when any *error* is found, or when `--deny warnings` is
//! given and any warning is found. Notes never affect the exit code.
//! `--jobs` (default: `PITCHFORK_JOBS` or the machine's parallelism) fans
//! the independent analysis × rule-set units out over a worker pool; the
//! diagnostic list is identical for any worker count. Every run runs all
//! six analyses.
//!
//! Every diagnostic carries a stable code (`TERM003`, `SOUND001`, …) in
//! both text and JSON output; tooling should match on codes, not on
//! message text.

use pitchfork_lint::{check_rule_sets, render_report_json, summarize_coverage, tally, Severity};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut deny_warnings = false;
    let mut jobs = fpir_pool::default_jobs();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--deny" => match args.next().as_deref() {
                Some("warnings") => deny_warnings = true,
                Some(other) => {
                    eprintln!("rulecheck: `--deny` expects `warnings`, got {other:?}");
                    return ExitCode::from(2);
                }
                None => {
                    eprintln!("rulecheck: `--deny` expects a value (`--deny warnings`)");
                    return ExitCode::from(2);
                }
            },
            "--jobs" => match args.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n >= 1 => jobs = n,
                _ => {
                    eprintln!("rulecheck: `--jobs` expects a positive integer");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: rulecheck [--json] [--deny warnings] [--jobs N]");
                println!();
                println!("Statically analyzes the shipped lift/lower rule sets:");
                println!("  termination  strict cost descent + rewrite-cycle detection");
                println!("  shadowing    rules dead behind earlier, more general rules");
                println!("  coverage     FPIR ops a backend cannot select");
                println!("  predicates   malformed or contradictory side conditions");
                println!("  index        rules the root-operator rule index would mis-dispatch");
                println!("  soundness    per-rule semantic verdicts (proved/exhausted/sampled)");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("rulecheck: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let sets = pitchfork::all_rule_sets();
    let mut diags = check_rule_sets(&sets, &fpir_pool::Pool::new(jobs));
    // Most severe first, stable within a severity class.
    diags.sort_by_key(|d| std::cmp::Reverse(d.severity));
    let summary = summarize_coverage(&sets, &diags);

    if json {
        println!("{}", render_report_json(&summary, &diags));
    } else {
        for d in &diags {
            println!("{d}");
        }
        for row in &summary {
            println!("{row}");
        }
        let (errors, warnings, notes) = tally(&diags);
        println!(
            "rulecheck: {errors} error{}, {warnings} warning{}, {notes} note{}",
            plural(errors),
            plural(warnings),
            plural(notes)
        );
    }

    let fatal = diags.iter().any(|d| {
        d.severity == Severity::Error || (deny_warnings && d.severity == Severity::Warning)
    });
    if fatal {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}
