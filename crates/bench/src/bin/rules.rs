//! Print the complete rule catalog — the expanded version of the paper's
//! Figure 4 — with classes, predicates and provenance, then validate and
//! verify every rule.
//!
//! Usage: `cargo run --release -p fpir-bench --bin rules [--verify]`

use fpir_pool::Pool;
use fpir_synth::{verify_rule_set, VerifyOptions};
use fpir_trs::rule::RuleSet;

fn print_set(rs: &RuleSet) {
    println!("== {} ({} rules) ==", rs.name, rs.len());
    for rule in rs.rules() {
        println!("  [{:<14}] {:<36} {rule}", rule.class.to_string(), rule.name);
    }
    println!();
}

fn main() {
    let verify = std::env::args().any(|a| a == "--verify");
    let lift = pitchfork::lift_rules();
    print_set(&lift);
    let mut sets = vec![lift];
    for isa in fpir::machine::ALL_ISAS {
        let rs = pitchfork::lower_rules(isa);
        print_set(&rs);
        sets.push(rs);
    }
    let total: usize = sets.iter().map(RuleSet::len).sum();
    println!(
        "{total} rules across the lifting TRS and {} lowering TRSs",
        fpir::machine::ALL_ISAS.len()
    );

    // Structural validation always runs; semantic verification on request.
    for rs in &sets {
        let issues = rs.validate(rs.name == "lift");
        assert!(issues.is_empty(), "{}: {issues:?}", rs.name);
    }
    println!("structural validation: all rules instantiate, apply, and descend in cost");
    if verify {
        let opts = VerifyOptions {
            samples: 12,
            lanes: 128,
            exhaustive_8bit: true,
            exhaustive_points: 1 << 16,
        };
        for rs in &sets {
            let failures = verify_rule_set(rs, &opts, &Pool::sequential());
            assert!(
                failures.is_empty(),
                "{}: {:#?}",
                rs.name,
                failures.iter().map(ToString::to_string).collect::<Vec<_>>()
            );
            println!("semantic verification: {} passes", rs.name);
        }
    }
}
