//! Print the complete rule catalog — the expanded version of the paper's
//! Figure 4 — with classes, predicates and provenance. `rulecheck` (in
//! `pitchfork-lint`) checks every rule in it.
//!
//! Usage: `cargo run --release -p fpir-bench --bin rules`

use fpir_trs::rule::RuleSet;

fn print_set(rs: &RuleSet) {
    println!("== {} ({} rules) ==", rs.name, rs.len());
    for rule in rs.rules() {
        println!("  [{:<14}] {:<36} {rule}", rule.class.to_string(), rule.name);
    }
    println!();
}

fn main() {
    let lift = pitchfork::lift_rules();
    print_set(&lift);
    let mut total = lift.len();
    for isa in fpir::machine::ALL_ISAS {
        let rs = pitchfork::lower_rules(isa);
        print_set(&rs);
        total += rs.len();
    }
    println!(
        "{total} rules across the lifting TRS and {} lowering TRSs",
        fpir::machine::ALL_ISAS.len()
    );
}
