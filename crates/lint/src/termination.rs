//! Termination analysis: strict cost descent plus rewrite-cycle detection.
//!
//! The rewriter (`fpir_trs::Rewriter`) only fires a rule when the output
//! is strictly cheaper than the input under the active cost model, so the
//! *engine* always terminates. What the paper's convergence argument
//! (§3.2) additionally requires is that every lift rule actually descends
//! in the target-agnostic cost on **every** type instantiation — a rule
//! that fails to descend is silently dead at those types, and a family of
//! rules that rewrite into each other's left-hand sides can mask each
//! other. This analysis reports:
//!
//! * **non-descending rules** — for the lifting TRS, a rule whose output
//!   does not strictly reduce [`AgnosticCost`] on some instantiation is an
//!   *error* (it violates the convergence requirement and can never fire
//!   there); for lowering TRSs the same check runs against that target's
//!   [`fpir_isa::TargetCost`] and reports a *note* (target cost models are
//!   per-instruction and a tie merely means the rule is unreachable);
//! * **rewrite cycles** — strongly connected components of the abstract
//!   rewrite-reachability graph (rule A → rule B iff B's LHS skeleton may
//!   match inside A's RHS skeleton). A cycle whose members all provably
//!   descend is harmless — the cost measure breaks it — so only cycles
//!   containing an unproven rule are reported.

use crate::diagnostic::{Analysis, Diagnostic, Severity};
use crate::skeleton::{self, Skel};
use fpir_trs::rule::{instantiate_lhs_all, RuleSet};
use fpir_trs::{AgnosticCost, CostModel};
use pitchfork::{RegisteredRuleSet, RuleSetKind};

/// Whether strict cost descent was established for a rule.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Descent {
    /// Descends strictly on every instantiation that applies.
    Proven,
    /// At least one instantiation where the rule applies without strictly
    /// reducing cost (the string is a `lhs -> rhs` witness).
    Fails(String),
    /// No instantiation could be built or applied; nothing is known.
    Unknown,
}

/// Run the termination analysis over one registered rule set.
pub fn check(reg: &RegisteredRuleSet) -> Vec<Diagnostic> {
    let ruleset = reg.kind.to_string();
    let mut out = Vec::new();

    let statuses: Vec<Descent> = match reg.kind {
        RuleSetKind::Lift => {
            reg.set.rules().iter().map(|r| descent_status(r, &AgnosticCost)).collect()
        }
        RuleSetKind::Lower(isa) => reg
            .set
            .rules()
            .iter()
            .map(|r| descent_status(r, &fpir_isa::TargetCost::new(isa)))
            .collect(),
    };

    for (rule, status) in reg.set.rules().iter().zip(&statuses) {
        match status {
            Descent::Proven => {}
            Descent::Fails(witness) => {
                let (severity, detail) = match reg.kind {
                    RuleSetKind::Lift => (
                        Severity::Error,
                        "does not strictly reduce target-agnostic cost on every type \
                         instantiation (the rule is dead there and violates the \
                         convergence requirement)"
                            .to_string(),
                    ),
                    RuleSetKind::Lower(isa) => (
                        Severity::Note,
                        format!(
                            "does not strictly reduce {} target cost on some instantiation \
                             (the rule cannot fire there)",
                            isa.short_name()
                        ),
                    ),
                };
                out.push(Diagnostic {
                    severity,
                    analysis: Analysis::Termination,
                    code: "TERM001",
                    ruleset: ruleset.clone(),
                    rule: Some(rule.name.clone()),
                    detail,
                    witness: Some(witness.clone()),
                });
            }
            Descent::Unknown => out.push(Diagnostic {
                severity: Severity::Warning,
                analysis: Analysis::Termination,
                code: "TERM002",
                ruleset: ruleset.clone(),
                rule: Some(rule.name.clone()),
                detail: "left-hand side could not be instantiated; cost descent is unverified"
                    .to_string(),
                witness: None,
            }),
        }
    }

    out.extend(cycle_diagnostics(&reg.set, &ruleset, &statuses));
    out
}

fn descent_status<C: CostModel>(rule: &fpir_trs::Rule, model: &C) -> Descent {
    let instances = instantiate_lhs_all(rule, 4);
    if instances.is_empty() {
        return Descent::Unknown;
    }
    let mut applied_any = false;
    for inst in instances {
        let mut bounds = fpir::bounds::BoundsCtx::new();
        for (name, _) in inst.free_vars() {
            bounds.set_var_bound(name, fpir::bounds::Interval::new(0, 1));
        }
        let Some(rewritten) = rule.apply(&inst, &mut bounds) else {
            continue;
        };
        applied_any = true;
        if model.cost(&rewritten) >= model.cost(&inst) {
            return Descent::Fails(format!("{inst} -> {rewritten}"));
        }
    }
    if applied_any {
        Descent::Proven
    } else {
        Descent::Unknown
    }
}

/// Strongly connected components of the abstract rewrite graph, flagging
/// those not discharged by the cost measure.
fn cycle_diagnostics(set: &RuleSet, ruleset: &str, statuses: &[Descent]) -> Vec<Diagnostic> {
    let rules = set.rules();
    let lhs: Vec<Skel> = rules.iter().map(|r| skeleton::of_pat(&r.lhs)).collect();
    let rhs: Vec<Skel> = rules.iter().map(|r| skeleton::of_template(&r.rhs)).collect();

    // Edge i -> j iff rule j's LHS may match at an operator or constant
    // node produced by rule i's RHS.
    let n = rules.len();
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        let produced = skeleton::anchored_subterms(&rhs[i]);
        for (j, lhs_j) in lhs.iter().enumerate() {
            if produced.iter().any(|t| skeleton::may_match(lhs_j, t)) {
                succ[i].push(j);
            }
        }
    }

    let mut out = Vec::new();
    for scc in tarjan_sccs(&succ) {
        let cyclic = scc.len() > 1 || succ[scc[0]].contains(&scc[0]);
        if !cyclic {
            continue;
        }
        let unproven: Vec<usize> =
            scc.iter().copied().filter(|&i| statuses[i] != Descent::Proven).collect();
        if unproven.is_empty() {
            // Every member strictly descends: the cost measure breaks the
            // cycle, as in extending-add <-> extending-add-reassociate.
            continue;
        }
        let mut names: Vec<&str> = scc.iter().map(|&i| rules[i].name.as_str()).collect();
        names.sort_unstable();
        let chain = names.join(" -> ");
        out.push(Diagnostic {
            severity: Severity::Error,
            analysis: Analysis::Termination,
            code: "TERM003",
            ruleset: ruleset.to_string(),
            rule: Some(rules[unproven[0]].name.clone()),
            detail: format!(
                "possible rewrite cycle not broken by the cost measure: {chain} -> ... \
                 (member `{}` is not proven to strictly descend)",
                rules[unproven[0]].name
            ),
            witness: None,
        });
    }
    out
}

/// Iterative Tarjan SCC. Returns components in some order; each component
/// lists vertex indices in discovery order.
fn tarjan_sccs(succ: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = succ.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();

    // Explicit call stack: (vertex, next-successor position).
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        let mut call: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&mut (v, ref mut pos)) = call.last_mut() {
            if *pos == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = succ[v].get(*pos) {
                *pos += 1;
                if index[w] == usize::MAX {
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.reverse();
                    sccs.push(comp);
                }
                call.pop();
                if let Some(&mut (parent, _)) = call.last_mut() {
                    low[parent] = low[parent].min(low[v]);
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tarjan_finds_two_cycle() {
        // 0 -> 1 -> 0, 2 isolated.
        let succ = vec![vec![1], vec![0], vec![]];
        let sccs = tarjan_sccs(&succ);
        let mut sizes: Vec<usize> = sccs.iter().map(Vec::len).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 2]);
    }

    #[test]
    fn tarjan_handles_self_loop_and_chain() {
        // 0 -> 0, 0 -> 1 -> 2.
        let succ = vec![vec![0, 1], vec![2], vec![]];
        let sccs = tarjan_sccs(&succ);
        assert_eq!(sccs.len(), 3);
    }
}
