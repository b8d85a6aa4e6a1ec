//! Shadowing analysis: rules that can never fire because an earlier rule
//! always takes precedence.
//!
//! The rewriter tries every rule at a node and keeps the cheapest output,
//! breaking ties by rule order. A later rule is therefore *dead* when some
//! earlier rule (a) matches every expression the later rule matches —
//! pattern subsumption — and (b) has a side condition implied by the later
//! rule's, and (c) produces the same output on everything they both match.
//! Requirement (c) cannot be decided structurally in general, so this
//! analysis reports subsumption + implication as a *warning* ("dead unless
//! its output is strictly cheaper"), which in practice catches the common
//! authoring mistake: adding a specialised rule *after* the general rule
//! it specialises, where the general rule has already rewritten the node.
//!
//! Subsumption is decided conservatively (it may miss shadowing, it does
//! not invent it) by the selector's own walk, [`fpir_trs::match_with`],
//! with the general pattern in the pattern's place and the specific one in
//! the expression's. Its hooks (`SubMap`) decide the leaves: a general
//! wildcard subsumes any specific subtree (a typed one only a specific
//! leaf), a general constant wildcard subsumes constant wildcards and
//! literals. Operator nodes must agree as the walk requires (commutative
//! operators try both operand orders), and type constraints must be equal
//! up to a consistent renaming of type variables. Non-linear wildcards in
//! the general rule require syntactically identical specific subtrees.

use crate::diagnostic::{Analysis, Diagnostic, Severity};
use fpir_trs::rule::RuleSet;
use fpir_trs::{match_with, Hooks, Pat, Predicate, TypePat};
use std::collections::BTreeMap;

/// Run the shadowing analysis over one rule set.
pub fn check(set: &RuleSet) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let rules = set.rules();

    // Duplicate rule names confuse firing statistics and diagnostics.
    let mut seen_names: BTreeMap<&str, usize> = BTreeMap::new();
    for (i, rule) in rules.iter().enumerate() {
        if let Some(&first) = seen_names.get(rule.name.as_str()) {
            out.push(Diagnostic {
                severity: Severity::Warning,
                analysis: Analysis::Shadowing,
                code: "SHAD001",
                ruleset: set.name.clone(),
                rule: Some(rule.name.clone()),
                detail: format!(
                    "duplicate rule name (also used by rule #{first}); firing statistics \
                     and diagnostics cannot distinguish them"
                ),
                witness: None,
            });
        } else {
            seen_names.insert(rule.name.as_str(), i);
        }
    }

    for j in 1..rules.len() {
        for i in 0..j {
            let mut m = SubMap::default();
            if !subsumes(&rules[i].lhs, &rules[j].lhs, &mut m) {
                continue;
            }
            if !pred_implies(&rules[j].pred, &rules[i].pred, &m) {
                continue;
            }
            out.push(Diagnostic {
                severity: Severity::Warning,
                analysis: Analysis::Shadowing,
                code: "SHAD002",
                ruleset: set.name.clone(),
                rule: Some(rules[j].name.clone()),
                detail: format!(
                    "shadowed by earlier rule `{}`: every expression this rule matches is \
                     already matched by it (and its predicate is implied), so this rule \
                     only fires if its output is strictly cheaper",
                    rules[i].name
                ),
                witness: None,
            });
            break; // one shadow finding per rule is enough
        }
    }
    out
}

/// What a general-rule wildcard maps to in the specific rule.
#[derive(Debug, Clone, PartialEq)]
enum ConstBind {
    /// The specific rule's constant wildcard with this id.
    Wild(u8),
    /// A literal value in the specific rule.
    Lit(i128),
}

/// Mappings accumulated while proving `general` subsumes `specific`.
#[derive(Debug, Clone, Default)]
struct SubMap {
    /// General expression-wildcard id → specific wildcard id when the
    /// wildcard landed exactly on a specific expression wildcard
    /// (`None` = landed on a composite subtree or a constant).
    exprs: BTreeMap<u8, Option<u8>>,
    /// General constant-wildcard id → specific constant binding.
    consts: BTreeMap<u8, ConstBind>,
    /// General type-variable id → specific type-variable id.
    tyvars: BTreeMap<u8, u8>,
    /// Non-linear occurrences: general wildcard id → specific subtree.
    seen: BTreeMap<u8, Pat>,
}

impl SubMap {
    /// Record a non-linear binding; false if the same general wildcard
    /// already landed on a *different* specific subtree.
    fn bind_seen(&mut self, id: u8, sub: &Pat) -> bool {
        *self.seen.entry(id).or_insert_with(|| sub.clone()) == *sub
    }
}

/// Does the general type constraint `g` accept every type the specific
/// constraint `s` accepts (under a consistent variable renaming)?
fn ty_subsumes(g: &TypePat, s: &TypePat, m: &mut SubMap) -> bool {
    if *g == TypePat::Any {
        return true;
    }
    if let (TypePat::Exact(a), TypePat::Exact(b)) = (g, s) {
        return a == b;
    }
    let (Some(gi), Some(si)) = (g.var(), s.var()) else {
        return false;
    };
    // A bare `Var` places no constraint of its own (first occurrence), so
    // it also subsumes the sign-restricted binders; every other
    // constructor must match exactly.
    let ctor_ok = std::mem::discriminant(g) == std::mem::discriminant(s)
        || (matches!(g, TypePat::Var(_))
            && matches!(s, TypePat::AnyUnsigned(_) | TypePat::AnySigned(_)));
    // Consistency: each general variable must track one specific variable,
    // otherwise the general rule links occurrences the specific rule
    // leaves independent.
    ctor_ok && *m.tyvars.entry(gi).or_insert(si) == si
}

/// Does `general` match every concrete expression `specific` matches?
fn subsumes(general: &Pat, specific: &Pat, m: &mut SubMap) -> bool {
    match_with(m, general, specific)
}

/// The hooks of [`subsumes`]: the general pattern's leaves record what
/// they land on, and type constraints must subsume pairwise.
impl Hooks<Pat, Pat> for SubMap {
    type Saved = SubMap;

    fn save(&self) -> SubMap {
        self.clone()
    }

    fn restore(&mut self, saved: SubMap) {
        *self = saved;
    }

    fn leaf(&mut self, general: &Pat, specific: &Pat) -> Option<bool> {
        Some(match (general, specific) {
            (Pat::Wild { id, .. } | Pat::ConstWild { id, .. }, _)
                if !self.bind_seen(*id, specific) =>
            {
                false
            }
            (Pat::Wild { id, ty }, _) => {
                let (leaf, ok) = match specific {
                    Pat::Wild { id: sid, ty: sty } => (Some(*sid), ty_subsumes(ty, sty, self)),
                    Pat::ConstWild { ty: sty, .. } | Pat::Lit(_, sty) => {
                        (None, ty_subsumes(ty, sty, self))
                    }
                    // A typed general wildcard over a composite specific
                    // subtree: only the unconstrained case is decidable
                    // without computing the subtree's result type.
                    _ => (None, *ty == TypePat::Any),
                };
                if ok {
                    self.exprs.insert(*id, leaf);
                }
                ok
            }
            (Pat::ConstWild { id, ty }, Pat::ConstWild { id: sid, ty: sty }) => {
                self.consts.insert(*id, ConstBind::Wild(*sid));
                ty_subsumes(ty, sty, self)
            }
            (Pat::ConstWild { id, ty }, Pat::Lit(v, sty)) => {
                self.consts.insert(*id, ConstBind::Lit(*v));
                ty_subsumes(ty, sty, self)
            }
            (Pat::Lit(v, ty), Pat::Lit(sv, sty)) => sv == v && ty_subsumes(ty, sty, self),
            (Pat::ConstWild { .. } | Pat::Lit(..), _) => false,
            _ => return None,
        })
    }

    fn node(&mut self, general: &Pat, specific: &Pat) -> bool {
        match (general, specific) {
            (Pat::Fpir(op, _), Pat::Fpir(sop, _)) => op == sop,
            _ => match (general.type_pat(), specific.type_pat()) {
                (Some(g), Some(s)) => ty_subsumes(&g, &s, self),
                (g, s) => g.is_none() && s.is_none(),
            },
        }
    }
}

/// Does the specific rule's predicate imply the general rule's predicate,
/// under the wildcard correspondence recorded in `m`?
///
/// Conservative: returns `true` only when every conjunct of the general
/// predicate is provably entailed.
fn pred_implies(specific: &Predicate, general: &Predicate, m: &SubMap) -> bool {
    let spec_leaves = specific.conjuncts();
    general.conjuncts().into_iter().all(|g| leaf_implied(g, &spec_leaves, m))
}

fn leaf_implied(g: &Predicate, spec: &[&Predicate], m: &SubMap) -> bool {
    if matches!(g, Predicate::True) {
        return true;
    }
    // Translate the general leaf into the specific rule's wildcard space;
    // if any referenced wildcard has no direct counterpart, give up.
    match g {
        Predicate::IsPow2(id) => match m.consts.get(id) {
            Some(ConstBind::Lit(v)) => fpir::simplify::is_pow2(*v),
            Some(ConstBind::Wild(b)) => spec.iter().any(|s| match s {
                Predicate::IsPow2(sb) => sb == b,
                Predicate::ConstEq { id: sb, value } => sb == b && fpir::simplify::is_pow2(*value),
                Predicate::Pow2Link { id: sb, .. } => sb == b,
                _ => false,
            }),
            None => false,
        },
        Predicate::ConstInRange { id, lo, hi } => match m.consts.get(id) {
            Some(ConstBind::Lit(v)) => lo <= v && v <= hi,
            Some(ConstBind::Wild(b)) => spec.iter().any(|s| match s {
                Predicate::ConstInRange { id: sb, lo: slo, hi: shi } => {
                    sb == b && lo <= slo && shi <= hi
                }
                Predicate::ConstEq { id: sb, value } => sb == b && lo <= value && value <= hi,
                _ => false,
            }),
            None => false,
        },
        Predicate::ConstEq { id, value } => match m.consts.get(id) {
            Some(ConstBind::Lit(v)) => v == value,
            Some(ConstBind::Wild(b)) => spec.iter().any(
                |s| matches!(s, Predicate::ConstEq { id: sb, value: sv } if sb == b && sv == value),
            ),
            None => false,
        },
        // Every remaining leaf depends on the bound expression or the
        // constant's own type; require a syntactically identical leaf on
        // the corresponding specific wildcard.
        _ => {
            let Some(translated) = translate_leaf(g, m) else {
                return false;
            };
            spec.iter().any(|s| **s == translated)
        }
    }
}

/// Rewrite the wildcard ids of a general predicate leaf into the specific
/// rule's id space; `None` when some referenced wildcard has no leaf
/// counterpart there.
fn translate_leaf(g: &Predicate, m: &SubMap) -> Option<Predicate> {
    let const_id = |id: &u8| -> Option<u8> {
        match m.consts.get(id) {
            Some(ConstBind::Wild(b)) => Some(*b),
            _ => None,
        }
    };
    let expr_id = |id: &u8| -> Option<u8> { m.exprs.get(id).copied().flatten() };
    Some(match g {
        Predicate::True => Predicate::True,
        Predicate::All(_) => return None, // conjuncts() never yields All
        Predicate::IsPow2(id) => Predicate::IsPow2(const_id(id)?),
        Predicate::ConstInRange { id, lo, hi } => {
            Predicate::ConstInRange { id: const_id(id)?, lo: *lo, hi: *hi }
        }
        Predicate::ConstEq { id, value } => Predicate::ConstEq { id: const_id(id)?, value: *value },
        Predicate::ConstEqOwnBits(id) => Predicate::ConstEqOwnBits(const_id(id)?),
        Predicate::ConstEqOwnBitsMinus1(id) => Predicate::ConstEqOwnBitsMinus1(const_id(id)?),
        Predicate::ConstGeHalfOwnBits(id) => Predicate::ConstGeHalfOwnBits(const_id(id)?),
        Predicate::ConstLeHalfOwnBits(id) => Predicate::ConstLeHalfOwnBits(const_id(id)?),
        Predicate::ConstEqHalfOwnBits(id) => Predicate::ConstEqHalfOwnBits(const_id(id)?),
        Predicate::ConstLeOwnBits(id) => Predicate::ConstLeOwnBits(const_id(id)?),
        Predicate::ConstEqOwnNarrowMax(id) => Predicate::ConstEqOwnNarrowMax(const_id(id)?),
        Predicate::ConstEqOwnNarrowMin(id) => Predicate::ConstEqOwnNarrowMin(const_id(id)?),
        Predicate::ConstEqOwnNarrowUnsignedMax(id) => {
            Predicate::ConstEqOwnNarrowUnsignedMax(const_id(id)?)
        }
        Predicate::Pow2Link { id, of } => {
            Predicate::Pow2Link { id: const_id(id)?, of: const_id(of)? }
        }
        Predicate::FitsSignedSameWidth(id) => Predicate::FitsSignedSameWidth(expr_id(id)?),
        Predicate::AddConstFits { x, c } => {
            Predicate::AddConstFits { x: expr_id(x)?, c: const_id(c)? }
        }
        Predicate::RoundTermAddFits { x, c } => {
            Predicate::RoundTermAddFits { x: expr_id(x)?, c: const_id(c)? }
        }
        Predicate::FitsNarrowAfterRoundShr { x, c } => {
            Predicate::FitsNarrowAfterRoundShr { x: expr_id(x)?, c: const_id(c)? }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpir_trs::dsl::*;

    #[test]
    fn wildcard_subsumes_const_wildcard() {
        // general: x + y   specific: x + c
        let g = pat_add(wild(0), wild(1));
        let s = pat_add(wild(0), cwild(1));
        assert!(subsumes(&g, &s, &mut SubMap::default()));
        // and not the other way round
        assert!(!subsumes(&s, &g, &mut SubMap::default()));
    }

    #[test]
    fn nonlinear_general_requires_equal_specific_subtrees() {
        // general: x0 + x0   specific: x1 + x2 (independent)
        let g = pat_add(wild(0), wild(0));
        let s = pat_add(wild(1), wild(2));
        assert!(!subsumes(&g, &s, &mut SubMap::default()));
        // specific: x1 + x1 is fine
        let s2 = pat_add(wild(1), wild(1));
        assert!(subsumes(&g, &s2, &mut SubMap::default()));
    }

    #[test]
    fn commutative_subsumption_tries_both_orders() {
        // general: c + x   specific: x + c (swapped)
        let g = pat_add(cwild(0), wild(1));
        let s = pat_add(wild(1), cwild(0));
        assert!(subsumes(&g, &s, &mut SubMap::default()));
    }

    /// Every ordered pair of distinct rules in a shipped set where the
    /// general LHS subsumes the specific one, with whether the specific
    /// predicate implies the general one; pinned so that a change to how
    /// patterns are compared cannot add or drop a pair unnoticed. Each
    /// pair is also checked against the selector's matcher: the general
    /// LHS matches every instance of the specific LHS.
    #[test]
    fn subsumption_over_the_shipped_sets_matches_the_pin() {
        use fpir_trs::match_pat;
        use fpir_trs::rule::instantiate_lhs_all;
        const PINNED: [(&str, &str, &str, bool); 12] = [
            ("lift", "widening-mul-pow2-to-shl", "widening-mul-const", false),
            ("lift", "widening-mul-const", "widening-mul-pow2-to-shl", true),
            ("lift", "extending-mul", "widening-mul-pow2-to-shl", true),
            ("lift", "extending-mul", "widening-mul-const", true),
            ("lower-x86", "x86-rounding-shr-bounded-u16", "x86-rounding-shr-u16", false),
            ("lower-x86", "x86-rounding-shr-bounded-i16", "x86-rounding-shr-i16", false),
            ("lower-x86", "x86-rounding-shr-bounded-u32", "x86-rounding-shr-u32", false),
            ("lower-x86", "x86-rounding-shr-bounded-i32", "x86-rounding-shr-i32", false),
            ("lower-x86", "x86-rounding-shr-u16", "x86-rounding-shr-bounded-u16", true),
            ("lower-x86", "x86-rounding-shr-i16", "x86-rounding-shr-bounded-i16", true),
            ("lower-x86", "x86-rounding-shr-u32", "x86-rounding-shr-bounded-u32", true),
            ("lower-x86", "x86-rounding-shr-i32", "x86-rounding-shr-bounded-i32", true),
        ];
        let mut found = Vec::new();
        let mut instances = 0;
        for reg in pitchfork::all_rule_sets() {
            let set = reg.kind.to_string();
            let rules = reg.set.rules();
            for (i, general) in rules.iter().enumerate() {
                for (j, specific) in rules.iter().enumerate() {
                    let mut m = SubMap::default();
                    if i == j || !subsumes(&general.lhs, &specific.lhs, &mut m) {
                        continue;
                    }
                    let implied = pred_implies(&specific.pred, &general.pred, &m);
                    found.push((set.clone(), general.name.clone(), specific.name.clone(), implied));
                    for inst in instantiate_lhs_all(specific, 8) {
                        assert!(
                            match_pat(&general.lhs, &inst).is_some(),
                            "`{}` subsumes `{}` but does not match its instance {inst}",
                            general.name,
                            specific.name
                        );
                        instances += 1;
                    }
                }
            }
        }
        let pinned: Vec<_> = PINNED
            .iter()
            .map(|&(set, g, s, implied)| (set.to_string(), g.to_string(), s.to_string(), implied))
            .collect();
        assert_eq!(found, pinned);
        assert_eq!(instances, 32);
    }

    #[test]
    fn range_predicate_implication() {
        let g = pat_add(wild(0), cwild(1));
        let s = pat_add(wild(0), cwild(1));
        let mut m = SubMap::default();
        assert!(subsumes(&g, &s, &mut m));
        // specific 1..=4 implies general 0..=8
        let gp = Predicate::ConstInRange { id: 1, lo: 0, hi: 8 };
        let sp = Predicate::ConstInRange { id: 1, lo: 1, hi: 4 };
        assert!(pred_implies(&sp, &gp, &m));
        // the reverse does not hold
        assert!(!pred_implies(&gp, &sp, &m));
        // anything implies True
        assert!(pred_implies(&sp, &Predicate::True, &m));
    }
}
