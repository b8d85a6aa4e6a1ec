//! Rewrite rules and rule sets.
//!
//! A [`Rule`] is `lhs -> rhs [predicate]` plus metadata: its [`RuleClass`]
//! (the five lowering classes of §3.3, or `Lift`), and its [`Provenance`]
//! (hand-written, or synthesized from a benchmark's expressions — used by
//! the leave-one-out protocol of §5 and the ablation of §5.3).
//!
//! [`instantiate_lhs_all`] builds the concrete instances of a rule's
//! left-hand side that `pitchfork-lint`'s `rulecheck` checks each rule on:
//! that it applies, strictly descends in cost (the paper's convergence
//! requirement for lifting rules), and is semantically sound.

use crate::pattern::{match_pat, Pat, TypePat};
use crate::predicate::Predicate;
use crate::template::{substitute, Template};
use crate::term::Term;
use fpir::expr::{Expr, RcExpr};
use fpir::types::{ScalarType, VectorType};
use std::collections::BTreeMap;
use std::fmt;

/// The kind of translation a rule performs (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleClass {
    /// Integer arithmetic → FPIR (target-agnostic lifting).
    Lift,
    /// One-to-one FPIR → target instruction.
    Direct,
    /// A combination of FPIR instructions → one target instruction.
    Fused,
    /// One FPIR instruction → several target instructions (emulation).
    Compound,
    /// Applies only when a compile-time fact (usually a bound) is proven.
    Predicated,
    /// Applies only at specific constants.
    SpecificConst,
    /// Machine-level peephole (used by the Rake-style selector's swizzle
    /// optimization).
    Peephole,
}

impl fmt::Display for RuleClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RuleClass::Lift => "lift",
            RuleClass::Direct => "direct",
            RuleClass::Fused => "fused",
            RuleClass::Compound => "compound",
            RuleClass::Predicated => "predicated",
            RuleClass::SpecificConst => "specific-const",
            RuleClass::Peephole => "peephole",
        };
        f.write_str(s)
    }
}

/// Where a rule came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Provenance {
    /// Written by hand.
    HandWritten,
    /// Synthesized offline from corpus expressions; `sources` names every
    /// benchmark whose expressions produce the rule (leave-one-out drops a
    /// rule only when the left-out benchmark is its *sole* source — with
    /// any other source the rule would have been re-synthesized).
    Synthesized {
        /// Benchmarks whose corpora produce the rule.
        sources: Vec<String>,
    },
}

/// A rewrite rule.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Unique, human-readable name (shows up in firing statistics).
    pub name: String,
    /// Translation class.
    pub class: RuleClass,
    /// Origin (hand-written vs synthesized-from-benchmark).
    pub provenance: Provenance,
    /// Left-hand side.
    pub lhs: Pat,
    /// Right-hand side.
    pub rhs: Template,
    /// Side condition.
    pub pred: Predicate,
}

impl Rule {
    /// A hand-written rule with a trivially-true predicate.
    pub fn new(name: impl Into<String>, class: RuleClass, lhs: Pat, rhs: Template) -> Rule {
        Rule {
            name: name.into(),
            class,
            provenance: Provenance::HandWritten,
            lhs,
            rhs,
            pred: Predicate::True,
        }
    }

    /// Attach a predicate.
    pub fn with_pred(mut self, pred: Predicate) -> Rule {
        self.pred = pred;
        self
    }

    /// Mark as synthesized from `source` (callable repeatedly to record
    /// several source benchmarks).
    pub fn synthesized_from(mut self, source: impl Into<String>) -> Rule {
        match &mut self.provenance {
            Provenance::Synthesized { sources } => sources.push(source.into()),
            Provenance::HandWritten => {
                self.provenance = Provenance::Synthesized { sources: vec![source.into()] };
            }
        }
        self
    }

    /// Try to apply this rule at the root of `expr`.
    ///
    /// Checks the pattern, the predicate (through `bounds`), performs the
    /// substitution, and requires the result type to equal the input type.
    pub fn apply(&self, expr: &RcExpr, bounds: &mut fpir::bounds::BoundsCtx) -> Option<RcExpr> {
        let b = match_pat(&self.lhs, expr)?;
        if !self.pred.eval(&b, bounds) {
            return None;
        }
        let out = substitute(&self.rhs, &b, expr.ty().lanes).ok()?;
        if out.ty() != expr.ty() {
            debug_assert!(
                false,
                "rule `{}` changed type {} -> {} on {expr}",
                self.name,
                expr.ty(),
                out.ty()
            );
            return None;
        }
        Some(out)
    }
}

/// An ordered collection of rules (order is match priority).
#[derive(Debug, Clone, Default)]
pub struct RuleSet {
    /// Descriptive name ("lift", "lower-arm", …).
    pub name: String,
    rules: Vec<Rule>,
    /// Root-operator discrimination index, built on first use (and rebuilt
    /// after any mutation). Sharing it across rewriter instances keeps the
    /// per-compile cost of indexed dispatch at zero.
    index: std::sync::OnceLock<crate::index::RuleIndex>,
}

impl RuleSet {
    /// An empty rule set.
    pub fn new(name: impl Into<String>) -> RuleSet {
        RuleSet { name: name.into(), rules: Vec::new(), index: std::sync::OnceLock::new() }
    }

    /// Append a rule (lowest priority so far).
    pub fn push(&mut self, rule: Rule) {
        self.rules.push(rule);
        self.index = std::sync::OnceLock::new();
    }

    /// Append many rules.
    pub fn extend(&mut self, rules: impl IntoIterator<Item = Rule>) {
        self.rules.extend(rules);
        self.index = std::sync::OnceLock::new();
    }

    /// The rules, in priority order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The root-operator discrimination index over this set (see
    /// [`crate::index::RuleIndex`]), built lazily and cached.
    pub fn index(&self) -> &crate::index::RuleIndex {
        self.index.get_or_init(|| crate::index::RuleIndex::build(self))
    }

    /// A filtered copy without rules synthesized from `benchmark` — the
    /// paper's leave-one-out evaluation protocol (§5).
    pub fn leaving_out(&self, benchmark: &str) -> RuleSet {
        RuleSet {
            name: format!("{} (without rules from {benchmark})", self.name),
            rules: self
                .rules
                .iter()
                .filter(|r| {
                    !matches!(&r.provenance, Provenance::Synthesized { sources }
                        if sources.iter().all(|s| s == benchmark))
                })
                .cloned()
                .collect(),
            index: std::sync::OnceLock::new(),
        }
    }

    /// A filtered copy with only the rules of one class.
    pub fn of_class(&self, class: crate::rule::RuleClass) -> RuleSet {
        RuleSet {
            name: format!("{} ({class} only)", self.name),
            rules: self.rules.iter().filter(|r| r.class == class).cloned().collect(),
            index: std::sync::OnceLock::new(),
        }
    }

    /// A filtered copy with only hand-written rules — the §5.3 ablation.
    pub fn hand_written_only(&self) -> RuleSet {
        RuleSet {
            name: format!("{} (hand-written only)", self.name),
            rules: self
                .rules
                .iter()
                .filter(|r| r.provenance == Provenance::HandWritten)
                .cloned()
                .collect(),
            index: std::sync::OnceLock::new(),
        }
    }
}

/// Build a concrete expression matching a rule's LHS, for validation and
/// verification: wildcards become fresh variables, constant wildcards take
/// predicate-satisfying values, and type variables are searched over the
/// 8–32-bit types until the instantiation type-checks.
pub fn instantiate_lhs(rule: &Rule) -> Option<RcExpr> {
    instantiate_lhs_with(rule, 4, &BTreeMap::new())
}

/// [`instantiate_lhs`] with explicit lane count and constant overrides
/// (`wildcard id -> value`), used by rule verification to sweep constants.
pub fn instantiate_lhs_with(
    rule: &Rule,
    lanes: u32,
    const_overrides: &BTreeMap<u8, i128>,
) -> Option<RcExpr> {
    let vars = collect_type_vars(&rule.lhs);
    let mut assignment: BTreeMap<u8, ScalarType> = BTreeMap::new();
    try_assignments(rule, lanes, const_overrides, &vars, 0, &mut assignment)
}

/// Every concrete instantiation of a rule's LHS, one per satisfiable
/// type-variable assignment over the 8–32-bit candidate types.
///
/// [`instantiate_lhs`] returns only the first; static analyses (strict
/// cost descent must hold for *all* type instantiations, not just the
/// first that happens to type-check) need the whole family.
pub fn instantiate_lhs_all(rule: &Rule, lanes: u32) -> Vec<RcExpr> {
    fn walk(
        rule: &Rule,
        lanes: u32,
        vars: &[u8],
        idx: usize,
        assignment: &mut BTreeMap<u8, ScalarType>,
        out: &mut Vec<RcExpr>,
    ) {
        if idx == vars.len() {
            out.extend(instance_for_assignment(rule, lanes, &BTreeMap::new(), assignment));
        } else {
            for t in TYPE_CANDIDATES {
                assignment.insert(vars[idx], t);
                walk(rule, lanes, vars, idx + 1, assignment, out);
            }
            assignment.remove(&vars[idx]);
        }
    }
    let vars = collect_type_vars(&rule.lhs);
    let mut out = Vec::new();
    walk(rule, lanes, &vars, 0, &mut BTreeMap::new(), &mut out);
    out
}

const TYPE_CANDIDATES: [ScalarType; 6] = [
    ScalarType::U8,
    ScalarType::U16,
    ScalarType::U32,
    ScalarType::I8,
    ScalarType::I16,
    ScalarType::I32,
];

fn try_assignments(
    rule: &Rule,
    lanes: u32,
    const_overrides: &BTreeMap<u8, i128>,
    vars: &[u8],
    idx: usize,
    assignment: &mut BTreeMap<u8, ScalarType>,
) -> Option<RcExpr> {
    if idx == vars.len() {
        instance_for_assignment(rule, lanes, const_overrides, assignment)
    } else {
        for t in TYPE_CANDIDATES {
            assignment.insert(vars[idx], t);
            if let Some(e) =
                try_assignments(rule, lanes, const_overrides, vars, idx + 1, assignment)
            {
                return Some(e);
            }
        }
        assignment.remove(&vars[idx]);
        None
    }
}

/// The first LHS instance under one fixed type-variable assignment that
/// matches the pattern and satisfies the predicate, searching coherent
/// combinations of candidate constants: each constant wildcard gets a
/// small list from the predicate, and we search the cartesian product
/// (it is tiny in practice).
fn instance_for_assignment(
    rule: &Rule,
    lanes: u32,
    const_overrides: &BTreeMap<u8, i128>,
    assignment: &BTreeMap<u8, ScalarType>,
) -> Option<RcExpr> {
    let const_ids = collect_const_wilds(&rule.lhs);
    let mut combos: Vec<BTreeMap<u8, i128>> = vec![const_overrides.clone()];
    for &cid in &const_ids {
        if const_overrides.contains_key(&cid) {
            continue;
        }
        // The element type is unknown until the instance is built;
        // offer candidates for every plausible width and let the
        // match/predicate check reject incoherent ones.
        let mut values: Vec<i128> = Vec::new();
        for elem in
            [ScalarType::U8, ScalarType::U16, ScalarType::U32, ScalarType::I16, ScalarType::I32]
        {
            values.extend(rule.pred.candidate_consts(cid, elem));
        }
        values.push(2);
        values.dedup();
        values.truncate(12);
        combos = combos
            .into_iter()
            .flat_map(|m| {
                values.iter().map(move |&v| {
                    let mut m2 = m.clone();
                    m2.insert(cid, v);
                    m2
                })
            })
            .take(4096)
            .collect();
    }
    for overrides in combos {
        let Some(inst) = build_instance(&rule.lhs, assignment, lanes, &overrides, &rule.pred)
        else {
            continue;
        };
        let Some(b) = match_pat(&rule.lhs, &inst) else {
            continue;
        };
        // Bounds-predicated rules cannot be witnessed by unbounded
        // fresh variables; give every instantiation variable a tight
        // range so structural validation can proceed (semantic
        // correctness of bounds predicates is established separately
        // by differential testing).
        let mut bounds = fpir::bounds::BoundsCtx::new();
        for (name, _) in inst.free_vars() {
            bounds.set_var_bound(name, fpir::bounds::Interval::new(0, 1));
        }
        if rule.pred.eval(&b, &mut bounds) {
            return Some(inst);
        }
    }
    None
}

/// The constant-wildcard ids used in a pattern, in first-use order.
pub fn collect_const_wilds(pat: &Pat) -> Vec<u8> {
    first_uses(pat.subterms().filter_map(|p| match p {
        Pat::ConstWild { id, .. } => Some(*id),
        _ => None,
    }))
}

/// The type-variable ids referenced anywhere in a pattern, in first-use
/// order (the instantiation search enumerates candidate types per id, and
/// static analyses use it to bound wildcard indices).
pub fn collect_type_vars(pat: &Pat) -> Vec<u8> {
    first_uses(pat.subterms().filter_map(|p| p.type_pat()?.var()))
}

/// `ids` with repeats dropped, each kept at its first occurrence.
pub fn first_uses(ids: impl IntoIterator<Item = u8>) -> Vec<u8> {
    let mut out = Vec::new();
    for id in ids {
        if !out.contains(&id) {
            out.push(id);
        }
    }
    out
}

/// Build one expression instance of a pattern under a type-variable
/// assignment. Returns `None` when the assignment is inconsistent.
fn build_instance(
    pat: &Pat,
    assignment: &BTreeMap<u8, ScalarType>,
    lanes: u32,
    const_overrides: &BTreeMap<u8, i128>,
    pred: &Predicate,
) -> Option<RcExpr> {
    let resolve = |t: &TypePat| -> Option<ScalarType> {
        match t {
            TypePat::Any => Some(ScalarType::U8),
            TypePat::Exact(s) => Some(*s),
            TypePat::Var(i) | TypePat::AnyUnsigned(i) | TypePat::AnySigned(i) => {
                let base = assignment.get(i).copied()?;
                match t {
                    TypePat::AnyUnsigned(_) if base.is_signed() => None,
                    TypePat::AnySigned(_) if !base.is_signed() => None,
                    _ => Some(base),
                }
            }
            TypePat::WidenOf(i) => assignment.get(i).copied()?.widen(),
            TypePat::Widen2Of(i) => assignment.get(i).copied()?.widen()?.widen(),
            TypePat::WidenSignedOf(i) => Some(assignment.get(i).copied()?.widen()?.with_signed()),
            TypePat::NarrowUnsignedOf(i) => {
                Some(assignment.get(i).copied()?.narrow()?.with_unsigned())
            }
            TypePat::NarrowOf(i) => assignment.get(i).copied()?.narrow(),
            TypePat::SameWidthAs(i) => Some(assignment.get(i).copied()?),
        }
    };
    let build = |p: &Pat| build_instance(p, assignment, lanes, const_overrides, pred);
    match pat {
        Pat::Wild { id, ty } => {
            let elem = resolve(ty)?;
            Some(Expr::var(format!("x{id}"), VectorType::new(elem, lanes)))
        }
        Pat::ConstWild { id, ty } => {
            let elem = resolve(ty)?;
            let v = const_overrides
                .get(id)
                .copied()
                .or_else(|| pred.candidate_const(*id, elem))
                .unwrap_or(2);
            Expr::constant(v, VectorType::new(elem, lanes)).ok()
        }
        Pat::Lit(v, ty) => {
            let elem = resolve(ty)?;
            Expr::constant(*v, VectorType::new(elem, lanes)).ok()
        }
        Pat::Bin(op, a, b) => Expr::bin(*op, build(a)?, build(b)?).ok(),
        Pat::Cmp(op, a, b) => Expr::cmp(*op, build(a)?, build(b)?).ok(),
        Pat::Select(c, t, f) => Expr::select(build(c)?, build(t)?, build(f)?).ok(),
        Pat::Cast(ty, a) => Some(Expr::cast(resolve(ty)?, build(a)?)),
        Pat::Reinterpret(ty, a) => Expr::reinterpret(resolve(ty)?, build(a)?).ok(),
        Pat::SatCast(ty, a) => {
            Expr::fpir(fpir::FpirOp::SaturatingCast(resolve(ty)?), vec![build(a)?]).ok()
        }
        Pat::Fpir(op, args) => Expr::fpir(*op, args.iter().map(build).collect::<Option<_>>()?).ok(),
        Pat::Mach(..) => None,
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}  ->  {}", self.lhs, self.rhs)?;
        if self.pred != Predicate::True {
            write!(f, "   [{}]", self.pred)?;
        }
        match &self.provenance {
            Provenance::HandWritten => Ok(()),
            Provenance::Synthesized { sources } => {
                write!(f, "   (synthesized: {})", sources.join(", "))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::*;
    use crate::template::{CFn, TyRef};
    use fpir::FpirOp;

    /// u16(x_u8) * c0 -> widening_shl(x, log2(c0)) [is_pow2(c0)]
    fn mul_pow2_rule() -> Rule {
        Rule::new(
            "lift-mul-pow2-to-widening-shl",
            RuleClass::Lift,
            pat_mul(
                Pat::Cast(TypePat::WidenOf(0), Box::new(wild_t(0, TypePat::Var(0)))),
                cwild_t(1, TypePat::WidenOf(0)),
            ),
            Template::Fpir(
                FpirOp::WideningShl,
                vec![
                    Template::Wild(0),
                    Template::Const { f: CFn::Log2, of: 1, ty: TyRef::OfWild(0) },
                ],
            ),
        )
        .with_pred(Predicate::IsPow2(1))
    }

    #[test]
    fn instantiation_matches_itself() {
        let rule = mul_pow2_rule();
        let inst = instantiate_lhs(&rule).expect("instantiable");
        assert!(match_pat(&rule.lhs, &inst).is_some());
    }

    #[test]
    fn leave_one_out_filters() {
        let mut rs = RuleSet::new("test");
        rs.push(mul_pow2_rule());
        rs.push(mul_pow2_rule().synthesized_from("sobel3x3"));
        rs.push(mul_pow2_rule().synthesized_from("matmul"));
        assert_eq!(rs.leaving_out("sobel3x3").len(), 2);
        assert_eq!(rs.hand_written_only().len(), 1);
    }

    #[test]
    fn apply_rewrites_at_root() {
        use fpir::build;
        use fpir::types::{ScalarType as S, VectorType as V};
        let rule = mul_pow2_rule();
        let x = build::var("x", V::new(S::U8, 16));
        let e = build::mul(build::widen(x.clone()), build::constant(2, V::new(S::U16, 16)));
        let mut bounds = fpir::bounds::BoundsCtx::new();
        let out = rule.apply(&e, &mut bounds).expect("applies");
        assert_eq!(out.to_string(), "widening_shl(x_u8, 1)");
        // Non-power-of-two constants are rejected by the predicate.
        let e = build::mul(build::widen(x), build::constant(3, V::new(S::U16, 16)));
        assert!(rule.apply(&e, &mut bounds).is_none());
    }
}
