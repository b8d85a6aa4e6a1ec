//! Root-operator discrimination index over a [`RuleSet`].
//!
//! The naive rewriter tries *every* rule at *every* node, making the inner
//! loop O(rules) per node even though a pattern rooted at `+` can only ever
//! match an `Add` node. This module buckets rules by the head operator of
//! their left-hand side ([`OpKey`]); patterns whose root is a wildcard (or
//! a bare constant) go into a fallback bucket consulted at every node.
//!
//! Dispatch preserves the linear-scan semantics of §3.2 exactly: candidate
//! rules are produced in ascending rule-set order (bucket and wildcard
//! lists merged by index), and the rewriter's ordering rule —
//! lowest-cost output wins, ties broken by earliest rule — is insensitive
//! to which non-matching rules were skipped. The `pitchfork-lint`
//! `indexcheck` analysis verifies the bucketing against each rule's own
//! instantiations, and a differential fuzz test in `pitchfork` checks that
//! indexed and linear dispatch fire identical rule sequences.

use crate::pattern::Pat;
use crate::rule::RuleSet;
use fpir::expr::{BinOp, CmpOp, Expr, ExprKind, FpirOp, RcExpr};
use fpir::identity::FnvMap;
use fpir::Isa;

/// The head-operator class of an expression node or pattern root.
///
/// This is deliberately coarser than the node itself: every
/// `saturating_cast<T>` collapses to [`OpKey::SatCast`] (patterns constrain
/// the target type relationally, so the type parameter cannot discriminate),
/// and machine ops key on `(isa, opcode)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKey {
    /// A primitive binary operator.
    Bin(BinOp),
    /// A lane-wise comparison.
    Cmp(CmpOp),
    /// A select.
    Select,
    /// A wrapping cast (any target type).
    Cast,
    /// A reinterpret (any target type).
    Reinterpret,
    /// A saturating cast, regardless of target type.
    SatCast,
    /// A non-`SaturatingCast` FPIR instruction.
    Fpir(FpirOp),
    /// A machine instruction, keyed by target and opcode.
    Mach(Isa, u16),
    /// A leaf (variable or constant) — only wildcard-rooted rules apply.
    Leaf,
}

impl OpKey {
    /// The key of an expression node.
    pub fn of_expr(e: &Expr) -> OpKey {
        match e.kind() {
            ExprKind::Var(_) | ExprKind::Const(_) => OpKey::Leaf,
            ExprKind::Bin(op, ..) => OpKey::Bin(*op),
            ExprKind::Cmp(op, ..) => OpKey::Cmp(*op),
            ExprKind::Select(..) => OpKey::Select,
            ExprKind::Cast(_) => OpKey::Cast,
            ExprKind::Reinterpret(_) => OpKey::Reinterpret,
            ExprKind::Fpir(FpirOp::SaturatingCast(_), _) => OpKey::SatCast,
            ExprKind::Fpir(op, _) => OpKey::Fpir(*op),
            ExprKind::Mach(op, _) => OpKey::Mach(op.isa, op.code),
        }
    }

    /// The key a pattern discriminates on, or `None` when the pattern can
    /// match any node (wildcards, constant wildcards, literals).
    pub fn of_pat(p: &Pat) -> Option<OpKey> {
        match p {
            Pat::Wild { .. } | Pat::ConstWild { .. } | Pat::Lit(..) => None,
            Pat::Bin(op, ..) => Some(OpKey::Bin(*op)),
            Pat::Cmp(op, ..) => Some(OpKey::Cmp(*op)),
            Pat::Select(..) => Some(OpKey::Select),
            Pat::Cast(..) => Some(OpKey::Cast),
            Pat::Reinterpret(..) => Some(OpKey::Reinterpret),
            Pat::SatCast(..) | Pat::Fpir(FpirOp::SaturatingCast(_), _) => Some(OpKey::SatCast),
            Pat::Fpir(op, _) => Some(OpKey::Fpir(*op)),
            Pat::Mach(op, _) => Some(OpKey::Mach(op.isa, op.code)),
        }
    }
}

/// A conservative requirement on one operand's root, derived from the
/// corresponding operand pattern of a rule's LHS.
///
/// Used to refuse a candidate before the full (recursive, backtracking)
/// match: refusal is sound exactly when the deep match could not have
/// succeeded, so prefiltering never changes which rules fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChildReq {
    /// The operand pattern can match any subexpression.
    Any,
    /// The operand must be a broadcast constant ([`Pat::ConstWild`] and
    /// [`Pat::Lit`] both require `as_const()` to succeed).
    Const,
    /// The operand's head operator must be exactly this key.
    Op(OpKey),
}

impl ChildReq {
    fn of_pat(p: &Pat) -> ChildReq {
        match p {
            Pat::Wild { .. } => ChildReq::Any,
            Pat::ConstWild { .. } | Pat::Lit(..) => ChildReq::Const,
            _ => OpKey::of_pat(p).map_or(ChildReq::Any, ChildReq::Op),
        }
    }

    #[inline]
    fn admits(self, e: &RcExpr) -> bool {
        match self {
            ChildReq::Any => true,
            ChildReq::Const => e.as_const().is_some(),
            ChildReq::Op(k) => OpKey::of_expr(e) == k,
        }
    }
}

/// The depth-1 prefilter for one rule: requirements on the LHS root's
/// immediate operands, mirroring the matcher's operand pairing (including
/// the both-orders retry on commutative roots).
#[derive(Debug, Clone)]
enum ChildFilter {
    /// Nothing to check (wildcard root, or every operand is `Any`).
    Trivial,
    /// A two-operand root; the flag is whether matching also tries the
    /// swapped operand order.
    Pair([ChildReq; 2], bool),
    /// An ordered operand list (selects, FPIR/machine calls, casts).
    Seq(Vec<ChildReq>),
}

impl ChildFilter {
    fn of_rule(lhs: &Pat) -> ChildFilter {
        let filter = match lhs {
            Pat::Bin(op, a, b) => {
                ChildFilter::Pair([ChildReq::of_pat(a), ChildReq::of_pat(b)], op.is_commutative())
            }
            Pat::Cmp(_, a, b) => {
                ChildFilter::Pair([ChildReq::of_pat(a), ChildReq::of_pat(b)], false)
            }
            Pat::Fpir(op, pats) if op.is_commutative() && pats.len() == 2 => {
                ChildFilter::Pair([ChildReq::of_pat(&pats[0]), ChildReq::of_pat(&pats[1])], true)
            }
            Pat::Fpir(_, pats) | Pat::Mach(_, pats) => {
                ChildFilter::Seq(pats.iter().map(ChildReq::of_pat).collect())
            }
            Pat::Select(c, t, f) => ChildFilter::Seq(vec![
                ChildReq::of_pat(c),
                ChildReq::of_pat(t),
                ChildReq::of_pat(f),
            ]),
            Pat::Cast(_, inner) | Pat::Reinterpret(_, inner) | Pat::SatCast(_, inner) => {
                ChildFilter::Seq(vec![ChildReq::of_pat(inner)])
            }
            Pat::Wild { .. } | Pat::ConstWild { .. } | Pat::Lit(..) => ChildFilter::Trivial,
        };
        let trivial = match &filter {
            ChildFilter::Trivial => true,
            ChildFilter::Pair(reqs, _) => reqs.iter().all(|r| *r == ChildReq::Any),
            ChildFilter::Seq(reqs) => reqs.iter().all(|r| *r == ChildReq::Any),
        };
        if trivial {
            ChildFilter::Trivial
        } else {
            filter
        }
    }

    fn admits(&self, e: &RcExpr) -> bool {
        match self {
            ChildFilter::Trivial => true,
            ChildFilter::Pair([ra, rb], swappable) => {
                let c = e.children();
                if c.len() != 2 {
                    return false;
                }
                (ra.admits(c[0]) && rb.admits(c[1]))
                    || (*swappable && ra.admits(c[1]) && rb.admits(c[0]))
            }
            ChildFilter::Seq(reqs) => {
                let c = e.children();
                reqs.len() == c.len() && reqs.iter().zip(c).all(|(r, e)| r.admits(e))
            }
        }
    }
}

/// A discrimination index: rule indices bucketed by LHS head operator,
/// plus a per-rule depth-1 operand prefilter.
///
/// Built once per rule set; lookup merges the operator bucket with the
/// wildcard bucket in ascending rule order so dispatch order is identical
/// to a linear scan over the rules that could possibly match.
#[derive(Debug, Clone, Default)]
pub struct RuleIndex {
    buckets: FnvMap<OpKey, Vec<u32>>,
    wildcard: Vec<u32>,
    filters: Vec<ChildFilter>,
}

impl RuleIndex {
    /// Build the index for `rules`.
    pub fn build(rules: &RuleSet) -> RuleIndex {
        let mut idx = RuleIndex::default();
        for (i, rule) in rules.rules().iter().enumerate() {
            match OpKey::of_pat(&rule.lhs) {
                Some(key) => idx.buckets.entry(key).or_default().push(i as u32),
                None => idx.wildcard.push(i as u32),
            }
            idx.filters.push(ChildFilter::of_rule(&rule.lhs));
        }
        idx
    }

    /// Whether rule `i` could possibly match `expr`, judged by the depth-1
    /// operand prefilter alone (the root operator is assumed to have been
    /// dispatched already). `false` guarantees a full match would fail, so
    /// callers may skip the match attempt without changing behaviour.
    #[inline]
    pub fn admits(&self, i: u32, expr: &RcExpr) -> bool {
        self.filters[i as usize].admits(expr)
    }

    /// Whether any rule at all could match a node with head `key`.
    #[inline]
    pub fn has_candidates(&self, key: OpKey) -> bool {
        !self.wildcard.is_empty() || self.buckets.get(&key).is_some_and(|b| !b.is_empty())
    }

    /// The rules that could match a node with head `key`, in ascending
    /// rule-set order.
    pub fn candidates(&self, key: OpKey) -> impl Iterator<Item = u32> + '_ {
        let bucket = self.buckets.get(&key).map(Vec::as_slice).unwrap_or(&[]);
        MergeAscending { a: bucket, b: &self.wildcard }
    }

    /// The rules that could match `expr`'s root, in ascending rule order.
    pub fn candidates_for(&self, expr: &RcExpr) -> impl Iterator<Item = u32> + '_ {
        self.candidates(OpKey::of_expr(expr))
    }

    /// Rule indices in the wildcard (match-anything) bucket.
    pub fn wildcard_rules(&self) -> &[u32] {
        &self.wildcard
    }

    /// The bucket key assigned to rule `i`, or `None` if it is in the
    /// wildcard bucket (exposed for the `indexcheck` static analysis).
    pub fn key_of_rule(&self, i: u32) -> Option<OpKey> {
        self.buckets.iter().find_map(|(k, v)| v.contains(&i).then_some(*k))
    }
}

/// Merge two ascending `u32` slices into one ascending stream.
struct MergeAscending<'a> {
    a: &'a [u32],
    b: &'a [u32],
}

impl Iterator for MergeAscending<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match (self.a.first(), self.b.first()) {
            (Some(&x), Some(&y)) => {
                if x <= y {
                    self.a = &self.a[1..];
                    Some(x)
                } else {
                    self.b = &self.b[1..];
                    Some(y)
                }
            }
            (Some(&x), None) => {
                self.a = &self.a[1..];
                Some(x)
            }
            (None, Some(&y)) => {
                self.b = &self.b[1..];
                Some(y)
            }
            (None, None) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::*;
    use crate::rule::{Rule, RuleClass};
    use crate::template::Template;
    use fpir::build;
    use fpir::types::{ScalarType as S, VectorType as V};

    fn rules() -> RuleSet {
        let mut rs = RuleSet::new("index-demo");
        // 0: rooted at Add.
        rs.push(Rule::new("r-add", RuleClass::Lift, pat_add(wild(0), wild(1)), Template::Wild(0)));
        // 1: wildcard root.
        rs.push(Rule::new("r-wild", RuleClass::Lift, wild(0), Template::Wild(0)));
        // 2: rooted at Mul.
        rs.push(Rule::new("r-mul", RuleClass::Lift, pat_mul(wild(0), wild(1)), Template::Wild(0)));
        // 3: rooted at Add again.
        rs.push(Rule::new(
            "r-add2",
            RuleClass::Lift,
            pat_add(wild(0), cwild(1)),
            Template::Wild(0),
        ));
        rs
    }

    #[test]
    fn buckets_by_root_operator() {
        let rs = rules();
        let idx = RuleIndex::build(&rs);
        let t = V::new(S::U8, 8);
        let add = build::add(build::var("a", t), build::var("b", t));
        let mul = build::mul(build::var("a", t), build::var("b", t));
        let leaf = build::var("a", t);
        assert_eq!(idx.candidates_for(&add).collect::<Vec<_>>(), vec![0, 1, 3]);
        assert_eq!(idx.candidates_for(&mul).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(idx.candidates_for(&leaf).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn candidates_are_in_rule_order() {
        let rs = rules();
        let idx = RuleIndex::build(&rs);
        let t = V::new(S::U8, 8);
        let add = build::add(build::var("a", t), build::var("b", t));
        let c: Vec<u32> = idx.candidates_for(&add).collect();
        assert!(c.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn saturating_cast_patterns_share_a_bucket() {
        use crate::pattern::{Pat, TypePat};
        let sat_pat = Pat::SatCast(TypePat::Any, Box::new(wild(0)));
        assert_eq!(OpKey::of_pat(&sat_pat), Some(OpKey::SatCast));
        let e = build::saturating_cast(S::U8, build::var("x", V::new(S::U16, 8)));
        assert_eq!(OpKey::of_expr(&e), OpKey::SatCast);
    }

    #[test]
    fn key_of_rule_reports_bucketing() {
        let rs = rules();
        let idx = RuleIndex::build(&rs);
        assert_eq!(idx.key_of_rule(0), Some(OpKey::Bin(fpir::BinOp::Add)));
        assert_eq!(idx.key_of_rule(1), None);
        assert_eq!(idx.wildcard_rules(), &[1]);
    }
}
