//! The greedy bottom-up fixpoint rewriter (§3.2).
//!
//! The rewriter traverses the expression bottom-up, greedily applying the
//! rule whose output has the lowest cost among all that match (ties broken
//! by rule order), and repeats until the expression converges to a fixed
//! point — termination is guaranteed by the strict cost descent.
//!
//! # Keeping selection linear
//!
//! Selection cost is kept linear in *unique* DAG nodes — not tree nodes
//! times rules — by three coordinated mechanisms, which [`Rewriter`]
//! always runs:
//!
//! * **DAG memoization** — stencil workloads share subexpressions
//!   pervasively (`Arc<Expr>` handles are aliased, and tree size can be
//!   exponential in unique-node count). Rewritten results are memoized by
//!   allocation identity ([`fpir::expr::Expr::ptr_id`], holding the key
//!   alive like `BoundsCtx` does), so each unique node is processed once
//!   per pass; converged subtrees also keep their identity across passes.
//!   The memo also records each pass's *results*: no rule fires at the
//!   root a rule loop ended at, so a result whose operands are fixpoints
//!   is a fixpoint itself and a later pass returns it at once, and one
//!   revisited with unchanged operands skips its rule loop.
//! * **Root-operator rule indexing** — instead of trying every rule at
//!   every node, candidates come from a [`RuleIndex`] keyed on the
//!   pattern's head operator, with a wildcard bucket merged in ascending
//!   rule order so the §3.2 ordering rule is preserved exactly. Each
//!   bucket's depth-1 operand prefilters are compiled into bit masks, so
//!   a node's admitted rules cost a few word operations per operand, not
//!   one check per candidate.
//! * **Cached subtree costs** — cost models price whole trees; caching
//!   per-node subtree costs by identity makes each candidate comparison
//!   O(new template nodes) instead of O(subtree).
//!
//! [`rewrite_reference`] is the original tree-walking engine with none of
//! the three. It exists only as a differential oracle: tests assert that
//! both produce bit-identical output and fire the same rules in the same
//! order.

use crate::cost::{Cost, CostModel};
use crate::index::{OpKey, RuleIndex};
use crate::rule::RuleSet;
use fpir::bounds::BoundsCtx;
use fpir::expr::{Expr, RcExpr};
use fpir::identity::IdMap;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The bound on fixpoint passes. Cost descent already guarantees
/// termination; the bound is defence in depth and is generous at 16.
const MAX_PASSES: usize = 16;

/// Per-run statistics: work done and cache effectiveness.
#[derive(Debug, Clone, Default)]
pub struct RewriteStats {
    /// Firing count per rule name (resolved once, at the end of a run).
    fired: BTreeMap<String, usize>,
    /// Firing count per rule index — the hot-path representation (no
    /// string allocation per application).
    fired_counts: Vec<usize>,
    /// Rule indices in firing order (for differential order checks).
    fired_seq: Vec<u32>,
    /// Total rule applications.
    pub applications: usize,
    /// Full bottom-up passes executed.
    pub passes: usize,
    /// Unique nodes actually processed (rewrite-memo misses).
    pub nodes_visited: usize,
    /// Nodes answered from the rewrite memo instead of being re-rewritten.
    pub memo_hits: usize,
    /// Subtree-cost queries answered from the cost cache.
    pub cost_cache_hits: usize,
    /// Subtree-cost queries that had to compute.
    pub cost_cache_misses: usize,
    /// Bounds-query memo hits during this run (the §3.3 cache).
    pub bounds_cache_hits: u64,
    /// Bounds-query memo misses during this run.
    pub bounds_cache_misses: u64,
}

impl RewriteStats {
    /// Firing count per rule name.
    pub fn fired(&self) -> &BTreeMap<String, usize> {
        &self.fired
    }

    /// Names of the rules that fired at least once.
    pub fn fired_rules(&self) -> Vec<&str> {
        self.fired.keys().map(String::as_str).collect()
    }

    /// Rule indices (into the run's rule set) in the order they fired.
    pub fn fired_seq(&self) -> &[u32] {
        &self.fired_seq
    }

    /// Fold another run's statistics into this one (used when one logical
    /// phase runs the rewriter more than once). Aggregate counters and the
    /// per-name firing map merge; the index-based firing sequence does not
    /// carry across rule sets and is cleared.
    pub fn merge(&mut self, other: &RewriteStats) {
        self.applications += other.applications;
        self.passes += other.passes;
        self.nodes_visited += other.nodes_visited;
        self.memo_hits += other.memo_hits;
        self.cost_cache_hits += other.cost_cache_hits;
        self.cost_cache_misses += other.cost_cache_misses;
        self.bounds_cache_hits += other.bounds_cache_hits;
        self.bounds_cache_misses += other.bounds_cache_misses;
        for (name, n) in &other.fired {
            *self.fired.entry(name.clone()).or_default() += n;
        }
        self.fired_seq.clear();
        self.fired_counts.clear();
    }
}

/// A rewriting engine bound to a rule set and a cost model.
#[derive(Debug)]
pub struct Rewriter<'a, C> {
    rules: &'a RuleSet,
    cost: C,
    /// The rule set's root-operator index — borrowed from the set's lazy
    /// cache so constructing a rewriter never rebuilds it.
    index: &'a RuleIndex,
    /// Whether leaves are fixpoints outright: the index has no rule for
    /// leaves.
    leaves_fixed: bool,
    /// Bounds-inference context shared across the run (the §3.3 query
    /// cache lives in here).
    pub bounds: BoundsCtx,
    /// Statistics for the last [`Rewriter::run`].
    pub stats: RewriteStats,
    // Rewrite memo: node identity -> (node kept alive, one-pass result).
    // Sound across passes because `pass` is a pure function of the input
    // subtree for a fixed rule set / cost model / bounds. A `None` result
    // marks a node a rule loop ended at: no rule fires at its root, but
    // its operands may still change.
    memo: IdMap<(RcExpr, Option<RcExpr>)>,
    // Subtree-cost memo, same keying discipline.
    cost_memo: IdMap<(RcExpr, Cost)>,
}

impl<'a, C: CostModel> Rewriter<'a, C> {
    /// Create a rewriter for `rules` priced by `cost`.
    pub fn new(rules: &'a RuleSet, cost: C) -> Rewriter<'a, C> {
        let index = rules.index();
        Rewriter {
            rules,
            cost,
            index,
            leaves_fixed: !index.has_candidates(OpKey::Leaf),
            bounds: BoundsCtx::new(),
            stats: RewriteStats::default(),
            memo: IdMap::default(),
            cost_memo: IdMap::default(),
        }
    }

    /// Rewrite to a fixed point.
    pub fn run(&mut self, expr: &RcExpr) -> RcExpr {
        self.stats = RewriteStats::default();
        self.stats.fired_counts = vec![0; self.rules.len()];
        self.memo.clear();
        self.cost_memo.clear();
        let (bh0, bm0) = self.bounds.cache_stats();
        let mut current = expr.clone();
        for _ in 0..MAX_PASSES {
            self.stats.passes += 1;
            let before = self.stats.applications;
            current = self.pass(&current);
            if self.stats.applications == before {
                break;
            }
        }
        self.finalize_stats(bh0, bm0);
        current
    }

    /// Resolve index-based counters to reportable form, once per run.
    fn finalize_stats(&mut self, bh0: u64, bm0: u64) {
        for i in 0..self.stats.fired_counts.len() {
            let n = self.stats.fired_counts[i];
            if n > 0 {
                self.stats.fired.insert(self.rules.rules()[i].name.clone(), n);
            }
        }
        let (bh, bm) = self.bounds.cache_stats();
        self.stats.bounds_cache_hits = bh - bh0;
        self.stats.bounds_cache_misses = bm - bm0;
    }

    /// One bottom-up pass.
    fn pass(&mut self, expr: &RcExpr) -> RcExpr {
        // Leaves with no leaf- or wildcard-bucket rule cannot change: skip
        // the memo and the match loop outright. Leaves are roughly half of
        // any expression, so this halves per-pass bookkeeping.
        if self.leaves_fixed && expr.arity() == 0 {
            self.stats.nodes_visited += 1;
            return expr.clone();
        }
        let tried = match self.memo.get(&Expr::ptr_id(expr)) {
            Some((_, Some(out))) => {
                self.stats.memo_hits += 1;
                return out.clone();
            }
            Some((_, None)) => true,
            None => false,
        };
        self.stats.nodes_visited += 1;
        // Preserve node identity when nothing below changed, so converged
        // subtrees stay memo/cache hits in later passes; operands are
        // collected only once one of them changes.
        let mut changed: Option<Vec<RcExpr>> = None;
        for i in 0..expr.arity() {
            let c = expr.child(i);
            let out = self.pass(c);
            if changed.is_none() && !Arc::ptr_eq(c, &out) {
                let mut v = Vec::with_capacity(expr.arity());
                v.extend((0..i).map(|j| expr.child(j).clone()));
                changed = Some(v);
            }
            if let Some(v) = &mut changed {
                v.push(out);
            }
        }
        let node = match changed {
            Some(v) => self.rewrite_root(expr.with_children(v)),
            // A rule loop already ended at this very node: no rule fires.
            None if tried => expr.clone(),
            None => self.rewrite_root(expr.clone()),
        };
        self.memo.insert(Expr::ptr_id(expr), (expr.clone(), Some(node.clone())));
        if !Arc::ptr_eq(&node, expr) {
            // No rule fires at the result's root, so once its operands are
            // fixpoints the result is one too and a later pass returns it
            // at once; otherwise a later pass at least skips its rule loop.
            let fixed = (0..node.arity()).all(|i| self.is_fixpoint(node.child(i)));
            let slot = self.memo.entry(Expr::ptr_id(&node)).or_insert_with(|| (node.clone(), None));
            if fixed && slot.1.is_none() {
                slot.1 = Some(node.clone());
            }
        }
        node
    }

    /// Whether `pass(e)` is known to return `e` itself.
    fn is_fixpoint(&self, e: &RcExpr) -> bool {
        match self.memo.get(&Expr::ptr_id(e)) {
            Some((_, Some(out))) => Arc::ptr_eq(out, e),
            _ => self.leaves_fixed && e.arity() == 0,
        }
    }

    /// Apply rules at `node`'s root until none fires. When several rules
    /// match the same node, the lowest-cost output is preferred (§3.2's
    /// ordering rule), with ties broken by rule order — candidates are
    /// admitted in ascending rule order, so the strict `<` implements the
    /// tie-break.
    fn rewrite_root(&mut self, mut node: RcExpr) -> RcExpr {
        let (rules, index) = (self.rules, self.index);
        loop {
            // The node is priced lazily, on the first candidate that
            // matches — an empty bucket prices nothing.
            let mut node_cost: Option<Cost> = None;
            let mut best: Option<(Cost, u32, RcExpr)> = None;
            // The operand masks refuse only candidates whose full match is
            // guaranteed to fail, so skipping them cannot change which
            // rule fires.
            for ri in index.admitted(&node) {
                let Some(out) = rules.rules()[ri as usize].apply(&node, &mut self.bounds) else {
                    continue;
                };
                let nc = match node_cost {
                    Some(c) => c,
                    None => *node_cost.insert(self.cost_of(&node)),
                };
                let out_cost = self.cost_of(&out);
                if out_cost < nc && best.as_ref().is_none_or(|(c, _, _)| out_cost < *c) {
                    best = Some((out_cost, ri, out));
                }
            }
            let Some((_, ri, out)) = best else { return node };
            self.stats.fired_counts[ri as usize] += 1;
            self.stats.fired_seq.push(ri);
            self.stats.applications += 1;
            node = out;
        }
    }

    /// The cost of `e`'s subtree, memoized by node identity.
    fn cost_of(&mut self, e: &RcExpr) -> Cost {
        if let Some((_, c)) = self.cost_memo.get(&Expr::ptr_id(e)) {
            self.stats.cost_cache_hits += 1;
            return *c;
        }
        self.stats.cost_cache_misses += 1;
        let mut total = self.cost.node_cost(e);
        for i in 0..e.arity() {
            total = total.plus(self.cost_of(e.child(i)));
        }
        self.cost_memo.insert(Expr::ptr_id(e), (e.clone(), total));
        total
    }
}

/// The differential oracle for [`Rewriter`]: the original tree-walking
/// engine. Each pass rebuilds every node bottom-up, tries every rule in
/// rule order at each node (the same strict-`<` tie-break) and prices
/// every cost from scratch, with a fresh bounds context per call.
///
/// Returns the fixpoint and the statistics the differential tests
/// compare: [`RewriteStats::fired_seq`], `applications` and `passes`
/// (every other counter stays zero). A subexpression shared in the DAG
/// is rewritten once per occurrence in the tree.
pub fn rewrite_reference<C: CostModel>(
    rules: &RuleSet,
    cost: &C,
    expr: &RcExpr,
) -> (RcExpr, RewriteStats) {
    fn pass<C: CostModel>(
        rules: &RuleSet,
        cost: &C,
        bounds: &mut BoundsCtx,
        stats: &mut RewriteStats,
        expr: &RcExpr,
    ) -> RcExpr {
        let children = (0..expr.arity()).map(|i| pass(rules, cost, bounds, stats, expr.child(i)));
        let mut node = expr.with_children(children.collect());
        loop {
            let node_cost = cost.cost(&node);
            let mut best: Option<(Cost, u32, RcExpr)> = None;
            for (ri, rule) in rules.rules().iter().enumerate() {
                let Some(out) = rule.apply(&node, bounds) else { continue };
                let out_cost = cost.cost(&out);
                if out_cost < node_cost && best.as_ref().is_none_or(|(c, _, _)| out_cost < *c) {
                    best = Some((out_cost, ri as u32, out));
                }
            }
            let Some((_, ri, out)) = best else { return node };
            stats.fired_seq.push(ri);
            stats.applications += 1;
            node = out;
        }
    }
    let (mut bounds, mut stats) = (BoundsCtx::new(), RewriteStats::default());
    let mut current = expr.clone();
    for _ in 0..MAX_PASSES {
        stats.passes += 1;
        let before = stats.applications;
        current = pass(rules, cost, &mut bounds, &mut stats, &current);
        if stats.applications == before {
            break;
        }
    }
    (current, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::AgnosticCost;
    use crate::dsl::*;
    use crate::pattern::{Pat, TypePat};
    use crate::rule::{Rule, RuleClass};
    use crate::template::{CFn, Template, TyRef};
    use fpir::build;
    use fpir::interp::{eval, Env};
    use fpir::types::{ScalarType as S, VectorType as V};
    use fpir::FpirOp;

    fn demo_rules() -> RuleSet {
        let mut rs = RuleSet::new("demo");
        // u8(min(x_u16, 255)) -> saturating_cast<u8>(x_u16)
        rs.push(Rule::new(
            "lift-min-255-to-sat-cast",
            RuleClass::Lift,
            Pat::Cast(
                TypePat::NarrowOf(0),
                Box::new(pat_min(wild_t(0, TypePat::AnyUnsigned(0)), lit(255))),
            ),
            Template::SatCast(TyRef::NarrowOfWild(0), Box::new(Template::Wild(0))),
        ));
        // u16(x_u8) + u16(y_u8) -> widening_add(x, y)
        rs.push(Rule::new(
            "lift-widening-add",
            RuleClass::Lift,
            pat_add(
                Pat::Cast(TypePat::WidenOf(0), Box::new(wild_t(0, TypePat::Var(0)))),
                Pat::Cast(TypePat::WidenOf(0), Box::new(wild_t(1, TypePat::Var(0)))),
            ),
            Template::Fpir(FpirOp::WideningAdd, vec![Template::Wild(0), Template::Wild(1)]),
        ));
        // u16(x_u8) * c0 -> widening_shl(x, log2(c0)) [pow2]
        rs.push(
            Rule::new(
                "lift-mul-pow2",
                RuleClass::Lift,
                pat_mul(
                    Pat::Cast(TypePat::WidenOf(0), Box::new(wild_t(0, TypePat::Var(0)))),
                    cwild(1),
                ),
                Template::Fpir(
                    FpirOp::WideningShl,
                    vec![
                        Template::Wild(0),
                        Template::Const { f: CFn::Log2, of: 1, ty: TyRef::OfWild(0) },
                    ],
                ),
            )
            .with_pred(crate::predicate::Predicate::IsPow2(1)),
        );
        rs
    }

    #[test]
    fn rewrites_nested_redexes_to_fixpoint() {
        // u8(min(u16(a) + u16(b), 255)) lifts fully to
        // saturating_cast<u8>(widening_add(a, b)).
        let t = V::new(S::U8, 16);
        let (a, b) = (build::var("a", t), build::var("b", t));
        let sum = build::add(build::widen(a), build::widen(b));
        let e = build::cast(S::U8, build::min(sum.clone(), build::splat(255, &sum)));
        let rules = demo_rules();
        let mut rw = Rewriter::new(&rules, AgnosticCost);
        let out = rw.run(&e);
        assert_eq!(out.to_string(), "saturating_cast<u8>(widening_add(a_u8, b_u8))");
        assert_eq!(rw.stats.applications, 2);
        assert!(rw.stats.fired().contains_key("lift-widening-add"));
    }

    #[test]
    fn converged_results_are_not_walked_again() {
        // Pass 1 lifts both redexes of the 8-node input; its results have
        // fixpoint operands, so pass 2 (which fires nothing) answers the
        // root from the memo instead of walking the result again.
        let t = V::new(S::U8, 16);
        let (a, b) = (build::var("a", t), build::var("b", t));
        let sum = build::add(build::widen(a), build::widen(b));
        let e = build::cast(S::U8, build::min(sum.clone(), build::splat(255, &sum)));
        let rules = demo_rules();
        let mut rw = Rewriter::new(&rules, AgnosticCost);
        let out = rw.run(&e);
        assert_eq!(out.to_string(), "saturating_cast<u8>(widening_add(a_u8, b_u8))");
        assert_eq!((rw.stats.passes, rw.stats.applications), (2, 2));
        assert_eq!(rw.stats.nodes_visited, Expr::unique_count(&e));
        assert_eq!(rw.stats.memo_hits, 1);
    }

    #[test]
    fn a_redex_a_template_builds_fires_in_the_next_pass() {
        // Reassociating u16(a) + (u16(b) + c) builds the interior node
        // u16(a) + u16(b), which pass 1 never walks: the result's root
        // was tried but an operand is not yet a fixpoint, so pass 2 must
        // walk below it and lift that node. The lift changes the root's
        // operand, so the root's rules run again and it commutes.
        use crate::cost::Cost;
        use fpir::expr::{BinOp, ExprKind};
        /// Charges an add for a nested add on its right or an FPIR node
        /// on its left, so reassociating and commuting both descend.
        struct ShapeCost;
        impl CostModel for ShapeCost {
            fn node_cost(&self, e: &Expr) -> Cost {
                let width_sum = match e.kind() {
                    ExprKind::Var(_) | ExprKind::Const(_) => 0,
                    ExprKind::Bin(BinOp::Add, _, b) if matches!(b.kind(), ExprKind::Bin(..)) => 10,
                    ExprKind::Bin(BinOp::Add, a, _) if matches!(a.kind(), ExprKind::Fpir(..)) => 5,
                    ExprKind::Fpir(..) => 1,
                    _ => 2,
                };
                Cost { width_sum, op_rank: 0 }
            }
        }
        let add = |a: Template, b: Template| Template::Bin(BinOp::Add, Box::new(a), Box::new(b));
        let mut rules = demo_rules();
        rules.push(Rule::new(
            "reassociate",
            RuleClass::Lift,
            pat_add(wild(0), pat_add(wild(1), wild(2))),
            add(add(Template::Wild(0), Template::Wild(1)), Template::Wild(2)),
        ));
        rules.push(Rule::new(
            "commute",
            RuleClass::Lift,
            pat_add(pat_fpir2(FpirOp::WideningAdd, wild(0), wild(1)), wild(2)),
            add(
                Template::Wild(2),
                Template::Fpir(FpirOp::WideningAdd, vec![Template::Wild(0), Template::Wild(1)]),
            ),
        ));
        let t = V::new(S::U8, 16);
        let e = build::add(
            build::widen(build::var("a", t)),
            build::add(build::widen(build::var("b", t)), build::var("c", V::new(S::U16, 16))),
        );
        let mut fast = Rewriter::new(&rules, ShapeCost);
        let out = fast.run(&e);
        let (want, reference) = rewrite_reference(&rules, &ShapeCost, &e);
        assert_eq!(out.to_string(), "c_u16 + widening_add(a_u8, b_u8)");
        assert_eq!(out, want);
        assert_eq!(fast.stats.fired_seq(), &[3, 1, 4]);
        assert_eq!(fast.stats.fired_seq(), reference.fired_seq());
        assert_eq!(fast.stats.passes, 3);
        assert_eq!(reference.passes, 3);
    }

    #[test]
    fn rewriting_preserves_semantics() {
        let t = V::new(S::U8, 16);
        let (a, b) = (build::var("a", t), build::var("b", t));
        let sum = build::add(build::widen(a), build::widen(b));
        let e = build::cast(S::U8, build::min(sum.clone(), build::splat(255, &sum)));
        let rules = demo_rules();
        let mut rw = Rewriter::new(&rules, AgnosticCost);
        let out = rw.run(&e);
        let mut rng = rand::thread_rng();
        for _ in 0..20 {
            let env: Env = fpir::rand_expr::random_env(&mut rng, &e);
            assert_eq!(eval(&e, &env).unwrap(), eval(&out, &env).unwrap());
        }
    }

    #[test]
    fn no_rules_is_identity() {
        let t = V::new(S::U8, 16);
        let e = build::add(build::var("a", t), build::var("b", t));
        let rules = RuleSet::new("empty");
        let mut rw = Rewriter::new(&rules, AgnosticCost);
        assert_eq!(rw.run(&e), e);
        assert_eq!(rw.stats.applications, 0);
    }

    #[test]
    fn priority_order_prefers_earlier_rules() {
        // Two rules match u16(x) * 2: the pow2-shift rule listed first
        // must win over a later generic widening-mul rule.
        let mut rules = demo_rules();
        rules.push(Rule::new(
            "lift-widening-mul",
            RuleClass::Lift,
            pat_mul(
                Pat::Cast(TypePat::WidenOf(0), Box::new(wild_t(0, TypePat::Var(0)))),
                Pat::Cast(TypePat::WidenOf(0), Box::new(wild_t(1, TypePat::Var(0)))),
            ),
            Template::Fpir(FpirOp::WideningMul, vec![Template::Wild(0), Template::Wild(1)]),
        ));
        let t = V::new(S::U8, 16);
        let e =
            build::mul(build::widen(build::var("x", t)), build::constant(2, V::new(S::U16, 16)));
        let mut rw = Rewriter::new(&rules, AgnosticCost);
        let out = rw.run(&e);
        assert_eq!(out.to_string(), "widening_shl(x_u8, 1)");
    }

    #[test]
    fn cost_increase_blocks_application() {
        // A "rule" that rewrites x + y into a widening round-trip is
        // blocked by the cost check even though it matches.
        let mut rs = RuleSet::new("bad");
        rs.push(Rule::new(
            "widen-roundtrip",
            RuleClass::Lift,
            pat_add(wild_t(0, TypePat::Var(0)), wild_t(1, TypePat::Var(0))),
            Template::Cast(
                TyRef::OfWild(0),
                Box::new(Template::Fpir(
                    FpirOp::WideningAdd,
                    vec![Template::Wild(0), Template::Wild(1)],
                )),
            ),
        ));
        let t = V::new(S::U8, 16);
        let e = build::add(build::var("a", t), build::var("b", t));
        let mut rw = Rewriter::new(&rs, AgnosticCost);
        assert_eq!(rw.run(&e), e);
    }

    #[test]
    fn shared_subtrees_are_rewritten_once() {
        // The same Arc appears as both operands of `min`: the lift of the
        // shared redex must be computed once and reused, with the memo
        // reporting the second occurrence as a hit.
        let t = V::new(S::U8, 16);
        let (a, b) = (build::var("a", t), build::var("b", t));
        let sum = build::add(build::widen(a), build::widen(b)); // one redex
        let e = build::min(sum.clone(), sum);
        let rules = demo_rules();
        let mut rw = Rewriter::new(&rules, AgnosticCost);
        let out = rw.run(&e);
        assert_eq!(out.to_string(), "min(widening_add(a_u8, b_u8), widening_add(a_u8, b_u8))");
        // One application, not two: the second occurrence was a memo hit,
        // and the rewritten children remain a shared Arc.
        assert_eq!(rw.stats.applications, 1);
        assert!(rw.stats.memo_hits >= 1);
        assert!(Arc::ptr_eq(out.children()[0], out.children()[1]));
    }

    #[test]
    fn engines_agree_and_reference_repeats_work() {
        let t = V::new(S::U8, 16);
        let (a, b) = (build::var("a", t), build::var("b", t));
        let sum = build::add(build::widen(a), build::widen(b));
        let e = build::min(sum.clone(), sum);
        let rules = demo_rules();
        let mut fast = Rewriter::new(&rules, AgnosticCost);
        let (want, reference) = rewrite_reference(&rules, &AgnosticCost, &e);
        assert_eq!(fast.run(&e).to_string(), want.to_string());
        // The reference rewrites the shared redex once per occurrence;
        // the rewriter once in total.
        assert_eq!(reference.applications, 2);
        assert_eq!(fast.stats.applications, 1);
    }

    #[test]
    fn stats_expose_cache_counters() {
        let t = V::new(S::U8, 16);
        let (a, b) = (build::var("a", t), build::var("b", t));
        let sum = build::add(build::widen(a), build::widen(b));
        let e = build::cast(S::U8, build::min(sum.clone(), build::splat(255, &sum)));
        let rules = demo_rules();
        let mut rw = Rewriter::new(&rules, AgnosticCost);
        let _ = rw.run(&e);
        assert!(rw.stats.nodes_visited > 0);
        assert!(rw.stats.cost_cache_misses > 0);
        assert_eq!(rw.stats.fired_seq().len(), rw.stats.applications);
    }

    #[test]
    fn merge_combines_counts() {
        let t = V::new(S::U8, 16);
        let (a, b) = (build::var("a", t), build::var("b", t));
        let e = build::add(build::widen(a), build::widen(b));
        let rules = demo_rules();
        let mut rw1 = Rewriter::new(&rules, AgnosticCost);
        let _ = rw1.run(&e);
        let mut rw2 = Rewriter::new(&rules, AgnosticCost);
        let _ = rw2.run(&e);
        let mut merged = rw1.stats.clone();
        merged.merge(&rw2.stats);
        assert_eq!(merged.applications, 2);
        assert_eq!(merged.fired()["lift-widening-add"], 2);
    }
}
