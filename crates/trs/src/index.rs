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
//! to which non-matching rules were skipped.
//!
//! Each bucket also carries a depth-1 prefilter: a rule whose pattern
//! needs a widening cast as its first operand cannot match `a + b` when
//! `a` is a variable. The prefilters of a bucket are compiled into bit
//! masks per operand position ([`RuleIndex::admitted`]), so the rules a
//! node admits come out of a handful of AND/OR operations over words
//! rather than one check per candidate rule. The `pitchfork-lint`
//! `indexcheck` analysis verifies the bucketing and the masks against each
//! rule's own instantiations, and a differential fuzz test in `pitchfork`
//! checks that indexed and linear dispatch fire identical rule sequences.

use crate::pattern::Pat;
use crate::rule::RuleSet;
use crate::term::Term;
use fpir::expr::{BinOp, CmpOp, Expr, ExprKind, FpirOp, RcExpr};
use fpir::identity::FnvMap;
use fpir::Isa;

/// The head-operator class of a term: an expression node, a pattern or a
/// template ([`Term::head`]).
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
    /// The key of an expression node, which is its [`Term::head`].
    #[inline]
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

    /// Whether the matcher also tries a two-operand node of this head
    /// with its operands swapped: commutative primitive operators and
    /// two-operand commutative FPIR instructions.
    pub fn is_commutative(self) -> bool {
        match self {
            OpKey::Bin(op) => op.is_commutative(),
            OpKey::Fpir(op) => op.is_commutative() && op.arity() == 2,
            _ => false,
        }
    }
}

/// A conservative requirement on one operand's root, derived from the
/// corresponding operand pattern of a rule's LHS.
///
/// Refusing a candidate on these grounds is sound exactly when the deep
/// (recursive, backtracking) match could not have succeeded, so the
/// prefilter never changes which rules fire.
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
            _ => p.head().map_or(ChildReq::Any, ChildReq::Op),
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
///
/// The rewriter never evaluates these one rule at a time: each head
/// bucket compiles them into operand masks ([`Bucket`]). They remain the
/// per-rule definition the masks must agree with ([`RuleIndex::admits`]).
#[derive(Debug, Clone)]
enum ChildFilter {
    /// Nothing to check (wildcard root, or every operand is `Any`).
    Trivial,
    /// A two-operand commutative root, which matching also tries with
    /// its operands swapped.
    Pair([ChildReq; 2]),
    /// An ordered operand list.
    Seq(Vec<ChildReq>),
}

impl ChildFilter {
    fn of_rule(lhs: &Pat) -> ChildFilter {
        let reqs: Vec<ChildReq> =
            (0..lhs.arity()).map(|i| ChildReq::of_pat(lhs.child(i))).collect();
        if reqs.iter().all(|r| *r == ChildReq::Any) {
            ChildFilter::Trivial
        } else if reqs.len() == 2 && lhs.head().is_some_and(OpKey::is_commutative) {
            ChildFilter::Pair([reqs[0], reqs[1]])
        } else {
            ChildFilter::Seq(reqs)
        }
    }

    /// The per-operand requirements, in operand order.
    fn reqs(&self) -> &[ChildReq] {
        match self {
            ChildFilter::Trivial => &[],
            ChildFilter::Pair(reqs) => reqs,
            ChildFilter::Seq(reqs) => reqs,
        }
    }

    fn admits(&self, e: &RcExpr) -> bool {
        match self {
            ChildFilter::Trivial => true,
            ChildFilter::Pair([ra, rb]) => {
                if e.arity() != 2 {
                    return false;
                }
                let (a, b) = (e.child(0), e.child(1));
                (ra.admits(a) && rb.admits(b)) || (ra.admits(b) && rb.admits(a))
            }
            ChildFilter::Seq(reqs) => {
                reqs.len() == e.arity()
                    && reqs.iter().enumerate().all(|(i, r)| r.admits(e.child(i)))
            }
        }
    }
}

/// A range of one of an [`Arena`]'s arrays.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    /// The span from `start` to the end of an array of length `end`.
    fn to(start: usize, end: usize) -> Span {
        Span { start: start as u32, len: (end - start) as u32 }
    }

    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// One head operator's candidate rules with their depth-1 prefilters
/// compiled into bit masks over the candidates.
///
/// Bit `j` of every mask stands for the bucket's `j`-th rule. A node's
/// admitted set is the mask for its arity, ANDed for each operand
/// position with `!need | pass`: `need` holds the rules that constrain
/// the position, and `pass` is the OR of the position's *const* mask
/// (when the operand is a constant) and its mask for the operand's
/// [`OpKey`]. Commutative pairs also admit the operands swapped. Masks
/// are offsets into [`Arena::words`]; masks no rule sets a bit in are not
/// stored and share the zero mask at offset 0.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    /// The operator's rules merged with the wildcard-rooted rules, in
    /// ascending rule-set order (in [`Arena::rules`]).
    rules: Span,
    /// Words per mask.
    width: u32,
    /// Rules with nothing to check, admitted at every node of this head.
    trivial: u32,
    /// Per node arity (in [`Arena::arity`]): rules whose filter expects
    /// that many operands, plus the trivial ones. Arities past the end
    /// admit `trivial`.
    arity: Span,
    /// Two-operand rules whose match also tries the swapped order.
    swap: u32,
    /// Per operand position (in [`Arena::operands`]).
    operands: Span,
}

/// The masks of one operand position in a [`Bucket`].
#[derive(Debug, Clone, Copy, Default)]
struct OperandMasks {
    /// Rules whose requirement here is not `Any`.
    need: u32,
    /// Rules requiring a constant here.
    konst: u32,
    /// Rules requiring a head operator here, by operator (in
    /// [`Arena::ops`]).
    ops: Span,
}

/// Every bucket's rules and masks, in a few flat arrays: an index is a
/// handful of allocations however many buckets it has.
#[derive(Debug, Clone)]
struct Arena {
    rules: Vec<u32>,
    words: Vec<u64>,
    arity: Vec<u32>,
    operands: Vec<OperandMasks>,
    ops: Vec<(OpKey, u32)>,
}

impl Arena {
    /// An arena whose zero mask is wide enough for `rules` rules.
    fn new(rules: usize) -> Arena {
        Arena {
            rules: Vec::new(),
            words: vec![0; rules.div_ceil(64).max(1)],
            arity: Vec::new(),
            operands: Vec::new(),
            ops: Vec::new(),
        }
    }

    /// Compile the prefilters of `rules` (ascending) into a bucket.
    fn bucket(&mut self, rules: &[u32], filters: &[ChildFilter]) -> Bucket {
        let width = rules.len().div_ceil(64).max(1);
        let alloc = |words: &mut Vec<u64>| {
            let at = words.len();
            words.resize(at + width, 0);
            at as u32
        };
        let set = |words: &mut Vec<u64>, at: &mut u32, j: usize| {
            if *at == 0 {
                *at = alloc(words);
            }
            words[*at as usize + j / 64] |= 1 << (j % 64);
        };
        let filters: Vec<&ChildFilter> = rules.iter().map(|&r| &filters[r as usize]).collect();
        let positions = filters.iter().map(|f| f.reqs().len()).max().unwrap_or(0);
        let mut trivial = 0;
        for (j, f) in filters.iter().enumerate() {
            if let ChildFilter::Trivial = f {
                set(&mut self.words, &mut trivial, j);
            }
        }
        let mut arity = vec![trivial; positions + 1];
        let mut swap = 0;
        let mut operands = vec![(0, 0, Vec::new()); positions];
        for (j, f) in filters.iter().enumerate() {
            if let ChildFilter::Trivial = f {
                continue;
            }
            let reqs = f.reqs();
            if arity[reqs.len()] == trivial {
                let at = alloc(&mut self.words) as usize;
                self.words.copy_within(trivial as usize..trivial as usize + width, at);
                arity[reqs.len()] = at as u32;
            }
            set(&mut self.words, &mut arity[reqs.len()], j);
            if let ChildFilter::Pair(_) = f {
                set(&mut self.words, &mut swap, j);
            }
            for (p, req) in reqs.iter().enumerate() {
                let (need, konst, ops): &mut (u32, u32, Vec<(OpKey, u32)>) = &mut operands[p];
                match *req {
                    ChildReq::Any => continue,
                    ChildReq::Const => set(&mut self.words, konst, j),
                    ChildReq::Op(k) => {
                        let i = match ops.iter().position(|(o, _)| *o == k) {
                            Some(i) => i,
                            None => {
                                ops.push((k, 0));
                                ops.len() - 1
                            }
                        };
                        set(&mut self.words, &mut ops[i].1, j);
                    }
                }
                set(&mut self.words, need, j);
            }
        }
        let (rules_at, arity_at, operands_at) =
            (self.rules.len(), self.arity.len(), self.operands.len());
        self.rules.extend_from_slice(rules);
        self.arity.extend(arity);
        for (need, konst, ops) in operands {
            let at = self.ops.len();
            self.ops.extend(ops);
            self.operands.push(OperandMasks { need, konst, ops: Span::to(at, self.ops.len()) });
        }
        Bucket {
            rules: Span::to(rules_at, self.rules.len()),
            width: width as u32,
            trivial,
            arity: Span::to(arity_at, self.arity.len()),
            swap,
            operands: Span::to(operands_at, self.operands.len()),
        }
    }

    fn shrink_to_fit(&mut self) {
        self.rules.shrink_to_fit();
        self.words.shrink_to_fit();
        self.arity.shrink_to_fit();
        self.operands.shrink_to_fit();
        self.ops.shrink_to_fit();
    }

    #[inline]
    fn word(&self, at: u32, i: usize) -> u64 {
        self.words[at as usize + i]
    }

    /// The offsets of the masks operand `e` passes at position `m`.
    #[inline]
    fn pass(&self, m: &OperandMasks, e: &Expr) -> (u32, u32) {
        let konst = if e.as_const().is_some() { m.konst } else { 0 };
        let key = OpKey::of_expr(e);
        let op = self.ops[m.ops.range()].iter().find(|(k, _)| *k == key);
        (konst, op.map_or(0, |&(_, at)| at))
    }

    /// Word `i` of `!need | pass` at position `m` for an operand whose
    /// pass masks are `(konst, op)`.
    #[inline]
    fn operand_word(&self, m: &OperandMasks, (konst, op): (u32, u32), i: usize) -> u64 {
        !self.word(m.need, i) | self.word(konst, i) | self.word(op, i)
    }

    /// Word `i` of `b`'s admitted set for `node`, a node of its head.
    fn admit_word(&self, b: &Bucket, node: &Expr, i: usize) -> u64 {
        let n = node.arity();
        let arity = &self.arity[b.arity.range()];
        let Some(&at) = arity.get(n) else { return self.word(b.trivial, i) };
        let mut w = self.word(at, i);
        let operands = &self.operands[b.operands.range()];
        if n == 2 && b.swap != 0 {
            let (m0, m1) = (&operands[0], &operands[1]);
            let (x, y) = (node.child(0), node.child(1));
            let straight = self.operand_word(m0, self.pass(m0, x), i)
                & self.operand_word(m1, self.pass(m1, y), i);
            let swapped = self.operand_word(m0, self.pass(m0, y), i)
                & self.operand_word(m1, self.pass(m1, x), i)
                & self.word(b.swap, i);
            w &= straight | swapped;
        } else {
            for (p, m) in operands[..n].iter().enumerate() {
                if w == 0 {
                    break;
                }
                w &= self.operand_word(m, self.pass(m, node.child(p)), i);
            }
        }
        w
    }
}

/// A discrimination index: rule indices bucketed by LHS head operator,
/// with each bucket's depth-1 operand prefilters compiled into masks.
///
/// Built once per rule set. Each bucket holds its operator's rules merged
/// with the wildcard bucket in ascending rule order, so dispatch order is
/// identical to a linear scan over the rules that could possibly match.
#[derive(Debug, Clone)]
pub struct RuleIndex {
    buckets: FnvMap<OpKey, Bucket>,
    /// The wildcard-rooted rules alone: the bucket of every head no
    /// pattern is rooted at (leaves included).
    wildcard: Bucket,
    arena: Arena,
    /// Per rule: the bucket key it was filed under.
    keys: Vec<Option<OpKey>>,
    filters: Vec<ChildFilter>,
}

impl RuleIndex {
    /// Build the index for `rules`.
    pub fn build(rules: &RuleSet) -> RuleIndex {
        let keys: Vec<Option<OpKey>> = rules.rules().iter().map(|r| r.lhs.head()).collect();
        let filters: Vec<ChildFilter> =
            rules.rules().iter().map(|r| ChildFilter::of_rule(&r.lhs)).collect();
        let wildcard: Vec<u32> =
            (0..keys.len() as u32).filter(|&i| keys[i as usize].is_none()).collect();
        let mut heads: FnvMap<OpKey, Vec<u32>> = FnvMap::default();
        for (i, key) in keys.iter().enumerate() {
            if let Some(k) = key {
                heads.entry(*k).or_default().push(i as u32);
            }
        }
        let mut arena = Arena::new(keys.len());
        let buckets = heads
            .into_iter()
            .map(|(k, own)| {
                let mut merged: Vec<u32> =
                    own.into_iter().chain(wildcard.iter().copied()).collect();
                merged.sort_unstable();
                (k, arena.bucket(&merged, &filters))
            })
            .collect();
        let wildcard = arena.bucket(&wildcard, &filters);
        arena.shrink_to_fit();
        RuleIndex { buckets, wildcard, arena, keys, filters }
    }

    fn bucket(&self, key: OpKey) -> &Bucket {
        self.buckets.get(&key).unwrap_or(&self.wildcard)
    }

    /// Whether rule `i` could possibly match `expr`, judged by its depth-1
    /// operand prefilter alone (the root operator is assumed to have been
    /// dispatched already). `false` guarantees a full match would fail.
    ///
    /// This is the per-rule definition that [`RuleIndex::admitted`]
    /// evaluates for a whole bucket at once; the rewriter only uses the
    /// latter.
    pub fn admits(&self, i: u32, expr: &RcExpr) -> bool {
        self.filters[i as usize].admits(expr)
    }

    /// Whether any rule at all could match a node with head `key`.
    #[inline]
    pub fn has_candidates(&self, key: OpKey) -> bool {
        self.bucket(key).rules.len > 0
    }

    /// The rules that could match a node with head `key`, in ascending
    /// rule-set order.
    pub fn candidates(&self, key: OpKey) -> impl Iterator<Item = u32> + '_ {
        self.arena.rules[self.bucket(key).rules.range()].iter().copied()
    }

    /// The rules that could match `expr`'s root, in ascending rule order.
    pub fn candidates_for(&self, expr: &RcExpr) -> impl Iterator<Item = u32> + '_ {
        self.candidates(OpKey::of_expr(expr))
    }

    /// The candidates for `expr`'s root that its operands admit, in
    /// ascending rule order: exactly `candidates_for(expr)` filtered by
    /// [`RuleIndex::admits`], computed 64 rules at a time with a few mask
    /// operations per operand instead of one filter per rule. Nothing is
    /// allocated.
    pub fn admitted<'s>(&'s self, expr: &'s Expr) -> Admitted<'s> {
        let bucket = self.bucket(OpKey::of_expr(expr));
        let rules = &self.arena.rules[bucket.rules.range()];
        let bits = self.arena.admit_word(bucket, expr, 0);
        Admitted { arena: &self.arena, bucket, node: expr, rules, word: 0, bits }
    }

    /// Rule indices in the wildcard (match-anything) bucket.
    pub fn wildcard_rules(&self) -> &[u32] {
        &self.arena.rules[self.wildcard.rules.range()]
    }

    /// The bucket key assigned to rule `i`, or `None` if it is in the
    /// wildcard bucket (exposed for the `indexcheck` static analysis).
    pub fn key_of_rule(&self, i: u32) -> Option<OpKey> {
        self.keys[i as usize]
    }
}

/// The rules [`RuleIndex::admitted`] lets through, in ascending order.
#[derive(Debug)]
pub struct Admitted<'s> {
    arena: &'s Arena,
    bucket: &'s Bucket,
    node: &'s Expr,
    rules: &'s [u32],
    /// The mask word `bits` came from; later words are computed when
    /// this one runs out.
    word: usize,
    bits: u64,
}

impl Iterator for Admitted<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        while self.bits == 0 {
            self.word += 1;
            if self.word >= self.bucket.width as usize {
                return None;
            }
            self.bits = self.arena.admit_word(self.bucket, self.node, self.word);
        }
        let j = self.word * 64 + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(self.rules[j])
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
        assert_eq!(sat_pat.head(), Some(OpKey::SatCast));
        let e = build::saturating_cast(S::U8, build::var("x", V::new(S::U16, 8)));
        assert_eq!(OpKey::of_expr(&e), OpKey::SatCast);
    }

    /// An Add bucket three words wide: every operand-requirement shape
    /// (any, const, operator, commutative swap) on both sides of each
    /// 64-bit word boundary, interleaved with wildcard-rooted rules.
    fn wide_rules() -> RuleSet {
        use crate::pattern::TypePat;
        let mut rs = RuleSet::new("wide");
        for i in 0..200 {
            let lhs = match i % 7 {
                0 => pat_add(widen_cast(0), wild(1)),
                1 => pat_add(wild(0), cwild(1)),
                2 => pat_sub(pat_mul(wild(0), wild(1)), widen_cast(2)),
                3 => wild(0),
                4 => pat_add(pat_mul(wild(0), wild(1)), widen_cast(2)),
                5 => pat_select(pat_cmp(fpir::CmpOp::Gt, wild(0), wild(1)), wild(0), cwild(2)),
                _ => pat_add(lit_t(1, TypePat::Any), wild(1)),
            };
            rs.push(Rule::new(format!("r{i}"), RuleClass::Lift, lhs, Template::Wild(0)));
        }
        rs
    }

    #[test]
    fn masks_wider_than_one_word_match_the_per_rule_filter() {
        let rs = wide_rules();
        let idx = RuleIndex::build(&rs);
        let t = V::new(S::U16, 8);
        let n = V::new(S::U8, 8);
        let (a, b, c) = (build::var("a", t), build::var("b", t), build::constant(1, t));
        let w = build::widen(build::var("x", n));
        let m = build::mul(a.clone(), b.clone());
        let nodes = [
            build::add(a.clone(), b.clone()),
            build::add(w.clone(), b.clone()),
            build::add(b.clone(), w.clone()),
            build::add(a.clone(), c.clone()),
            build::add(c.clone(), a.clone()),
            build::add(c.clone(), w.clone()),
            build::add(m.clone(), w.clone()),
            build::add(w.clone(), m.clone()),
            build::sub(m.clone(), w.clone()),
            build::sub(w.clone(), m.clone()),
            build::select(build::gt(a.clone(), b.clone()), a.clone(), c.clone()),
            build::select(build::lt(a.clone(), b.clone()), a.clone(), c.clone()),
            build::mul(a.clone(), b.clone()),
            a.clone(),
            c.clone(),
        ];
        let mut beyond_first_word = 0;
        for e in &nodes {
            let candidates: Vec<u32> = idx.candidates_for(e).collect();
            let want: Vec<u32> = candidates.iter().copied().filter(|&i| idx.admits(i, e)).collect();
            let got: Vec<u32> = idx.admitted(e).collect();
            assert_eq!(got, want, "{e}");
            assert!(got.windows(2).all(|w| w[0] < w[1]));
            beyond_first_word += candidates.iter().skip(128).filter(|i| got.contains(i)).count();
        }
        // The Add bucket (its own rules plus every wildcard rule) spans
        // three words, and rules in the third are admitted too.
        assert!(idx.candidates(OpKey::Bin(fpir::BinOp::Add)).count() > 128);
        assert!(beyond_first_word > 0);
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
