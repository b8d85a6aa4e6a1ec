//! Lifting-rule synthesis: SyGuS-style bottom-up enumeration (§4.1).
//!
//! Given a corpus sub-expression in primitive integer IR, enumerate FPIR
//! expressions over the same free variables, cheapest-first under the
//! target-agnostic cost model, pruned by observational equivalence on
//! sample inputs; a candidate that matches the specification on all
//! samples (and is strictly cheaper) becomes the right-hand side of a
//! lifting rewrite pair. Where Rosette posed SMT queries, this module
//! uses dense concrete evaluation — candidates are *verified* after
//! generalization by `crate::verify` before being accepted as rules.
//!
//! ## The fast enumerator
//!
//! The production entry point, [`synthesize_lift`], is
//! *signature-incremental*: every bank entry caches its output [`Value`]
//! per sample environment, and a newly combined candidate is priced by
//! applying only its **root operation** over the cached child outputs
//! ([`fpir::interp::apply_root`]) — O(lanes) per candidate instead of an
//! O(size · lanes) whole-tree re-walk. Each
//! round also enumerates only combinations that involve at least one
//! entry added in the previous round: pairs of older entries were already
//! tried, are observationally deduplicated, and provably cannot change
//! the bank or the winner. Sharding the per-round combination by
//! left-operand index over an [`fpir_pool::Pool`] and merging shard
//! results in index order keeps the parallel run **bit-identical** to the
//! sequential one.
//!
//! [`synthesize_lift_reference`] preserves the pre-optimization
//! enumerator verbatim (whole-tree signatures, re-evaluated once for the
//! specification test and once for deduplication; full bank snapshot
//! cloned and recombined every round). It exists as the differential
//! baseline: `synth-bench` gates on the fast enumerator reproducing its
//! results exactly, and times the two against each other.

use fpir::build;
use fpir::expr::{Expr, FpirOp, RcExpr};
use fpir::interp::{apply_root, eval, Env, Value};
use fpir::rand_expr::rand_lane;
use fpir::types::{ScalarType, VectorType};
use fpir_pool::Pool;
use fpir_trs::cost::{AgnosticCost, CostModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A multiply-xor hasher (the rustc-hash construction) for the fast
/// enumerator's dedup set. Signature keys are ~3 KB of lane data and the
/// set sees one insert per enumerated candidate, so SipHash is measurable
/// overhead. Dedup stays *exact* — `HashSet` compares full keys on
/// collision; only the hash function changes.
#[derive(Default)]
struct FxHasher {
    hash: u64,
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
            self.hash = (self.hash.rotate_left(5) ^ w).wrapping_mul(K);
        }
        let mut tail = 0u64;
        for (i, b) in chunks.remainder().iter().enumerate() {
            tail |= (*b as u64) << (8 * i);
        }
        if !chunks.remainder().is_empty() {
            self.hash = (self.hash.rotate_left(5) ^ tail).wrapping_mul(K);
        }
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// Enumeration limits.
#[derive(Debug, Clone, Copy)]
pub struct SynthBudget {
    /// Maximum candidate size in IR nodes.
    pub max_nodes: usize,
    /// Sample environments for observational equivalence.
    pub sample_envs: usize,
    /// Lanes per environment.
    pub lanes: u32,
    /// Cap on the candidate bank (guards pathological corpora).
    pub max_bank: usize,
}

impl Default for SynthBudget {
    fn default() -> SynthBudget {
        SynthBudget { max_nodes: 4, sample_envs: 6, lanes: 64, max_bank: 220 }
    }
}

/// A bank entry: an enumerated candidate plus its cached output value in
/// every sample environment (the incremental half of its signature) and
/// its tree size (so combinations over the node budget are skipped
/// before the combined expression is even constructed — tree size is
/// additive, `size(op(a, b)) = 1 + size(a) + size(b)`).
struct BankEntry {
    expr: RcExpr,
    outs: Vec<Value>,
    size: usize,
}

/// A freshly combined candidate, evaluated but not yet merged: its
/// signature key plus the per-environment outputs future rounds will
/// combine from.
struct Candidate {
    expr: RcExpr,
    key: Vec<i128>,
    outs: Vec<Value>,
    size: usize,
}

/// Synthesize an FPIR right-hand side for `lhs`, if one exists that is
/// strictly cheaper under the target-agnostic cost model.
///
/// The per-round candidate combination is sharded across `pool`'s
/// workers ([`Pool::sequential`] for one). Shards are merged in a fixed
/// order, so the result — and every intermediate bank state — is
/// bit-identical for any worker count.
pub fn synthesize_lift(lhs: &RcExpr, budget: &SynthBudget, pool: &Pool) -> Option<RcExpr> {
    let vars = lhs.free_vars();
    if vars.is_empty() || vars.len() > 3 {
        return None;
    }
    // The lhs must be re-instantiated at the synthesis lane width.
    let lhs = retarget_lanes(lhs, budget.lanes);
    let vars: Vec<(String, VectorType)> = lhs.free_vars();
    let envs = sample_envs(&vars, budget);
    let spec = signature(&lhs, &envs)?;
    let cost = AgnosticCost;
    let lhs_cost = cost.cost(&lhs);

    let mut bank: Vec<BankEntry> = Vec::new();
    let mut seen: FxHashSet<Vec<i128>> = FxHashSet::default();

    // Terminals: the free variables and the constants appearing in lhs —
    // same construction order as the reference enumerator. Terminal
    // signatures are whole-tree evaluations (the trees are single nodes).
    for e in terminal_candidates(&lhs, &vars, budget) {
        if bank.len() >= budget.max_bank {
            continue;
        }
        let Some(outs) = eval_all(&e, &envs) else { continue };
        let key = signature_key(e.elem(), &outs);
        if seen.insert(key) {
            let size = e.size();
            bank.push(BankEntry { expr: e, outs, size });
        }
    }

    // Grow the bank by size. Each round combines bank entries with FPIR
    // instructions (and the few primitives lifted code still contains),
    // restricted to combinations that involve at least one entry the
    // previous round added — older pairs were already enumerated and are
    // observationally deduplicated, so replaying them cannot change the
    // bank, the specification matches, or the winner.
    let mut best: Option<RcExpr> = None;
    let mut prev_hi = 0usize;
    for _round in 0..budget.max_nodes {
        let hi = bank.len();
        if hi == prev_hi {
            // No new entries: every further round would enumerate nothing.
            break;
        }
        let a_indices: Vec<usize> = (0..hi).collect();
        let shards: Vec<Vec<Candidate>> = pool.map(&a_indices, |&a_idx| {
            let mut out = Vec::new();
            combine_for(&bank, a_idx, prev_hi, hi, budget, &mut out);
            out
        });
        prev_hi = hi;
        // Deterministic merge: shards arrive in left-operand order, and
        // within a shard in generation order — the exact sequential order.
        for cand in shards.into_iter().flatten() {
            if cand.key == spec {
                let c = cost.cost(&cand.expr);
                if c < lhs_cost && best.as_ref().is_none_or(|b| c < cost.cost(b)) {
                    best = Some(cand.expr.clone());
                }
            }
            if bank.len() < budget.max_bank && seen.insert(cand.key) {
                bank.push(BankEntry { expr: cand.expr, outs: cand.outs, size: cand.size });
            }
        }
        if best.is_some() {
            break;
        }
    }
    // The winner must type-match the specification exactly.
    best.filter(|b| b.ty() == lhs.ty()).map(|b| retarget_lanes(&b, lhs_original_lanes(&vars)))
}

/// Enumerate every combination rooted at `bank[a_idx]` (as left operand)
/// for one round, evaluating each candidate incrementally from cached
/// child outputs. `prev_hi` is the bank length before the previous round's
/// merge and `hi` the length at this round's start; combinations where
/// both operands predate `prev_hi` are skipped (already enumerated).
fn combine_for(
    bank: &[BankEntry],
    a_idx: usize,
    prev_hi: usize,
    hi: usize,
    budget: &SynthBudget,
    out: &mut Vec<Candidate>,
) {
    let empty_env = Env::new();
    let a = &bank[a_idx];
    let a_new = a_idx >= prev_hi;
    let max_size = budget.max_nodes + 2;
    let mut emit = |e: RcExpr, size: usize, children: &[&BankEntry]| {
        debug_assert_eq!(size, e.size());
        let n_envs = children[0].outs.len();
        let mut outs = Vec::with_capacity(n_envs);
        for i in 0..n_envs {
            // Arity is at most 2 here; dispatching on it keeps the
            // argument slice on the stack (no per-env allocation).
            let r = match children {
                [a] => apply_root(&e, &[&a.outs[i]], &empty_env, None),
                [a, b] => apply_root(&e, &[&a.outs[i], &b.outs[i]], &empty_env, None),
                _ => unreachable!("enumerated forms are unary or binary"),
            };
            match r {
                Ok(v) => outs.push(v),
                Err(_) => return,
            }
        }
        out.push(Candidate { key: signature_key(e.elem(), &outs), expr: e, outs, size });
    };

    // Unary forms (only when `a` itself is new; otherwise they were
    // emitted the round `a` entered the bank). Combinations over the size
    // budget are dropped *before* construction — the reference enumerator
    // constructs them and filters on `size()` afterwards, with the same
    // outcome.
    if a_new && a.size < max_size {
        for t in [
            a.expr.elem().narrow(),
            a.expr.elem().widen(),
            Some(a.expr.elem().with_signed()),
            Some(a.expr.elem().with_unsigned()),
        ]
        .into_iter()
        .flatten()
        {
            if let Ok(e) = Expr::fpir(FpirOp::SaturatingCast(t), vec![a.expr.clone()]) {
                emit(e, 1 + a.size, &[a]);
            }
            if t.bits() == a.expr.elem().bits() {
                if let Ok(e) = Expr::reinterpret(t, a.expr.clone()) {
                    emit(e, 1 + a.size, &[a]);
                }
            } else {
                emit(Expr::cast(t, a.expr.clone()), 1 + a.size, &[a]);
            }
        }
        if let Ok(e) = Expr::fpir(FpirOp::Abs, vec![a.expr.clone()]) {
            emit(e, 1 + a.size, &[a]);
        }
    }
    for (b_idx, b) in bank.iter().enumerate().take(hi) {
        if !a_new && b_idx < prev_hi {
            continue;
        }
        if 1 + a.size + b.size > max_size {
            continue;
        }
        for op in [
            FpirOp::WideningAdd,
            FpirOp::WideningSub,
            FpirOp::WideningMul,
            FpirOp::WideningShl,
            FpirOp::ExtendingAdd,
            FpirOp::ExtendingSub,
            FpirOp::Absd,
            FpirOp::SaturatingAdd,
            FpirOp::SaturatingSub,
            FpirOp::HalvingAdd,
            FpirOp::HalvingSub,
            FpirOp::RoundingHalvingAdd,
            FpirOp::RoundingShr,
            FpirOp::SaturatingShl,
        ] {
            if let Ok(e) = Expr::fpir(op, vec![a.expr.clone(), b.expr.clone()]) {
                emit(e, 1 + a.size + b.size, &[a, b]);
            }
        }
        if a.expr.ty() == b.expr.ty() {
            for op in [fpir::BinOp::Add, fpir::BinOp::Sub] {
                if let Ok(e) = Expr::bin(op, a.expr.clone(), b.expr.clone()) {
                    emit(e, 1 + a.size + b.size, &[a, b]);
                }
            }
        }
    }
}

/// The terminal expressions seeding the bank, in the reference
/// enumerator's order: free variables first, then the lhs's constants
/// (plus log2 of power-of-two constants) offered at every variable's
/// element type and their own.
fn terminal_candidates(
    lhs: &RcExpr,
    vars: &[(String, VectorType)],
    budget: &SynthBudget,
) -> Vec<RcExpr> {
    let mut out: Vec<RcExpr> = Vec::new();
    for (n, t) in vars {
        out.push(Expr::var(n.clone(), *t));
    }
    let mut const_pool: Vec<(i128, ScalarType)> = Vec::new();
    lhs.visit(&mut |e: &Expr| {
        if let Some(c) = e.as_const() {
            const_pool.push((c, e.elem()));
            if fpir::simplify::is_pow2(c) && c > 1 {
                const_pool.push((fpir::simplify::log2(c) as i128, e.elem()));
            }
        }
    });
    let var_elems: Vec<ScalarType> = vars.iter().map(|(_, t)| t.elem).collect();
    for (c, t) in const_pool {
        for elem in var_elems.iter().copied().chain(std::iter::once(t)) {
            if elem.contains(c) {
                if let Ok(e) = Expr::constant(c, VectorType::new(elem, budget.lanes)) {
                    out.push(e);
                }
            }
        }
    }
    out
}

/// Evaluate `e` whole-tree in every environment (terminal seeding only —
/// interior candidates are evaluated incrementally).
fn eval_all(e: &RcExpr, envs: &[Env]) -> Option<Vec<Value>> {
    envs.iter().map(|env| eval(e, env).ok()).collect()
}

/// The sample environments used for observational equivalence, derived
/// deterministically from the variable list (one fixed seed, so the
/// reference and fast enumerators — and every worker — agree on them).
pub fn sample_envs(vars: &[(String, VectorType)], budget: &SynthBudget) -> Vec<Env> {
    let mut rng = StdRng::seed_from_u64(0x11F7);
    (0..budget.sample_envs)
        .map(|_| {
            vars.iter()
                .map(|(n, t)| {
                    let lanes = (0..t.lanes).map(|_| rand_lane(&mut rng, t.elem)).collect();
                    (n.clone(), Value::new(*t, lanes))
                })
                .collect()
        })
        .collect()
}

/// The reference enumerator: the faithful pre-optimization implementation
/// (whole-tree signature evaluation — twice per candidate, once for the
/// specification test and once for deduplication — with the full bank
/// snapshot cloned and recombined every round). Kept as the differential
/// baseline for the fast enumerator; `synth-bench` gates on the two
/// producing identical results.
pub fn synthesize_lift_reference(lhs: &RcExpr, budget: &SynthBudget) -> Option<RcExpr> {
    let vars = lhs.free_vars();
    if vars.is_empty() || vars.len() > 3 {
        return None;
    }
    // The lhs must be re-instantiated at the synthesis lane width.
    let lhs = retarget_lanes(lhs, budget.lanes);
    let vars: Vec<(String, VectorType)> = lhs.free_vars();

    let envs = sample_envs(&vars, budget);
    let spec = signature(&lhs, &envs)?;
    let cost = AgnosticCost;
    let lhs_cost = cost.cost(&lhs);

    // Terminals: the free variables and the constants appearing in lhs
    // (plus log2 of power-of-two constants, which shift-forming rules
    // need).
    let mut bank: Vec<RcExpr> = Vec::new();
    let mut seen: HashMap<Vec<i128>, ()> = HashMap::new();
    let mut push = |e: RcExpr, bank: &mut Vec<RcExpr>| {
        if bank.len() >= budget.max_bank {
            return;
        }
        if let Some(sig) = signature(&e, &envs) {
            if seen.insert(sig, ()).is_none() {
                bank.push(e);
            }
        }
    };
    for e in terminal_candidates(&lhs, &vars, budget) {
        push(e, &mut bank);
    }

    // Grow the bank by size, combining existing candidates with FPIR
    // instructions (and the few primitives lifted code still contains).
    let mut best: Option<RcExpr> = None;
    let consider = |e: RcExpr, best: &mut Option<RcExpr>| {
        if signature(&e, &envs).as_ref() == Some(&spec) {
            let c = cost.cost(&e);
            if c < lhs_cost && best.as_ref().is_none_or(|b| c < cost.cost(b)) {
                *best = Some(e);
            }
        }
    };
    for _round in 0..budget.max_nodes {
        let snapshot = bank.clone();
        let mut fresh: Vec<RcExpr> = Vec::new();
        for a in &snapshot {
            // Unary forms.
            for t in [
                a.elem().narrow(),
                a.elem().widen(),
                Some(a.elem().with_signed()),
                Some(a.elem().with_unsigned()),
            ]
            .into_iter()
            .flatten()
            {
                if let Ok(e) = Expr::fpir(FpirOp::SaturatingCast(t), vec![a.clone()]) {
                    fresh.push(e);
                }
                if t.bits() == a.elem().bits() {
                    if let Ok(e) = Expr::reinterpret(t, a.clone()) {
                        fresh.push(e);
                    }
                } else {
                    fresh.push(Expr::cast(t, a.clone()));
                }
            }
            if let Ok(e) = Expr::fpir(FpirOp::Abs, vec![a.clone()]) {
                fresh.push(e);
            }
            for b in &snapshot {
                for op in [
                    FpirOp::WideningAdd,
                    FpirOp::WideningSub,
                    FpirOp::WideningMul,
                    FpirOp::WideningShl,
                    FpirOp::ExtendingAdd,
                    FpirOp::ExtendingSub,
                    FpirOp::Absd,
                    FpirOp::SaturatingAdd,
                    FpirOp::SaturatingSub,
                    FpirOp::HalvingAdd,
                    FpirOp::HalvingSub,
                    FpirOp::RoundingHalvingAdd,
                    FpirOp::RoundingShr,
                    FpirOp::SaturatingShl,
                ] {
                    if let Ok(e) = Expr::fpir(op, vec![a.clone(), b.clone()]) {
                        fresh.push(e);
                    }
                }
                if a.ty() == b.ty() {
                    for op in [fpir::BinOp::Add, fpir::BinOp::Sub] {
                        if let Ok(e) = Expr::bin(op, a.clone(), b.clone()) {
                            fresh.push(e);
                        }
                    }
                }
            }
        }
        for e in fresh {
            if e.size() <= budget.max_nodes + 2 {
                consider(e.clone(), &mut best);
                push(e, &mut bank);
            }
        }
        if best.is_some() {
            break;
        }
    }
    // The winner must type-match the specification exactly.
    best.filter(|b| b.ty() == lhs.ty()).map(|b| retarget_lanes(&b, lhs_original_lanes(&vars)))
}

fn lhs_original_lanes(_vars: &[(String, VectorType)]) -> u32 {
    // Candidates are produced at the synthesis lane width; rules are
    // lane-polymorphic, so any width works — keep the synthesis width.
    64
}

/// Rebuild an expression with a different lane count (types are otherwise
/// unchanged).
pub fn retarget_lanes(e: &RcExpr, lanes: u32) -> RcExpr {
    use fpir::expr::ExprKind;
    let children: Vec<RcExpr> =
        e.children().into_iter().map(|c| retarget_lanes(c, lanes)).collect();
    match e.kind() {
        ExprKind::Var(name) => Expr::var(name.clone(), VectorType::new(e.elem(), lanes)),
        ExprKind::Const(v) => build::constant(*v, VectorType::new(e.elem(), lanes)),
        _ => e.with_children(children),
    }
}

/// The observational signature of `e` over `envs`: element type (so
/// differently-typed but bit-equal values differ) followed by every lane
/// of every environment's output. `None` when evaluation fails.
pub fn signature(e: &RcExpr, envs: &[Env]) -> Option<Vec<i128>> {
    let mut out = Vec::new();
    // Include the type so differently-typed but bit-equal values differ.
    out.push(e.elem().bits() as i128);
    out.push(e.elem().is_signed() as i128);
    for env in envs {
        let v = eval(e, env).ok()?;
        out.extend_from_slice(v.lanes());
    }
    Some(out)
}

/// The signature key of already-computed per-environment outputs — the
/// incremental counterpart of [`signature`], byte-identical to it.
fn signature_key(elem: ScalarType, outs: &[Value]) -> Vec<i128> {
    let lanes: usize = outs.iter().map(|v| v.lanes().len()).sum();
    let mut key = Vec::with_capacity(2 + lanes);
    key.push(elem.bits() as i128);
    key.push(elem.is_signed() as i128);
    for v in outs {
        key.extend_from_slice(v.lanes());
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpir::build::*;
    use fpir::types::{ScalarType as S, VectorType as V};

    #[test]
    fn finds_the_papers_example() {
        // i16(x_u8) << 6 lifts to reinterpret(widening_shl(x_u8, 6)).
        let t = V::new(S::U8, 64);
        let lhs = shl(cast(S::I16, var("x", t)), constant(6, V::new(S::I16, 64)));
        let rhs = synthesize_lift(&lhs, &SynthBudget::default(), &Pool::sequential())
            .expect("synthesizable");
        let printed = rhs.to_string();
        assert!(printed.contains("widening_shl(x_u8, 6)"), "{printed}");
    }

    #[test]
    fn finds_saturating_cast() {
        let t = V::new(S::U16, 64);
        let x = var("x", t);
        let lhs = cast(S::U8, min(x.clone(), splat(255, &x)));
        let rhs = synthesize_lift(&lhs, &SynthBudget::default(), &Pool::sequential())
            .expect("synthesizable");
        assert_eq!(rhs.to_string(), "saturating_cast<u8>(x_u16)");
    }

    #[test]
    fn finds_rounding_average() {
        let t = V::new(S::U8, 64);
        let (a, b) = (var("a", t), var("b", t));
        let sum = add(widen(a), widen(b));
        let lhs = cast(S::U8, shr(add(sum.clone(), splat(1, &sum)), splat(1, &sum)));
        let rhs = synthesize_lift(&lhs, &SynthBudget::default(), &Pool::sequential())
            .expect("synthesizable");
        assert_eq!(rhs.to_string(), "rounding_halving_add(a_u8, b_u8)");
    }

    #[test]
    fn no_cheaper_form_returns_none() {
        // A bare add has no cheaper FPIR equivalent.
        let t = V::new(S::U8, 64);
        let lhs = add(var("a", t), var("b", t));
        assert!(synthesize_lift(&lhs, &SynthBudget::default(), &Pool::sequential()).is_none());
    }

    #[test]
    fn fast_agrees_with_reference_on_the_examples() {
        let budget = SynthBudget { max_nodes: 3, sample_envs: 4, lanes: 16, max_bank: 96 };
        let t = V::new(S::U8, 16);
        let w = V::new(S::U16, 16);
        let cases = [
            shl(cast(S::I16, var("x", t)), constant(6, V::new(S::I16, 16))),
            mul(widen(var("x", t)), constant(4, w)),
            add(var("a", t), var("b", t)),
            sub(widen(var("a", t)), widen(var("b", t))),
        ];
        for lhs in cases {
            let reference = synthesize_lift_reference(&lhs, &budget).map(|e| e.to_string());
            let fast = synthesize_lift(&lhs, &budget, &Pool::sequential()).map(|e| e.to_string());
            let sharded = synthesize_lift(&lhs, &budget, &Pool::new(4)).map(|e| e.to_string());
            assert_eq!(fast, reference, "fast vs reference diverged on {lhs}");
            assert_eq!(sharded, fast, "sharded vs sequential diverged on {lhs}");
        }
    }
}
