//! Verdict-producing rule soundness checking — the static half of
//! `pitchfork-verify`.
//!
//! [`crate::verify`] answers "did any concrete check fail?". This module
//! answers the stronger question "*how* do we know the rule is sound?",
//! recording one of three verdicts per rule:
//!
//! * **`proved`** — both sides were expanded to primitive integer
//!   expressions (machine nodes through their [`fpir_isa::MachSem`],
//!   FPIR through [`fpir::semantics::expand_fully`]) and normalized to
//!   the same term. Normalization is licensed by the two abstract
//!   domains: the interval domain ([`fpir::bounds`]) discharges
//!   saturation clamps a rule's predicate makes dead, and the
//!   known-bits domain ([`fpir::absint`]) discharges masks and
//!   rounding terms. Every normalization step preserves the reference
//!   interpreter's semantics, so a proof covers the *entire* predicated
//!   input domain.
//! * **`exhausted`** — the instantiated input space has at most
//!   [`VerifyOptions::exhaustive_points`] points and every single one
//!   was checked against the interpreter. For a bounds-predicated rule
//!   the space is the `[0, 1]`-per-variable region the predicate is
//!   verified over (the same region [`crate::verify`]'s sampling
//!   draws from — see `docs/verify.md` for the caveat).
//! * **`sampled`** — only the boundary-biased random sampling of
//!   [`crate::verify`] ran; the rule is tested, not verified.
//!
//! A `proved` verdict is additionally cross-validated by the sampled
//! check: abstract proofs and concrete evaluation must agree, so a bug
//! in the prover surfaces as a loud counterexample instead of a silent
//! pass.

use crate::verify::{agree, bound_ctx_for, sampled_check, VerifyError, VerifyOptions};
use fpir::absint::{KnownBits, KnownBitsCtx};
use fpir::bounds::{BoundsCtx, Interval};
use fpir::expr::{BinOp, CmpOp, Expr, ExprKind};
use fpir::identity::IdMap;
use fpir::interp::{eval, Env, Value};
use fpir::semantics::expand_fully;
use fpir::simplify::{is_pow2, log2};
use fpir::{FpirOp, RcExpr, ScalarType, VectorType};
use fpir_isa::MachSem;
use fpir_trs::rule::{instantiate_lhs_all, Rule};
use std::fmt;
use std::sync::Arc;

/// How a rule's soundness was established, strongest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Verdict {
    /// Abstract equivalence proof over the full predicated domain.
    Proved,
    /// Every point of the (restricted) input space was checked.
    Exhausted,
    /// Boundary-biased random sampling only.
    Sampled,
}

impl Verdict {
    /// Lower-case name, as surfaced in reports.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Proved => "proved",
            Verdict::Exhausted => "exhausted",
            Verdict::Sampled => "sampled",
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The soundness record for one rule.
#[derive(Debug, Clone)]
pub struct RuleVerdict {
    /// Rule name.
    pub rule: String,
    /// The *weakest* verdict over all type instantiations (a rule is only
    /// as verified as its least-verified instantiation).
    pub verdict: Verdict,
    /// How many type instantiations were checked.
    pub instantiations: usize,
    /// The counterexample or failure, when the rule is unsound (the
    /// verdict then reports how far checking got before the failure).
    pub error: Option<VerifyError>,
}

/// Check one rule at every satisfiable type instantiation, recording the
/// weakest verdict achieved and the first counterexample found (if any).
pub fn check_rule(rule: &Rule, opts: &VerifyOptions) -> RuleVerdict {
    let insts = instantiate_lhs_all(rule, opts.lanes);
    if insts.is_empty() {
        return RuleVerdict {
            rule: rule.name.clone(),
            verdict: Verdict::Sampled,
            instantiations: 0,
            error: Some(VerifyError {
                rule: rule.name.clone(),
                detail: "could not instantiate the left-hand side".into(),
            }),
        };
    }
    let mut verdict = Verdict::Proved;
    for inst in &insts {
        match check_instantiation(rule, inst, opts) {
            Ok(v) => verdict = verdict.max(v),
            Err(e) => {
                return RuleVerdict {
                    rule: rule.name.clone(),
                    verdict,
                    instantiations: insts.len(),
                    error: Some(e),
                }
            }
        }
    }
    RuleVerdict { rule: rule.name.clone(), verdict, instantiations: insts.len(), error: None }
}

/// Check one concrete instantiation: prove, else exhaust, else sample.
///
/// This is the single checking core both [`crate::verify`] (pass/fail)
/// and the verdict API share.
pub(crate) fn check_instantiation(
    rule: &Rule,
    inst: &RcExpr,
    opts: &VerifyOptions,
) -> Result<Verdict, VerifyError> {
    let vars = inst.free_vars();
    let rhs = {
        let mut bounds = bound_ctx_for(&vars, rule);
        rule.apply(inst, &mut bounds).ok_or_else(|| VerifyError {
            rule: rule.name.clone(),
            detail: format!("does not apply to its own instantiation {inst}"),
        })?
    };
    let restrict01 = rule.pred.restricts_domain();

    if prove_equal(inst, &rhs, &vars, restrict01) {
        // Cross-validate the proof against the interpreter: a prover bug
        // must fail loudly, not silently bless an unsound rule.
        sampled_check(rule, inst, &rhs, opts)?;
        return Ok(Verdict::Proved);
    }

    if exhaustive_check(rule, inst, &rhs, &vars, restrict01, opts.exhaustive_points)? {
        return Ok(Verdict::Exhausted);
    }

    sampled_check(rule, inst, &rhs, opts)?;
    Ok(Verdict::Sampled)
}

// ---------------------------------------------------------------------------
// Exhaustive enumeration (mixed-radix, streaming).
// ---------------------------------------------------------------------------

/// Enumerate every point of the instantiation's input space when it has at
/// most `budget` points, packing points into lanes and evaluating both
/// sides through the interpreter. Returns `Ok(false)` when the space is
/// too large (nothing was checked).
///
/// For a domain-restricted rule the enumerated space is `[0, 1]` per
/// variable — the region the rule's soundness claim is verified over.
fn exhaustive_check(
    rule: &Rule,
    lhs: &RcExpr,
    rhs: &RcExpr,
    vars: &[(String, VectorType)],
    restrict01: bool,
    budget: u64,
) -> Result<bool, VerifyError> {
    if vars.is_empty() {
        agree(rule, lhs, rhs, &Env::new())?;
        return Ok(true);
    }
    let sizes: Vec<u128> = vars
        .iter()
        .map(|(_, t)| if restrict01 { 2u128 } else { 1u128 << t.elem.bits().min(64) })
        .collect();
    let total = sizes.iter().try_fold(1u128, |p, &s| {
        let p = p.checked_mul(s)?;
        (p <= budget as u128).then_some(p)
    });
    let Some(total) = total else { return Ok(false) };

    let lanes = vars[0].1.lanes as usize;
    let mut cols: Vec<Vec<i128>> = vec![Vec::with_capacity(lanes); vars.len()];
    let flush = |cols: &mut Vec<Vec<i128>>| -> Env {
        vars.iter()
            .zip(cols.iter_mut())
            .map(|((name, ty), col)| (name.clone(), Value::new(*ty, std::mem::take(col))))
            .collect()
    };
    for point in 0..total {
        let mut rest = point;
        for (i, ((_, ty), &size)) in vars.iter().zip(&sizes).enumerate() {
            let digit = (rest % size) as i128;
            rest /= size;
            let v = if restrict01 { digit } else { ty.elem.min_value() + digit };
            cols[i].push(v);
        }
        if cols[0].len() == lanes {
            agree(rule, lhs, rhs, &flush(&mut cols))?;
            for col in &mut cols {
                col.reserve(lanes);
            }
        }
    }
    if !cols[0].is_empty() {
        for col in &mut cols {
            let pad = *col.last().expect("nonempty");
            col.resize(lanes, pad);
        }
        agree(rule, lhs, rhs, &flush(&mut cols))?;
    }
    Ok(true)
}

// ---------------------------------------------------------------------------
// The prover: expand to primitives, normalize, compare.
// ---------------------------------------------------------------------------

/// Attempt to prove `lhs ≡ rhs` over the (possibly restricted) domain.
/// `false` means "no proof", never "unequal".
fn prove_equal(
    lhs: &RcExpr,
    rhs: &RcExpr,
    vars: &[(String, VectorType)],
    restrict01: bool,
) -> bool {
    let (Some(l), Some(r)) = (expand(lhs), expand(rhs)) else { return false };
    let mut norm = Normalizer::new(vars, restrict01);
    norm.normalize(&l) == norm.normalize(&r)
}

/// Expand machine nodes through their [`MachSem`], then FPIR through the
/// Table-1 semantics, leaving only primitive integer operations.
fn expand(e: &RcExpr) -> Option<RcExpr> {
    let no_mach = expand_mach(e)?;
    expand_fully(&no_mach).ok()
}

fn expand_mach(e: &RcExpr) -> Option<RcExpr> {
    let children: Option<Vec<RcExpr>> = e.children().into_iter().map(expand_mach).collect();
    let children = children?;
    match e.kind() {
        ExprKind::Mach(op, _) => {
            // An ill-typed machine node (wrong lane count) evaluates to an
            // error, which no expansion models — decline to prove.
            if children.iter().any(|c| c.ty().lanes != e.ty().lanes) {
                return None;
            }
            let def = fpir_isa::target(op.isa).def(*op)?;
            expand_sem(def.sem, &children, e.ty())
        }
        _ => Some(rebuild(e, children)),
    }
}

fn rebuild(e: &RcExpr, children: Vec<RcExpr>) -> RcExpr {
    let unchanged = e.children().iter().zip(&children).all(|(a, b)| Arc::ptr_eq(a, b));
    if unchanged {
        e.clone()
    } else {
        e.with_children(children)
    }
}

/// Build the primitive expression a [`MachSem`] instruction computes,
/// mirroring `fpir_isa::sem::eval_sem_into` case by case. Returns `None`
/// whenever the types stray from what that evaluator's semantics assume —
/// a missed proof is safe, a wrong expansion is not.
fn expand_sem(sem: MachSem, args: &[RcExpr], result: VectorType) -> Option<RcExpr> {
    let same_elem = |a: &RcExpr, b: &RcExpr| a.elem() == b.elem();
    // Wrapping conversion to `t` (identity when already there). `Cast`
    // evaluates as a plain wrap, exactly like the evaluator's
    // `elem.wrap(x)` result conversions.
    let to = |t: ScalarType, e: RcExpr| if e.elem() == t { e } else { Expr::cast(t, e) };
    let wmul = |a: &RcExpr, b: &RcExpr| Expr::fpir(FpirOp::WideningMul, vec![a.clone(), b.clone()]);
    match sem {
        MachSem::Bin(op) => {
            // The evaluator wraps at the *operand* type and stores under
            // the result type; these agree only when the types agree.
            if !same_elem(&args[0], &args[1]) || args[0].elem() != result.elem {
                return None;
            }
            Expr::bin(op, args[0].clone(), args[1].clone()).ok()
        }
        MachSem::Cmp(op) => {
            if !same_elem(&args[0], &args[1]) || args[0].elem() != result.elem {
                return None;
            }
            Expr::cmp(op, args[0].clone(), args[1].clone()).ok()
        }
        MachSem::Select => {
            if args[1].elem() != result.elem {
                return None;
            }
            Expr::select(args[0].clone(), args[1].clone(), args[2].clone()).ok()
        }
        MachSem::ExtendTo | MachSem::TruncTo | MachSem::Reinterpret | MachSem::Splat => {
            Some(to(result.elem, args[0].clone()))
        }
        MachSem::SatCastTo => {
            Expr::fpir(FpirOp::SaturatingCast(result.elem), vec![args[0].clone()]).ok()
        }
        MachSem::PackSatSignedTo => {
            let signed = to(args[0].elem().with_signed(), args[0].clone());
            Expr::fpir(FpirOp::SaturatingCast(result.elem), vec![signed]).ok()
        }
        MachSem::Fpir(op) => {
            let built = Expr::fpir(op, args.to_vec()).ok()?;
            // The evaluator computes at the instruction's declared result
            // element; the node we build computes at the inferred one.
            (built.elem() == result.elem).then_some(built)
        }
        MachSem::MulHigh => {
            let bits = args[0].elem().bits() as i128;
            let w = wmul(&args[0], &args[1]).ok()?;
            let count = Expr::constant(bits, w.ty()).ok()?;
            let shifted = Expr::bin(BinOp::Shr, w, count).ok()?;
            Some(to(result.elem, shifted))
        }
        MachSem::MulAcc => {
            let (acc, a, b) = (&args[0], &args[1], &args[2]);
            if !same_elem(acc, a) || !same_elem(a, b) || acc.elem() != result.elem {
                return None;
            }
            let m = Expr::bin(BinOp::Mul, a.clone(), b.clone()).ok()?;
            Expr::bin(BinOp::Add, acc.clone(), m).ok()
        }
        MachSem::WideningMulAcc => {
            let (acc, a, b) = (&args[0], &args[1], &args[2]);
            if acc.elem().bits() != a.elem().bits() * 2 || acc.elem() != result.elem {
                return None;
            }
            let m = to(acc.elem(), wmul(a, b).ok()?);
            Expr::bin(BinOp::Add, acc.clone(), m).ok()
        }
        MachSem::MulPairsAdd => {
            let p1 = to(result.elem, wmul(&args[0], &args[1]).ok()?);
            let p2 = to(result.elem, wmul(&args[2], &args[3]).ok()?);
            Expr::bin(BinOp::Add, p1, p2).ok()
        }
        MachSem::Mpa => {
            let p1 = to(result.elem, wmul(&args[0], &args[2]).ok()?);
            let p2 = to(result.elem, wmul(&args[1], &args[3]).ok()?);
            Expr::bin(BinOp::Add, p1, p2).ok()
        }
        MachSem::MpaAcc => {
            if args[0].elem() != result.elem {
                return None;
            }
            let p1 = to(result.elem, wmul(&args[1], &args[3]).ok()?);
            let p2 = to(result.elem, wmul(&args[2], &args[4]).ok()?);
            let sum = Expr::bin(BinOp::Add, p1, p2).ok()?;
            Expr::bin(BinOp::Add, args[0].clone(), sum).ok()
        }
        MachSem::DotAcc4 => {
            let acc = &args[0];
            if acc.elem().bits() != args[1].elem().bits() * 4 || acc.elem() != result.elem {
                return None;
            }
            let mut e = acc.clone();
            for k in 0..4 {
                let p = to(result.elem, wmul(&args[1 + k], &args[5 + k]).ok()?);
                e = Expr::bin(BinOp::Add, e, p).ok()?;
            }
            Some(e)
        }
        MachSem::ShrRndSatNarrow => {
            let shifted = Expr::fpir(FpirOp::RoundingShr, vec![args[0].clone(), args[1].clone()])
                .ok()
                .filter(|s| s.elem() == args[0].elem())?;
            Expr::fpir(FpirOp::SaturatingCast(result.elem), vec![shifted]).ok()
        }
        MachSem::ShrNarrow => {
            if !same_elem(&args[0], &args[1]) {
                return None;
            }
            let shifted = Expr::bin(BinOp::Shr, args[0].clone(), args[1].clone()).ok()?;
            Some(to(result.elem, shifted))
        }
        MachSem::QRDMulH => {
            let bits = args[0].elem().bits() as i128;
            let count = Expr::constant(bits - 1, args[0].ty()).ok()?;
            Expr::fpir(FpirOp::RoundingMulShr, vec![args[0].clone(), args[1].clone(), count])
                .ok()
                .filter(|e| e.elem() == result.elem)
        }
    }
}

/// Semantics-preserving normalization to a canonical form, licensed by
/// the interval and known-bits domains. Works on primitive expressions
/// only (run [`expand`] first).
struct Normalizer {
    bounds: BoundsCtx,
    bits: KnownBitsCtx,
    memo: IdMap<(RcExpr, RcExpr)>,
}

impl Normalizer {
    fn new(vars: &[(String, VectorType)], restrict01: bool) -> Normalizer {
        let mut bounds = BoundsCtx::new();
        let mut bits = KnownBitsCtx::new();
        if restrict01 {
            for (name, ty) in vars {
                bounds.set_var_bound(name.clone(), Interval::new(0, 1));
                let top = KnownBits::top(ty.elem);
                bits.set_var_bits(
                    name.clone(),
                    KnownBits { zeros: top.mask() & !1, ones: 0, ..top },
                );
            }
        }
        Normalizer { bounds, bits, memo: IdMap::default() }
    }

    fn normalize(&mut self, e: &RcExpr) -> RcExpr {
        if let Some((_, out)) = self.memo.get(&Expr::ptr_id(e)) {
            return out.clone();
        }
        let children: Vec<RcExpr> = e.children().into_iter().map(|c| self.normalize(c)).collect();
        let mut cur = rebuild(e, children);
        // Local rewriting to a fixed point; every step strictly shrinks or
        // canonically reorders, so a small iteration cap suffices.
        for _ in 0..12 {
            let next = self.step(&cur);
            if next == cur {
                break;
            }
            cur = next;
        }
        self.memo.insert(Expr::ptr_id(e), (e.clone(), cur.clone()));
        cur
    }

    /// One rewriting step at the root of `e` (children already normal).
    fn step(&mut self, e: &RcExpr) -> RcExpr {
        // Abstract-singleton discharge: when either domain pins the value
        // of a non-leaf node, it *is* that constant everywhere in the
        // (restricted) domain.
        if !matches!(e.kind(), ExprKind::Var(_) | ExprKind::Const(_)) {
            let iv = self.bounds.interval(e);
            if iv.min == iv.max {
                if let Ok(c) = Expr::constant(iv.min, e.ty()) {
                    return c;
                }
            }
            if let Some(v) = self.bits.known_bits(e).singleton() {
                if let Ok(c) = Expr::constant(v, e.ty()) {
                    return c;
                }
            }
        }
        match e.kind() {
            ExprKind::Reinterpret(x) => {
                // Reinterpretation and wrapping conversion evaluate
                // identically (`elem.wrap`); keep only one spelling.
                Expr::cast(e.elem(), x.clone())
            }
            ExprKind::Cast(x) => self.step_cast(e, x),
            ExprKind::Bin(op, a, b) => self.step_bin(e, *op, a, b),
            ExprKind::Cmp(op, a, b) => self.step_cmp(e, *op, a, b),
            ExprKind::Select(c, a, b) => {
                if a == b {
                    return a.clone();
                }
                match c.as_const() {
                    Some(0) => b.clone(),
                    Some(_) => a.clone(),
                    None => e.clone(),
                }
            }
            _ => e.clone(),
        }
    }

    fn step_cast(&mut self, e: &RcExpr, x: &RcExpr) -> RcExpr {
        let t = e.elem();
        if x.elem() == t {
            return x.clone();
        }
        if let Some(v) = x.as_const() {
            if let Ok(c) = Expr::constant(t.wrap(v), e.ty()) {
                return c;
            }
        }
        if let ExprKind::Cast(y) | ExprKind::Reinterpret(y) = x.kind() {
            // Collapse a conversion chain when the middle stop cannot have
            // changed the low `t` bits: either it kept at least `t.bits()`
            // of them, or the value provably fit it unchanged.
            if x.elem().bits() >= t.bits() || self.bounds.fits(y, x.elem()) {
                return Expr::cast(t, y.clone());
            }
        }
        e.clone()
    }

    fn step_bin(&mut self, e: &RcExpr, op: BinOp, a: &RcExpr, b: &RcExpr) -> RcExpr {
        // Constant fold.
        if a.as_const().is_some() && b.as_const().is_some() {
            if let Some(c) = fold_const(e) {
                return c;
            }
        }
        // Identities and annihilators against a constant operand.
        let ca = a.as_const();
        let cb = b.as_const();
        match op {
            BinOp::Add => {
                if cb == Some(0) {
                    return a.clone();
                }
                if ca == Some(0) {
                    return b.clone();
                }
            }
            BinOp::Sub => {
                if cb == Some(0) {
                    return a.clone();
                }
                if let Some(c) = cb {
                    // `x - c` and `x + wrap(-c)` agree modulo 2^bits.
                    if let Ok(neg) = Expr::constant(e.elem().wrap(-c), e.ty()) {
                        if let Ok(sum) = Expr::bin(BinOp::Add, a.clone(), neg) {
                            return sum;
                        }
                    }
                }
                if a == b {
                    if let Ok(z) = Expr::constant(0, e.ty()) {
                        return z;
                    }
                }
            }
            BinOp::Mul => {
                for (c, other) in [(cb, a), (ca, b)] {
                    match c {
                        Some(0) => {
                            if let Ok(z) = Expr::constant(0, e.ty()) {
                                return z;
                            }
                        }
                        Some(1) => return other.clone(),
                        Some(k) if is_pow2(k) => {
                            // wrap(x * 2^c) == x << c for every x: the
                            // canonical spelling, as in `strength_reduce`.
                            if let Ok(count) = Expr::constant(log2(k) as i128, other.ty()) {
                                if let Ok(s) = Expr::bin(BinOp::Shl, other.clone(), count) {
                                    return s;
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }
            BinOp::Div => {
                if cb == Some(1) {
                    return a.clone();
                }
                if let Some(k) = cb {
                    // Floor division by 2^c is an arithmetic right shift.
                    if is_pow2(k) {
                        if let Ok(count) = Expr::constant(log2(k) as i128, a.ty()) {
                            if let Ok(s) = Expr::bin(BinOp::Shr, a.clone(), count) {
                                return s;
                            }
                        }
                    }
                }
            }
            BinOp::Shl | BinOp::Shr => {
                if cb == Some(0) {
                    return a.clone();
                }
            }
            BinOp::And => {
                let mask = knownbits_mask(e.elem());
                if cb == Some(0) || ca == Some(0) {
                    if let Ok(z) = Expr::constant(0, e.ty()) {
                        return z;
                    }
                }
                for (c, other) in [(cb, a), (ca, b)] {
                    if let Some(k) = c {
                        let kbits = (e.elem().wrap(k) as u128) & mask;
                        if kbits == mask {
                            return other.clone();
                        }
                        // Masking away bits already known zero is a no-op.
                        let kb = self.bits.known_bits(other);
                        if (!kbits & mask) & !kb.zeros == 0 {
                            return other.clone();
                        }
                    }
                }
            }
            BinOp::Or | BinOp::Xor => {
                if cb == Some(0) {
                    return a.clone();
                }
                if ca == Some(0) {
                    return b.clone();
                }
            }
            BinOp::Min | BinOp::Max => {
                if a == b {
                    return a.clone();
                }
                let (ia, ib) = (self.bounds.interval(a), self.bounds.interval(b));
                // Interval-licensed clamp discharge: this is what makes a
                // predicate-guarded saturation provably dead.
                match op {
                    BinOp::Min => {
                        if ia.max <= ib.min {
                            return a.clone();
                        }
                        if ib.max <= ia.min {
                            return b.clone();
                        }
                    }
                    _ => {
                        if ia.min >= ib.max {
                            return a.clone();
                        }
                        if ib.min >= ia.max {
                            return b.clone();
                        }
                    }
                }
            }
            BinOp::Mod => {}
        }
        // Commutative/associative chains: flatten, fold constants, sort.
        if matches!(
            op,
            BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Min | BinOp::Max
        ) {
            if let Some(sorted) = self.flatten_ac(e, op) {
                return sorted;
            }
        }
        e.clone()
    }

    fn step_cmp(&mut self, e: &RcExpr, op: CmpOp, a: &RcExpr, b: &RcExpr) -> RcExpr {
        let one = |v: i128| Expr::constant(v, e.ty()).ok();
        if a == b {
            let decided = match op {
                CmpOp::Eq | CmpOp::Le | CmpOp::Ge => 1,
                CmpOp::Ne | CmpOp::Lt | CmpOp::Gt => 0,
            };
            if let Some(c) = one(decided) {
                return c;
            }
        }
        let (ia, ib) = (self.bounds.interval(a), self.bounds.interval(b));
        let decided = match op {
            CmpOp::Lt if ia.max < ib.min => Some(1),
            CmpOp::Lt if ia.min >= ib.max => Some(0),
            CmpOp::Le if ia.max <= ib.min => Some(1),
            CmpOp::Le if ia.min > ib.max => Some(0),
            CmpOp::Gt if ia.min > ib.max => Some(1),
            CmpOp::Gt if ia.max <= ib.min => Some(0),
            CmpOp::Ge if ia.min >= ib.max => Some(1),
            CmpOp::Ge if ia.max < ib.min => Some(0),
            CmpOp::Eq | CmpOp::Ne if ia.max < ib.min || ib.max < ia.min => {
                Some((op == CmpOp::Ne) as i128)
            }
            _ => None,
        };
        if let Some(d) = decided {
            if let Some(c) = one(d) {
                return c;
            }
        }
        // Canonical orientation: only <, <=, and sorted ==/!= survive.
        let swapped = |op2| Expr::cmp(op2, b.clone(), a.clone()).ok();
        match op {
            CmpOp::Gt => swapped(CmpOp::Lt).unwrap_or_else(|| e.clone()),
            CmpOp::Ge => swapped(CmpOp::Le).unwrap_or_else(|| e.clone()),
            CmpOp::Eq | CmpOp::Ne if sort_key(b) < sort_key(a) => {
                swapped(op).unwrap_or_else(|| e.clone())
            }
            _ => e.clone(),
        }
    }

    /// Flatten a commutative-associative chain, fold its constants
    /// together, and rebuild it left-associated in sorted order. Returns
    /// `None` when the chain is already canonical.
    fn flatten_ac(&mut self, e: &RcExpr, op: BinOp) -> Option<RcExpr> {
        fn collect(e: &RcExpr, op: BinOp, ty: VectorType, out: &mut Vec<RcExpr>) {
            if let ExprKind::Bin(o, a, b) = e.kind() {
                if *o == op && e.ty() == ty {
                    collect(a, op, ty, out);
                    collect(b, op, ty, out);
                    return;
                }
            }
            out.push(e.clone());
        }
        let mut terms = Vec::new();
        collect(e, op, e.ty(), &mut terms);
        if terms.len() < 2 {
            return None;
        }
        // Fold all constant terms into one (the ops here are associative
        // and commutative modulo 2^bits, which is exactly how they wrap).
        let (consts, mut rest): (Vec<RcExpr>, Vec<RcExpr>) =
            terms.into_iter().partition(|t| t.as_const().is_some());
        let mut folded: Option<RcExpr> = None;
        for c in consts {
            folded = Some(match folded {
                None => c,
                Some(acc) => {
                    let pair = Expr::bin(op, acc.clone(), c.clone()).ok()?;
                    fold_const(&pair)?
                }
            });
        }
        if let Some(c) = folded {
            let v = c.as_const().expect("folded to a constant");
            let identity = match op {
                BinOp::Add | BinOp::Or | BinOp::Xor => v == 0,
                BinOp::Mul => v == 1,
                BinOp::And => {
                    (e.elem().wrap(v) as u128) & knownbits_mask(e.elem())
                        == knownbits_mask(e.elem())
                }
                _ => false,
            };
            if !identity || rest.is_empty() {
                rest.push(c);
            }
        }
        // `x + x` canonicalizes to `x << 1`, as in `strength_reduce`.
        if op == BinOp::Add {
            rest.sort_by_key(sort_key);
            let mut i = 0;
            while i + 1 < rest.len() {
                if rest[i] == rest[i + 1] {
                    let x = rest.remove(i);
                    rest.remove(i);
                    let count = Expr::constant(1, x.ty()).ok()?;
                    rest.insert(i, Expr::bin(BinOp::Shl, x, count).ok()?);
                } else {
                    i += 1;
                }
            }
        }
        rest.sort_by_key(sort_key);
        let mut out = rest.first()?.clone();
        for t in &rest[1..] {
            out = Expr::bin(op, out, t.clone()).ok()?;
        }
        if out == *e {
            None
        } else {
            Some(out)
        }
    }
}

/// Deterministic ordering key for AC sorting and comparison orientation:
/// the printed form (stable, total, and independent of allocation).
fn sort_key(e: &RcExpr) -> String {
    e.to_string()
}

fn knownbits_mask(elem: ScalarType) -> u128 {
    KnownBits::top(elem).mask()
}

/// Evaluate a constant-only node through the reference interpreter.
fn fold_const(e: &RcExpr) -> Option<RcExpr> {
    let v = eval(e, &Env::new()).ok()?;
    Expr::constant(v.lane(0), e.ty()).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpir_trs::dsl::*;
    use fpir_trs::pattern::TypePat;
    use fpir_trs::rule::RuleClass;

    fn opts() -> VerifyOptions {
        VerifyOptions::shipped()
    }

    #[test]
    fn widening_add_lift_is_proved() {
        // The canonical lift: its RHS's one-step expansion *is* its LHS.
        let rule = Rule::new(
            "widening-add",
            RuleClass::Lift,
            pat_add(
                widen_cast(0),
                fpir_trs::pattern::Pat::Cast(
                    TypePat::WidenOf(0),
                    Box::new(wild_t(1, TypePat::Var(0))),
                ),
            ),
            tfpir2(FpirOp::WideningAdd, tw(0), tw(1)),
        );
        let v = check_rule(&rule, &opts());
        assert!(v.error.is_none(), "{:?}", v.error);
        assert_eq!(v.verdict, Verdict::Proved);
    }

    #[test]
    fn unsound_rule_is_never_proved() {
        // Wrong rounding: floor average claimed to be the round-up
        // average. The prover must not bless it, and checking must find
        // the off-by-one.
        let rule = Rule::new(
            "buggy-average",
            RuleClass::Lift,
            pat_fpir2(FpirOp::RoundingHalvingAdd, wild_v(0), wild_t(1, TypePat::Var(0))),
            tfpir2(FpirOp::HalvingAdd, tw(0), tw(1)),
        );
        let v = check_rule(&rule, &VerifyOptions::default());
        assert!(v.error.is_some(), "unsound rule passed with verdict {}", v.verdict);
    }
}
