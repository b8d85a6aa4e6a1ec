//! Generic legalization: turn any remaining non-machine nodes into target
//! instructions.
//!
//! This pass encodes the *direct mappings* of §3.3 once per target (the
//! `n` in the paper's `k + n + 1` rule count) plus the generic fallback
//! path every compiler needs: unsupported widths are widened, executed at
//! the wider width, and truncated back — exactly the "high-bit-width
//! intermediates halve SIMD throughput" effect the paper describes — and
//! FPIR instructions without a native row are expanded into their
//! primitive-integer definitions and re-legalized.
//!
//! Legalization fails honestly: Hexagon HVX has no 64-bit lanes, so
//! expressions that require them (§5.1) return
//! a [`LowerError`], mirroring LLVM's failure to compile
//! `depthwise_conv`, `matmul` and `mul` for HVX.

use crate::def::{InstDef, SignReq, Target};
use crate::sem::MachSem;
use fpir::expr::{BinOp, CmpOp, Expr, ExprKind, FpirOp, RcExpr};
use fpir::identity::IdMap;
use fpir::types::{ScalarType, VectorType};
use fpir::Isa;
use std::fmt;
use std::sync::Arc;

/// Legalization memo: input node identity → (input kept alive, output).
///
/// Legalization is a pure function of the node for a fixed target, and its
/// output is a fixed point (machine/leaf nodes legalize to themselves), so
/// results are cached by `Arc` identity — the same discipline as the
/// rewriter's DAG memo. This matters twice over: workload pipelines share
/// subexpressions, and the FPIR fallback path *re-legalizes* expansions
/// whose operands were already legalized, which without the memo re-walks
/// those subtrees once per enclosing expansion.
///
/// A disabled memo ([`legalize_uncached`]) reproduces the original
/// tree-walking legalizer for differential testing and benchmarking.
#[derive(Debug, Default)]
struct Memo {
    map: Option<IdMap<(RcExpr, RcExpr)>>,
    /// Constant-folding memo shared across every FPIR expansion of the
    /// run (folding is pure, see [`fpir::simplify::const_fold_shared`]).
    folds: IdMap<(RcExpr, RcExpr)>,
}

/// What an FPIR expansion's legalization can depend on, besides the
/// target: the operator, and per operand its vector type plus the literal
/// value when the operand *is* a constant.
type ExpansionKey = (Isa, FpirOp, Vec<(VectorType, Option<i128>)>);

/// FPIR expansion skeletons: `(isa, op, operand shapes)` → the fully
/// legalized expansion over placeholder variables.
///
/// Like a rule set's `RuleIndex`, this is a
/// fixed per-target table computed lazily: the set of reachable keys is
/// bounded by operator × type combinations, and the skeleton for a key
/// never changes. Caching it process-wide amortizes the table across
/// every compilation against the target, not just within one legalize
/// run. See [`expand_legalized`] for the soundness argument.
static SKELETONS: std::sync::OnceLock<
    std::sync::Mutex<std::collections::HashMap<ExpansionKey, RcExpr>>,
> = std::sync::OnceLock::new();

impl Memo {
    fn enabled() -> Memo {
        Memo { map: Some(IdMap::default()), ..Memo::default() }
    }

    fn disabled() -> Memo {
        Memo::default()
    }

    fn is_enabled(&self) -> bool {
        self.map.is_some()
    }

    fn get(&self, e: &RcExpr) -> Option<RcExpr> {
        self.map.as_ref()?.get(&Expr::ptr_id(e)).map(|(_, out)| out.clone())
    }

    fn insert(&mut self, key: &RcExpr, out: &RcExpr) {
        if let Some(map) = &mut self.map {
            map.insert(Expr::ptr_id(key), (key.clone(), out.clone()));
        }
    }

    /// Fold constants in an expansion: DAG-shared when the memo is on,
    /// the original whole-tree walk when it is off.
    fn const_fold(&mut self, e: &RcExpr) -> RcExpr {
        if self.is_enabled() {
            fpir::simplify::const_fold_shared(e, &mut self.folds)
        } else {
            fpir::simplify::const_fold(e)
        }
    }
}

/// Why an expression could not be lowered for a target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerError {
    /// The target.
    pub isa: Isa,
    /// Human-readable reason.
    pub what: String,
}

impl LowerError {
    fn new(isa: Isa, what: impl Into<String>) -> LowerError {
        LowerError { isa, what: what.into() }
    }
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot lower for {}: {}", self.isa, self.what)
    }
}

impl std::error::Error for LowerError {}

/// Lower every non-machine node of `expr` into machine instructions for
/// target `t`.
///
/// # Errors
///
/// Fails when the expression needs lanes wider than the target supports,
/// or contains an operation with no legal implementation (e.g. general
/// vector division).
pub fn legalize(expr: &RcExpr, t: &Target) -> Result<RcExpr, LowerError> {
    legalize_memo(expr, t, &mut Memo::enabled())
}

/// [`legalize`] without the identity memo — the original tree-walking
/// legalizer, preserved as the pre-optimization baseline for differential
/// tests and the `selection-bench` reference engine.
///
/// # Errors
///
/// Fails exactly when [`legalize`] fails.
pub fn legalize_uncached(expr: &RcExpr, t: &Target) -> Result<RcExpr, LowerError> {
    legalize_memo(expr, t, &mut Memo::disabled())
}

fn legalize_memo(expr: &RcExpr, t: &Target, memo: &mut Memo) -> Result<RcExpr, LowerError> {
    // Leaves are their own fixed point: answer directly instead of paying a
    // memo lookup and insert per visit. (Identical observable behaviour —
    // the general path below would clone the node after the same width
    // check.)
    if matches!(expr.kind(), ExprKind::Var(_) | ExprKind::Const(_)) {
        check_width(expr.ty(), t)?;
        return Ok(expr.clone());
    }
    if let Some(out) = memo.get(expr) {
        return Ok(out);
    }
    let children: Vec<RcExpr> =
        expr.children().into_iter().map(|c| legalize_memo(c, t, memo)).collect::<Result<_, _>>()?;
    let isa = t.isa;
    check_width(expr.ty(), t)?;

    let out = match expr.kind() {
        ExprKind::Var(_) | ExprKind::Const(_) => expr.clone(),
        ExprKind::Mach(op, _) => {
            let unchanged = memo.is_enabled()
                && expr.children().iter().zip(&children).all(|(a, b)| Arc::ptr_eq(a, b));
            let node = if unchanged { expr.clone() } else { expr.with_children(children) };
            let def =
                t.def(*op).ok_or_else(|| LowerError::new(isa, format!("unknown opcode {op}")))?;
            validate_mach(&node, def, t)?;
            node
        }
        ExprKind::Bin(op, ..) => legalize_bin(*op, expr.ty(), children, t, memo)?,
        ExprKind::Cmp(op, ..) => legalize_cmp(*op, expr.ty(), children, t, memo)?,
        ExprKind::Select(..) => {
            let width = children[1].elem().bits();
            let def = find_usable(t, MachSem::Select, width, false, &children, memo)
                .ok_or_else(|| LowerError::new(isa, format!("no select at {width} bits")))?;
            Expr::mach(def.op, expr.ty(), children)
        }
        ExprKind::Cast(_) => legalize_cast(expr.ty().elem, children.remove_first(), t, memo)?,
        ExprKind::Reinterpret(_) => reinterpret_node(expr.ty(), children.remove_first(), t, memo),
        ExprKind::Fpir(op, _) => legalize_fpir(*op, expr.ty(), children, t, memo)?,
    };
    memo.insert(expr, &out);
    // The output is already legal, so it is its own fixed point: keying it
    // lets the FPIR fallback's re-legalization of expansions stop at
    // operand subtrees that were legalized moments ago. (When the node was
    // already legal the first insert is that entry.)
    if !Arc::ptr_eq(expr, &out) {
        memo.insert(&out, &out);
    }
    Ok(out)
}

trait RemoveFirst<T> {
    fn remove_first(self) -> T;
}

impl<T> RemoveFirst<T> for Vec<T> {
    fn remove_first(mut self) -> T {
        self.remove(0)
    }
}

fn check_width(ty: VectorType, t: &Target) -> Result<(), LowerError> {
    if ty.elem.bits() > t.max_lane_bits() {
        Err(LowerError::new(
            t.isa,
            format!("{} has no {}-bit lanes (needed for {ty})", t.isa, ty.elem.bits()),
        ))
    } else {
        Ok(())
    }
}

/// Find the cheapest row with this semantics that is legal at the width,
/// signedness, *and* whose const-operand requirements are satisfied by
/// the actual operands.
///
/// The memoized legalizer resolves rows through the target's
/// per-semantics index ([`Target::defs_with_sem`], cheapest first);
/// [`legalize_uncached`] keeps the original full-table scan so the
/// benchmark baseline stays faithful to the pre-optimization pass. Both
/// select the same row.
fn find_usable<'t>(
    t: &'t Target,
    sem: MachSem,
    width: u32,
    signed: bool,
    args: &[RcExpr],
    memo: &Memo,
) -> Option<&'t InstDef> {
    let legal = |d: &InstDef| {
        d.widths.contains(&width)
            && match d.sign {
                SignReq::Any => true,
                SignReq::Signed => signed,
                SignReq::Unsigned => !signed,
            }
            && d.needs_const.iter().all(|&i| args.get(i).is_some_and(|a| a.as_const().is_some()))
    };
    if memo.is_enabled() {
        // Rows arrive cheapest-first: the first legal one wins.
        t.defs_with_sem(sem).find(|d| legal(d))
    } else {
        t.defs().iter().filter(|d| d.sem == sem && legal(d)).min_by_key(|d| d.cost)
    }
}

fn validate_mach(node: &RcExpr, def: &InstDef, t: &Target) -> Result<(), LowerError> {
    let args = node.children();
    if args.len() != def.sem.arity() {
        return Err(LowerError::new(
            t.isa,
            format!("{} takes {} operands, got {}", def.op, def.sem.arity(), args.len()),
        ));
    }
    let first = args.first().map(|a| a.elem()).unwrap_or(node.elem());
    if !def.widths.contains(&first.bits()) {
        return Err(LowerError::new(
            t.isa,
            format!("{} is illegal at {} bits", def.op, first.bits()),
        ));
    }
    match def.sign {
        SignReq::Signed if !first.is_signed() => {
            return Err(LowerError::new(t.isa, format!("{} requires signed lanes", def.op)))
        }
        SignReq::Unsigned if first.is_signed() => {
            return Err(LowerError::new(t.isa, format!("{} requires unsigned lanes", def.op)))
        }
        _ => {}
    }
    for &i in def.needs_const {
        if args.get(i).and_then(|a| a.as_const()).is_none() {
            return Err(LowerError::new(
                t.isa,
                format!("{} operand {i} must be an immediate", def.op),
            ));
        }
    }
    Ok(())
}

fn reinterpret_node(ty: VectorType, arg: RcExpr, t: &Target, memo: &Memo) -> RcExpr {
    if arg.ty() == ty {
        return arg;
    }
    let def = if memo.is_enabled() {
        t.defs_with_sem(MachSem::Reinterpret).next()
    } else {
        t.defs().iter().find(|d| d.sem == MachSem::Reinterpret)
    }
    .expect("every target has a reinterpret alias");
    Expr::mach(def.op, ty, vec![arg])
}

fn legalize_bin(
    op: BinOp,
    ty: VectorType,
    mut args: Vec<RcExpr>,
    t: &Target,
    memo: &mut Memo,
) -> Result<RcExpr, LowerError> {
    let isa = t.isa;
    let width = ty.elem.bits();
    let signed = ty.elem.is_signed();

    // Division/remainder: only powers of two are supported (floor division
    // by 2^k is an arithmetic shift; unsigned remainder is a mask).
    match op {
        BinOp::Div => {
            if let Some(c) = args[1].as_const() {
                if fpir::simplify::is_pow2(c) {
                    let count = Expr::constant(fpir::simplify::log2(c) as i128, args[1].ty())
                        .expect("log2 fits");
                    return legalize_bin(BinOp::Shr, ty, vec![args.remove(0), count], t, memo);
                }
            }
            return Err(LowerError::new(isa, "no vector division instruction".to_string()));
        }
        BinOp::Mod => {
            if let (Some(c), false) = (args[1].as_const(), signed) {
                if fpir::simplify::is_pow2(c) {
                    let mask = Expr::constant(c - 1, args[1].ty()).expect("mask fits");
                    return legalize_bin(BinOp::And, ty, vec![args.remove(0), mask], t, memo);
                }
            }
            return Err(LowerError::new(isa, "no vector remainder instruction".to_string()));
        }
        BinOp::Shl | BinOp::Shr => {
            // Normalize negative immediate counts to the other direction.
            if let Some(c) = args[1].as_const() {
                if c < 0 {
                    let flipped = if op == BinOp::Shl { BinOp::Shr } else { BinOp::Shl };
                    let count = Expr::constant(-c, args[1].ty()).expect("negated count fits");
                    return legalize_bin(flipped, ty, vec![args.remove(0), count], t, memo);
                }
            }
        }
        _ => {}
    }

    if let Some(def) = find_usable(t, MachSem::Bin(op), width, signed, &args, memo) {
        return Ok(Expr::mach(def.op, ty, args));
    }

    // Min/max without a native row decompose into compare + select (how
    // LLVM legalizes 64-bit min/max on AVX2).
    if matches!(op, BinOp::Min | BinOp::Max) {
        let (a, b) = (args[0].clone(), args[1].clone());
        let cmp_op = if op == BinOp::Min { CmpOp::Lt } else { CmpOp::Gt };
        let cond = legalize_cmp(cmp_op, ty, vec![a.clone(), b.clone()], t, memo)?;
        let node = Expr::select(cond, a, b).expect("select of like-typed operands");
        return legalize_memo(&node, t, memo);
    }

    // Width promotion: run at double width and truncate back (the costly
    // path that halves SIMD throughput).
    if let Some(wider) = ty.elem.widen() {
        if check_width(ty.with_elem(wider), t).is_ok() {
            let wide_args = args
                .into_iter()
                .map(|a| legalize_cast(wider, a, t, memo))
                .collect::<Result<Vec<_>, _>>()?;
            let wide = legalize_bin(op, ty.with_elem(wider), wide_args, t, memo)?;
            return legalize_cast(ty.elem, wide, t, memo);
        }
    }
    Err(LowerError::new(isa, format!("no `{}` instruction at {width} bits", op.symbol())))
}

fn legalize_cmp(
    op: CmpOp,
    ty: VectorType,
    mut args: Vec<RcExpr>,
    t: &Target,
    memo: &mut Memo,
) -> Result<RcExpr, LowerError> {
    let isa = t.isa;
    let width = args[0].elem().bits();
    let signed = args[0].elem().is_signed();
    let not = |e: RcExpr, t: &Target, memo: &mut Memo| -> Result<RcExpr, LowerError> {
        // Comparisons produce 0/1 lanes; `not` is xor with 1.
        let one = Expr::constant(1, e.ty()).expect("1 fits");
        legalize_bin(BinOp::Xor, e.ty(), vec![e, one], t, memo)
    };
    match op {
        CmpOp::Lt => {
            args.swap(0, 1);
            legalize_cmp(CmpOp::Gt, ty, args, t, memo)
        }
        CmpOp::Le => {
            // a <= b  ==  !(a > b)
            let gt = legalize_cmp(CmpOp::Gt, ty, args, t, memo)?;
            not(gt, t, memo)
        }
        CmpOp::Ge => {
            args.swap(0, 1);
            legalize_cmp(CmpOp::Le, ty, args, t, memo)
        }
        CmpOp::Ne => {
            let eq = legalize_cmp(CmpOp::Eq, ty, args, t, memo)?;
            not(eq, t, memo)
        }
        CmpOp::Gt | CmpOp::Eq => {
            if let Some(def) = find_usable(t, MachSem::Cmp(op), width, signed, &args, memo) {
                Ok(Expr::mach(def.op, ty, args))
            } else {
                Err(LowerError::new(
                    isa,
                    format!("no `{}` comparison at {width} bits", op.symbol()),
                ))
            }
        }
    }
}

/// Legalize a wrapping cast by chaining single-step extends / truncations.
fn legalize_cast(
    to: ScalarType,
    arg: RcExpr,
    t: &Target,
    memo: &mut Memo,
) -> Result<RcExpr, LowerError> {
    let isa = t.isa;
    let from = arg.elem();
    check_width(arg.ty().with_elem(to), t)?;
    if from.bits() == to.bits() {
        return Ok(reinterpret_node(arg.ty().with_elem(to), arg, t, memo));
    }
    if from.bits() < to.bits() {
        // One extension step, preserving source signedness (that is what a
        // wrapping cast does), then recurse.
        let step = from.widen().expect("from < to implies widenable");
        let def = find_usable(
            t,
            MachSem::ExtendTo,
            from.bits(),
            from.is_signed(),
            std::slice::from_ref(&arg),
            memo,
        )
        .ok_or_else(|| LowerError::new(isa, format!("no extension from {} bits", from.bits())))?;
        let widened = Expr::mach(def.op, arg.ty().with_elem(step), vec![arg]);
        legalize_cast(to, widened, t, memo)
    } else {
        let step = from.narrow().expect("from > to implies narrowable");
        let def = find_usable(
            t,
            MachSem::TruncTo,
            from.bits(),
            from.is_signed(),
            std::slice::from_ref(&arg),
            memo,
        )
        .ok_or_else(|| LowerError::new(isa, format!("no truncation from {} bits", from.bits())))?;
        let narrowed = Expr::mach(def.op, arg.ty().with_elem(step), vec![arg]);
        legalize_cast(to, narrowed, t, memo)
    }
}

/// Expand an FPIR instruction with no native row into its primitive
/// definition, fold its constant subterms, and legalize the result —
/// caching the whole pipeline per *operand shape* when the memo is on.
///
/// The expensive part of the fallback path is not any one operand: it is
/// re-deriving the expansion's scaffolding (hundreds of nodes for e.g.
/// `rounding_mul_shr`) every time the same instruction appears at the same
/// types. But `expand_fpir` builds that scaffolding purely from the
/// operator and the operand *types* (it never inspects operand structure),
/// and every later decision is equally shape-blind:
///
/// * `const_fold` folds a node only when all children are literal `Const`s,
///   and leaves `Var`/`Mach` roots alone — so an already-legalized operand
///   (all machine/leaf nodes) is a folding fixed point, and whether a
///   skeleton node folds depends only on which operand slots hold literals;
/// * the legalizer's instruction choices depend on node kinds, types, and
///   `as_const()` of immediate children — identical for a placeholder
///   variable and any non-constant legalized operand of the same type.
///
/// So the legalized expansion is a *template*: compute it once over
/// placeholder variables (keeping literal operands literal, since those
/// do steer folding and immediate-operand selection), cache it under
/// `(op, [(type, literal?)])`, and instantiate by substituting the real
/// operands for the placeholders. The instantiation is structurally
/// identical to what the uncached path produces.
fn expand_legalized(
    op: FpirOp,
    args: &[RcExpr],
    t: &Target,
    memo: &mut Memo,
) -> Result<RcExpr, LowerError> {
    let isa = t.isa;
    if !memo.is_enabled() {
        let expanded = fpir::semantics::expand_fpir(op, args)
            .map_err(|e| LowerError::new(isa, e.to_string()))?;
        let folded = memo.const_fold(&expanded);
        return legalize_memo(&folded, t, memo);
    }
    let key: ExpansionKey = (isa, op, args.iter().map(|a| (a.ty(), a.as_const())).collect());
    let cache = SKELETONS.get_or_init(Default::default);
    let cached = cache.lock().expect("skeleton cache lock").get(&key).cloned();
    let skeleton = match cached {
        Some(s) => s,
        None => {
            let placeholders: Vec<RcExpr> = args
                .iter()
                .enumerate()
                .map(|(i, a)| match a.as_const() {
                    Some(v) => Expr::constant(v, a.ty()).expect("literal re-types"),
                    None => Expr::var(placeholder_name(i), a.ty()),
                })
                .collect();
            let expanded = fpir::semantics::expand_fpir(op, &placeholders)
                .map_err(|e| LowerError::new(isa, e.to_string()))?;
            let folded = memo.const_fold(&expanded);
            let skeleton = legalize_memo(&folded, t, memo)?;
            cache.lock().expect("skeleton cache lock").insert(key, skeleton.clone());
            skeleton
        }
    };
    Ok(instantiate_skeleton(&skeleton, args))
}

/// Reserved variable name for operand slot `i` of an expansion skeleton
/// (the `\u{1}` prefix cannot appear in user programs).
fn placeholder_name(i: usize) -> String {
    format!("\u{1}arg{i}")
}

/// Substitute the real operands for a skeleton's placeholder variables,
/// sharing every subtree that contains no placeholder (identity-memoized,
/// so DAG-shared skeleton nodes substitute once).
fn instantiate_skeleton(skeleton: &RcExpr, args: &[RcExpr]) -> RcExpr {
    fn go(e: &RcExpr, args: &[RcExpr], memo: &mut IdMap<RcExpr>) -> RcExpr {
        if let Some(out) = memo.get(&Expr::ptr_id(e)) {
            return out.clone();
        }
        let out = if let ExprKind::Var(name) = e.kind() {
            match name.strip_prefix('\u{1}').and_then(|s| s.strip_prefix("arg")) {
                Some(i) => args[i.parse::<usize>().expect("placeholder index")].clone(),
                None => e.clone(),
            }
        } else {
            let children: Vec<RcExpr> =
                (0..e.arity()).map(|i| go(e.child(i), args, memo)).collect();
            let unchanged = (0..e.arity()).all(|i| Arc::ptr_eq(e.child(i), &children[i]));
            if unchanged {
                e.clone()
            } else {
                e.with_children(children)
            }
        };
        memo.insert(Expr::ptr_id(e), out.clone());
        out
    }
    go(skeleton, args, &mut IdMap::default())
}

fn legalize_fpir(
    op: FpirOp,
    ty: VectorType,
    args: Vec<RcExpr>,
    t: &Target,
    memo: &mut Memo,
) -> Result<RcExpr, LowerError> {
    let width = args[0].elem().bits();
    let signed = args[0].elem().is_signed();

    // Saturating casts: a same-signedness one-step narrow has a native row
    // on ARM/HVX-class targets; anything else expands to clamp-then-cast.
    if let FpirOp::SaturatingCast(target_elem) = op {
        let src = args[0].elem();
        if src.narrow() == Some(target_elem) {
            if let Some(def) =
                find_usable(t, MachSem::Fpir(FpirOp::SaturatingNarrow), width, signed, &args, memo)
            {
                return Ok(Expr::mach(def.op, ty, args));
            }
            // Signed-to-unsigned narrow (sqxtun).
            if src.is_signed() && !target_elem.is_signed() {
                if let Some(def) = find_usable(t, MachSem::SatCastTo, width, signed, &args, memo) {
                    return Ok(Expr::mach(def.op, ty, args));
                }
            }
        }
        return expand_legalized(op, &args, t, memo);
    }

    // `saturating_narrow` reaches here only as its own node.
    let lookup_op = if op == FpirOp::SaturatingNarrow { FpirOp::SaturatingNarrow } else { op };
    if let Some(def) = find_usable(t, MachSem::Fpir(lookup_op), width, signed, &args, memo) {
        return Ok(Expr::mach(def.op, ty, args));
    }

    // No native row: fall back to the instruction's primitive definition
    // (folding the expansion's constant subterms — shift counts and
    // rounding terms must be immediates again before selection).
    expand_legalized(op, &args, t, memo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::def::target;
    use fpir::build;
    use fpir::types::{ScalarType as S, VectorType as V};

    fn all_mach(e: &RcExpr) -> bool {
        !e.any(&mut |n| {
            !matches!(n.kind(), ExprKind::Mach(..) | ExprKind::Var(_) | ExprKind::Const(_))
        })
    }

    #[test]
    fn add_lowers_directly_everywhere() {
        let t = V::new(S::U8, 16);
        let e = build::add(build::var("a", t), build::var("b", t));
        for isa in fpir::machine::ALL_ISAS {
            let out = legalize(&e, target(isa)).unwrap();
            assert!(all_mach(&out), "{isa}: {out}");
            assert_eq!(out.ty(), e.ty());
        }
    }

    #[test]
    fn u8_multiply_on_x86_widens() {
        // AVX2 has no byte multiply: expect extend / vpmull / pack.
        let t = V::new(S::U8, 32);
        let e = build::mul(build::var("a", t), build::var("b", t));
        let out = legalize(&e, target(Isa::X86Avx2)).unwrap();
        let printed = out.to_string();
        assert!(printed.contains("vpmull"), "{printed}");
        assert!(printed.contains("vpmovzx"), "{printed}");
        assert!(printed.contains("vpacktrunc"), "{printed}");
    }

    #[test]
    fn widening_add_maps_to_uaddl_on_arm() {
        let t = V::new(S::U8, 16);
        let e = build::widening_add(build::var("a", t), build::var("b", t));
        let out = legalize(&e, target(Isa::ArmNeon)).unwrap();
        assert_eq!(out.to_string(), "arm.uaddl(a_u8, b_u8)");
    }

    #[test]
    fn halving_add_on_x86_expands() {
        // x86 has no uhadd: the generic path widens, adds, shifts, narrows.
        let t = V::new(S::U8, 32);
        let e = build::halving_add(build::var("a", t), build::var("b", t));
        let out = legalize(&e, target(Isa::X86Avx2)).unwrap();
        assert!(all_mach(&out));
        // The same instruction is a single vavg on HVX.
        let out = legalize(&e, target(Isa::HexagonHvx)).unwrap();
        assert_eq!(out.to_string(), "hvx.vavg(a_u8, b_u8)");
    }

    #[test]
    fn sixty_four_bit_fails_on_hvx_only() {
        let t = V::new(S::I64, 4);
        let e = build::add(build::var("a", t), build::var("b", t));
        assert!(legalize(&e, target(Isa::ArmNeon)).is_ok());
        assert!(legalize(&e, target(Isa::X86Avx2)).is_ok());
        let err = legalize(&e, target(Isa::HexagonHvx)).unwrap_err();
        assert!(err.what.contains("64-bit"), "{err}");
    }

    #[test]
    fn division_by_pow2_becomes_shift() {
        let t = V::new(S::I16, 8);
        let e = build::div(build::var("a", t), build::constant(4, t));
        let out = legalize(&e, target(Isa::ArmNeon)).unwrap();
        assert!(out.to_string().contains("ushr"), "{out}");
        // General division fails.
        let e = build::div(build::var("a", t), build::var("b", t));
        assert!(legalize(&e, target(Isa::ArmNeon)).is_err());
    }

    #[test]
    fn comparisons_normalize() {
        let t = V::new(S::I16, 8);
        let e = build::le(build::var("a", t), build::var("b", t));
        let out = legalize(&e, target(Isa::ArmNeon)).unwrap();
        assert!(all_mach(&out));
        // le = not(gt): expect a cmgt and an eor.
        let p = out.to_string();
        assert!(p.contains("cmgt") && p.contains("eor"), "{p}");
    }

    #[test]
    fn legalized_exprs_evaluate_like_sources() {
        use fpir::interp::{eval, eval_with};
        use fpir::rand_expr::{gen_expr, random_env, GenConfig};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(33);
        let cfg = GenConfig {
            lanes: 8,
            types: vec![S::U8, S::U16, S::I16, S::I32, S::U32, S::I8],
            ..GenConfig::default()
        };
        let evaluator = crate::def::MachEvaluator;
        let mut checked = 0;
        for i in 0..150 {
            let elem = cfg.types[i % cfg.types.len()];
            let e = gen_expr(&mut rng, &cfg, elem);
            for isa in fpir::machine::ALL_ISAS {
                let Ok(lowered) = legalize(&e, target(isa)) else {
                    continue; // e.g. width limits on HVX
                };
                let env = random_env(&mut rng, &e);
                let want = eval(&e, &env).unwrap();
                let got = eval_with(&lowered, &env, Some(&evaluator))
                    .unwrap_or_else(|err| panic!("{isa}: {err}\n  src {e}\n  low {lowered}"));
                assert_eq!(want, got, "{isa} diverged on {e}\n lowered: {lowered}");
                checked += 1;
            }
        }
        assert!(checked > 200, "only {checked} legalizations checked");
    }
}
