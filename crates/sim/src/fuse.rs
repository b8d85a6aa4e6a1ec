//! Post-link optimization: linked-level cleanup and superinstruction
//! fusion.
//!
//! [`Executable::link`] (PR 4) already resolves names, semantics,
//! constants, and registers once — but its hot loop still pays one
//! dispatch, one full lane traversal, and one intermediate register
//! materialization *per instruction*, even for chains like
//! `mul → shr → add` that the cycle model prices as a single fused idiom
//! (`vmpa`/`vdmpy`-style). `optimize` rewrites a linked executable so
//! those chains run as **superinstructions**: one lane walk per chain,
//! intermediates in stack scalars, a single register write at the root.
//!
//! The pipeline, in order:
//!
//! 1. **SSA reconstruction** — the linked code is walked back into a
//!    def-use graph (physical registers → defining nodes).
//! 2. **Copy propagation** — single-operand wrap/saturate instructions
//!    whose operand already has the result's exact [`VectorType`]
//!    (`Reinterpret`, `ExtendTo`, `TruncTo`, `SatCastTo`, `Splat` at
//!    their own type) are identities on canonical lanes — the `Value`
//!    invariant — and are bypassed.
//! 3. **Constant folding** — instructions whose operands are all splat
//!    constants are evaluated once at fuse time through the *same*
//!    [`fpir_isa::eval_sem`] the engine would call, and interned into
//!    the constant pool. A lane-wise function of splats is a splat, so
//!    the pool's splat invariant is preserved.
//! 4. **Dead-write elimination** — nodes unreachable from the output
//!    are dropped. This is observationally safe because every lane
//!    helper is a *total* function (`x / 0 == 0`, shifts wrap) and the
//!    static verifier proves a linked artifact's shapes, so a verified
//!    executable cannot raise [`crate::vm::ExecError::Sem`] at run
//!    time: removing an instruction can never remove an error.
//! 5. **Fusion** — a peephole over def-use chains absorbs single-use
//!    producers into their unique consumer (arith chains,
//!    widening-mul/acc ladders, splat-feeding ops) as long as lane
//!    counts match and the kernel stays within `MAX_STEPS` steps /
//!    `MAX_OPERANDS` external operands. Splat-constant operands are
//!    baked into the kernel as immediates. Unfusable instructions fall
//!    through to the existing whole-vector dispatch unchanged.
//! 6. **Register re-allocation** — the surviving instructions are run
//!    back through the linker's linear scan, so `peak_regs` reflects
//!    the shorter lifetimes (in practice it only shrinks; exec-bench
//!    records before/after).
//!
//! **Why bit-identity holds.** Every fused pass runs a kernel compiled by
//! `fpir-isa` ([`fpir_isa::sem_slice_fn`], or its splat-capture and
//! merged-pair forms), and those kernels and the whole-vector
//! [`fpir_isa::eval_sem_into`] are sinks over one lane table: each
//! semantic's lane arithmetic is written once and only the loop around
//! it differs, pinned by tests in `fpir-isa`. Shape errors cannot
//! diverge either: operand types are static after
//! linking (input bindings are type-checked before dispatch), so the
//! verifier's fused-shape audit proves at fuse time everything
//! `eval_sem_into` would check per invocation. Binding errors are
//! untouched because the input slot table is preserved verbatim —
//! unbound/mistyped inputs blame the same load, position, and register
//! either way.

use crate::exec::{
    Executable, FPass, FSrc, FStep, FusedKernel, Kernel, LInst, Operand, OutLoc, MAX_OPERANDS,
    MAX_STEPS,
};
use crate::program::Reg;
use fpir::interp::Value;
use fpir::types::VectorType;
use fpir::MachOp;
use fpir_isa::{eval_sem, MachSem};

/// Engine selection for linking, mirroring the selection engine's
/// FAST/REFERENCE `EngineConfig`: [`ExecConfig::FAST`] runs the
/// post-link pipeline (`optimize`), [`ExecConfig::REFERENCE`] keeps
/// the plain PR 4 link. Outputs are bit-identical; only speed differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Run the post-link cleanup + superinstruction fusion pipeline.
    pub fuse: bool,
}

impl ExecConfig {
    /// Fused engine: the default for every production consumer.
    pub const FAST: ExecConfig = ExecConfig { fuse: true };
    /// Plain linked engine (PR 4), kept as the differential baseline.
    pub const REFERENCE: ExecConfig = ExecConfig { fuse: false };
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig::FAST
    }
}

/// Where a def-use node's operand comes from, pre-regalloc.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Src {
    Node(usize),
    In(u16),
    Const(u16),
}

/// One reconstructed SSA node (a linked instruction with def-use edges
/// instead of physical registers).
struct Node {
    op: MachOp,
    sem: MachSem,
    ty: VectorType,
    args: Vec<Src>,
    pos: u32,
    reg: Reg,
}

/// Run the post-link optimization pipeline (see the [module
/// docs](self)). Idempotent: an already-fused executable is returned
/// unchanged.
pub(crate) fn optimize(exe: Executable) -> Executable {
    if exe.code.iter().any(|i| matches!(i.kernel, Kernel::Fused(_))) {
        return exe;
    }
    let Executable { isa, inputs, mut consts, code, phys_regs, output, zero } = exe;

    // ---- 1. SSA reconstruction ------------------------------------
    let mut cur: Vec<Option<usize>> = vec![None; phys_regs];
    let mut nodes: Vec<Node> = Vec::with_capacity(code.len());
    for inst in &code {
        let sem = match inst.kernel {
            Kernel::Op(s) => s,
            Kernel::Fused(_) => unreachable!("checked above"),
        };
        let args = inst
            .args
            .iter()
            .map(|&a| match a {
                Operand::Reg(r) => {
                    Src::Node(cur[r as usize].expect("linked code defines registers before use"))
                }
                Operand::In(s) => Src::In(s),
                Operand::Const(c) => Src::Const(c),
            })
            .collect();
        nodes.push(Node { op: inst.op, sem, ty: inst.ty, args, pos: inst.pos, reg: inst.reg });
        if !inst.dst_dead {
            cur[inst.dst as usize] = Some(nodes.len() - 1);
        }
    }
    let mut out_src = match output {
        OutLoc::Reg(r) => Src::Node(cur[r as usize].expect("the output register is defined")),
        OutLoc::In(s) => Src::In(s),
        OutLoc::Const(c) => Src::Const(c),
    };

    // ---- 2+3. copy propagation and constant folding ---------------
    // One in-order pass: operands resolve through earlier replacements,
    // so cast-of-cast chains collapse and a cast of a constant folds.
    let mut rep: Vec<Option<Src>> = vec![None; nodes.len()];
    fn resolve(rep: &[Option<Src>], mut s: Src) -> Src {
        while let Src::Node(j) = s {
            match rep[j] {
                Some(r) => s = r,
                None => break,
            }
        }
        s
    }
    for i in 0..nodes.len() {
        for k in 0..nodes[i].args.len() {
            nodes[i].args[k] = resolve(&rep, nodes[i].args[k]);
        }
        let src_ty = |s: Src| match s {
            Src::Node(j) => nodes[j].ty,
            Src::In(k) => inputs[k as usize].ty,
            Src::Const(c) => consts[c as usize].ty(),
        };
        // Identity copies: a same-type wrap or saturate of a canonical
        // value is the value (the `Value` lane invariant).
        let copyish = matches!(
            nodes[i].sem,
            MachSem::ExtendTo
                | MachSem::TruncTo
                | MachSem::Reinterpret
                | MachSem::SatCastTo
                | MachSem::Splat
        );
        if copyish && nodes[i].args.len() == 1 && src_ty(nodes[i].args[0]) == nodes[i].ty {
            rep[i] = Some(nodes[i].args[0]);
            continue;
        }
        // Fold all-constant operands through the engine's own evaluator.
        if !nodes[i].args.is_empty() && nodes[i].args.iter().all(|a| matches!(a, Src::Const(_))) {
            let vals: Vec<Value> = nodes[i]
                .args
                .iter()
                .map(|a| match a {
                    Src::Const(c) => consts[*c as usize].clone(),
                    _ => unreachable!(),
                })
                .collect();
            if let Ok(v) = eval_sem(nodes[i].sem, &vals, nodes[i].ty) {
                // Lane-wise semantics on splats always yield a splat;
                // checked anyway so a non-splat can never enter the pool.
                if v.lanes().iter().all(|&x| x == v.lane(0)) {
                    rep[i] = Some(Src::Const(intern_const(&mut consts, v)));
                }
            }
        }
    }
    out_src = resolve(&rep, out_src);

    // ---- 4. dead-write elimination (reachability) -----------------
    let mut live = vec![false; nodes.len()];
    if let Src::Node(root) = out_src {
        let mut stack = vec![root];
        while let Some(j) = stack.pop() {
            if live[j] {
                continue;
            }
            live[j] = true;
            for &a in &nodes[j].args {
                if let Src::Node(k) = a {
                    stack.push(k);
                }
            }
        }
    }

    // ---- 5. fusion grouping ---------------------------------------
    // A producer is absorbable into a group when *every* live consumer
    // of its value is already inside the group — single-use chains and
    // multi-use diamonds alike (an intermediate's scratchpad row can be
    // read by any number of later steps). The program's output node is
    // never absorbed: its value must land in a register.
    let out_node = match out_src {
        Src::Node(r) => Some(r),
        _ => None,
    };
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for i in 0..nodes.len() {
        if !live[i] {
            continue;
        }
        for &a in &nodes[i].args {
            if let Src::Node(j) = a {
                if !consumers[j].contains(&i) {
                    consumers[j].push(i);
                }
            }
        }
    }

    // groups[i]: the steps (node ids, ascending = evaluation order, i
    // last) node i would contribute if emitted; absorbed nodes are
    // never emitted standalone.
    let mut groups: Vec<Vec<usize>> = Vec::with_capacity(nodes.len());
    let mut absorbed = vec![false; nodes.len()];
    for i in 0..nodes.len() {
        let mut g: Vec<usize> = vec![i];
        if live[i] {
            // Fixed point: each round may close another consumer of a
            // shared value, making its producer absorbable in the next.
            loop {
                let mut grew = false;
                for j in (0..i).rev() {
                    if absorbed[j]
                        || !live[j]
                        || g.contains(&j)
                        || out_node == Some(j)
                        || nodes[j].ty.lanes != nodes[i].ty.lanes
                        || !consumers[j].iter().all(|c| g.contains(c))
                    {
                        continue;
                    }
                    // Tentatively absorb j's whole group; keep it only
                    // if the fused kernel stays within the step and
                    // external-operand budgets.
                    let mut cand = g.clone();
                    cand.extend(groups[j].iter().copied());
                    cand.sort_unstable();
                    cand.dedup();
                    if cand.len() <= MAX_STEPS && external_srcs(&cand, &nodes).len() <= MAX_OPERANDS
                    {
                        for &m in &groups[j] {
                            absorbed[m] = true;
                        }
                        g = cand;
                        grew = true;
                    }
                }
                if !grew {
                    break;
                }
            }
        }
        // Ascending node ids are dependency order (args always refer to
        // earlier nodes), with the root `i` last.
        g.sort_unstable();
        groups.push(g);
    }

    // ---- 6. emission + linear-scan register re-allocation ---------
    let roots: Vec<usize> = (0..nodes.len()).filter(|&i| live[i] && !absorbed[i]).collect();
    // Last use of each root, in emission order; the output is used
    // "after the end" — the same discipline as the linker.
    let mut last_use = vec![usize::MAX; nodes.len()];
    for (t, &r) in roots.iter().enumerate() {
        for s in external_srcs(&groups[r], &nodes) {
            if let Src::Node(j) = s {
                last_use[j] = t;
            }
        }
    }
    if let Src::Node(root) = out_src {
        last_use[root] = roots.len();
    }

    let mut phys_of: Vec<Option<u16>> = vec![None; nodes.len()];
    let mut free: Vec<u16> = Vec::new();
    let mut next_phys: u16 = 0;
    let mut new_code: Vec<LInst> = Vec::with_capacity(roots.len());
    for (t, &r) in roots.iter().enumerate() {
        let g = &groups[r];
        let ext = external_srcs(g, &nodes);
        let (kernel, args): (Kernel, Box<[Operand]>) = if g.len() == 1 {
            // Single instruction: unchanged whole-vector dispatch,
            // constants kept in the pool.
            let args = nodes[r].args.iter().map(|&a| operand_of(a, &phys_of)).collect();
            (Kernel::Op(nodes[r].sem), args)
        } else {
            // Fused chain: internal edges become scratchpad temps,
            // everything else (registers, inputs, pool constants) an
            // external operand.
            let steps = g
                .iter()
                .map(|&m| {
                    let n = &nodes[m];
                    let mut srcs = Vec::with_capacity(n.args.len());
                    let mut tys = Vec::with_capacity(n.args.len());
                    for &a in &n.args {
                        match a {
                            Src::Node(j) if g.contains(&j) => {
                                let local = g.iter().position(|&x| x == j).unwrap();
                                srcs.push(FSrc::Tmp(local as u16));
                                tys.push(nodes[j].ty.elem);
                            }
                            other => {
                                let k = ext.iter().position(|&x| x == other).unwrap();
                                srcs.push(FSrc::Arg(k as u16));
                                tys.push(match other {
                                    Src::Node(j) => nodes[j].ty.elem,
                                    Src::In(s) => inputs[s as usize].ty.elem,
                                    Src::Const(c) => consts[c as usize].ty().elem,
                                });
                            }
                        }
                    }
                    let eval = fpir_isa::sem_slice_fn(n.sem, &tys, n.ty.elem);
                    FStep {
                        op: n.op,
                        sem: n.sem,
                        ty: n.ty,
                        srcs: srcs.into_boxed_slice(),
                        tys: tys.into_boxed_slice(),
                        eval,
                        pos: n.pos,
                        reg: n.reg,
                    }
                })
                .collect::<Vec<_>>()
                .into_boxed_slice();
            // External operands that are pool constants are splats by
            // the pool's interning invariant; capture their scalar so
            // compiled passes can keep it in a register instead of
            // streaming a constant row.
            let arg_splat: Vec<Option<i128>> = ext
                .iter()
                .map(|&s| match s {
                    Src::Const(c) => {
                        let v = &consts[c as usize];
                        let c0 = v.lane(0);
                        v.lanes().iter().all(|&x| x == c0).then_some(c0)
                    }
                    _ => None,
                })
                .collect();
            let passes = build_passes(&steps, &arg_splat);
            let args = ext.iter().map(|&a| operand_of(a, &phys_of)).collect();
            (Kernel::Fused(Box::new(FusedKernel { steps, passes })), args)
        };
        // Allocate the destination BEFORE freeing dying operands — the
        // engine reclaims the destination's buffer before reading
        // operands, so the two must never share a register.
        let dst = free.pop().unwrap_or_else(|| {
            let d = next_phys;
            next_phys += 1;
            d
        });
        phys_of[r] = Some(dst);
        for s in ext {
            if let Src::Node(j) = s {
                if last_use[j] == t {
                    if let Some(ph) = phys_of[j].take() {
                        free.push(ph);
                    }
                }
            }
        }
        new_code.push(LInst {
            op: nodes[r].op,
            kernel,
            ty: nodes[r].ty,
            dst,
            args,
            pos: nodes[r].pos,
            reg: nodes[r].reg,
            dst_dead: false,
        });
    }

    let new_output = match out_src {
        Src::Node(r) => OutLoc::Reg(phys_of[r].expect("the output register stays live")),
        Src::In(s) => OutLoc::In(s),
        Src::Const(c) => OutLoc::Const(c),
    };

    // Compact the constant pool down to referenced entries (folding may
    // have appended, baking may have orphaned).
    let mut used = vec![false; consts.len()];
    for inst in &new_code {
        for a in inst.args.iter() {
            if let Operand::Const(c) = a {
                used[*c as usize] = true;
            }
        }
    }
    if let OutLoc::Const(c) = new_output {
        used[c as usize] = true;
    }
    let mut remap = vec![0u16; consts.len()];
    let mut new_consts = Vec::new();
    for (c, v) in consts.into_iter().enumerate() {
        if used[c] {
            remap[c] = new_consts.len() as u16;
            new_consts.push(v);
        }
    }
    for inst in &mut new_code {
        for a in inst.args.iter_mut() {
            if let Operand::Const(c) = a {
                *c = remap[*c as usize];
            }
        }
    }
    let new_output = match new_output {
        OutLoc::Const(c) => OutLoc::Const(remap[c as usize]),
        other => other,
    };

    let fused = Executable {
        isa,
        inputs,
        consts: new_consts,
        code: new_code,
        phys_regs: next_phys as usize,
        output: new_output,
        zero,
    };
    // Debug builds audit every artifact leaving the fuser, exactly as
    // the linker audits its own output: a fuser bug is an internal
    // invariant violation, never a user-visible difference.
    #[cfg(debug_assertions)]
    if let Err(v) = crate::verify::verify_executable(&fused) {
        panic!("fusion produced an unverifiable executable: {v}\n{fused}");
    }
    fused
}

/// Derive a fused kernel's execution schedule from its audited step
/// list: one compiled strip loop per step, except that a step whose
/// operand is a *single-use* producer may absorb that producer into the
/// same loop ([`fpir_isa::sem_slice_fn_pair`], which decides which pairs
/// merge) — the intermediate then lives in a register for the duration
/// of a lane instead of round-tripping through a scratch row. Pair
/// merging is one level deep (a merged pass cannot itself be absorbed),
/// greedy in step order, and falls back to the step's own compiled
/// kernel whenever the composer declines the pair. Unmerged passes with
/// a splat-constant operand get the constant baked in as a captured
/// scalar instead ([`fpir_isa::sem_slice_fn_splat`]).
fn build_passes(steps: &[FStep], arg_splat: &[Option<i128>]) -> Box<[FPass]> {
    let n = steps.len();
    let mut uses = vec![0usize; n];
    for step in steps {
        for src in step.srcs.iter() {
            if let FSrc::Tmp(t) = *src {
                uses[t as usize] += 1;
            }
        }
    }
    // Consumer j absorbs producer t at operand k.
    let mut absorbs: Vec<Option<(usize, usize, fpir_isa::SemSliceFn)>> = Vec::new();
    absorbs.resize_with(n, || None);
    let mut absorbed = vec![false; n];
    for j in 0..n {
        for (k, src) in steps[j].srcs.iter().enumerate() {
            let FSrc::Tmp(t) = *src else { continue };
            let t = t as usize;
            // The producer must be single-use and not already merged
            // either way; the composer decides whether the pair merges.
            if uses[t] != 1 || absorbed[t] || absorbs[t].is_some() {
                continue;
            }
            // A splat-constant operand on either side is worth more as
            // a captured scalar (the merged loop would stream the
            // constant row and lose its register): leave both steps to
            // the splat-capture path below.
            let has_splat = |s: &FStep| {
                s.srcs.iter().any(|&x| matches!(x, FSrc::Arg(a) if arg_splat[a as usize].is_some()))
            };
            if has_splat(&steps[t]) || has_splat(&steps[j]) {
                continue;
            }
            let pair = fpir_isa::sem_slice_fn_pair(
                steps[t].sem,
                &steps[t].tys,
                steps[t].ty.elem,
                steps[j].sem,
                &steps[j].tys,
                steps[j].ty.elem,
                k,
            );
            if let Some(eval) = pair {
                absorbs[j] = Some((t, k, eval));
                absorbed[t] = true;
                break;
            }
        }
    }
    let mut passes = Vec::with_capacity(n);
    for (j, step) in steps.iter().enumerate() {
        if absorbed[j] {
            continue;
        }
        passes.push(match absorbs[j].take() {
            Some((t, k, eval)) => {
                let srcs = steps[t]
                    .srcs
                    .iter()
                    .chain(step.srcs.iter().enumerate().filter(|&(i, _)| i != k).map(|(_, s)| s))
                    .copied()
                    .collect();
                FPass { last: j as u16, absorbed: Some(t as u16), srcs, eval }
            }
            None => {
                // A splat-constant operand becomes a captured scalar:
                // the pass stages the same audited sources (the
                // verifier checks them verbatim against the step), but
                // the compiled loop never reads the constant row.
                let mut eval = step.eval.clone();
                for (k, s) in step.srcs.iter().enumerate() {
                    let FSrc::Arg(a) = *s else { continue };
                    let Some(c) = arg_splat[a as usize] else { continue };
                    if let Some(e) =
                        fpir_isa::sem_slice_fn_splat(step.sem, &step.tys, step.ty.elem, k, c)
                    {
                        eval = e;
                        break;
                    }
                }
                FPass { last: j as u16, absorbed: None, srcs: step.srcs.clone(), eval }
            }
        });
    }
    passes.into_boxed_slice()
}

/// The distinct external sources a fused group reads: everything that is
/// not an internal edge (inside the group) — registers, input slots, and
/// pool constants alike — in first-use order.
fn external_srcs(group: &[usize], nodes: &[Node]) -> Vec<Src> {
    let mut ext: Vec<Src> = Vec::new();
    for &m in group {
        for &a in &nodes[m].args {
            match a {
                Src::Node(j) if group.contains(&j) => {}
                other => {
                    if !ext.contains(&other) {
                        ext.push(other);
                    }
                }
            }
        }
    }
    ext
}

fn operand_of(s: Src, phys_of: &[Option<u16>]) -> Operand {
    match s {
        Src::Node(j) => Operand::Reg(phys_of[j].expect("external operands are defined before use")),
        Src::In(k) => Operand::In(k),
        Src::Const(c) => Operand::Const(c),
    }
}

/// Intern a splat value into the pool, deduplicating by type and lane
/// value — the same discipline as the linker's pool construction.
fn intern_const(consts: &mut Vec<Value>, v: Value) -> u16 {
    match consts.iter().position(|c| c.ty() == v.ty() && c.lane(0) == v.lane(0)) {
        Some(c) => c as u16,
        None => {
            consts.push(v);
            (consts.len() - 1) as u16
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{emit, Program};
    use crate::vm::execute;
    use fpir::build;
    use fpir::interp::Env;
    use fpir::types::{ScalarType as S, VectorType as V};
    use fpir::{Isa, RcExpr};
    use fpir_isa::{legalize, target};

    fn both(e: &RcExpr, isa: Isa) -> (Program, Executable, Executable) {
        let t = target(isa);
        let p = emit(&legalize(e, t).unwrap(), t).unwrap();
        let plain = Executable::link_with(&p, t, &ExecConfig::REFERENCE).unwrap();
        let fused = Executable::link_with(&p, t, &ExecConfig::FAST).unwrap();
        (p, plain, fused)
    }

    /// A sharpening-filter-style chain: widening arithmetic, a constant,
    /// and a saturating narrow — the shape the fuser exists for.
    fn chain_expr(t: V) -> RcExpr {
        build::saturating_cast(
            S::U8,
            build::widening_add(
                build::rounding_halving_add(build::var("a", t), build::var("b", t)),
                build::constant(3, t),
            ),
        )
    }

    #[test]
    fn fused_matches_unfused_and_reference_everywhere() {
        let t = V::new(S::U8, 16);
        let exprs = [
            chain_expr(t),
            build::rounding_halving_add(build::var("a", t), build::var("b", t)),
            build::var("a", t),
            build::constant(7, t),
            build::absd(
                build::add(build::var("a", t), build::constant(1, t)),
                build::mul(build::var("b", t), build::constant(2, t)),
            ),
        ];
        let mut state: i128 = 99;
        for e in &exprs {
            for isa in fpir::machine::ALL_ISAS {
                let (p, plain, fused) = both(e, isa);
                let mk = |seed: i128| {
                    Value::new(t, (0..16).map(|i| (seed * 31 + i * 7) % 256).collect())
                };
                state += 1;
                let env = Env::new().bind("a", mk(state)).bind("b", mk(state + 5));
                let want = execute(&p, &env, target(isa)).unwrap();
                let mut cp = plain.new_ctx();
                let mut cf = fused.new_ctx();
                assert_eq!(plain.run(&mut cp, &env).unwrap(), want, "{isa} plain");
                assert_eq!(fused.run(&mut cf, &env).unwrap(), want, "{isa} fused");
            }
        }
    }

    #[test]
    fn chains_collapse_into_superinstructions() {
        let t = V::new(S::U8, 16);
        for isa in fpir::machine::ALL_ISAS {
            let (_, plain, fused) = both(&chain_expr(t), isa);
            assert!(
                fused.op_count() < plain.op_count(),
                "{isa}: fused {} dispatches vs plain {}\n{fused}",
                fused.op_count(),
                plain.op_count()
            );
            assert!(fused.fused_count() >= 1, "{isa}:\n{fused}");
        }
    }

    #[test]
    fn peak_regs_only_shrinks() {
        let t = V::new(S::U8, 16);
        let exprs = [
            chain_expr(t),
            build::add(
                build::mul(build::var("a", t), build::var("b", t)),
                build::mul(build::var("c", t), build::var("d", t)),
            ),
        ];
        for e in &exprs {
            for isa in fpir::machine::ALL_ISAS {
                let (_, plain, fused) = both(e, isa);
                assert!(
                    fused.peak_regs() <= plain.peak_regs(),
                    "{isa}: {} regs after fusion vs {}",
                    fused.peak_regs(),
                    plain.peak_regs()
                );
            }
        }
    }

    #[test]
    fn all_constant_programs_fold_to_the_pool() {
        let t = V::new(S::U8, 16);
        let e = build::add(build::constant(3, t), build::constant(4, t));
        let (_, plain, fused) = both(&e, Isa::ArmNeon);
        assert!(plain.op_count() >= 1);
        assert_eq!(fused.op_count(), 0, "constants fold away:\n{fused}");
        let env = Env::new();
        let mut ctx = fused.new_ctx();
        assert_eq!(fused.run(&mut ctx, &env).unwrap(), Value::splat(7, t));
    }

    #[test]
    fn optimize_is_idempotent() {
        let t = V::new(S::U8, 16);
        let (_, _, fused) = both(&chain_expr(t), Isa::HexagonHvx);
        let again = optimize(fused.clone());
        assert_eq!(again.render(), fused.render());
    }

    #[test]
    fn fused_binding_errors_are_identical() {
        let t = V::new(S::U8, 16);
        let (p, plain, fused) = both(&chain_expr(t), Isa::ArmNeon);
        // Unbound input, then a mistyped binding: the fused engine must
        // blame the same load (name, position, register) as the plain
        // engine and the reference VM.
        let envs = [
            Env::new().bind("a", Value::splat(1, t)),
            Env::new().bind("a", Value::splat(1, t)).bind("b", Value::splat(1, V::new(S::U16, 16))),
        ];
        for env in &envs {
            let want = execute(&p, env, target(Isa::ArmNeon)).unwrap_err();
            let mut cp = plain.new_ctx();
            let mut cf = fused.new_ctx();
            let ep = plain.run(&mut cp, env).unwrap_err();
            let ef = fused.run(&mut cf, env).unwrap_err();
            assert_eq!(format!("{want:?}"), format!("{ep:?}"));
            assert_eq!(format!("{want:?}"), format!("{ef:?}"));
        }
    }

    #[test]
    fn fused_steady_state_runs_are_allocation_free() {
        // The fused hot path must preserve PR 4's zero-allocation
        // guarantee: intermediates live in stack scalars, the result in
        // a recycled buffer.
        let t = V::new(S::U8, 64);
        let e = chain_expr(t);
        let (_, _, fused) = both(&e, Isa::ArmNeon);
        let env = Env::new().bind("a", Value::splat(7, t)).bind("b", Value::splat(9, t));
        let mut ctx = fused.new_ctx();
        let out = fused.run(&mut ctx, &env).unwrap();
        ctx.recycle(out);
        let primed = ctx.buffer_allocs();
        for _ in 0..100 {
            let out = fused.run(&mut ctx, &env).unwrap();
            ctx.recycle(out);
        }
        assert_eq!(
            ctx.buffer_allocs(),
            primed,
            "steady-state fused invocations must not allocate lane buffers"
        );
        assert_eq!(ctx.invocations(), 101);
    }
}
