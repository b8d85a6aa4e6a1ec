//! Linear machine programs.
//!
//! A fully-lowered expression (machine nodes over `Var`/`Const` leaves) is
//! *emitted* into a linear, register-based program — the form the cycle
//! model prices and the VM executes. Emission is value numbering over the
//! expression DAG: each unique node is visited once, and structurally
//! equal subtrees share one register, so the work is linear in unique
//! nodes however large the expression is as a tree. [`Program::render`]
//! prints the assembly-like listings used by the Figure 3 report.

use fpir::expr::{Expr, ExprKind, RcExpr};
use fpir::identity::{FnvMap, IdMap};
use fpir::types::VectorType;
use fpir::{Isa, MachOp};
use fpir_isa::Target;
use std::collections::hash_map::Entry;
use std::fmt;

/// A virtual register id.
pub type Reg = usize;

/// One program instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PInst {
    /// Destination register.
    pub dst: Reg,
    /// Result type.
    pub ty: VectorType,
    /// What executes.
    pub kind: PKind,
}

/// Instruction payload.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PKind {
    /// Stream an input vector from memory.
    Load {
        /// Input name.
        name: String,
    },
    /// Broadcast a constant (loop-invariant; free in the cycle model).
    Splat {
        /// The constant.
        value: i128,
    },
    /// A machine operation.
    Op {
        /// Opcode.
        op: MachOp,
        /// Source registers.
        args: Vec<Reg>,
    },
}

/// A linear machine program for one target.
#[derive(Debug, Clone)]
pub struct Program {
    /// The target ISA.
    pub isa: Isa,
    insts: Vec<PInst>,
    output: Reg,
}

impl Program {
    /// The instructions, in execution order.
    pub fn insts(&self) -> &[PInst] {
        &self.insts
    }

    /// The register holding the result.
    pub fn output(&self) -> Reg {
        self.output
    }

    /// Count of `Op` instructions (loads and splats excluded).
    pub fn op_count(&self) -> usize {
        self.insts.iter().filter(|i| matches!(i.kind, PKind::Op { .. })).count()
    }

    /// An assembly-like listing (Intel order: `instr dst, operands`).
    pub fn render(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        for inst in &self.insts {
            // Writing into a `String` cannot fail.
            let _ = match &inst.kind {
                PKind::Load { name } => {
                    writeln!(out, "load      v{}.{}, [{}]", inst.dst, inst.ty, name)
                }
                PKind::Splat { value } => {
                    writeln!(out, "splat     v{}.{}, #{}", inst.dst, inst.ty, value)
                }
                PKind::Op { op, args } => {
                    let _ = write!(out, "{:<9} v{}.{}, ", op.name, inst.dst, inst.ty);
                    for (i, r) in args.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        let _ = write!(out, "v{r}");
                    }
                    writeln!(out)
                }
            };
        }
        out
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Emission failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmitError {
    /// What was wrong.
    pub what: String,
}

impl fmt::Display for EmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot emit: {}", self.what)
    }
}

impl std::error::Error for EmitError {}

/// Emit a fully-lowered expression into a linear program with CSE.
///
/// CSE is value numbering over the DAG. A node seen before (by
/// [`Expr::ptr_id`]) returns its register at once. Otherwise its children
/// are emitted first and the node's type and payload — whose operands are
/// already canonical registers — are looked up, so structurally equal
/// subtrees share one register even when they are separate allocations.
/// Each instruction is pushed at its value's first post-order occurrence.
/// The work is linear in unique nodes, not in tree size.
///
/// # Errors
///
/// Fails if the expression still contains non-machine interior nodes
/// (run `fpir_isa::legalize` first) or an instruction violates its
/// table definition.
pub fn emit(expr: &RcExpr, target: &Target) -> Result<Program, EmitError> {
    let mut e =
        Emitter { target, insts: Vec::new(), seen: IdMap::default(), numbers: FnvMap::default() };
    let output = e.emit(expr)?;
    Ok(Program { isa: target.isa, insts: e.insts, output })
}

struct Emitter<'t> {
    target: &'t Target,
    insts: Vec<PInst>,
    /// The register of every node emitted so far, by allocation identity.
    /// The caller's borrow of the root keeps every node alive for the
    /// call, so an id cannot be recycled.
    seen: IdMap<Reg>,
    /// The register of every value number: a type and a payload over
    /// canonical operand registers.
    numbers: FnvMap<(VectorType, PKind), Reg>,
}

impl Emitter<'_> {
    fn emit(&mut self, expr: &RcExpr) -> Result<Reg, EmitError> {
        let id = Expr::ptr_id(expr);
        if let Some(&r) = self.seen.get(&id) {
            return Ok(r);
        }
        let kind = payload(self.target, expr, &mut |a| self.emit(a))?;
        let dst = match self.numbers.entry((expr.ty(), kind)) {
            Entry::Occupied(o) => *o.get(),
            Entry::Vacant(v) => {
                let dst = self.insts.len();
                let (ty, kind) = v.key().clone();
                self.insts.push(PInst { dst, ty, kind });
                *v.insert(dst)
            }
        };
        self.seen.insert(id, dst);
        Ok(dst)
    }
}

/// Check one node against the target's table and build its payload,
/// emitting its operands (left to right) through `operand`.
fn payload(
    target: &Target,
    expr: &RcExpr,
    operand: &mut dyn FnMut(&RcExpr) -> Result<Reg, EmitError>,
) -> Result<PKind, EmitError> {
    let node = match expr.kind() {
        ExprKind::Var(name) => return Ok(PKind::Load { name: name.clone() }),
        ExprKind::Const(v) => return Ok(PKind::Splat { value: *v }),
        ExprKind::Mach(op, args) => {
            let def = target
                .def(*op)
                .ok_or_else(|| EmitError { what: format!("unknown opcode {op}") })?;
            if args.len() != def.sem.arity() {
                return Err(EmitError {
                    what: format!("{op} takes {} operands, got {}", def.sem.arity(), args.len()),
                });
            }
            for &i in def.needs_const {
                if args[i].as_const().is_none() {
                    return Err(EmitError {
                        what: format!("{op} operand {i} must be an immediate"),
                    });
                }
            }
            let regs = args.iter().map(operand).collect::<Result<Vec<_>, _>>()?;
            return Ok(PKind::Op { op: *op, args: regs });
        }
        ExprKind::Bin(op, ..) => op.symbol(),
        ExprKind::Cmp(op, ..) => op.symbol(),
        ExprKind::Select(..) => "select",
        ExprKind::Cast(_) => "cast",
        ExprKind::Reinterpret(_) => "reinterpret",
        ExprKind::Fpir(op, _) => op.name(),
    };
    // Name the node, never print it: the printer and the derived `Debug`
    // walk shared subtrees as a tree.
    Err(EmitError { what: format!("unlowered node `{node}` of type {}", expr.ty()) })
}

/// The cycle model: cost units for one evaluation of the program over its
/// logical vectors.
///
/// * `Op` costs its table cost × the native registers it touches (the
///   widest of its result and operands);
/// * `Load` costs [`LOAD_COST`] per native register streamed;
/// * `Splat` is loop-invariant and free;
/// * zero-cost aliases (reinterprets) are free.
pub fn cycle_cost(p: &Program, target: &Target) -> u64 {
    assert_eq!(p.isa, target.isa, "program/target mismatch");
    let mut total = 0u64;
    for inst in &p.insts {
        match &inst.kind {
            PKind::Load { .. } => total += LOAD_COST * target.reg_factor(inst.ty),
            PKind::Splat { .. } => {}
            PKind::Op { op, args } => {
                let def = target.def(*op).expect("emitted ops are known");
                let rf = args
                    .iter()
                    .map(|&r| target.reg_factor(p.insts[r].ty))
                    .chain(std::iter::once(target.reg_factor(inst.ty)))
                    .max()
                    .unwrap_or(1);
                total += def.cost as u64 * rf;
            }
        }
    }
    total
}

/// Cost units charged per native register of streamed input.
pub const LOAD_COST: u64 = 2;

#[cfg(test)]
mod tests {
    use super::*;
    use fpir::build;
    use fpir::rand_expr::{gen_expr, GenConfig};
    use fpir::types::{ScalarType as S, VectorType as V};
    use fpir_isa::{legalize, target};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn lower(e: &RcExpr, isa: Isa) -> Program {
        let t = target(isa);
        let m = legalize(e, t).unwrap();
        emit(&m, t).unwrap()
    }

    /// The reference emitter: CSE through a map keyed on whole subtrees,
    /// hashed and compared structurally — a tree walk per lookup, so
    /// exponential on deeply shared DAGs. [`emit`] must match it exactly.
    fn emit_structural(expr: &RcExpr, target: &Target) -> Result<Program, EmitError> {
        fn go(
            e: &RcExpr,
            target: &Target,
            insts: &mut Vec<PInst>,
            cse: &mut HashMap<RcExpr, Reg>,
        ) -> Result<Reg, EmitError> {
            if let Some(&r) = cse.get(e) {
                return Ok(r);
            }
            let kind = payload(target, e, &mut |a| go(a, target, insts, cse))?;
            let dst = insts.len();
            insts.push(PInst { dst, ty: e.ty(), kind });
            cse.insert(e.clone(), dst);
            Ok(dst)
        }
        let mut insts = Vec::new();
        let output = go(expr, target, &mut insts, &mut HashMap::new())?;
        Ok(Program { isa: target.isa, insts, output })
    }

    /// What the rest of the pipeline sees of a program: its listing,
    /// output register, price and FAST-linked executable.
    fn observed(p: &Program, t: &Target) -> (String, Reg, u64, String) {
        let exe = crate::Executable::link_with(p, t, &crate::ExecConfig::FAST).unwrap();
        (p.render(), p.output(), cycle_cost(p, t), exe.render())
    }

    fn assert_matches_oracle(lowered: &RcExpr, t: &Target, what: &str) {
        match (emit(lowered, t), emit_structural(lowered, t)) {
            (Ok(got), Ok(want)) => assert_eq!(observed(&got, t), observed(&want, t), "{what}"),
            (got, want) => assert_eq!(got.err(), want.err(), "{what}"),
        }
    }

    #[test]
    fn cse_shares_subexpressions() {
        let t = V::new(S::U8, 16);
        let (a, b) = (build::var("a", t), build::var("b", t));
        let sum = build::widening_add(a, b);
        let e = build::add(sum.clone(), sum);
        let p = lower(&e, Isa::ArmNeon);
        // loads a, b; one uaddl; one add = 4 instructions.
        assert_eq!(p.insts().len(), 4);
        assert_eq!(p.op_count(), 2);
    }

    #[test]
    fn cse_shares_equal_subtrees_allocated_apart() {
        let t = V::new(S::U8, 16);
        let sum = || build::widening_add(build::var("a", t), build::var("b", t));
        let (l, r) = (sum(), sum());
        assert!(!std::sync::Arc::ptr_eq(&l, &r));
        let e = build::add(l, r);
        let isa = Isa::ArmNeon;
        let p = lower(&e, isa);
        assert_eq!(p.insts().len(), 4, "{}", p.render());
        let PKind::Op { args, .. } = &p.insts()[3].kind else { panic!("{}", p.render()) };
        assert_eq!(args[0], args[1], "both operands share one register");
        assert_matches_oracle(&legalize(&e, target(isa)).unwrap(), target(isa), "apart");
    }

    #[test]
    fn unlowered_nodes_are_rejected() {
        let t = V::new(S::U8, 16);
        let e = build::add(build::var("a", t), build::var("b", t));
        assert!(emit(&e, target(Isa::ArmNeon)).is_err());
    }

    #[test]
    fn unlowered_errors_name_the_node_not_the_dag() {
        let t = V::new(S::U8, 16);
        let mut e = build::add(build::var("a", t), build::var("b", t));
        for _ in 0..64 {
            e = build::add(e.clone(), e); // tree size 2^64
        }
        let err = emit(&e, target(Isa::ArmNeon)).unwrap_err().to_string();
        assert_eq!(err, "cannot emit: unlowered node `+` of type u8x16");
        assert!(err.len() < 256);
    }

    #[test]
    fn emit_matches_the_oracle_on_every_workload_artifact() {
        use fpir_workloads::{all_workloads, extra_workloads, unrolled_workloads};
        let mut artifacts = 0;
        for wl in all_workloads().into_iter().chain(unrolled_workloads()).chain(extra_workloads()) {
            for isa in fpir::machine::ALL_ISAS {
                let pf = pitchfork::Pitchfork::new(isa);
                let art = pitchfork::compile_to_executable(&pf, &wl.pipeline.expr).unwrap();
                let t = target(isa);
                let want = observed(&emit_structural(&art.lowered, t).unwrap(), t);
                let got =
                    (art.program.render(), art.program.output(), art.cycles, art.exe.render());
                assert_eq!(got, want, "{}/{isa}", wl.name());
                artifacts += 1;
            }
        }
        assert_eq!(artifacts, 100);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// On the random expressions of the compile properties, legalized
        /// directly or compiled by Pitchfork, `emit` matches the oracle.
        #[test]
        fn emit_matches_the_oracle_on_random_expressions(seed in any::<u64>(), ti in 0usize..6) {
            let elem = [S::U8, S::U16, S::U32, S::I8, S::I16, S::I32][ti];
            let mut rng = StdRng::seed_from_u64(seed);
            let e = gen_expr(&mut rng, &GenConfig { lanes: 8, ..GenConfig::default() }, elem);
            for isa in fpir::machine::ALL_ISAS {
                let t = target(isa);
                if let Ok(m) = legalize(&e, t) {
                    assert_matches_oracle(&m, t, &format!("legalized {e} on {isa}"));
                }
                if let Ok(out) = pitchfork::Pitchfork::new(isa).compile(&e) {
                    assert_matches_oracle(&out.lowered, t, &format!("compiled {e} on {isa}"));
                }
            }
        }
    }

    #[test]
    fn cycle_cost_charges_register_factors() {
        let isa = Isa::ArmNeon;
        let t8 = V::new(S::U8, 16);
        let t16 = V::new(S::U16, 16);
        let narrow = lower(&build::add(build::var("a", t8), build::var("b", t8)), isa);
        let wide = lower(&build::add(build::var("a", t16), build::var("b", t16)), isa);
        let (cn, cw) = (cycle_cost(&narrow, target(isa)), cycle_cost(&wide, target(isa)));
        assert_eq!(cw, 2 * cn, "u16x16 spans two Neon registers");
    }

    #[test]
    fn splats_are_free() {
        let t = V::new(S::U8, 16);
        let e = build::add(build::var("a", t), build::constant(3, t));
        let p = lower(&e, Isa::ArmNeon);
        let with_const = cycle_cost(&p, target(Isa::ArmNeon));
        let e = build::add(build::var("a", t), build::var("b", t));
        let p = lower(&e, Isa::ArmNeon);
        let with_var = cycle_cost(&p, target(Isa::ArmNeon));
        assert!(with_const < with_var);
    }

    #[test]
    fn render_is_readable() {
        let t = V::new(S::U8, 16);
        let e = build::widening_add(build::var("a", t), build::var("b", t));
        let p = lower(&e, Isa::ArmNeon);
        let listing = p.render();
        assert!(listing.contains("uaddl"), "{listing}");
        assert!(listing.contains("load"), "{listing}");
    }

    /// A REFERENCE link keeps an instruction nothing reads, runs it, and
    /// frees its register at once, so the next instruction reuses it. No
    /// emitted program has such an instruction before its last one, so
    /// this one is built by hand: `a + b` twice, the first copy dead.
    #[test]
    fn reference_link_frees_a_dead_result_at_once() {
        use crate::{execute, ExecConfig, Executable};
        use fpir::interp::{Env, Value};
        let t = V::new(S::U8, 16);
        let p = lower(&build::add(build::var("a", t), build::var("b", t)), Isa::ArmNeon);
        let mut insts = p.insts.clone();
        insts.push(PInst { dst: 3, ..insts[2].clone() });
        let p = Program { insts, output: 3, ..p };
        let tgt = target(Isa::ArmNeon);
        let env = Env::new().bind("a", Value::splat(7, t)).bind("b", Value::splat(9, t));
        let want = execute(&p, &env, tgt).unwrap();
        for (cfg, ops) in [(ExecConfig::REFERENCE, 2), (ExecConfig::FAST, 1)] {
            let exe = Executable::link_with(&p, tgt, &cfg).unwrap();
            assert_eq!((exe.op_count(), exe.peak_regs()), (ops, 1), "{cfg:?}\n{exe}");
            assert_eq!(exe.run(&mut exe.new_ctx(), &env).unwrap(), want, "{cfg:?}");
        }
    }

    /// `umlal` with its accumulator at the operands' width breaks the
    /// 2× rule. The reference VM raises the error when it reaches the
    /// instruction; both links raise the same error when they link it,
    /// in every build profile.
    #[test]
    fn both_links_reject_a_malformed_widening_mul_acc_like_the_vm() {
        use crate::exec::Executable;
        use crate::fuse::ExecConfig;
        use crate::vm::{execute, ExecError};
        use fpir::interp::{Env, Value};
        let t = V::new(S::U8, 16);
        let load = |dst, name: &str| PInst { dst, ty: t, kind: PKind::Load { name: name.into() } };
        let umlal = PKind::Op { op: fpir_isa::arm::UMLAL, args: vec![0, 1, 2] };
        let insts =
            vec![load(0, "acc"), load(1, "a"), load(2, "b"), PInst { dst: 3, ty: t, kind: umlal }];
        let p = Program { isa: Isa::ArmNeon, insts, output: 3 };
        let tgt = target(Isa::ArmNeon);
        let env = ["acc", "a", "b"]
            .into_iter()
            .fold(Env::new(), |env, x| env.bind(x, Value::splat(1, t)));
        let want = execute(&p, &env, tgt).unwrap_err();
        let ExecError::Sem { pos: 3, reg: 3, what, .. } = &want else { panic!("{want:?}") };
        assert!(what.contains("2x the operand width (8 vs 8)"), "{what}");
        for cfg in [ExecConfig::REFERENCE, ExecConfig::FAST] {
            let got = Executable::link_with(&p, tgt, &cfg).unwrap_err();
            assert_eq!(got, want, "{cfg:?}");
        }
    }

    /// Pinned REFERENCE-link output: a digest over
    /// [`crate::exec::tests::canonical`] of the plain link of every
    /// workload artifact (the
    /// paper, extra and unrolled kernels on all four ISAs) and of
    /// fixed-seed random expressions, legalized directly and compiled by
    /// Pitchfork. Each program with more than one `Op` is linked a second
    /// time returning its first `Op`, so every later instruction's result
    /// is dead: the only programs on which a dead-result register is
    /// freed at once. A change to slot or pool order, register
    /// allocation, steps or splat capture fails here. When a change is *meant*
    /// to alter plain links, recompute the constant with `cargo test -p
    /// fpir-sim plain_artifacts_match -- --nocapture` and say why.
    #[test]
    fn plain_artifacts_match_the_pinned_digest() {
        use crate::{ExecConfig, Executable};
        use fpir_workloads::{all_workloads, extra_workloads, unrolled_workloads};
        use std::hash::Hasher;
        const PINNED_CANONICAL: u64 = 0x362e_48a3_957b_f491;
        let mut h = fpir::identity::FnvHasher::default();
        let (mut artifacts, mut dead_tails) = (0, 0);
        let mut fold = |what: &str, p: &Program, t: &Target| {
            let mut variants = vec![(what.to_string(), p.clone())];
            let first = p.insts.iter().position(|i| matches!(i.kind, PKind::Op { .. }));
            if let Some(first) = first.filter(|_| p.op_count() > 1) {
                variants
                    .push((format!("{what} dead tail"), Program { output: first, ..p.clone() }));
                dead_tails += 1;
            }
            for (what, p) in variants {
                h.write(what.as_bytes());
                match Executable::link_with(&p, t, &ExecConfig::REFERENCE) {
                    Ok(exe) => h.write(crate::exec::tests::canonical(&exe).as_bytes()),
                    Err(err) => h.write(format!("error: {err}").as_bytes()),
                }
                h.write(b"\n");
            }
        };
        for isa in fpir::machine::ALL_ISAS {
            let pf = pitchfork::Pitchfork::new(isa);
            let t = target(isa);
            for wl in
                all_workloads().into_iter().chain(extra_workloads()).chain(unrolled_workloads())
            {
                let lowered = pf.compile(&wl.pipeline.expr).unwrap().lowered;
                fold(&format!("{}/{isa}", wl.name()), &emit(&lowered, t).unwrap(), t);
                artifacts += 1;
            }
            for (ti, elem) in [S::U8, S::U16, S::U32, S::I8, S::I16, S::I32].into_iter().enumerate()
            {
                for seed in 0..64 {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let e =
                        gen_expr(&mut rng, &GenConfig { lanes: 8, ..GenConfig::default() }, elem);
                    let lowered = [legalize(&e, t).ok(), pf.compile(&e).ok().map(|c| c.lowered)];
                    for (li, m) in lowered.iter().enumerate() {
                        let Some(m) = m else { continue };
                        fold(&format!("gen {ti} {seed} {li}/{isa}"), &emit(m, t).unwrap(), t);
                    }
                }
            }
        }
        assert_eq!((artifacts, dead_tails), (100, 1560));
        let h = h.finish();
        println!("plain digest: {h:#018x}, {dead_tails} dead tails");
        assert_eq!(h, PINNED_CANONICAL, "REFERENCE-linked artifacts changed: digest {h:#018x}");
    }

    #[test]
    fn render_listing_is_exact() {
        let t = V::new(S::U8, 16);
        let op =
            |name, code, args| PKind::Op { op: MachOp { isa: Isa::ArmNeon, code, name }, args };
        let kinds = [
            PKind::Load { name: "a_u8".into() },
            PKind::Splat { value: -3 },
            op("uqadd", 1, vec![0, 1]),
            op("nullary", 2, vec![]),
            op("a_long_mnemonic", 3, vec![2]),
            op("mla", 4, vec![0, 1, 2]),
        ];
        let insts = kinds.into_iter().enumerate().map(|(dst, kind)| PInst { dst, ty: t, kind });
        let p = Program { isa: Isa::ArmNeon, insts: insts.collect(), output: 5 };
        // An op without operands keeps the trailing `, ` of the listing.
        assert_eq!(
            p.render(),
            "load      v0.u8x16, [a_u8]\n\
             splat     v1.u8x16, #-3\n\
             uqadd     v2.u8x16, v0, v1\n\
             nullary   v3.u8x16, \n\
             a_long_mnemonic v4.u8x16, v2\n\
             mla       v5.u8x16, v0, v1, v2\n"
        );
    }
}
