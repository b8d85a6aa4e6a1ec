//! The target-specific lowering TRSs (§3.3).
//!
//! Each backend contributes rules in the paper's five classes:
//!
//! * **direct mappings** live in `fpir-isa`'s legalizer (one table row per
//!   instruction — the `n` of the `k + n + 1` argument), so the rule sets
//!   here hold only what needs pattern context;
//! * **fused mappings** combine several FPIR/integer nodes into one
//!   instruction (`umlal`, `vmpa.acc`, `udot`/`vrmpy`, `vpmaddwd`);
//! * **compound instructions** implement FPIR ops a target lacks with a
//!   short clever sequence (x86's `vpsubus`-based `absd`, the
//!   `vpavg`-minus-correction halving add);
//! * **predicated rules** fire only under proven bounds (`vpackuswb` /
//!   `vsat` when a `u16` value fits `i16` — Figure 3(c));
//! * **specific constants** (`mul_shr(x, y, 16) -> vpmulhw`,
//!   `rounding_mul_shr(x, y, 15) -> sqrdmulh`).
//!
//! Rules fire under the target cost model, so every application strictly
//! reduces estimated cycles; whatever remains afterwards is finished by
//! the legalizer's direct mappings and generic fallback.

use fpir::expr::FpirOp;
use fpir::types::ScalarType;
use fpir::Isa;
use fpir_isa::{arm, hvx, rvv, x86};
use fpir_trs::dsl::*;
use fpir_trs::pattern::{Pat, TypePat};
use fpir_trs::predicate::Predicate;
use fpir_trs::rule::{Rule, RuleClass, RuleSet};
use fpir_trs::template::{CFn, Template, TyRef};

fn mach(op: fpir::MachOp, ty: TyRef, args: Vec<Template>) -> Template {
    Template::Mach { op, ty, args }
}

/// The lowering rule set for a target.
pub fn lower_rules(isa: Isa) -> RuleSet {
    match isa {
        Isa::X86Avx2 => x86_rules(),
        Isa::ArmNeon => arm_rules(),
        Isa::HexagonHvx => hvx_rules(),
        Isa::Rvv => rvv_rules(),
    }
}

/// Shared pattern: `acc + widening_mul(a, b)` (either operand order).
fn mul_acc_pattern() -> Pat {
    pat_add(
        wild_t(0, TypePat::WidenOf(1)),
        pat_fpir2(FpirOp::WideningMul, wild_v(1), wild_t(2, TypePat::Var(1))),
    )
}

/// Shared pattern: `acc + widening_shl(a, c)` — the Figure 3(a) shape.
fn shl_acc_pattern() -> Pat {
    pat_add(
        wild_t(0, TypePat::WidenOf(1)),
        pat_fpir2(FpirOp::WideningShl, wild_v(1), cwild_t(2, TypePat::Var(1))),
    )
}

/// Shared pattern: the four-way dot product that lifting produces from
/// `acc + w(a0)*w(b0) + ... + w(a3)*w(b3)`:
/// `wadd(m2, m3) + (wadd(m0, m1) + acc)`.
fn dot4_pattern() -> Pat {
    let wmul = |a: u8, b: u8| pat_fpir2(FpirOp::WideningMul, wild_v(a), wild_t(b, TypePat::Var(a)));
    pat_add(
        pat_fpir2(FpirOp::WideningAdd, wmul(5, 6), wmul(7, 8)),
        pat_add(
            pat_fpir2(FpirOp::WideningAdd, wmul(1, 2), wmul(3, 4)),
            wild_t(0, TypePat::Widen2Of(1)),
        ),
    )
}

fn dot4_template(op: fpir::MachOp) -> Template {
    mach(op, TyRef::OfWild(0), vec![tw(0), tw(1), tw(3), tw(5), tw(7), tw(2), tw(4), tw(6), tw(8)])
}

// ---------------------------------------------------------------- ARM --

fn arm_rules() -> RuleSet {
    let mut rs = RuleSet::new("lower-arm");
    // Fused: acc + widening_mul(a, b) -> umlal.
    rs.push(Rule::new(
        "arm-umlal",
        RuleClass::Fused,
        mul_acc_pattern(),
        mach(arm::UMLAL, TyRef::OfWild(0), vec![tw(0), tw(1), tw(2)]),
    ));
    // Fused (synthesized, §4.2's worked example):
    // acc + widening_shl(a, c0) -> umlal(acc, a, 1 << c0).
    rs.push(
        Rule::new(
            "arm-umlal-shl",
            RuleClass::Fused,
            shl_acc_pattern(),
            mach(
                arm::UMLAL,
                TyRef::OfWild(0),
                vec![tw(0), tw(1), tconst_f(CFn::Pow2, 2, TyRef::OfWild(1))],
            ),
        )
        .with_pred(Predicate::ConstInRange { id: 2, lo: 0, hi: 30 })
        .synthesized_from("add")
        .synthesized_from("sobel3x3"),
    );
    // Fused (synthesized): the 4-way dot product -> udot.
    rs.push(
        Rule::new("arm-udot", RuleClass::Fused, dot4_pattern(), dot4_template(arm::UDOT))
            .synthesized_from("matmul")
            .synthesized_from("l2norm")
            .synthesized_from("fully_connected"),
    );
    // Fused (synthesized): truncating shift-right-narrow -> shrn.
    rs.push(
        Rule::new(
            "arm-shrn",
            RuleClass::Fused,
            Pat::Cast(
                TypePat::NarrowOf(0),
                Box::new(pat_shr(wild_v(0), cwild_t(1, TypePat::Var(0)))),
            ),
            mach(arm::SHRN, TyRef::NarrowOfWild(0), vec![tw(0), tconst(1, 0)]),
        )
        .with_pred(Predicate::ConstInRange { id: 1, lo: 0, hi: 63 })
        .synthesized_from("gaussian3x3")
        .synthesized_from("blur3x3"),
    );
    // Fused: saturating narrow of a rounding shift -> sqrshrn.
    rs.push(
        Rule::new(
            "arm-sqrshrn",
            RuleClass::Fused,
            Pat::SatCast(
                TypePat::NarrowOf(0),
                Box::new(pat_fpir2(FpirOp::RoundingShr, wild_v(0), cwild_t(1, TypePat::Var(0)))),
            ),
            mach(arm::SQRSHRN, TyRef::NarrowOfWild(0), vec![tw(0), tconst(1, 0)]),
        )
        .with_pred(Predicate::ConstInRange { id: 1, lo: 0, hi: 63 }),
    );
    // Predicated (synthesized, §5.3.1): a *truncating* narrow of a
    // rounding shift can use the saturating sqrshrn when bounds prove the
    // saturation cannot trigger (§4.3 technique 4).
    rs.push(
        Rule::new(
            "arm-sqrshrn-trunc-predicated",
            RuleClass::Predicated,
            Pat::Cast(
                TypePat::NarrowOf(0),
                Box::new(pat_fpir2(FpirOp::RoundingShr, wild_v(0), cwild_t(1, TypePat::Var(0)))),
            ),
            mach(arm::SQRSHRN, TyRef::NarrowOfWild(0), vec![tw(0), tconst(1, 0)]),
        )
        .with_pred(Predicate::All(vec![
            Predicate::ConstInRange { id: 1, lo: 0, hi: 63 },
            Predicate::FitsNarrowAfterRoundShr { x: 0, c: 1 },
        ]))
        .synthesized_from("gaussian3x3")
        .synthesized_from("gaussian5x5"),
    );
    // Specific constant: rounding_mul_shr(x, y, bits-1) -> sqrdmulh.
    rs.push(
        Rule::new(
            "arm-sqrdmulh",
            RuleClass::SpecificConst,
            Pat::Fpir(
                FpirOp::RoundingMulShr,
                vec![
                    wild_t(0, TypePat::AnySigned(0)),
                    wild_t(1, TypePat::Var(0)),
                    cwild_t(2, TypePat::Var(0)),
                ],
            ),
            mach(arm::SQRDMULH, TyRef::OfWild(0), vec![tw(0), tw(1)]),
        )
        .with_pred(Predicate::ConstEqOwnBitsMinus1(2)),
    );
    rs
}

// ---------------------------------------------------------------- HVX --

fn hvx_rules() -> RuleSet {
    let mut rs = RuleSet::new("lower-hvx");
    // Fused (synthesized): acc + widening_mul(a, b) -> vmpy.acc.
    rs.push(
        Rule::new(
            "hvx-vmpy-acc",
            RuleClass::Fused,
            mul_acc_pattern(),
            mach(hvx::VMPYACC, TyRef::OfWild(0), vec![tw(0), tw(1), tw(2)]),
        )
        .synthesized_from("add")
        .synthesized_from("gaussian5x5"),
    );
    // Fused (synthesized): widening_add(a, c) + widening_shl(b, k) ->
    // vmpa.acc(vzxt(a), b, c, 1 << k, 1) — the Figure 3(a) codegen.
    rs.push(
        Rule::new(
            "hvx-vmpa-acc",
            RuleClass::Fused,
            pat_add(
                pat_fpir2(
                    FpirOp::WideningAdd,
                    wild_t(0, TypePat::AnyUnsigned(0)),
                    wild_t(1, TypePat::Var(0)),
                ),
                pat_fpir2(
                    FpirOp::WideningShl,
                    wild_t(2, TypePat::Var(0)),
                    cwild_t(3, TypePat::Var(0)),
                ),
            ),
            mach(
                hvx::VMPAACC,
                TyRef::WidenOfWild(0),
                vec![
                    mach(hvx::VZXT, TyRef::WidenOfWild(0), vec![tw(0)]),
                    tw(2),
                    tw(1),
                    tconst_f(CFn::Pow2, 3, TyRef::WidenOfWild(0)),
                    Template::Lit { value: 1, ty: TyRef::WidenOfWild(0) },
                ],
            ),
        )
        .with_pred(Predicate::ConstInRange { id: 3, lo: 0, hi: 7 })
        .synthesized_from("sobel3x3")
        .synthesized_from("add"),
    );
    // Fused: pairs of constant multiplies (in either widening_mul-by-const
    // or widening_shl form) fuse into vmpa, optionally with an
    // accumulator via the reassociated vmpa.acc — the workhorse of HVX
    // convolutions.
    rs.extend(hvx_vmpa_pair_rules());
    // Fused (synthesized): the 4-way dot product -> vrmpy.
    rs.push(
        Rule::new("hvx-vrmpy", RuleClass::Fused, dot4_pattern(), dot4_template(hvx::VRMPY))
            .synthesized_from("matmul")
            .synthesized_from("l2norm")
            .synthesized_from("fully_connected"),
    );
    // Fused: paired i16 multiply-add -> vdmpy.
    rs.push(Rule::new(
        "hvx-vdmpy",
        RuleClass::Fused,
        pat_add(
            pat_fpir2(
                FpirOp::WideningMul,
                wild_t(0, TypePat::Exact(ScalarType::I16)),
                wild_t(1, TypePat::Exact(ScalarType::I16)),
            ),
            pat_fpir2(
                FpirOp::WideningMul,
                wild_t(2, TypePat::Exact(ScalarType::I16)),
                wild_t(3, TypePat::Exact(ScalarType::I16)),
            ),
        ),
        mach(hvx::VDMPY, TyRef::WidenOfWild(0), vec![tw(0), tw(1), tw(2), tw(3)]),
    ));
    // Predicated (Figure 3(c)): saturating narrow of an unsigned value
    // that provably fits the signed type -> vsat.
    rs.push(
        Rule::new(
            "hvx-vsat-predicated",
            RuleClass::Predicated,
            Pat::SatCast(TypePat::NarrowOf(0), Box::new(wild_t(0, TypePat::AnyUnsigned(0)))),
            mach(hvx::VSAT, TyRef::NarrowOfWild(0), vec![tw(0)]),
        )
        .with_pred(Predicate::FitsSignedSameWidth(0)),
    );
    // Direct: signed saturating narrows are always safe for vsat.
    rs.push(Rule::new(
        "hvx-vsat-signed",
        RuleClass::Direct,
        Pat::SatCast(TypePat::NarrowOf(0), Box::new(wild_t(0, TypePat::AnySigned(0)))),
        mach(hvx::VSAT, TyRef::NarrowOfWild(0), vec![tw(0)]),
    ));
    rs.push(Rule::new(
        "hvx-vsat-s2u",
        RuleClass::Direct,
        Pat::SatCast(TypePat::NarrowUnsignedOf(0), Box::new(wild_t(0, TypePat::AnySigned(0)))),
        mach(hvx::VSAT, TyRef::NarrowUnsignedOfWild(0), vec![tw(0)]),
    ));
    // Fused (synthesized): saturating narrow of a rounding shift ->
    // vasr:rnd:sat (camera_pipe / gaussian3x3, §5.3.2).
    for (name, target_ty) in [
        ("hvx-vasr-rnd-sat", TypePat::NarrowOf(0)),
        ("hvx-vasr-rnd-sat-u", TypePat::NarrowUnsignedOf(0)),
    ] {
        let tyref = match target_ty {
            TypePat::NarrowOf(_) => TyRef::NarrowOfWild(0),
            _ => TyRef::NarrowUnsignedOfWild(0),
        };
        rs.push(
            Rule::new(
                name,
                RuleClass::Fused,
                Pat::SatCast(
                    target_ty,
                    Box::new(pat_fpir2(
                        FpirOp::RoundingShr,
                        wild_v(0),
                        cwild_t(1, TypePat::Var(0)),
                    )),
                ),
                mach(hvx::VASRRNDSAT, tyref, vec![tw(0), tconst(1, 0)]),
            )
            .with_pred(Predicate::ConstInRange { id: 1, lo: 0, hi: 63 })
            .synthesized_from("camera_pipe")
            .synthesized_from("gaussian3x3"),
        );
    }
    // Predicated (synthesized, §5.3.1): truncating narrow of a rounding
    // shift -> vasr:rnd:sat when the saturation provably cannot trigger.
    rs.push(
        Rule::new(
            "hvx-vasr-trunc-predicated",
            RuleClass::Predicated,
            Pat::Cast(
                TypePat::NarrowOf(0),
                Box::new(pat_fpir2(FpirOp::RoundingShr, wild_v(0), cwild_t(1, TypePat::Var(0)))),
            ),
            mach(hvx::VASRRNDSAT, TyRef::NarrowOfWild(0), vec![tw(0), tconst(1, 0)]),
        )
        .with_pred(Predicate::All(vec![
            Predicate::ConstInRange { id: 1, lo: 0, hi: 31 },
            Predicate::FitsNarrowAfterRoundShr { x: 0, c: 1 },
        ]))
        .synthesized_from("gaussian3x3")
        .synthesized_from("gaussian5x5"),
    );
    // Specific constant: rounding_mul_shr(x, y, bits-1) -> vmpyo:rnd:sat.
    rs.push(
        Rule::new(
            "hvx-rmulh",
            RuleClass::SpecificConst,
            Pat::Fpir(
                FpirOp::RoundingMulShr,
                vec![
                    wild_t(0, TypePat::AnySigned(0)),
                    wild_t(1, TypePat::Var(0)),
                    cwild_t(2, TypePat::Var(0)),
                ],
            ),
            mach(hvx::VMPYERND, TyRef::OfWild(0), vec![tw(0), tw(1)]),
        )
        .with_pred(Predicate::ConstEqOwnBitsMinus1(2)),
    );
    rs
}

/// The `vmpa` pair family: `w(a)*c0 + w(b)*c1` in all four combinations of
/// widening multiply-by-constant and widening shift-by-constant, plus the
/// accumulating, reassociated variants `(acc + pair_lhs) + pair_rhs`.
#[allow(clippy::type_complexity)]
fn hvx_vmpa_pair_rules() -> Vec<Rule> {
    /// A vmpa term: its pattern plus the operand and coefficient templates.
    type Term = (Pat, Template, Template);
    // A term is (pattern for w(x_i)*k, template for x_i, template for k).
    // Wildcard layout: terms use (1, c=2) and (3, c=4); the accumulator is 0.
    let mul_term = |x: u8, c: u8| {
        (
            pat_fpir2(FpirOp::WideningMul, wild_v(x), cwild_t(c, TypePat::Var(x))),
            tw(x),
            tconst(c, x),
        )
    };
    let shl_term = |x: u8, c: u8| {
        (
            pat_fpir2(FpirOp::WideningShl, wild_v(x), cwild_t(c, TypePat::Var(x))),
            tw(x),
            tconst_f(CFn::Pow2, c, TyRef::OfWild(x)),
        )
    };
    let mut rules = Vec::new();
    let kinds: [(&str, fn(u8, u8) -> Term); 2] = [("mul", mul_term), ("shl", shl_term)];
    for (n1, t1) in kinds {
        for (n2, t2) in kinds {
            let (p1, a1, k1) = t1(1, 2);
            let (p2, a2, k2) = t2(3, 4);
            let guard = Predicate::All(vec![
                Predicate::ConstInRange { id: 2, lo: 0, hi: 63 },
                Predicate::ConstInRange { id: 4, lo: 0, hi: 63 },
            ]);
            // `+` matches commutatively, so the shl-mul ordering of the
            // plain pair is already covered by mul-shl and could never
            // fire (rulecheck's shadowing analysis). The accumulating
            // variant below is not symmetric — the nested `(acc + t1)`
            // fixes which term sits on the left — so all four orderings
            // stay.
            if !(n1 == "shl" && n2 == "mul") {
                rules.push(
                    Rule::new(
                        format!("hvx-vmpa-{n1}-{n2}"),
                        RuleClass::Fused,
                        pat_add(p1.clone(), p2.clone()),
                        mach(
                            hvx::VMPA,
                            TyRef::WidenOfWild(1),
                            vec![a1.clone(), a2.clone(), k1.clone(), k2.clone()],
                        ),
                    )
                    .with_pred(guard.clone()),
                );
            }
            // (acc + term1) + term2 -> vmpa.acc(acc, ...), reassociating.
            rules.push(
                Rule::new(
                    format!("hvx-vmpa-acc-{n1}-{n2}"),
                    RuleClass::Fused,
                    pat_add(pat_add(wild_t(0, TypePat::WidenOf(1)), p1), p2),
                    mach(hvx::VMPAACC, TyRef::OfWild(0), vec![tw(0), a1, a2, k1, k2]),
                )
                .with_pred(guard),
            );
        }
    }
    rules
}

// ---------------------------------------------------------------- RVV --

/// The RVV pack — the `+1`-ish cost of the fourth target (§3.3, and the
/// `k + n + 1` census in `docs/isa.md`). Everything else RVV needs is a
/// direct mapping living in its instruction table; only pattern-context
/// shapes appear here, and no existing pack changed to admit the target.
fn rvv_rules() -> RuleSet {
    let mut rs = RuleSet::new("lower-rvv");
    // Fused: acc + widening_mul(a, b) -> vwmacc.
    rs.push(Rule::new(
        "rvv-vwmacc",
        RuleClass::Fused,
        mul_acc_pattern(),
        mach(rvv::VWMACC, TyRef::OfWild(0), vec![tw(0), tw(1), tw(2)]),
    ));
    // Fused (synthesized): acc + widening_shl(a, c0) -> vwmacc(acc, a, 1 << c0).
    rs.push(
        Rule::new(
            "rvv-vwmacc-shl",
            RuleClass::Fused,
            shl_acc_pattern(),
            mach(
                rvv::VWMACC,
                TyRef::OfWild(0),
                vec![tw(0), tw(1), tconst_f(CFn::Pow2, 2, TyRef::OfWild(1))],
            ),
        )
        .with_pred(Predicate::ConstInRange { id: 2, lo: 0, hi: 30 })
        .synthesized_from("add")
        .synthesized_from("sobel3x3"),
    );
    // Fused: saturating narrow of a rounding shift -> vnclip/vnclipu.
    for (name, target_ty) in
        [("rvv-vnclip", TypePat::NarrowOf(0)), ("rvv-vnclip-s2u", TypePat::NarrowUnsignedOf(0))]
    {
        let tyref = match target_ty {
            TypePat::NarrowOf(_) => TyRef::NarrowOfWild(0),
            _ => TyRef::NarrowUnsignedOfWild(0),
        };
        rs.push(
            Rule::new(
                name,
                RuleClass::Fused,
                Pat::SatCast(
                    target_ty,
                    Box::new(pat_fpir2(
                        FpirOp::RoundingShr,
                        wild_v(0),
                        cwild_t(1, TypePat::Var(0)),
                    )),
                ),
                mach(rvv::VNCLIP, tyref, vec![tw(0), tconst(1, 0)]),
            )
            .with_pred(Predicate::ConstInRange { id: 1, lo: 0, hi: 63 }),
        );
    }
    // Direct: a plain saturating narrow is a zero-shift vnclip (the clip
    // rounds nothing at shift 0, so only the saturation acts).
    rs.push(Rule::new(
        "rvv-vnclip-sat",
        RuleClass::Direct,
        Pat::SatCast(TypePat::NarrowOf(0), Box::new(wild_v(0))),
        mach(
            rvv::VNCLIP,
            TyRef::NarrowOfWild(0),
            vec![tw(0), Template::Lit { value: 0, ty: TyRef::OfWild(0) }],
        ),
    ));
    rs.push(Rule::new(
        "rvv-vnclip-sat-s2u",
        RuleClass::Direct,
        Pat::SatCast(TypePat::NarrowUnsignedOf(0), Box::new(wild_t(0, TypePat::AnySigned(0)))),
        mach(
            rvv::VNCLIP,
            TyRef::NarrowUnsignedOfWild(0),
            vec![tw(0), Template::Lit { value: 0, ty: TyRef::OfWild(0) }],
        ),
    ));
    // Predicated (§5.3.1): truncating narrow of a rounding shift ->
    // vnclip when bounds prove the saturation cannot trigger.
    rs.push(
        Rule::new(
            "rvv-vnclip-trunc-predicated",
            RuleClass::Predicated,
            Pat::Cast(
                TypePat::NarrowOf(0),
                Box::new(pat_fpir2(FpirOp::RoundingShr, wild_v(0), cwild_t(1, TypePat::Var(0)))),
            ),
            mach(rvv::VNCLIP, TyRef::NarrowOfWild(0), vec![tw(0), tconst(1, 0)]),
        )
        .with_pred(Predicate::All(vec![
            Predicate::ConstInRange { id: 1, lo: 0, hi: 63 },
            Predicate::FitsNarrowAfterRoundShr { x: 0, c: 1 },
        ]))
        .synthesized_from("gaussian3x3")
        .synthesized_from("gaussian5x5"),
    );
    // Specific constant: rounding_mul_shr(x, y, bits-1) -> vsmul.
    rs.push(
        Rule::new(
            "rvv-vsmul",
            RuleClass::SpecificConst,
            Pat::Fpir(
                FpirOp::RoundingMulShr,
                vec![
                    wild_t(0, TypePat::AnySigned(0)),
                    wild_t(1, TypePat::Var(0)),
                    cwild_t(2, TypePat::Var(0)),
                ],
            ),
            mach(rvv::VSMUL, TyRef::OfWild(0), vec![tw(0), tw(1)]),
        )
        .with_pred(Predicate::ConstEqOwnBitsMinus1(2)),
    );
    // Specific constant: mul_shr(x, y, bits) -> vmulh — type-generic
    // where x86's vpmulh* rules are pinned to 16-bit lanes.
    rs.push(
        Rule::new(
            "rvv-vmulh",
            RuleClass::SpecificConst,
            Pat::Fpir(
                FpirOp::MulShr,
                vec![wild_v(0), wild_t(1, TypePat::Var(0)), cwild_t(2, TypePat::Var(0))],
            ),
            mach(rvv::VMULH, TyRef::OfWild(0), vec![tw(0), tw(1)]),
        )
        .with_pred(Predicate::ConstEqOwnBits(2)),
    );
    // Compound: base RVV has no absolute difference; max minus min covers
    // every unsigned width in one type-generic rule. (Signed absd is
    // excluded: the interpreter's absd is exact, and `i8` absd(127, -128)
    // = 255 cannot survive the wrapping subtract.)
    rs.push(Rule::new(
        "rvv-vabsd",
        RuleClass::Compound,
        Pat::Fpir(
            FpirOp::Absd,
            vec![wild_t(0, TypePat::AnyUnsigned(0)), wild_t(1, TypePat::Var(0))],
        ),
        mach(
            rvv::VSUB,
            TyRef::OfWild(0),
            vec![
                mach(rvv::VMAX, TyRef::OfWild(0), vec![tw(0), tw(1)]),
                mach(rvv::VMIN, TyRef::OfWild(0), vec![tw(0), tw(1)]),
            ],
        ),
    ));
    rs
}

// ---------------------------------------------------------------- x86 --

fn x86_rules() -> RuleSet {
    let mut rs = RuleSet::new("lower-x86");
    // Compound (the paper's worked example, §3.3): unsigned absd via
    // saturating subtracts — absd(x, y) = (x -sat y) | (y -sat x).
    for elem in [ScalarType::U8, ScalarType::U16] {
        rs.push(Rule::new(
            format!("x86-absd-{elem}"),
            RuleClass::Compound,
            pat_fpir2(
                FpirOp::Absd,
                wild_t(0, TypePat::Exact(elem)),
                wild_t(1, TypePat::Exact(elem)),
            ),
            mach(
                x86::VPOR,
                TyRef::OfWild(0),
                vec![
                    mach(x86::VPSUBUS, TyRef::OfWild(0), vec![tw(0), tw(1)]),
                    mach(x86::VPSUBUS, TyRef::OfWild(0), vec![tw(1), tw(0)]),
                ],
            ),
        ));
        // Compound: halving_add = vpavg(x, y) - ((x ^ y) & 1) — the
        // rounding average minus the round-up correction, avoiding any
        // widening (cf. the aggregate-magic tricks of [17]).
        rs.push(Rule::new(
            format!("x86-halving-add-{elem}"),
            RuleClass::Compound,
            pat_fpir2(
                FpirOp::HalvingAdd,
                wild_t(0, TypePat::Exact(elem)),
                wild_t(1, TypePat::Exact(elem)),
            ),
            mach(
                x86::VPSUB,
                TyRef::OfWild(0),
                vec![
                    mach(x86::VPAVG, TyRef::OfWild(0), vec![tw(0), tw(1)]),
                    mach(
                        x86::VPAND,
                        TyRef::OfWild(0),
                        vec![mach(x86::VPXOR, TyRef::OfWild(0), vec![tw(0), tw(1)]), tlit(1, 0)],
                    ),
                ],
            ),
        ));
    }
    // Predicated: when bounds prove the rounding term cannot overflow,
    // a rounding shift is just add-then-shift (two cheap ops).
    for elem in [ScalarType::U16, ScalarType::I16, ScalarType::U32, ScalarType::I32] {
        rs.push(
            Rule::new(
                format!("x86-rounding-shr-bounded-{elem}"),
                RuleClass::Predicated,
                pat_fpir2(
                    FpirOp::RoundingShr,
                    wild_t(0, TypePat::Exact(elem)),
                    cwild_t(1, TypePat::Exact(elem)),
                ),
                mach(
                    x86::VPSR,
                    TyRef::OfWild(0),
                    vec![
                        mach(
                            x86::VPADD,
                            TyRef::OfWild(0),
                            vec![tw(0), tconst_f(CFn::Pow2AddHalf, 1, TyRef::OfWild(0))],
                        ),
                        tconst(1, 0),
                    ],
                ),
            )
            .with_pred(Predicate::All(vec![
                Predicate::ConstInRange { id: 1, lo: 1, hi: 31 },
                Predicate::RoundTermAddFits { x: 0, c: 1 },
            ])),
        );
    }
    // Compound: rounding shift right by a constant via the rounding-bit
    // identity (x >> c) + ((x >> (c-1)) & 1) — 16/32-bit lanes.
    for elem in [ScalarType::U16, ScalarType::I16, ScalarType::U32, ScalarType::I32] {
        rs.push(
            Rule::new(
                format!("x86-rounding-shr-{elem}"),
                RuleClass::Compound,
                pat_fpir2(
                    FpirOp::RoundingShr,
                    wild_t(0, TypePat::Exact(elem)),
                    cwild_t(1, TypePat::Exact(elem)),
                ),
                mach(
                    x86::VPADD,
                    TyRef::OfWild(0),
                    vec![
                        mach(x86::VPSR, TyRef::OfWild(0), vec![tw(0), tconst(1, 0)]),
                        mach(
                            x86::VPAND,
                            TyRef::OfWild(0),
                            vec![
                                mach(
                                    x86::VPSR,
                                    TyRef::OfWild(0),
                                    vec![tw(0), tconst_f(CFn::Add(-1), 1, TyRef::OfWild(0))],
                                ),
                                tlit(1, 0),
                            ],
                        ),
                    ],
                ),
            )
            .with_pred(Predicate::ConstInRange { id: 1, lo: 1, hi: 31 }),
        );
    }
    // Predicated (Figure 3(c)): u16 -> u8 saturating narrow when the value
    // provably fits i16 -> vpackuswb.
    rs.push(
        Rule::new(
            "x86-vpackus-predicated",
            RuleClass::Predicated,
            Pat::SatCast(TypePat::NarrowOf(0), Box::new(wild_t(0, TypePat::AnyUnsigned(0)))),
            mach(x86::VPACKUS, TyRef::NarrowOfWild(0), vec![tw(0)]),
        )
        .with_pred(Predicate::FitsSignedSameWidth(0)),
    );
    // Direct: signed inputs are always safe for the packs.
    rs.push(Rule::new(
        "x86-vpackss",
        RuleClass::Direct,
        Pat::SatCast(TypePat::NarrowOf(0), Box::new(wild_t(0, TypePat::AnySigned(0)))),
        mach(x86::VPACKSS, TyRef::NarrowOfWild(0), vec![tw(0)]),
    ));
    rs.push(Rule::new(
        "x86-vpackus-s2u",
        RuleClass::Direct,
        Pat::SatCast(TypePat::NarrowUnsignedOf(0), Box::new(wild_t(0, TypePat::AnySigned(0)))),
        mach(x86::VPACKUS, TyRef::NarrowUnsignedOfWild(0), vec![tw(0)]),
    ));
    // Fused: widening_add of two i16 widening_muls -> vpmaddwd.
    rs.push(Rule::new(
        "x86-vpmaddwd",
        RuleClass::Fused,
        pat_add(
            pat_fpir2(
                FpirOp::WideningMul,
                wild_t(0, TypePat::Exact(ScalarType::I16)),
                wild_t(1, TypePat::Exact(ScalarType::I16)),
            ),
            pat_fpir2(
                FpirOp::WideningMul,
                wild_t(2, TypePat::Exact(ScalarType::I16)),
                wild_t(3, TypePat::Exact(ScalarType::I16)),
            ),
        ),
        mach(x86::VPMADDWD, TyRef::WidenOfWild(0), vec![tw(0), tw(1), tw(2), tw(3)]),
    ));
    // Specific constants: the multiply-high family.
    rs.push(
        Rule::new(
            "x86-vpmulhw",
            RuleClass::SpecificConst,
            Pat::Fpir(
                FpirOp::MulShr,
                vec![
                    wild_t(0, TypePat::Exact(ScalarType::I16)),
                    wild_t(1, TypePat::Exact(ScalarType::I16)),
                    cwild_t(2, TypePat::Var(0)),
                ],
            ),
            mach(x86::VPMULHW, TyRef::OfWild(0), vec![tw(0), tw(1)]),
        )
        .with_pred(Predicate::ConstEqOwnBits(2)),
    );
    rs.push(
        Rule::new(
            "x86-vpmulhuw",
            RuleClass::SpecificConst,
            Pat::Fpir(
                FpirOp::MulShr,
                vec![
                    wild_t(0, TypePat::Exact(ScalarType::U16)),
                    wild_t(1, TypePat::Exact(ScalarType::U16)),
                    cwild_t(2, TypePat::Var(0)),
                ],
            ),
            mach(x86::VPMULHUW, TyRef::OfWild(0), vec![tw(0), tw(1)]),
        )
        .with_pred(Predicate::ConstEqOwnBits(2)),
    );
    rs.push(
        Rule::new(
            "x86-vpmulhrsw",
            RuleClass::SpecificConst,
            Pat::Fpir(
                FpirOp::RoundingMulShr,
                vec![
                    wild_t(0, TypePat::Exact(ScalarType::I16)),
                    wild_t(1, TypePat::Exact(ScalarType::I16)),
                    cwild_t(2, TypePat::Var(0)),
                ],
            ),
            mach(x86::VPMULHRSW, TyRef::OfWild(0), vec![tw(0), tw(1)]),
        )
        .with_pred(Predicate::ConstEqOwnBitsMinus1(2)),
    );
    // Compound: the 32-bit rounding multiply-high sequence.
    rs.push(
        Rule::new(
            "x86-rmulh32",
            RuleClass::Compound,
            Pat::Fpir(
                FpirOp::RoundingMulShr,
                vec![
                    wild_t(0, TypePat::Exact(ScalarType::I32)),
                    wild_t(1, TypePat::Exact(ScalarType::I32)),
                    cwild_t(2, TypePat::Var(0)),
                ],
            ),
            mach(x86::VRMULH32, TyRef::OfWild(0), vec![tw(0), tw(1)]),
        )
        .with_pred(Predicate::ConstEqOwnBitsMinus1(2)),
    );
    rs
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpir::build;
    use fpir::types::{ScalarType as S, VectorType as V};
    use fpir_isa::TargetCost;
    use fpir_trs::rewrite::Rewriter;

    fn lower_with_rules(e: &fpir::RcExpr, isa: Isa) -> fpir::RcExpr {
        let rules = lower_rules(isa);
        let mut rw = Rewriter::new(&rules, TargetCost::new(isa));
        rw.run(e)
    }

    #[test]
    fn umlal_fuses_on_arm() {
        let t = V::new(S::U8, 16);
        let acc = build::var("acc", V::new(S::U16, 16));
        let e = build::add(acc, build::widening_mul(build::var("a", t), build::var("b", t)));
        let out = lower_with_rules(&e, Isa::ArmNeon);
        assert_eq!(out.to_string(), "arm.umlal(acc_u16, a_u8, b_u8)");
    }

    #[test]
    fn umlal_shl_fusion_matches_paper() {
        // x_u16 + widening_shl(y_u8, 1) -> umlal x, y, 2.
        let t = V::new(S::U8, 16);
        let x = build::var("x", V::new(S::U16, 16));
        let e = build::add(x, build::widening_shl(build::var("y", t), build::constant(1, t)));
        let out = lower_with_rules(&e, Isa::ArmNeon);
        assert_eq!(out.to_string(), "arm.umlal(x_u16, y_u8, 2)");
    }

    #[test]
    fn vmpa_acc_fires_on_hvx() {
        // widening_add(a, c) + widening_shl(b, 1) — the Sobel kernel.
        let t = V::new(S::U8, 128);
        let e = build::add(
            build::widening_add(build::var("a", t), build::var("c", t)),
            build::widening_shl(build::var("b", t), build::constant(1, t)),
        );
        let out = lower_with_rules(&e, Isa::HexagonHvx);
        let printed = out.to_string();
        assert!(printed.contains("vmpa.acc"), "{printed}");
        assert!(printed.contains("vzxt"), "{printed}");
    }

    #[test]
    fn predicated_pack_requires_bounds() {
        // saturating_cast<u8>(widening_add(a_u8, b_u8)): bounded by 510,
        // fits i16 -> vpackus fires on x86.
        let t = V::new(S::U8, 32);
        let bounded = build::saturating_cast(
            S::U8,
            build::widening_add(build::var("a", t), build::var("b", t)),
        );
        let out = lower_with_rules(&bounded, Isa::X86Avx2);
        assert!(out.to_string().contains("vpackus"), "{out}");
        // An arbitrary u16 has no such bound: the rule must NOT fire.
        let unbounded = build::saturating_cast(S::U8, build::var("x", V::new(S::U16, 32)));
        let out = lower_with_rules(&unbounded, Isa::X86Avx2);
        assert!(!out.to_string().contains("vpackus"), "{out}");
    }

    #[test]
    fn x86_absd_compound() {
        let t = V::new(S::U16, 16);
        let e = build::absd(build::var("x", t), build::var("y", t));
        let out = lower_with_rules(&e, Isa::X86Avx2);
        assert_eq!(
            out.to_string(),
            "x86.vpor(x86.vpsubus(x_u16, y_u16), x86.vpsubus(y_u16, x_u16))"
        );
    }

    #[test]
    fn dot4_lowers_to_udot_and_vrmpy() {
        let t = V::new(S::U8, 16);
        let acc = build::var("acc", V::new(S::U32, 16));
        let m = |a: &str, b: &str| build::widening_mul(build::var(a, t), build::var(b, t));
        let e = build::add(
            build::widening_add(m("a2", "b2"), m("a3", "b3")),
            build::add(build::widening_add(m("a0", "b0"), m("a1", "b1")), acc),
        );
        let out = lower_with_rules(&e, Isa::ArmNeon);
        assert!(out.to_string().contains("udot"), "{out}");
        let out = lower_with_rules(&e, Isa::HexagonHvx);
        assert!(out.to_string().contains("vrmpy"), "{out}");
    }

    #[test]
    fn sqrdmulh_specific_constant() {
        let t = V::new(S::I16, 16);
        let e =
            build::rounding_mul_shr(build::var("x", t), build::var("y", t), build::constant(15, t));
        let out = lower_with_rules(&e, Isa::ArmNeon);
        assert_eq!(out.to_string(), "arm.sqrdmulh(x_i16, y_i16)");
        // A different shift constant must not match.
        let e =
            build::rounding_mul_shr(build::var("x", t), build::var("y", t), build::constant(14, t));
        let out = lower_with_rules(&e, Isa::ArmNeon);
        assert!(!out.to_string().contains("sqrdmulh"), "{out}");
    }

    #[test]
    fn lowered_rules_preserve_semantics() {
        use fpir::interp::{eval, eval_with};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(55);
        let t = V::new(S::U8, 8);
        let ti16 = V::new(S::I16, 8);
        let cases: Vec<fpir::RcExpr> = vec![
            build::add(
                build::var("acc", V::new(S::U16, 8)),
                build::widening_mul(build::var("a", t), build::var("b", t)),
            ),
            build::absd(build::var("x", V::new(S::U16, 8)), build::var("y", V::new(S::U16, 8))),
            build::halving_add(build::var("a", t), build::var("b", t)),
            build::rounding_shr(build::var("x", ti16), build::constant(3, ti16)),
            build::rounding_mul_shr(
                build::var("x", ti16),
                build::var("y", ti16),
                build::constant(15, ti16),
            ),
            build::saturating_cast(
                S::U8,
                build::widening_add(build::var("a", t), build::var("b", t)),
            ),
        ];
        let evaluator = fpir_isa::MachEvaluator;
        for e in &cases {
            for isa in fpir::machine::ALL_ISAS {
                let lowered = lower_with_rules(e, isa);
                for _ in 0..30 {
                    let env = fpir::rand_expr::random_env(&mut rng, e);
                    let want = eval(e, &env).unwrap();
                    let got = eval_with(&lowered, &env, Some(&evaluator))
                        .unwrap_or_else(|err| panic!("{isa}: {err} on {e} -> {lowered}"));
                    assert_eq!(want, got, "{isa} diverged: {e} -> {lowered}");
                }
            }
        }
    }

    /// The paper's `k + n + 1` census (§3.3, tabulated in `docs/isa.md`):
    /// one shared lifting TRS (`k` rules), per-target direct mappings
    /// carried by the instruction tables (`n_i` rows), and a per-target
    /// pattern-context pack that stays *sub-linear* in the table — the
    /// marginal cost of target `n+1` is its table plus a small pack, not
    /// `k × n` rewrites. RVV, added last, is the live demonstration: its
    /// pack must stay within the acceptance bound of `|table| + 1` rules,
    /// and the pre-existing packs are pinned so adding a target can never
    /// silently grow them (the multiplicative failure mode).
    #[test]
    fn rule_census_stays_additive() {
        let k = crate::lift_rules().len();
        assert!(k >= 10, "lifting TRS unexpectedly small: {k}");
        for isa in fpir::machine::ALL_ISAS {
            let pack = lower_rules(isa).len();
            let table = fpir_isa::target(isa).defs().len();
            assert!(
                pack <= table + 1,
                "{isa}: {pack} pattern rules exceeds |table| + 1 = {}",
                table + 1
            );
        }
        // The paper-era packs, pinned at their pre-RVV sizes.
        assert_eq!(lower_rules(Isa::ArmNeon).len(), 7);
        assert_eq!(lower_rules(Isa::HexagonHvx).len(), 18);
        assert_eq!(lower_rules(Isa::X86Avx2).len(), 20);
        // The fourth target's whole marginal rule cost.
        assert_eq!(lower_rules(Isa::Rvv).len(), 10);
    }
}
