//! The target-agnostic lifting TRS (§3.2).
//!
//! These rules lift primitive integer arithmetic into FPIR, greedily and
//! bottom-up, each strictly reducing the target-agnostic cost. Most rules
//! are *polymorphic*: one entry here covers the whole family of lane
//! widths the paper counts as separate rules (its hand-written set is ~50
//! monomorphic rules, augmented by ~25 synthesized ones).
//!
//! Rules marked `synthesized_from(benchmark)` model the offline-synthesis
//! pipeline of §4: they carry the benchmark whose corpus expressions
//! produced them, which drives the leave-one-out protocol (§5) and the
//! hand-written-only ablation (§5.3). The set includes the paper's own
//! example (`i16(x_u8) << c0 -> reinterpret(widening_shl(x_u8, u8(c0)))`,
//! learned from `add`).
//!
//! Every rule is checked by `pitchfork-lint`'s `rulecheck`: its
//! termination analysis checks instantiation and strict cost descent, and
//! its soundness analysis (the `fpir-synth` verifier) proves or checks
//! semantic equivalence on exhaustive 8-bit / sampled wider inputs — the
//! role Rosette played for the authors (§2.4).

use fpir::expr::{BinOp, CmpOp, FpirOp};
use fpir_trs::dsl::*;
use fpir_trs::pattern::{Pat, TypePat};
use fpir_trs::predicate::Predicate;
use fpir_trs::rule::{Rule, RuleClass, RuleSet};
use fpir_trs::template::{CFn, Template, TyRef};

fn lift(name: &str, lhs: Pat, rhs: Template) -> Rule {
    Rule::new(name, RuleClass::Lift, lhs, rhs)
}

/// `cast` pattern whose target is the widened type of type-var `v`.
fn wcast(v: u8, inner: Pat) -> Pat {
    Pat::Cast(TypePat::WidenOf(v), Box::new(inner))
}

/// `cast` pattern whose target is the widened *signed* type of var `v`.
fn wscast(v: u8, inner: Pat) -> Pat {
    Pat::Cast(TypePat::WidenSignedOf(v), Box::new(inner))
}

fn boxed(t: Template) -> Box<Template> {
    Box::new(t)
}

/// The full lifting rule set: hand-written core plus synthesized
/// augmentations.
pub fn lift_rules() -> RuleSet {
    let mut rs = RuleSet::new("lift");
    rs.extend(widening_rules());
    rs.extend(saturating_cast_rules());
    rs.extend(saturating_arith_rules());
    rs.extend(halving_rules());
    rs.extend(absd_rules());
    rs.extend(shift_and_mul_rules());
    rs.extend(synthesized_rules());
    rs
}

/// Only the hand-written subset (the §5.3 ablation's baseline).
pub fn hand_written_lift_rules() -> RuleSet {
    lift_rules().hand_written_only()
}

fn widening_rules() -> Vec<Rule> {
    vec![
        // u16(x_u8) + u16(y_u8) -> widening_add(x, y)
        lift(
            "widening-add",
            pat_add(wcast(0, wild_v(0)), wcast(0, wild_t(1, TypePat::Var(0)))),
            tfpir2(FpirOp::WideningAdd, tw(0), tw(1)),
        ),
        // i16(x) - i16(y) -> widening_sub(x, y)  (signed widen, any source)
        lift(
            "widening-sub",
            pat_sub(wscast(0, wild_v(0)), wscast(0, wild_t(1, TypePat::Var(0)))),
            tfpir2(FpirOp::WideningSub, tw(0), tw(1)),
        ),
        // u16(x) * u16(y) -> widening_mul(x, y)
        lift(
            "widening-mul",
            pat_mul(wcast(0, wild_v(0)), wcast(0, wild_t(1, TypePat::Var(0)))),
            tfpir2(FpirOp::WideningMul, tw(0), tw(1)),
        ),
        // u16(x_u8) * c0 -> widening_shl(x, log2(c0))   [is_pow2(c0), c0 > 1]
        // (Figure 4 of the paper.)
        lift(
            "widening-mul-pow2-to-shl",
            pat_mul(wcast(0, wild_v(0)), cwild_t(1, TypePat::WidenOf(0))),
            tfpir2(FpirOp::WideningShl, tw(0), tconst_f(CFn::Log2, 1, TyRef::OfWild(0))),
        )
        .with_pred(Predicate::All(vec![
            Predicate::IsPow2(1),
            Predicate::ConstInRange { id: 1, lo: 2, hi: i128::MAX },
        ])),
        // u16(x_u8) * c0 -> widening_mul(x, c0')   [c0 fits the narrow type]
        lift(
            "widening-mul-const",
            pat_mul(wcast(0, wild_v(0)), cwild_t(1, TypePat::WidenOf(0))),
            tfpir2(FpirOp::WideningMul, tw(0), tconst(1, 0)),
        ),
        // u16(x_u8) << c0 -> widening_shl(x, c0')
        lift(
            "widening-shl-const",
            pat_shl(wcast(0, wild_v(0)), cwild_t(1, TypePat::WidenOf(0))),
            tfpir2(FpirOp::WideningShl, tw(0), tconst(1, 0)),
        )
        .with_pred(Predicate::ConstInRange { id: 1, lo: 0, hi: 63 }),
        // u16(x_u8) >> c0 -> widening_shr(x, c0')
        lift(
            "widening-shr-const",
            pat_shr(wcast(0, wild_v(0)), cwild_t(1, TypePat::WidenOf(0))),
            tfpir2(FpirOp::WideningShr, tw(0), tconst(1, 0)),
        )
        .with_pred(Predicate::ConstInRange { id: 1, lo: 0, hi: 63 }),
        // u16(x_u8) + y_u16 -> extending_add(y, x)   (Figure 4)
        lift(
            "extending-add",
            pat_add(wcast(0, wild_v(0)), wild_t(1, TypePat::WidenOf(0))),
            tfpir2(FpirOp::ExtendingAdd, tw(1), tw(0)),
        ),
        // y_u16 - u16(x_u8) -> extending_sub(y, x)
        lift(
            "extending-sub",
            pat_sub(wild_t(1, TypePat::WidenOf(0)), wcast(0, wild_v(0))),
            tfpir2(FpirOp::ExtendingSub, tw(1), tw(0)),
        ),
        // y_u16 * u16(x_u8) -> extending_mul(y, x)
        lift(
            "extending-mul",
            pat_mul(wild_t(1, TypePat::WidenOf(0)), wcast(0, wild_v(0))),
            tfpir2(FpirOp::ExtendingMul, tw(1), tw(0)),
        ),
        // extending_add(extending_add(x, y), z) -> widening_add(y, z) + x
        // (Figure 4 — the reassociation that shapes the Sobel kernel.)
        lift(
            "extending-add-reassociate",
            pat_fpir2(
                FpirOp::ExtendingAdd,
                pat_fpir2(FpirOp::ExtendingAdd, wild_t(0, TypePat::WidenOf(1)), wild_v(1)),
                wild_t(2, TypePat::Var(1)),
            ),
            tbin(BinOp::Add, tfpir2(FpirOp::WideningAdd, tw(1), tw(2)), tw(0)),
        ),
    ]
}

fn saturating_cast_rules() -> Vec<Rule> {
    let clamp_hi = |inner: Pat| pat_min(inner, cwild_t(1, TypePat::Var(0)));
    let clamp_lo = |inner: Pat| pat_max(inner, cwild_t(2, TypePat::Var(0)));
    vec![
        // u8(min(x_u16, 255)) -> saturating_cast<u8>(x_u16)   (Figure 4)
        lift(
            "sat-cast-unsigned-narrow",
            Pat::Cast(TypePat::NarrowOf(0), Box::new(clamp_hi(wild_t(0, TypePat::AnyUnsigned(0))))),
            Template::SatCast(TyRef::NarrowOfWild(0), boxed(tw(0))),
        )
        .with_pred(Predicate::ConstEqOwnNarrowMax(1)),
        // u8(max(min(x_i16, 255), 0)) -> saturating_cast<u8>(x_i16)
        lift(
            "sat-cast-signed-to-unsigned",
            Pat::Cast(
                TypePat::NarrowUnsignedOf(0),
                Box::new(clamp_lo(clamp_hi(wild_t(0, TypePat::AnySigned(0))))),
            ),
            Template::SatCast(TyRef::NarrowUnsignedOfWild(0), boxed(tw(0))),
        )
        .with_pred(Predicate::All(vec![
            Predicate::ConstEqOwnNarrowUnsignedMax(1),
            Predicate::ConstEq { id: 2, value: 0 },
        ])),
        // i8(max(min(x_i16, 127), -128)) -> saturating_cast<i8>(x_i16)
        lift(
            "sat-cast-signed-narrow",
            Pat::Cast(
                TypePat::NarrowOf(0),
                Box::new(clamp_lo(clamp_hi(wild_t(0, TypePat::AnySigned(0))))),
            ),
            Template::SatCast(TyRef::NarrowOfWild(0), boxed(tw(0))),
        )
        .with_pred(Predicate::All(vec![
            Predicate::ConstEqOwnNarrowMax(1),
            Predicate::ConstEqOwnNarrowMin(2),
        ])),
    ]
}

fn saturating_arith_rules() -> Vec<Rule> {
    vec![
        // saturating_cast<t>(widening_add(x_t, y_t)) -> saturating_add(x, y)
        lift(
            "saturating-add",
            Pat::SatCast(
                TypePat::Var(0),
                Box::new(pat_fpir2(FpirOp::WideningAdd, wild_v(0), wild_t(1, TypePat::Var(0)))),
            ),
            tfpir2(FpirOp::SaturatingAdd, tw(0), tw(1)),
        ),
        // saturating_cast<t>(widening_sub(x_t, y_t)) -> saturating_sub(x, y)
        lift(
            "saturating-sub",
            Pat::SatCast(
                TypePat::Var(0),
                Box::new(pat_fpir2(FpirOp::WideningSub, wild_v(0), wild_t(1, TypePat::Var(0)))),
            ),
            tfpir2(FpirOp::SaturatingSub, tw(0), tw(1)),
        ),
        // saturating_cast<t>(widening_shl(x_t, c)) -> saturating_shl(x, c)
        // (§8.4's extension instruction). The identity only holds for
        // counts within the lane width — verification (§2.4) caught the
        // unguarded version: at c in (bits, 2*bits] the widening form
        // wraps to zero where saturating_shl saturates.
        lift(
            "saturating-shl",
            Pat::SatCast(
                TypePat::Var(0),
                Box::new(pat_fpir2(
                    FpirOp::WideningShl,
                    wild_v(0),
                    cwild_t(1, TypePat::SameWidthAs(0)),
                )),
            ),
            tfpir2(FpirOp::SaturatingShl, tw(0), tconst(1, 0)),
        )
        .with_pred(Predicate::All(vec![
            Predicate::ConstInRange { id: 1, lo: 0, hi: 64 },
            Predicate::ConstLeOwnBits(1),
        ])),
    ]
}

fn halving_rules() -> Vec<Rule> {
    let wadd01 = || pat_fpir2(FpirOp::WideningAdd, wild_v(0), wild_t(1, TypePat::Var(0)));
    let wsub01 = || pat_fpir2(FpirOp::WideningSub, wild_v(0), wild_t(1, TypePat::Var(0)));
    vec![
        // u8(widening_add(x, y) >> 1) -> halving_add(x, y)
        lift(
            "halving-add",
            Pat::Cast(TypePat::Var(0), Box::new(pat_shr(wadd01(), lit_t(1, TypePat::WidenOf(0))))),
            tfpir2(FpirOp::HalvingAdd, tw(0), tw(1)),
        ),
        // u8(widening_add(x, y) / 2) -> halving_add(x, y)
        lift(
            "halving-add-div",
            Pat::Cast(TypePat::Var(0), Box::new(pat_div(wadd01(), lit_t(2, TypePat::WidenOf(0))))),
            tfpir2(FpirOp::HalvingAdd, tw(0), tw(1)),
        ),
        // u8((widening_add(x, y) + 1) >> 1) -> rounding_halving_add(x, y)
        lift(
            "rounding-halving-add",
            Pat::Cast(
                TypePat::Var(0),
                Box::new(pat_shr(
                    pat_add(wadd01(), lit_t(1, TypePat::WidenOf(0))),
                    lit_t(1, TypePat::WidenOf(0)),
                )),
            ),
            tfpir2(FpirOp::RoundingHalvingAdd, tw(0), tw(1)),
        ),
        // u8((widening_add(x, y) + 1) / 2) -> rounding_halving_add(x, y)
        lift(
            "rounding-halving-add-div",
            Pat::Cast(
                TypePat::Var(0),
                Box::new(pat_div(
                    pat_add(wadd01(), lit_t(1, TypePat::WidenOf(0))),
                    lit_t(2, TypePat::WidenOf(0)),
                )),
            ),
            tfpir2(FpirOp::RoundingHalvingAdd, tw(0), tw(1)),
        ),
        // u8(widening_sub(x, y) >> 1) -> halving_sub(x, y)
        lift(
            "halving-sub",
            Pat::Cast(
                TypePat::Var(0),
                Box::new(pat_shr(wsub01(), lit_t(1, TypePat::WidenSignedOf(0)))),
            ),
            tfpir2(FpirOp::HalvingSub, tw(0), tw(1)),
        ),
        // u8(widening_sub(x, y) / 2) -> halving_sub(x, y)
        lift(
            "halving-sub-div",
            Pat::Cast(
                TypePat::Var(0),
                Box::new(pat_div(wsub01(), lit_t(2, TypePat::WidenSignedOf(0)))),
            ),
            tfpir2(FpirOp::HalvingSub, tw(0), tw(1)),
        ),
    ]
}

fn absd_rules() -> Vec<Rule> {
    // select(x > y, x - y, y - x) -> reinterpret(absd(x, y)); the
    // reinterpret restores the (possibly signed) source type — absd's
    // output is always unsigned.
    let rhs = || Template::Reinterpret(TyRef::OfWild(0), boxed(tfpir2(FpirOp::Absd, tw(0), tw(1))));
    let x = || wild_v(0);
    let y = || wild_t(1, TypePat::Var(0));
    vec![
        lift(
            "absd-gt",
            pat_select(pat_cmp(CmpOp::Gt, x(), y()), pat_sub(x(), y()), pat_sub(y(), x())),
            rhs(),
        ),
        lift(
            "absd-lt",
            pat_select(pat_cmp(CmpOp::Lt, x(), y()), pat_sub(y(), x()), pat_sub(x(), y())),
            rhs(),
        ),
        lift(
            "absd-ge",
            pat_select(pat_cmp(CmpOp::Ge, x(), y()), pat_sub(x(), y()), pat_sub(y(), x())),
            rhs(),
        ),
        lift(
            "absd-le",
            pat_select(pat_cmp(CmpOp::Le, x(), y()), pat_sub(y(), x()), pat_sub(x(), y())),
            rhs(),
        ),
        // select(x > 0, x, -x) -> reinterpret(abs(x))
        lift(
            "abs-select",
            pat_select(
                pat_cmp(CmpOp::Gt, x(), lit_t(0, TypePat::Var(0))),
                x(),
                pat_sub(lit_t(0, TypePat::Var(0)), x()),
            ),
            Template::Reinterpret(
                TyRef::OfWild(0),
                boxed(Template::Fpir(FpirOp::Abs, vec![tw(0)])),
            ),
        ),
        // max(x, -x) -> reinterpret(abs(x)) — signed lanes only:
        // verification (§2.4) caught the unguarded version, where an
        // unsigned -x wraps to a large value and max picks it.
        lift(
            "abs-max",
            pat_max(
                wild_t(0, TypePat::AnySigned(0)),
                pat_sub(lit_t(0, TypePat::Var(0)), wild_t(0, TypePat::AnySigned(0))),
            ),
            Template::Reinterpret(
                TyRef::OfWild(0),
                boxed(Template::Fpir(FpirOp::Abs, vec![tw(0)])),
            ),
        ),
    ]
}

fn shift_and_mul_rules() -> Vec<Rule> {
    vec![
        // u8((u16(x) + c1) >> c2) -> rounding_shr(x, c2')
        //   [c1 == 1 << (c2 - 1), c2 <= bits(x)]
        lift(
            "rounding-shr",
            Pat::Cast(
                TypePat::Var(0),
                Box::new(pat_shr(
                    pat_add(wcast(0, wild_v(0)), cwild_t(1, TypePat::WidenOf(0))),
                    cwild_t(2, TypePat::WidenOf(0)),
                )),
            ),
            tfpir2(FpirOp::RoundingShr, tw(0), tconst(2, 0)),
        )
        .with_pred(Predicate::All(vec![
            Predicate::Pow2Link { id: 1, of: 2 },
            Predicate::ConstLeHalfOwnBits(2),
        ])),
        // u8(widening_mul(x, y) >> c1) -> mul_shr(x, y, c1')  [c1 >= bits(x)]
        lift(
            "mul-shr",
            Pat::Cast(
                TypePat::Var(0),
                Box::new(pat_shr(
                    pat_fpir2(FpirOp::WideningMul, wild_v(0), wild_t(1, TypePat::Var(0))),
                    cwild_t(2, TypePat::WidenOf(0)),
                )),
            ),
            Template::Fpir(FpirOp::MulShr, vec![tw(0), tw(1), tconst(2, 0)]),
        )
        .with_pred(Predicate::ConstGeHalfOwnBits(2)),
    ]
}

/// Rules learned by the offline synthesis pipeline (§4), tagged with the
/// benchmark whose corpus produced them.
fn synthesized_rules() -> Vec<Rule> {
    vec![
        // i16(x_u8) << c0 -> reinterpret(widening_shl(x_u8, u8(c0)))
        //   [0 <= c0 < 256] — the paper's worked example from `add` (§4.1):
        // the hand-written set had the unsigned-widen case but missed the
        // signed-widen-of-unsigned one.
        lift(
            "lift-signed-widen-shl",
            pat_shl(
                wscast(0, wild_t(0, TypePat::AnyUnsigned(0))),
                cwild_t(1, TypePat::WidenSignedOf(0)),
            ),
            Template::Reinterpret(
                TyRef::WidenSignedOfWild(0),
                boxed(tfpir2(FpirOp::WideningShl, tw(0), tconst(1, 0))),
            ),
        )
        .with_pred(Predicate::ConstInRange { id: 1, lo: 0, hi: 63 })
        .synthesized_from("add"),
        // u16(a) - u16(b) (unsigned widen) -> reinterpret(widening_sub)
        lift(
            "lift-unsigned-widen-sub",
            pat_sub(
                wcast(0, wild_t(0, TypePat::AnyUnsigned(0))),
                wcast(0, wild_t(1, TypePat::Var(0))),
            ),
            Template::Reinterpret(
                TyRef::WidenOfWild(0),
                boxed(tfpir2(FpirOp::WideningSub, tw(0), tw(1))),
            ),
        )
        .synthesized_from("sobel3x3"),
        // (x & y) + ((x ^ y) >> 1) -> halving_add(x, y) — the branch-free
        // average idiom hand-optimized portable code uses; no widening.
        lift(
            "lift-avg-magic-floor",
            pat_add(
                pat_and(wild_v(0), wild_t(1, TypePat::Var(0))),
                pat_shr(pat_xor(wild_v(0), wild_t(1, TypePat::Var(0))), lit_t(1, TypePat::Var(0))),
            ),
            tfpir2(FpirOp::HalvingAdd, tw(0), tw(1)),
        )
        .synthesized_from("average_pool")
        .synthesized_from("camera_pipe"),
        // (x | y) - ((x ^ y) >> 1) -> rounding_halving_add(x, y)
        lift(
            "lift-avg-magic-ceil",
            pat_sub(
                pat_or(wild_v(0), wild_t(1, TypePat::Var(0))),
                pat_shr(pat_xor(wild_v(0), wild_t(1, TypePat::Var(0))), lit_t(1, TypePat::Var(0))),
            ),
            tfpir2(FpirOp::RoundingHalvingAdd, tw(0), tw(1)),
        )
        .synthesized_from("average_pool")
        .synthesized_from("camera_pipe"),
        // u8(min(255, x_u16)) with the clamp on the other side of an
        // explicit min/max chain: min(max(x, 0), 255) over *unsigned*
        // sources (max with 0 is the identity the hand-written set missed).
        lift(
            "lift-sat-cast-redundant-max",
            Pat::Cast(
                TypePat::NarrowOf(0),
                Box::new(pat_min(
                    pat_max(wild_t(0, TypePat::AnyUnsigned(0)), cwild_t(2, TypePat::Var(0))),
                    cwild_t(1, TypePat::Var(0)),
                )),
            ),
            Template::SatCast(TyRef::NarrowOfWild(0), boxed(tw(0))),
        )
        .with_pred(Predicate::All(vec![
            Predicate::ConstEqOwnNarrowMax(1),
            Predicate::ConstEq { id: 2, value: 0 },
        ]))
        .synthesized_from("camera_pipe"),
        // min(max(x_i16, -128), 127) order-swapped clamp for signed narrows.
        lift(
            "lift-sat-cast-swapped-clamp",
            Pat::Cast(
                TypePat::NarrowOf(0),
                Box::new(pat_min(
                    pat_max(wild_t(0, TypePat::AnySigned(0)), cwild_t(2, TypePat::Var(0))),
                    cwild_t(1, TypePat::Var(0)),
                )),
            ),
            Template::SatCast(TyRef::NarrowOfWild(0), boxed(tw(0))),
        )
        .with_pred(Predicate::All(vec![
            Predicate::ConstEqOwnNarrowMax(1),
            Predicate::ConstEqOwnNarrowMin(2),
        ]))
        .synthesized_from("camera_pipe"),
        // u8(max(min(x_i16, 255), 0)) with min/max swapped.
        lift(
            "lift-sat-cast-s2u-swapped",
            Pat::Cast(
                TypePat::NarrowUnsignedOf(0),
                Box::new(pat_min(
                    pat_max(wild_t(0, TypePat::AnySigned(0)), cwild_t(2, TypePat::Var(0))),
                    cwild_t(1, TypePat::Var(0)),
                )),
            ),
            Template::SatCast(TyRef::NarrowUnsignedOfWild(0), boxed(tw(0))),
        )
        .with_pred(Predicate::All(vec![
            Predicate::ConstEqOwnNarrowUnsignedMax(1),
            Predicate::ConstEq { id: 2, value: 0 },
        ]))
        .synthesized_from("camera_pipe"),
        // u8((X_u16 + c1) >> c2) -> u8(rounding_shr(X, c2))
        //   [c1 == 1 << (c2 - 1), X + c1 provably cannot overflow] — the
        //   bounds-inference-derived rounding-shift lift that §5.3.1
        //   credits to synthesis on gaussian3x3; X is an arbitrary
        //   (bounded) expression rather than a widening cast.
        lift(
            "lift-rounding-shr-bounded",
            Pat::Cast(
                TypePat::NarrowOf(0),
                Box::new(pat_shr(
                    pat_add(wild_t(0, TypePat::AnyUnsigned(0)), cwild_t(1, TypePat::Var(0))),
                    cwild_t(2, TypePat::Var(0)),
                )),
            ),
            Template::Cast(
                TyRef::NarrowOfWild(0),
                boxed(tfpir2(FpirOp::RoundingShr, tw(0), tconst(2, 0))),
            ),
        )
        .with_pred(Predicate::All(vec![
            Predicate::Pow2Link { id: 1, of: 2 },
            Predicate::AddConstFits { x: 0, c: 1 },
        ]))
        .synthesized_from("gaussian3x3")
        .synthesized_from("gaussian5x5")
        .synthesized_from("add"),
        // u8((widening_mul(x, y) + c1) >> c2) -> rounding_mul_shr(x, y, c2')
        //   [c1 == 1 << (c2 - 1), c2 == bits(x)] — lifted to in matmul
        //   (§5.1.3).
        lift(
            "lift-rounding-mul-shr",
            Pat::Cast(
                TypePat::Var(0),
                Box::new(pat_shr(
                    pat_add(
                        pat_fpir2(FpirOp::WideningMul, wild_v(0), wild_t(1, TypePat::Var(0))),
                        cwild_t(2, TypePat::WidenOf(0)),
                    ),
                    cwild_t(3, TypePat::WidenOf(0)),
                )),
            ),
            Template::Fpir(FpirOp::RoundingMulShr, vec![tw(0), tw(1), tconst(3, 0)]),
        )
        .with_pred(Predicate::All(vec![
            Predicate::Pow2Link { id: 2, of: 3 },
            Predicate::ConstEqHalfOwnBits(3),
        ]))
        .synthesized_from("matmul"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpir::build;
    use fpir::types::{ScalarType as S, VectorType as V};
    use fpir_trs::cost::AgnosticCost;
    use fpir_trs::rewrite::Rewriter;

    #[test]
    fn rule_counts_are_sensible() {
        let rules = lift_rules();
        let hand = rules.hand_written_only();
        assert!(hand.len() >= 20, "only {} hand-written rules", hand.len());
        assert!(rules.len() > hand.len(), "no synthesized rules present");
    }

    #[test]
    fn sobel_kernel_lifts_to_figure_2c_shape() {
        // u16(a) + u16(b) * 2 + u16(c) must lift to
        // widening_add(a, c) + widening_shl(b, 1).
        let t = V::new(S::U8, 16);
        let w = |n: &str| build::widen(build::var(n, t));
        let e = build::add(
            build::add(w("a"), build::mul(w("b"), build::constant(2, V::new(S::U16, 16)))),
            w("c"),
        );
        let rules = lift_rules();
        let mut rw = Rewriter::new(&rules, AgnosticCost);
        let out = rw.run(&e);
        assert_eq!(out.to_string(), "widening_add(a_u8, c_u8) + widening_shl(b_u8, 1)");
    }

    #[test]
    fn sobel_output_lifts_to_saturating_cast() {
        let t16 = V::new(S::U16, 16);
        let x = build::var("x", t16);
        let e = build::cast(S::U8, build::min(x.clone(), build::splat(255, &x)));
        let rules = lift_rules();
        let mut rw = Rewriter::new(&rules, AgnosticCost);
        assert_eq!(rw.run(&e).to_string(), "saturating_cast<u8>(x_u16)");
    }

    #[test]
    fn average_idioms_lift() {
        let t = V::new(S::U8, 16);
        let (a, b) = (build::var("a", t), build::var("b", t));
        // Widening round-up average.
        let wadd = build::widening_add(a.clone(), b.clone());
        let e = build::cast(
            S::U8,
            build::shr(build::add(wadd.clone(), build::splat(1, &wadd)), build::splat(1, &wadd)),
        );
        let rules = lift_rules();
        let mut rw = Rewriter::new(&rules, AgnosticCost);
        assert_eq!(rw.run(&e).to_string(), "rounding_halving_add(a_u8, b_u8)");
        // Branch-free magic average (synthesized rule).
        let e = build::add(
            build::bit_and(a.clone(), b.clone()),
            build::shr(build::bit_xor(a.clone(), b.clone()), build::splat(1, &a)),
        );
        let mut rw = Rewriter::new(&rules, AgnosticCost);
        assert_eq!(rw.run(&e).to_string(), "halving_add(a_u8, b_u8)");
    }

    #[test]
    fn absd_lifts_from_select() {
        let t = V::new(S::U16, 16);
        let (a, b) = (build::var("a", t), build::var("b", t));
        let e = build::select(
            build::lt(a.clone(), b.clone()),
            build::sub(b.clone(), a.clone()),
            build::sub(a.clone(), b.clone()),
        );
        let rules = lift_rules();
        let mut rw = Rewriter::new(&rules, AgnosticCost);
        assert_eq!(rw.run(&e).to_string(), "reinterpret<u16>(absd(a_u16, b_u16))");
    }

    #[test]
    fn repeated_wildcards_match_dags_built_apart_in_linear_time() {
        // select(a1 > b, a2 - b, b - a3) where a1, a2 and a3 are the same
        // 56-level self-shared max(x, x) chain built three times: equal
        // trees of 2^56 nodes sharing no allocation. absd-gt binds `x`
        // three times, so matching must compare the chains as DAGs. (At
        // 56 levels the select's tree cost, ~3 * 2^61, still fits in a
        // u64; a deeper chain saturates `Cost` on both sides of the
        // rewrite and no rule can show a strict descent.)
        let t = V::new(S::U16, 16);
        let chain = || {
            let mut e = build::var("x", t);
            for _ in 0..56 {
                e = build::max(e.clone(), e);
            }
            e
        };
        let b = build::var("b", t);
        let e = build::select(
            build::gt(chain(), b.clone()),
            build::sub(chain(), b.clone()),
            build::sub(b, chain()),
        );
        let rules = lift_rules();
        let mut rw = Rewriter::new(&rules, AgnosticCost);
        let start = std::time::Instant::now();
        let out = rw.run(&e);
        let took = start.elapsed();
        assert_eq!(rw.stats.fired().get("absd-gt"), Some(&1), "{:?}", rw.stats.fired());
        assert!(matches!(out.kind(), fpir::ExprKind::Reinterpret(_)));
        assert!(took < std::time::Duration::from_millis(50), "lift took {took:?}");
    }

    #[test]
    fn saturating_add_lifts_through_two_stages() {
        // u8(min(u16(a) + u16(b), 255)): widening-add, then sat-cast, then
        // the fused saturating_add.
        let t = V::new(S::U8, 16);
        let (a, b) = (build::var("a", t), build::var("b", t));
        let sum = build::add(build::widen(a), build::widen(b));
        let e = build::cast(S::U8, build::min(sum.clone(), build::splat(255, &sum)));
        let rules = lift_rules();
        let mut rw = Rewriter::new(&rules, AgnosticCost);
        assert_eq!(rw.run(&e).to_string(), "saturating_add(a_u8, b_u8)");
    }

    #[test]
    fn leave_one_out_removes_matmul_rules() {
        let rules = lift_rules();
        let without = rules.leaving_out("matmul");
        assert!(without.len() < rules.len());
        // The rounding_mul_shr lift must be gone.
        assert!(!without.rules().iter().any(|r| r.name == "lift-rounding-mul-shr"));
    }

    #[test]
    fn signed_widen_shl_example_from_paper() {
        // i16(x_u8) << 6 -> reinterpret(widening_shl(x_u8, 6))
        let t = V::new(S::U8, 16);
        let e = build::shl(
            build::cast(S::I16, build::var("x", t)),
            build::constant(6, V::new(S::I16, 16)),
        );
        let rules = lift_rules();
        let mut rw = Rewriter::new(&rules, AgnosticCost);
        assert_eq!(rw.run(&e).to_string(), "reinterpret<i16>(widening_shl(x_u8, 6))");
        // Without synthesized rules it stays unlifted (the §5.3 ablation).
        let hand = hand_written_lift_rules();
        let mut rw = Rewriter::new(&hand, AgnosticCost);
        assert!(rw.run(&e).to_string().contains("i16(x_u8)"));
    }
}
