//! Properties of the rewriting engine itself: termination, strict cost
//! descent, agreement with the reference rewriter, and pattern/match
//! round trips.

use fpir::build;
use fpir::expr::{BinOp, Expr, ExprKind, RcExpr};
use fpir::rand_expr::{gen_expr, GenConfig};
use fpir::types::{ScalarType, VectorType};
use fpir::FpirOp;
use fpir_trs::cost::{AgnosticCost, Cost, CostModel};
use fpir_trs::dsl::*;
use fpir_trs::pattern::{match_pat, Pat, TypePat};
use fpir_trs::predicate::Predicate;
use fpir_trs::rewrite::{rewrite_reference, Rewriter};
use fpir_trs::rule::{Rule, RuleClass, RuleSet};
use fpir_trs::template::{CFn, Template, TyRef};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn demo_rules() -> RuleSet {
    let mut rs = RuleSet::new("prop-demo");
    rs.push(Rule::new(
        "widening-add",
        RuleClass::Lift,
        pat_add(
            widen_cast(0),
            Pat::Cast(TypePat::WidenOf(0), Box::new(wild_t(1, TypePat::Var(0)))),
        ),
        Template::Fpir(FpirOp::WideningAdd, vec![tw(0), tw(1)]),
    ));
    rs.push(
        Rule::new(
            "sat-cast",
            RuleClass::Lift,
            Pat::Cast(
                TypePat::NarrowOf(0),
                Box::new(pat_min(wild_t(0, TypePat::AnyUnsigned(0)), cwild_t(1, TypePat::Var(0)))),
            ),
            Template::SatCast(fpir_trs::template::TyRef::NarrowOfWild(0), Box::new(tw(0))),
        )
        .with_pred(fpir_trs::predicate::Predicate::ConstEqOwnNarrowMax(1)),
    );
    rs
}

/// Charges an add for a nested add on its right or an FPIR node on its
/// left, so reassociating and commuting both descend.
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

/// Rules whose templates build redexes: reassociating
/// `a + (b + c)` builds `a + b`, which the pass that built it never
/// walks, and lifting that node changes the operand of a node whose
/// rules already ran, which must then run again.
fn redex_building_rules() -> RuleSet {
    let add = |a: Template, b: Template| Template::Bin(BinOp::Add, Box::new(a), Box::new(b));
    let widen_of = |id| Pat::Cast(TypePat::WidenOf(0), Box::new(wild_t(id, TypePat::Var(0))));
    let mut rs = RuleSet::new("redex-building");
    rs.push(Rule::new(
        "lift-min-255-to-sat-cast",
        RuleClass::Lift,
        Pat::Cast(
            TypePat::NarrowOf(0),
            Box::new(pat_min(wild_t(0, TypePat::AnyUnsigned(0)), lit(255))),
        ),
        Template::SatCast(TyRef::NarrowOfWild(0), Box::new(tw(0))),
    ));
    rs.push(Rule::new(
        "lift-widening-add",
        RuleClass::Lift,
        pat_add(widen_of(0), widen_of(1)),
        Template::Fpir(FpirOp::WideningAdd, vec![tw(0), tw(1)]),
    ));
    rs.push(
        Rule::new(
            "lift-mul-pow2",
            RuleClass::Lift,
            pat_mul(widen_of(0), cwild(1)),
            Template::Fpir(
                FpirOp::WideningShl,
                vec![tw(0), Template::Const { f: CFn::Log2, of: 1, ty: TyRef::OfWild(0) }],
            ),
        )
        .with_pred(Predicate::IsPow2(1)),
    );
    rs.push(Rule::new(
        "reassociate",
        RuleClass::Lift,
        pat_add(wild(0), pat_add(wild(1), wild(2))),
        add(add(tw(0), tw(1)), tw(2)),
    ));
    rs.push(Rule::new(
        "commute",
        RuleClass::Lift,
        pat_add(pat_fpir2(FpirOp::WideningAdd, wild(0), wild(1)), wild(2)),
        add(tw(2), Template::Fpir(FpirOp::WideningAdd, vec![tw(0), tw(1)])),
    ));
    rs
}

/// A random `u16` DAG for [`redex_building_rules`]: sums and
/// products over widened `u8` inputs, `u16` inputs and constants,
/// whose operands are drawn from the nodes built so far (so subterms
/// are shared), sometimes under `u8(min(_, 255))`.
fn redex_dag(rng: &mut StdRng) -> RcExpr {
    let (narrow, wide) = (VectorType::new(ScalarType::U8, 4), VectorType::new(ScalarType::U16, 4));
    let mut nodes: Vec<RcExpr> = vec![
        build::widen(build::var("a", narrow)),
        build::widen(build::var("b", narrow)),
        build::widen(build::var("c", narrow)),
        build::var("x", wide),
    ];
    for _ in 0..rng.gen_range(1..12) {
        let a = nodes[rng.gen_range(0..nodes.len())].clone();
        let b = nodes[rng.gen_range(0..nodes.len())].clone();
        nodes.push(match rng.gen_range(0..6) {
            0 => build::mul(a, build::constant([2, 3, 8][rng.gen_range(0..3)], wide)),
            _ => build::add(a, b),
        });
    }
    let root = nodes.pop().expect("a node was built");
    if rng.gen_bool(0.3) {
        build::cast(ScalarType::U8, build::min(root.clone(), build::splat(255, &root)))
    } else {
        root
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The memoized rewriter reaches the reference rewriter's fixpoint
    /// on DAGs whose rewrites build new redexes, including below nodes
    /// whose rules already ran.
    #[test]
    fn rewriter_matches_the_reference_on_redex_building_rules(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let e = redex_dag(&mut rng);
        let rules = redex_building_rules();
        let out = Rewriter::new(&rules, ShapeCost).run(&e);
        let (want, _) = rewrite_reference(&rules, &ShapeCost, &e);
        prop_assert_eq!(out, want, "on {}", e);
    }

    /// The rewriter terminates (bounded passes) and never increases the
    /// cost, on arbitrary expressions.
    #[test]
    fn rewriting_terminates_and_descends(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = GenConfig { lanes: 4, fpir_prob: 0.2, ..GenConfig::default() };
        let e = gen_expr(&mut rng, &cfg, ScalarType::U16);
        let rules = demo_rules();
        let mut rw = Rewriter::new(&rules, AgnosticCost);
        let out = rw.run(&e);
        let model = AgnosticCost;
        prop_assert!(model.cost(&out) <= model.cost(&e));
        prop_assert!(rw.stats.passes <= 16);
        // Rewriting is idempotent at the fixpoint.
        let mut rw2 = Rewriter::new(&rules, AgnosticCost);
        prop_assert_eq!(rw2.run(&out), out);
    }

    /// A pattern built from an expression's own shape always matches it
    /// (wildcards at the leaves).
    #[test]
    fn wildcards_match_anything(seed in any::<u64>(), bits_i in 0usize..3) {
        let elem = [ScalarType::U8, ScalarType::U16, ScalarType::I16][bits_i];
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = GenConfig { lanes: 4, ..GenConfig::default() };
        let e = gen_expr(&mut rng, &cfg, elem);
        prop_assert!(match_pat(&wild(0), &e).is_some());
        // Typed wildcard matches iff the element type agrees.
        let matches_exact = match_pat(&wild_t(0, TypePat::Exact(elem)), &e).is_some();
        prop_assert!(matches_exact);
        let other = if elem == ScalarType::U8 { ScalarType::I32 } else { ScalarType::U8 };
        prop_assert!(match_pat(&wild_t(0, TypePat::Exact(other)), &e).is_none());
    }

    /// Nonlinear patterns accept equal subtrees and reject unequal ones.
    #[test]
    fn nonlinear_matching(a in any::<u8>(), b in any::<u8>()) {
        let t = VectorType::new(ScalarType::U8, 4);
        let p = pat_add(cwild(0), cwild(0));
        let e = build::add(build::constant(a as i128, t), build::constant(b as i128, t));
        prop_assert_eq!(match_pat(&p, &e).is_some(), a == b);
    }

    /// Commutative matching finds the constant on either side.
    #[test]
    fn commutative_matching(c in any::<u8>(), flip in any::<bool>()) {
        let t = VectorType::new(ScalarType::U8, 4);
        let x = build::var("x", t);
        let k = build::constant(c as i128, t);
        let e = if flip { build::mul(k, x) } else { build::mul(x, k) };
        let p = pat_mul(wild(0), cwild(1));
        let bindings = match_pat(&p, &e);
        prop_assert!(bindings.is_some());
        prop_assert_eq!(bindings.unwrap().const_value(1), Some(c as i128));
    }
}
