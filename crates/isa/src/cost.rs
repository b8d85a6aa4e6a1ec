//! Target-specific cost model for the lowering TRSs (§3.3).
//!
//! Lowering rules are "designed using target-specific cost models provided
//! by processor documentation to maximize throughput". Here the model
//! prices machine nodes by their table cost times the number of native
//! registers they touch; any node that is *not yet* a machine instruction
//! carries a large unlowered penalty, so every lowering rewrite strictly
//! decreases the cost and the rewriter's convergence argument carries
//! over unchanged.

use crate::def::{target, Target};
use fpir::expr::{Expr, ExprKind};
use fpir::Isa;
use fpir_trs::cost::{Cost, CostModel};

/// Penalty per unlowered (non-machine) interior node.
pub const UNLOWERED_PENALTY: u64 = 1_000;

/// Expression-level cost for one target.
#[derive(Debug, Clone, Copy)]
pub struct TargetCost {
    t: &'static Target,
}

impl TargetCost {
    /// The cost model for `isa`.
    pub fn new(isa: Isa) -> TargetCost {
        TargetCost { t: target(isa) }
    }

    /// Cost units of a single machine node (instruction cost × native
    /// registers processed). Unknown opcodes price like the penalty so
    /// mis-authored rules never look attractive.
    pub fn mach_node_cost(&self, e: &Expr) -> u64 {
        let ExprKind::Mach(op, _) = e.kind() else {
            return UNLOWERED_PENALTY;
        };
        let Some(def) = self.t.def(*op) else {
            return UNLOWERED_PENALTY;
        };
        let rf = (0..e.arity())
            .map(|i| self.t.reg_factor(e.child(i).ty()))
            .chain(std::iter::once(self.t.reg_factor(e.ty())))
            .max()
            .unwrap_or(1);
        def.cost as u64 * rf
    }
}

impl CostModel for TargetCost {
    fn node_cost(&self, e: &Expr) -> Cost {
        let total = match e.kind() {
            ExprKind::Var(_) | ExprKind::Const(_) => 0,
            ExprKind::Mach(..) => self.mach_node_cost(e),
            _ => UNLOWERED_PENALTY * self.t.reg_factor(e.ty()),
        };
        Cost { width_sum: total, op_rank: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::legalize::legalize;
    use fpir::build;
    use fpir::types::{ScalarType as S, VectorType as V};

    #[test]
    fn lowering_reduces_cost() {
        let t = V::new(S::U8, 16);
        let e = build::widening_add(build::var("a", t), build::var("b", t));
        let model = TargetCost::new(Isa::ArmNeon);
        let lowered = legalize(&e, target(Isa::ArmNeon)).unwrap();
        assert!(model.cost(&lowered) < model.cost(&e));
    }

    #[test]
    fn wider_vectors_cost_more() {
        let model = TargetCost::new(Isa::ArmNeon);
        let t8 = V::new(S::U8, 16);
        let t16 = V::new(S::U16, 16);
        let narrow =
            legalize(&build::add(build::var("a", t8), build::var("b", t8)), target(Isa::ArmNeon))
                .unwrap();
        let wide =
            legalize(&build::add(build::var("a", t16), build::var("b", t16)), target(Isa::ArmNeon))
                .unwrap();
        assert!(model.cost(&wide) > model.cost(&narrow));
    }

    #[test]
    fn emulated_paths_cost_more_than_native() {
        // halving_add: single vavg on HVX, widen/add/shift/narrow on x86.
        let t = V::new(S::U8, 32);
        let e = build::halving_add(build::var("a", t), build::var("b", t));
        let hvx = legalize(&e, target(Isa::HexagonHvx)).unwrap();
        let x86 = legalize(&e, target(Isa::X86Avx2)).unwrap();
        let hvx_cost = TargetCost::new(Isa::HexagonHvx).cost(&hvx).width_sum;
        let x86_cost = TargetCost::new(Isa::X86Avx2).cost(&x86).width_sum;
        // Compare per-register-normalized costs (HVX registers are 4x).
        assert!(x86_cost > hvx_cost, "x86 {x86_cost} vs hvx {hvx_cost}");
    }
}
