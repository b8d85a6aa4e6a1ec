//! Cost models ordering rewrites.
//!
//! The lifting TRS uses the paper's target-agnostic lexicographic cost
//! (§3.2): first the sum of the *bit widths of the inputs* to each
//! instruction — favouring fewer, narrower instructions — with ties broken
//! by an ordering over operations reflecting their average cost on real
//! targets. Lowering TRSs use target cost models provided by the
//! `fpir-isa` crate through the same [`CostModel`] trait.
//!
//! Convergence of the greedy rewriter is guaranteed by requiring each rule
//! application to strictly reduce the active model's cost.

use fpir::expr::{BinOp, Expr, ExprKind, FpirOp, RcExpr};

/// A lexicographic cost: compare `width_sum` first, then `op_rank`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Cost {
    /// Sum over instructions of their input lane widths (bits).
    pub width_sum: u64,
    /// Tie-breaking operation-cost sum.
    pub op_rank: u64,
}

impl Cost {
    /// The zero cost (a bare leaf).
    pub const ZERO: Cost = Cost { width_sum: 0, op_rank: 0 };

    /// Component-wise addition. Saturating: tree costs count every
    /// occurrence of a shared subexpression, so a deeply shared DAG can
    /// have a nominal tree cost beyond `u64` — such expressions pin at the
    /// maximum (and no rewrite there can claim a strict descent) instead
    /// of overflowing.
    pub fn plus(self, other: Cost) -> Cost {
        Cost {
            width_sum: self.width_sum.saturating_add(other.width_sum),
            op_rank: self.op_rank.saturating_add(other.op_rank),
        }
    }
}

/// Anything that can price an expression.
///
/// Implementors provide the *local* price of one node via
/// [`CostModel::node_cost`]; the whole-tree [`CostModel::cost`] is the sum
/// of node costs over every tree occurrence. The split lets the rewriter
/// cache subtree costs by node identity and price a rewrite candidate in
/// time proportional to its *new* nodes rather than its whole subtree.
pub trait CostModel {
    /// The local cost of a single node, excluding its children.
    fn node_cost(&self, expr: &Expr) -> Cost;

    /// The cost of the whole expression tree (every occurrence of a shared
    /// subexpression counts — the models price the tree the selector
    /// emits, not the DAG).
    fn cost(&self, expr: &RcExpr) -> Cost {
        let mut total = Cost::ZERO;
        expr.visit(&mut |e| total = total.plus(self.node_cost(e)));
        total
    }
}

/// The paper's target-agnostic cost model (§3.2).
#[derive(Debug, Clone, Copy, Default)]
pub struct AgnosticCost;

/// Tie-break rank of one operation — designed to capture average cost
/// across real targets. Notable orderings from the paper: 8-bit
/// `rounding_halving_add` is slightly cheaper than `halving_add` because
/// x86 supports only the former (`vpavgb`).
pub fn op_rank(expr: &Expr) -> u64 {
    match expr.kind() {
        ExprKind::Var(_) | ExprKind::Const(_) => 0,
        // A reinterpret is a register alias: free.
        ExprKind::Reinterpret(_) => 0,
        ExprKind::Cast(_) => 1,
        ExprKind::Cmp(..) => 2,
        ExprKind::Select(..) => 3,
        ExprKind::Bin(op, ..) => match op {
            BinOp::Add | BinOp::Sub | BinOp::Min | BinOp::Max => 2,
            BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr => 2,
            BinOp::Mul => 5,
            BinOp::Div | BinOp::Mod => 14,
        },
        ExprKind::Fpir(op, ..) => match op {
            FpirOp::RoundingHalvingAdd => 2,
            FpirOp::HalvingAdd | FpirOp::HalvingSub => 3,
            FpirOp::SaturatingAdd | FpirOp::SaturatingSub => 2,
            FpirOp::Abs | FpirOp::Absd => 2,
            FpirOp::SaturatingCast(_) | FpirOp::SaturatingNarrow => 2,
            FpirOp::WideningAdd | FpirOp::WideningSub => 3,
            FpirOp::ExtendingAdd | FpirOp::ExtendingSub => 3,
            FpirOp::WideningShl | FpirOp::WideningShr => 3,
            FpirOp::RoundingShl | FpirOp::RoundingShr | FpirOp::SaturatingShl => 3,
            FpirOp::WideningMul | FpirOp::ExtendingMul => 5,
            FpirOp::MulShr | FpirOp::RoundingMulShr => 6,
        },
        // Machine nodes do not appear during lifting; price them neutrally.
        ExprKind::Mach(..) => 1,
    }
}

impl CostModel for AgnosticCost {
    fn node_cost(&self, e: &Expr) -> Cost {
        if matches!(e.kind(), ExprKind::Var(_) | ExprKind::Const(_)) {
            return Cost::ZERO;
        }
        let input_bits: u64 = (0..e.arity()).map(|i| e.child(i).elem().bits() as u64).sum();
        Cost { width_sum: input_bits, op_rank: op_rank(e) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpir::build::*;
    use fpir::types::{ScalarType as S, VectorType as V};

    fn cost(e: &fpir::RcExpr) -> Cost {
        AgnosticCost.cost(e)
    }

    #[test]
    fn leaves_are_free() {
        let t = V::new(S::U8, 8);
        assert_eq!(cost(&var("x", t)), Cost::ZERO);
        assert_eq!(cost(&constant(3, t)), Cost::ZERO);
    }

    #[test]
    fn narrower_is_cheaper() {
        let t8 = V::new(S::U8, 8);
        let t16 = V::new(S::U16, 8);
        let narrow = add(var("a", t8), var("b", t8));
        let wide = add(var("a", t16), var("b", t16));
        assert!(cost(&narrow) < cost(&wide));
    }

    #[test]
    fn lifting_saturating_cast_reduces_cost() {
        // u8(min(x_u16, 255)) vs saturating_cast<u8>(x_u16).
        let t16 = V::new(S::U16, 8);
        let x = var("x", t16);
        let before = cast(S::U8, min(x.clone(), splat(255, &x)));
        let after = saturating_cast(S::U8, x);
        assert!(cost(&after) < cost(&before));
    }

    #[test]
    fn lifting_extending_add_reduces_cost() {
        // u16(x_u8) + y_u16 vs extending_add(y_u16, x_u8).
        let t8 = V::new(S::U8, 8);
        let t16 = V::new(S::U16, 8);
        let before = add(widen(var("x", t8)), var("y", t16));
        let after = extending_add(var("y", t16), var("x", t8));
        assert!(cost(&after) < cost(&before));
    }

    #[test]
    fn reassociation_tie_breaks_on_rank() {
        // extending_add(extending_add(x, y), z) vs widening_add(y, z) + x:
        // equal width sums, the widening form wins on rank.
        let t8 = V::new(S::U8, 8);
        let t16 = V::new(S::U16, 8);
        let (x, y, z) = (var("x", t16), var("y", t8), var("z", t8));
        let before = extending_add(extending_add(x.clone(), y.clone()), z.clone());
        let after = add(widening_add(y, z), x);
        let (cb, ca) = (cost(&before), cost(&after));
        assert_eq!(cb.width_sum, ca.width_sum);
        assert!(ca < cb);
    }

    #[test]
    fn rounding_halving_add_is_cheapest_average() {
        let t = V::new(S::U8, 8);
        let rha = rounding_halving_add(var("a", t), var("b", t));
        let ha = halving_add(var("a", t), var("b", t));
        assert!(cost(&rha) < cost(&ha));
    }
}
