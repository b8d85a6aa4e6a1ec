//! One view of expressions, patterns and templates as terms, and the one
//! match walk over it.
//!
//! The selector matches a rule's [`Pat`](crate::Pat) against an expression
//! node; `rulecheck` asks whether a pattern may match what a
//! [`Template`](crate::Template) builds (termination) and whether one
//! pattern matches everything another does (shadowing). All three are
//! [`match_with`] under different [`Hooks`]: the walk compares heads,
//! arities and operands, retrying a commutative pair swapped, and the
//! hooks decide leaves and check each node's own constraints. The walk is
//! generic, so each use compiles to its own code with no dynamic dispatch
//! on the selector's hot path, and the hooks save and restore their state
//! only around a commutative pair's retry.

use crate::index::OpKey;
use fpir::expr::{Expr, RcExpr};

/// A term tree: a head operator over operands in operand order.
pub trait Term {
    /// The head operator, or `None` for a leaf pattern or template (a
    /// wildcard or a constant). An expression always has one: a variable
    /// or constant is [`OpKey::Leaf`].
    fn head(&self) -> Option<OpKey>;

    /// Number of operands (0 for leaves).
    fn arity(&self) -> usize;

    /// The `i`-th operand, in operand order.
    ///
    /// # Panics
    ///
    /// If `i >= self.arity()`.
    fn child(&self, i: usize) -> &Self;

    /// This node and every node below it, in pre-order with operands in
    /// operand order.
    fn subterms(&self) -> impl Iterator<Item = &Self> {
        let mut stack = vec![self];
        std::iter::from_fn(move || {
            let t = stack.pop()?;
            stack.extend((0..t.arity()).rev().map(|i| t.child(i)));
            Some(t)
        })
    }
}

/// An expression is viewed through its shared pointer, which is what a
/// pattern wildcard binds.
impl Term for RcExpr {
    #[inline]
    fn head(&self) -> Option<OpKey> {
        Some(OpKey::of_expr(self))
    }

    #[inline]
    fn arity(&self) -> usize {
        Expr::arity(self)
    }

    #[inline]
    fn child(&self, i: usize) -> &RcExpr {
        Expr::child(self, i)
    }
}

/// What a use of [`match_with`] decides itself.
pub trait Hooks<P, T> {
    /// What [`Hooks::restore`] needs to undo what the hooks recorded
    /// since [`Hooks::save`].
    type Saved;

    /// Called before the first order of a commutative pair.
    fn save(&self) -> Self::Saved;

    /// Called before the swapped retry, when the first order failed.
    fn restore(&mut self, saved: Self::Saved);

    /// Decide a pair in which `p` or `t` is a leaf, or `None` to compare
    /// them as operator nodes.
    fn leaf(&mut self, p: &P, t: &T) -> Option<bool>;

    /// Check `p`'s own constraints on `t` (a cast's target type, say)
    /// once their operands match, so that type variables bound below are
    /// known.
    fn node(&mut self, _p: &P, _t: &T) -> bool {
        true
    }
}

/// Match `p` against `t`: a leaf is decided by `hooks.leaf`; otherwise
/// heads and arities must be equal, the operands must match pairwise
/// (a two-operand commutative head also tries them swapped), and
/// `hooks.node` must accept the pair.
pub fn match_with<P: Term, T: Term, H: Hooks<P, T>>(hooks: &mut H, p: &P, t: &T) -> bool {
    if let Some(decided) = hooks.leaf(p, t) {
        return decided;
    }
    let (head, n) = (p.head(), p.arity());
    if head != t.head() || n != t.arity() {
        return false;
    }
    let matched = if n == 2 && head.is_some_and(OpKey::is_commutative) {
        let saved = hooks.save();
        let in_order =
            match_with(hooks, p.child(0), t.child(0)) && match_with(hooks, p.child(1), t.child(1));
        in_order || {
            hooks.restore(saved);
            match_with(hooks, p.child(0), t.child(1)) && match_with(hooks, p.child(1), t.child(0))
        }
    } else {
        (0..n).all(|i| match_with(hooks, p.child(i), t.child(i)))
    };
    matched && hooks.node(p, t)
}
