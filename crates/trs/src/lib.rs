//! # fpir-trs — the term-rewriting engine behind Pitchfork
//!
//! Pitchfork performs instruction selection with two families of
//! term-rewriting systems (TRSs): a target-agnostic *lifting* TRS from
//! integer arithmetic into FPIR, and per-target *lowering* TRSs from FPIR
//! into machine instructions. This crate provides the shared machinery:
//!
//! * a polymorphic **pattern language** ([`pattern`]) with typed
//!   wildcards, constant wildcards, and relational type constraints;
//! * **templates** ([`template`]) that rebuild expressions from match
//!   bindings, including computed constants (`log2(c0)`, `1 << c0`);
//! * one **term view** and match walk ([`term`]) over expressions,
//!   patterns and templates, shared by the selector and `rulecheck`;
//! * **predicates** ([`predicate`]) — including the bounds queries of
//!   §3.3, answered by `fpir`'s interval analysis;
//! * **cost models** ([`cost`]): the paper's lexicographic target-agnostic
//!   model, plus a trait for target cost models;
//! * the greedy bottom-up **fixpoint rewriter** ([`rewrite`]) whose
//!   convergence is guaranteed by strict cost descent;
//! * **rule sets** ([`rule`]) with provenance tracking for the
//!   leave-one-out protocol and the hand-written-only ablation.
//!
//! ```
//! use fpir::build::*;
//! use fpir::types::{ScalarType, VectorType};
//! use fpir::FpirOp;
//! use fpir_trs::cost::AgnosticCost;
//! use fpir_trs::dsl::*;
//! use fpir_trs::pattern::{Pat, TypePat};
//! use fpir_trs::rewrite::Rewriter;
//! use fpir_trs::rule::{Rule, RuleClass, RuleSet};
//! use fpir_trs::template::Template;
//!
//! // One lifting rule: u16(x_u8) + u16(y_u8) -> widening_add(x, y).
//! let mut rules = RuleSet::new("demo");
//! rules.push(Rule::new(
//!     "widening-add",
//!     RuleClass::Lift,
//!     pat_add(widen_cast(0), Pat::Cast(TypePat::WidenOf(0), Box::new(wild_t(1, TypePat::Var(0))))),
//!     Template::Fpir(FpirOp::WideningAdd, vec![tw(0), tw(1)]),
//! ));
//!
//! let t = VectorType::new(ScalarType::U8, 16);
//! let e = add(widen(var("a", t)), widen(var("b", t)));
//! let mut rw = Rewriter::new(&rules, AgnosticCost);
//! assert_eq!(rw.run(&e).to_string(), "widening_add(a_u8, b_u8)");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cost;
pub mod dsl;
pub mod index;
pub mod pattern;
pub mod predicate;
pub mod rewrite;
pub mod rule;
pub mod template;
pub mod term;

pub use cost::{AgnosticCost, Cost, CostModel};
pub use index::{OpKey, RuleIndex};
pub use pattern::{match_pat, Bindings, Pat, TypePat};
pub use predicate::Predicate;
pub use rewrite::{rewrite_reference, RewriteStats, Rewriter};
pub use rule::{instantiate_lhs, Provenance, Rule, RuleClass, RuleSet};
pub use template::{substitute, CFn, SubstError, Template, TyRef};
pub use term::{match_with, Hooks, Term};
