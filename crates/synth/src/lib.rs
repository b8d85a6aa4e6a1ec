//! # fpir-synth — offline rule synthesis and verification
//!
//! The offline half of Figure 1: where the paper used Rosette + Z3, this
//! crate uses bounded enumerative synthesis and dense concrete checking
//! (exhaustive at 8 bits, boundary-biased samples wider):
//!
//! * [`corpus`] — sub-expression harvesting (≤ 10 IR nodes) from real
//!   benchmark expressions, with multi-source provenance;
//! * [`lift_synth`] — SyGuS-style bottom-up enumeration of cheaper FPIR
//!   right-hand sides (§4.1);
//! * [`lower_synth`] — lowering-pair generation against the Rake oracle
//!   (§4.2; no x86 oracle, as in the paper);
//! * [`generalize`] — symbolic constants, pow2 links, binary-searched
//!   range predicates, with every attempt re-verified (§4.3);
//! * [`verify`] — the pass/fail rule verifier synthesis and
//!   generalization run on every candidate (§2.4's "unearthed a handful
//!   of subtle bugs"); `rulecheck` checks the shipped TRSs through the
//!   same core;
//! * [`soundness`] — the verdict-producing checker behind
//!   `pitchfork-verify`: abstract-equivalence proofs (interval +
//!   known-bits domains), full-space enumeration up to 2^16 points, and
//!   the sampled fallback, recording `proved`/`exhausted`/`sampled` per
//!   rule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod corpus;
pub mod generalize;
pub mod lift_synth;
pub mod lower_synth;
pub mod pipeline;
pub mod soundness;
pub mod verify;

pub use corpus::{build_corpus, subexpressions, MAX_LHS_NODES};
pub use generalize::{generalize_pair, GeneralizeError};
pub use lift_synth::{synthesize_lift, synthesize_lift_reference, SynthBudget};
pub use lower_synth::{generate_lower_pairs, LowerPair};
pub use pipeline::{harvest_corpus, synthesize_corpus_rules, PipelineConfig, SynthesizedRule};
pub use soundness::{check_rule, RuleVerdict, Verdict};
pub use verify::{verify_rule, verify_rule_set, VerifyError, VerifyOptions};
