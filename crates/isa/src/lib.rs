//! # fpir-isa — virtual fixed-point SIMD targets
//!
//! Four *virtual ISAs* behind a pluggable backend registry
//! ([`def::BACKENDS`]): three modelled on the paper's evaluation
//! targets — x86 AVX2 ([`x86`]), 64-bit ARM Neon ([`arm`]) and Hexagon
//! HVX ([`hvx`]) — plus an RVV-style scalable-vector target ([`rvv`])
//! added to demonstrate the `k + n + 1` rule-count scaling. Each is
//! one [`def::BackendDesc`] (register model, lane-width limit, table
//! builder) and an instruction table with:
//!
//! * **executable semantics** ([`sem`]) built from the reference
//!   interpreter's lane arithmetic, so lowered code can be run and
//!   differentially tested against the source expression;
//! * **costs** (per native register processed) that drive both the
//!   lowering TRSs ([`cost::TargetCost`]) and the cycle model in
//!   `fpir-sim`;
//! * **legality**: lane widths, signedness requirements, and
//!   immediate-operand constraints. Hexagon HVX has no 64-bit lanes,
//!   reproducing the §5.1 compile failures.
//!
//! The [`legalize`](mod@legalize) pass provides each target's *direct mappings* (the
//! `n` per-backend rules of the paper's `k + n + 1` argument) plus the
//! generic widen-execute-truncate fallback that makes every integer
//! operation compilable — expensively — even without Pitchfork.
//!
//! ```
//! use fpir::build::*;
//! use fpir::types::{ScalarType, VectorType};
//! use fpir::Isa;
//! use fpir_isa::{legalize::legalize, target};
//!
//! let t = VectorType::new(ScalarType::U8, 16);
//! let e = widening_add(var("a", t), var("b", t));
//! let lowered = legalize(&e, target(Isa::ArmNeon))?;
//! assert_eq!(lowered.to_string(), "arm.uaddl(a_u8, b_u8)");
//! # Ok::<(), fpir_isa::legalize::LowerError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arm;
pub mod cost;
pub mod def;
pub mod hvx;
pub mod legalize;
pub mod rvv;
pub mod sem;
pub mod x86;

pub use cost::TargetCost;
pub use def::{
    all_targets, target, BackendDesc, InstDef, MachEvaluator, RegModel, SignReq, Target, BACKENDS,
};
pub use legalize::{legalize, legalize_uncached, LowerError};
pub use sem::{
    eval_sem, eval_sem_into, sem_slice_fn, sem_slice_fn_pair, sem_slice_fn_splat, MachSem,
    SemSliceFn,
};
