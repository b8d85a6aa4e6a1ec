//! # pitchfork — fast instruction selection for fast digital signal processing
//!
//! A Rust reproduction of the ASPLOS 2023 paper's system: a *lift-then-
//! lower* instruction selector for fixed-point DSP code.
//!
//! * [`lift`] — the shared, target-agnostic term-rewriting system that
//!   lifts primitive integer arithmetic into FPIR (Table 1's portable
//!   fixed-point instructions);
//! * [`lower`] — per-target rule sets (fused, compound, predicated and
//!   specific-constant classes of §3.3) selecting concrete machine
//!   instructions of the three virtual ISAs in `fpir-isa`;
//! * [`compiler`] — the driver tying the phases together, with the
//!   rule-provenance toggles used by the paper's evaluation (synthesized
//!   rules on/off, leave-one-out).
//!
//! ```
//! use fpir::build::*;
//! use fpir::types::{ScalarType, VectorType};
//! use fpir::Isa;
//! use pitchfork::Pitchfork;
//!
//! // u8(min(u16(a) + u16(b), 255)) — a saturating add written portably.
//! let t = VectorType::new(ScalarType::U8, 16);
//! let sum = add(widen(var("a", t)), widen(var("b", t)));
//! let e = cast(ScalarType::U8, min(sum.clone(), splat(255, &sum)));
//!
//! let pf = Pitchfork::new(Isa::ArmNeon);
//! let out = pf.compile(&e)?;
//! assert_eq!(out.lifted.to_string(), "saturating_add(a_u8, b_u8)");
//! assert_eq!(out.lowered.to_string(), "arm.uqadd(a_u8, b_u8)");
//! # Ok::<(), fpir_isa::LowerError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod compiler;
pub mod driver;
pub mod lift;
pub mod lower;
pub mod registry;

pub use compiler::{CompileInterrupt, CompilePhase, Compiled, Config, Pitchfork};
pub use driver::{compile_to_executable, compile_to_executable_with, Artifact, DriverError, Phase};
pub use lift::{hand_written_lift_rules, lift_rules};
pub use lower::lower_rules;
pub use registry::{all_rule_sets, RegisteredRuleSet, RuleSetKind};
