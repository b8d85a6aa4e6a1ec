//! # fpir-sim — the vector VM and cycle model
//!
//! The stand-in for the paper's hardware: lowered expressions are emitted
//! into linear register programs ([`program`]), executed on concrete
//! vectors ([`vm`]), priced by a throughput cycle model
//! ([`program::cycle_cost`]), and differentially tested against the
//! reference interpreter ([`difftest`]).
//!
//! The cycle model is deliberately simple — per-instruction cost units ×
//! native registers touched, streamed loads charged, loop-invariant
//! splats free, no issue-width modelling — because the evaluation targets
//! *relative* performance (speedup ratios), where a consistent constant
//! factor cancels.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod difftest;
pub mod exec;
pub mod fuse;
pub mod program;
pub mod verify;
pub mod vm;

pub use difftest::{check_program, Counterexample};
pub use exec::{ExecCtx, Executable, InputSlot, PassObserver, RUN_LANES};
pub use fuse::ExecConfig;
pub use program::{cycle_cost, emit, EmitError, PInst, PKind, Program, LOAD_COST};
pub use verify::{verify_executable, ArtifactCheck, ArtifactError};
pub use vm::{execute, ExecError};
