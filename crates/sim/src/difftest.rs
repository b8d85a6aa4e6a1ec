//! Differential testing: a compiled program must agree with the source
//! expression's reference semantics on concrete inputs.
//!
//! Every instruction-selection pipeline in the workspace (Pitchfork, the
//! LLVM-like baseline, the Rake-like searcher) is validated through this
//! harness. It plays the role that running on real hardware played for
//! the paper's authors.
//!
//! The harness checks **all three execution engines** on every round:
//! the REFERENCE VM ([`crate::vm::execute`]) against the source
//! expression's semantics, and the linked engine
//! ([`crate::exec::Executable`]) against the reference VM, both as a
//! REFERENCE link (one kernel per instruction) and as a FAST link (fused
//! kernels, [`crate::fuse`]) — all must return identical `Result`s. Both
//! links run every instruction as compiled kernel passes; the reference
//! VM's whole-vector evaluator is the oracle they are checked against.
//! The linker rejects an instruction whose operand shapes its semantics
//! reject, with the reference VM's error, so such a program fails here
//! at link time. Both artifacts pass the static verifier
//! ([`crate::verify`]) before anything runs, in every build profile.

use crate::exec::Executable;
use crate::fuse::ExecConfig;
use crate::program::Program;
use crate::vm::execute;
use fpir::expr::RcExpr;
use fpir::interp::{eval, Env};
use fpir::rand_expr::random_env;
use fpir_isa::Target;
use rand::Rng;
use std::fmt;

/// A semantic disagreement between an expression and a compiled program.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The environment that exposed the bug.
    pub env: Env,
    /// What differed.
    pub detail: String,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "counterexample: {}", self.detail)
    }
}

/// Check `program` against `source` on `rounds` boundary-biased random
/// environments.
///
/// # Errors
///
/// Returns the first disagreement found.
pub fn check_program(
    source: &RcExpr,
    program: &Program,
    target: &Target,
    rng: &mut impl Rng,
    rounds: usize,
) -> Result<(), Counterexample> {
    let exe = Executable::link_with(program, target, &ExecConfig::REFERENCE).map_err(|e| {
        Counterexample { env: Env::new(), detail: format!("linking failed: {e}\n{program}") }
    })?;
    let fused = Executable::link_with(program, target, &ExecConfig::FAST).map_err(|e| {
        Counterexample { env: Env::new(), detail: format!("fusion failed: {e}\n{program}") }
    })?;
    // Static artifact audit before anything runs — on BOTH links: a
    // malformed link or fusion is a counterexample in its own right,
    // caught here even in release builds (the in-link gate is
    // debug-only).
    for (name, artifact) in [("linked", &exe), ("fused", &fused)] {
        crate::verify::verify_executable(artifact).map_err(|v| Counterexample {
            env: Env::new(),
            detail: format!("{name} artifact verification failed: {v}\n{program}"),
        })?;
    }
    let mut ctx = exe.new_ctx();
    let mut fctx = fused.new_ctx();
    for _ in 0..rounds {
        let env = random_env(rng, source);
        let want = eval(source, &env).map_err(|e| Counterexample {
            env: env.clone(),
            detail: format!("reference evaluation failed: {e}"),
        })?;
        let reference = execute(program, &env, target);
        let fast = exe.run(&mut ctx, &env);
        if reference != fast {
            return Err(Counterexample {
                env,
                detail: format!(
                    "engines disagree: reference {reference:?} vs linked {fast:?}\n{program}"
                ),
            });
        }
        let fused_out = fused.run(&mut fctx, &env);
        if reference != fused_out {
            return Err(Counterexample {
                env,
                detail: format!(
                    "engines disagree: reference {reference:?} vs fused {fused_out:?}\n{program}\n{fused}"
                ),
            });
        }
        let got = reference.map_err(|e| Counterexample {
            env: env.clone(),
            detail: format!("program execution failed: {e}\n{program}"),
        })?;
        if want != got {
            // Locate the first differing lane for the report.
            let lane =
                (0..want.ty().lanes as usize).find(|&i| want.lane(i) != got.lane(i)).unwrap_or(0);
            return Err(Counterexample {
                env,
                detail: format!(
                    "lane {lane}: expected {}, got {} for {source}\n{program}",
                    want.lane(lane),
                    got.lane(lane),
                ),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::emit;
    use fpir::build;
    use fpir::types::{ScalarType as S, VectorType as V};
    use fpir::Isa;
    use fpir_isa::{legalize, target};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn correct_programs_pass() {
        let t = V::new(S::U8, 16);
        let e = build::saturating_cast(
            S::U8,
            build::widening_add(build::var("a", t), build::var("b", t)),
        );
        let mut rng = StdRng::seed_from_u64(1);
        for isa in fpir::machine::ALL_ISAS {
            let tgt = target(isa);
            let p = emit(&legalize(&e, tgt).unwrap(), tgt).unwrap();
            check_program(&e, &p, tgt, &mut rng, 50).unwrap();
        }
    }

    #[test]
    fn wrong_programs_are_caught() {
        // Compile a + b but compare against a - b: must produce a
        // counterexample quickly.
        let t = V::new(S::U8, 16);
        let tgt = target(Isa::ArmNeon);
        let compiled =
            emit(&legalize(&build::add(build::var("a", t), build::var("b", t)), tgt).unwrap(), tgt)
                .unwrap();
        let source = build::sub(build::var("a", t), build::var("b", t));
        let mut rng = StdRng::seed_from_u64(2);
        assert!(check_program(&source, &compiled, tgt, &mut rng, 50).is_err());
    }
}
