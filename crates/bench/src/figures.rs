//! The deterministic figures and tables: each function returns the text
//! its binary prints, so the binaries and the test that compares them
//! with `docs/results/*.txt` run the same code.

use crate::{geomean, rake_supports, run, validate, Compiler};
use fpir::build::*;
use fpir::expr::ALL_FPIR_OPS;
use fpir::semantics::table1_row;
use fpir::types::{ScalarType as S, VectorType as V};
use fpir::{Isa, RcExpr};
use fpir_baseline::LlvmBaseline;
use fpir_trs::rule::RuleSet;
use fpir_workloads::all_workloads;
use pitchfork::{compile_to_executable, Artifact, Pitchfork};
use std::fmt::Write as _;

/// Lane count of the Figure 3 expressions.
const FIG3_LANES: u32 = 128;

/// The Figure 3 widening multiply-accumulate kernel over inputs `a`,
/// `b` and `c`.
fn fig3_kernel(a: &str, b: &str, c: &str) -> RcExpr {
    let t = V::new(S::U8, FIG3_LANES);
    add(
        add(widen(var(a, t)), mul(widen(var(b, t)), constant(2, V::new(S::U16, FIG3_LANES)))),
        widen(var(c, t)),
    )
}

/// Figure 3: Pitchfork's and the LLVM baseline's machine code for the
/// three key Sobel sub-expressions on every target, with op counts,
/// cycles, fused kernels and peak registers.
///
/// # Panics
///
/// Panics if either selector fails to compile an expression.
pub fn fig3() -> String {
    let exprs: Vec<(&str, RcExpr)> = vec![
        ("(a) u16(a_u8) + u16(b_u8) * 2 + u16(c_u8)", fig3_kernel("a", "b", "c")),
        ("(b) absd(x_u16, y_u16) via select", {
            let t = V::new(S::U16, FIG3_LANES);
            let (x, y) = (var("x", t), var("y", t));
            select(lt(x.clone(), y.clone()), sub(y.clone(), x.clone()), sub(x.clone(), y.clone()))
        }),
        ("(c) u8(min(z_u16, 255)), z = bounded kernel", {
            let z = fig3_kernel("a", "b", "c");
            cast(S::U8, min(z.clone(), splat(255, &z)))
        }),
    ];
    let mut out = String::new();
    for (title, e) in &exprs {
        let _ = writeln!(out, "==============================================================");
        let _ = writeln!(out, "{title}\n");
        for isa in fpir::machine::ALL_ISAS {
            let a_pf = compile_to_executable(&Pitchfork::new(isa), e).expect("pitchfork compiles");
            let bl = LlvmBaseline::new(isa).compile(e).expect("baseline compiles");
            let a_bl = Artifact::from_lowered(bl.lowered, isa).expect("baseline finishes");
            let _ = writeln!(
                out,
                "--- {isa}: Pitchfork {} ops / {} cycles / {} fused / {} regs \
                 vs LLVM {} ops / {} cycles / {} fused / {} regs ({:.2}x)",
                a_pf.program.op_count(),
                a_pf.cycles,
                a_pf.exe.fused_count(),
                a_pf.exe.peak_regs(),
                a_bl.program.op_count(),
                a_bl.cycles,
                a_bl.exe.fused_count(),
                a_bl.exe.peak_regs(),
                a_bl.cycles as f64 / a_pf.cycles as f64
            );
            let _ = writeln!(out, "  Pitchfork:");
            for line in a_pf.program.render().lines() {
                let _ = writeln!(out, "    {line}");
            }
            let _ = writeln!(out, "  LLVM:");
            for line in a_bl.program.render().lines() {
                let _ = writeln!(out, "    {line}");
            }
        }
    }
    out
}

/// The paper's headline geomean for a target, if it was evaluated there.
fn paper_speedup(isa: Isa) -> Option<&'static str> {
    match isa {
        Isa::X86Avx2 => Some("1.31x"),
        Isa::ArmNeon => Some("1.82x"),
        Isa::HexagonHvx => Some("2.44x"),
        _ => None,
    }
}

fn paper_rake_gap(isa: Isa) -> Option<&'static str> {
    match isa {
        Isa::ArmNeon => Some("Pitchfork within ~2% of Rake"),
        Isa::HexagonHvx => Some("Pitchfork ~13% behind Rake"),
        _ => None,
    }
}

/// Figure 5: the cycle-model speedup of Pitchfork (leave-one-out rules)
/// and Rake over the LLVM baseline, per benchmark and target, with
/// per-target geomeans. With `validate_all`, every compiled program is
/// first differentially validated against the reference interpreter.
///
/// # Panics
///
/// Panics if a selector fails to compile a workload, or if validation
/// finds a miscompile.
pub fn fig5(validate_all: bool) -> String {
    let isas = fpir::machine::ALL_ISAS;
    let rake_isas: Vec<Isa> = isas.into_iter().filter(|i| rake_supports(*i)).collect();
    let mut out = String::new();
    let _ = writeln!(out, "Figure 5: runtime speedup over LLVM instruction selection");
    let _ = writeln!(out, "(cycle model; leave-one-out synthesized rules, as in §5)\n");
    let _ = write!(out, "{:<16}", "benchmark");
    for isa in isas {
        let _ = write!(out, " {:>9}", isa.short_name());
    }
    for isa in &rake_isas {
        let _ = write!(out, " {:>11}", format!("Rake {}", isa.short_name()));
    }
    let _ = writeln!(out);

    let mut speedups: Vec<Vec<f64>> = vec![Vec::new(); isas.len()];
    let mut rake_gap: Vec<Vec<f64>> = vec![Vec::new(); rake_isas.len()];
    let mut fallback_notes: Vec<String> = Vec::new();

    for wl in all_workloads() {
        let mut row = vec![f64::NAN; isas.len() + rake_isas.len()];
        for (i, isa) in isas.iter().enumerate() {
            let llvm = run(&wl, *isa, &Compiler::Llvm)
                .unwrap_or_else(|e| panic!("LLVM failed on {}/{isa}: {e}", wl.name()));
            let pf = run(&wl, *isa, &Compiler::Pitchfork)
                .unwrap_or_else(|e| panic!("Pitchfork failed on {}/{isa}: {e}", wl.name()));
            if validate_all {
                validate(&wl, *isa, &llvm, 8).expect("baseline must be correct");
                validate(&wl, *isa, &pf, 8).expect("pitchfork must be correct");
            }
            if llvm.used_rmulshr_fallback {
                fallback_notes.push(format!("{} on {isa}", wl.name()));
            }
            let speedup = llvm.artifact.cycles as f64 / pf.artifact.cycles as f64;
            row[i] = speedup;
            speedups[i].push(speedup);
            // Rake comparison where the Rake reproduction has a backend.
            if let Some(j) = rake_isas.iter().position(|r| r == isa) {
                let rk = run(&wl, *isa, &Compiler::Rake)
                    .unwrap_or_else(|e| panic!("Rake failed on {}/{isa}: {e}", wl.name()));
                if validate_all {
                    validate(&wl, *isa, &rk, 8).expect("rake must be correct");
                }
                let rk_speedup = llvm.artifact.cycles as f64 / rk.artifact.cycles as f64;
                row[isas.len() + j] = rk_speedup;
                rake_gap[j].push(pf.artifact.cycles as f64 / rk.artifact.cycles as f64);
            }
        }
        let _ = write!(out, "{:<16}", wl.name());
        for (k, v) in row.iter().enumerate() {
            if k < isas.len() {
                let _ = write!(out, " {:>8.2}x", v);
            } else {
                let _ = write!(out, " {:>10.2}x", v);
            }
        }
        let _ = writeln!(out);
    }

    let _ = writeln!(out, "\ngeomean speedup over LLVM:");
    for (i, isa) in isas.iter().enumerate() {
        let note = match paper_speedup(*isa) {
            Some(p) => format!("   (paper: {p})"),
            None => String::from("   (post-paper target)"),
        };
        let _ = writeln!(out, "  {:<4} {:.2}x{note}", isa.short_name(), geomean(&speedups[i]));
    }
    let _ = writeln!(out, "\nPitchfork runtime relative to Rake (cycles_pf / cycles_rake):");
    for (j, isa) in rake_isas.iter().enumerate() {
        let note = match paper_rake_gap(*isa) {
            Some(p) => format!("   (paper: {p})"),
            None => String::new(),
        };
        let _ = writeln!(out, "  {:<4} {:.2}{note}", isa.short_name(), geomean(&rake_gap[j]));
    }
    if !fallback_notes.is_empty() {
        let _ = writeln!(
            out,
            "\nNote (§5.1): LLVM could not compile these and was given Pitchfork's\n\
             rounding_mul_shr lowering: {}",
            fallback_notes.join(", ")
        );
    }
    out
}

/// The paper's headline ablation gain, if the target was evaluated.
fn paper_gain(isa: Isa) -> Option<&'static str> {
    match isa {
        Isa::ArmNeon => Some("1.09x"),
        Isa::HexagonHvx => Some("1.14x"),
        _ => None,
    }
}

/// Figure 7: the speedup of the full rule set over hand-written rules
/// alone, per benchmark and target (§5.3), every program validated.
///
/// # Panics
///
/// Panics if either rule set fails to compile a workload or miscompiles
/// it.
pub fn fig7() -> String {
    let isas = fpir::machine::ALL_ISAS;
    let mut out = String::new();
    let _ = writeln!(out, "Figure 7: speedup of full rules over hand-written rules only\n");
    let _ = write!(out, "{:<16}", "benchmark");
    for isa in isas {
        let _ = write!(out, " {:>9}", isa.short_name());
    }
    let _ = writeln!(out);
    let mut gains: Vec<Vec<f64>> = vec![Vec::new(); isas.len()];
    for wl in all_workloads() {
        let mut row = vec![0.0f64; isas.len()];
        for (i, isa) in isas.iter().enumerate() {
            let hand = run(&wl, *isa, &Compiler::PitchforkHandWritten)
                .unwrap_or_else(|e| panic!("hand-written failed on {}/{isa}: {e}", wl.name()));
            let full = run(&wl, *isa, &Compiler::PitchforkFull)
                .unwrap_or_else(|e| panic!("full failed on {}/{isa}: {e}", wl.name()));
            validate(&wl, *isa, &hand, 4).expect("hand-written must be correct");
            validate(&wl, *isa, &full, 4).expect("full must be correct");
            row[i] = hand.artifact.cycles as f64 / full.artifact.cycles as f64;
            gains[i].push(row[i]);
        }
        let _ = write!(out, "{:<16}", wl.name());
        for v in &row {
            let _ = write!(out, " {v:>8.2}x");
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(out, "\ngeomean gain from synthesized rules:");
    for (i, isa) in isas.iter().enumerate() {
        let note = match paper_gain(*isa) {
            Some(p) => format!("   (paper: {p})"),
            None => String::from("   (post-paper target)"),
        };
        let _ = writeln!(out, "  {:<4} {:.2}x{note}", isa.short_name(), geomean(&gains[i]));
    }
    if let Some(i) = isas.iter().position(|i| *i == Isa::HexagonHvx) {
        let max_hvx = gains[i].iter().cloned().fold(0.0f64, f64::max);
        let _ = writeln!(
            out,
            "  max single-benchmark HVX gain {max_hvx:.2}x   (paper: 4.99x on average_pool)"
        );
    }
    out
}

/// The complete rule catalog (the expanded version of the paper's
/// Figure 4): every lifting and lowering rule with its class, predicate
/// and provenance.
pub fn rules() -> String {
    fn set(out: &mut String, rs: &RuleSet) {
        let _ = writeln!(out, "== {} ({} rules) ==", rs.name, rs.len());
        for rule in rs.rules() {
            let _ = writeln!(out, "  [{:<14}] {:<36} {rule}", rule.class.to_string(), rule.name);
        }
        let _ = writeln!(out);
    }
    let mut out = String::new();
    let lift = pitchfork::lift_rules();
    set(&mut out, &lift);
    let mut total = lift.len();
    for isa in fpir::machine::ALL_ISAS {
        let rs = pitchfork::lower_rules(isa);
        set(&mut out, &rs);
        total += rs.len();
    }
    let _ = writeln!(
        out,
        "{total} rules across the lifting TRS and {} lowering TRSs",
        fpir::machine::ALL_ISAS.len()
    );
    out
}

/// Table 1: every FPIR instruction beside its compositional definition.
pub fn table1() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 1: FPIR instructions and semantics\n");
    let _ = writeln!(out, "{:<42} semantics", "FPIR instruction");
    let _ = writeln!(out, "{:-<42} {:-<60}", "", "");
    for op in ALL_FPIR_OPS {
        let (name, def) = table1_row(op);
        let _ = writeln!(out, "{name:<42} {def}");
    }
    let _ = writeln!(
        out,
        "\nEvery row is verified against the direct interpreter exhaustively\n\
         at 8 bits and on boundary-biased samples at 16/32 bits\n\
         (crates/fpir/tests/table1_semantics.rs)."
    );
    out
}
