//! What every workload compiles, runs or requests: the kernels, the
//! (kernel, ISA) keys, their direct-compile truths, the correctness
//! gates, and the wire form of a compile request.

use fpir::expr::{Expr, RcExpr};
use fpir::Isa;
use fpir_halide::{run_tiled_exe, Image};
use fpir_isa::target;
use fpir_sim::{ExecConfig, Executable};
use fpir_workloads::{all_workloads, unrolled_workloads, Workload, LANES};
use pitchfork::{compile_to_executable, Artifact, Pitchfork};
use pitchfork_service::{json, write_frame, Json};
use std::collections::BTreeMap;

/// The two kernel suites a workload draws its keys from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// The 16 kernels of the paper's figures.
    Figure,
    /// The 6 vectorize-and-unroll DAG kernels.
    Unrolled,
}

#[derive(Debug)]
pub struct Kernel {
    pub wl: Workload,
    /// The printed expression: what a client sends and the daemon parses.
    pub src: String,
    /// The input buffer names, which fresh keys rename.
    pub buffers: Vec<String>,
}

impl Kernel {
    /// The expression a service compiles: the printed form parsed back,
    /// which (unlike the in-memory pipeline) shares no subexpressions.
    pub fn parsed(&self) -> RcExpr {
        fpir::parser::parse_expr(&self.src, LANES).expect("a printed workload expression parses")
    }
}

pub fn kernels(suite: Suite) -> Vec<Kernel> {
    let wls = match suite {
        Suite::Figure => all_workloads(),
        Suite::Unrolled => unrolled_workloads(),
    };
    wls.into_iter()
        .map(|wl| Kernel { src: wl.pipeline.expr.to_string(), buffers: wl.pipeline.inputs(), wl })
        .collect()
}

/// One warm, full-rule selector per ISA, in `ALL_ISAS` order.
pub fn selectors() -> Vec<Pitchfork> {
    fpir::machine::ALL_ISAS.into_iter().map(Pitchfork::new).collect()
}

pub fn isa_slot(isa: Isa) -> usize {
    fpir::machine::ALL_ISAS.iter().position(|&i| i == isa).expect("a registered ISA")
}

/// One (kernel, ISA) pair with what a direct `compile_to_executable`
/// produced for it.
#[derive(Debug)]
pub struct Key {
    pub kernel: usize,
    pub isa: Isa,
    pub truth: Artifact,
    pub lowered: String,
    pub program: String,
}

/// The key set of `kernels` on every ISA, each compiled once directly
/// from `expr_of(kernel)`. A target whose lanes are narrower than 64
/// bits may be unable to implement a kernel: that pair is skipped and
/// named in the second list. Any other compile failure is an error.
pub fn build_keys(
    kernels: &[Kernel],
    sels: &[Pitchfork],
    expr_of: impl Fn(&Kernel) -> RcExpr,
) -> Result<(Vec<Key>, Vec<String>), String> {
    let mut keys = Vec::new();
    let mut skipped = Vec::new();
    for (k, kernel) in kernels.iter().enumerate() {
        let expr = expr_of(kernel);
        for (pf, isa) in sels.iter().zip(fpir::machine::ALL_ISAS) {
            match compile_to_executable(pf, &expr) {
                Ok(truth) => keys.push(Key {
                    kernel: k,
                    isa,
                    lowered: truth.lowered.to_string(),
                    program: truth.program.render(),
                    truth,
                }),
                Err(_) if target(isa).max_lane_bits() < 64 => {
                    skipped.push(format!("{}/{}", kernel.wl.name(), isa.slug()));
                }
                Err(e) => return Err(format!("{}/{}: {e}", kernel.wl.name(), isa.slug())),
            }
        }
    }
    Ok((keys, skipped))
}

/// Per-key facts of the generated code, for the emit and fuse layers:
/// instructions emitted, lowered tree nodes per unique node, fused
/// kernels, registers, and dispatches per original instruction (the
/// fused link against a plain one).
pub fn code_facts(key: &Key) -> [f64; 5] {
    let art = &key.truth;
    let plain = Executable::link_with(&art.program, target(key.isa), &ExecConfig::REFERENCE)
        .expect("a program that linked fused links plain");
    [
        art.program.insts().len() as f64,
        art.lowered.size() as f64 / Expr::unique_count(&art.lowered) as f64,
        art.exe.fused_count() as f64,
        art.exe.peak_regs() as f64,
        art.exe.op_count() as f64 / plain.op_count() as f64,
    ]
}

/// Seeded input images for one kernel, with the reference interpreter's
/// output on them: the independent oracle every artifact is gated on.
pub fn reference_case(
    kernel: &Kernel,
    width: usize,
    height: usize,
    seed: u64,
) -> (BTreeMap<String, Image>, Image) {
    let inputs = kernel.wl.random_inputs(width, height, seed);
    let want = kernel.wl.pipeline.run_reference(&inputs).expect("the reference interpreter runs");
    (inputs, want)
}

/// Flip one pixel of a reference output: `--plant-failure` uses this to
/// show that a wrong reference fails the run.
pub fn corrupt(img: &mut Image) {
    let v = img.get_clamped(0, 0);
    img.set(0, 0, if v == 0 { 1 } else { 0 });
}

/// The execution gate: the artifact's linked, fused executable run over
/// whole images equals the reference interpreter.
pub fn exec_gate(
    kernel: &Kernel,
    isa: Isa,
    exe: &Executable,
    inputs: &BTreeMap<String, Image>,
    want: &Image,
) -> Result<(), String> {
    let got = run_tiled_exe(&kernel.wl.pipeline, exe, inputs, 1)
        .map_err(|e| format!("{}/{}: run failed: {e}", kernel.wl.name(), isa.slug()))?;
    if got != *want {
        return Err(format!(
            "{}/{}: output differs from the reference interpreter",
            kernel.wl.name(),
            isa.slug()
        ));
    }
    Ok(())
}

/// `src` with every input buffer renamed `<buffer>_f<n>`: a fresh cache
/// key for the same program. Buffer names are matched only where an
/// identifier starts and the tap separator `__` follows.
pub fn rename_buffers(src: &str, buffers: &[String], n: u64) -> String {
    let bytes = src.as_bytes();
    let ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut out = String::with_capacity(src.len() + 16);
    let mut i = 0;
    while i < src.len() {
        let at_start = i == 0 || !ident(bytes[i - 1]);
        let hit = at_start
            .then(|| {
                buffers.iter().find(|b| {
                    src[i..].starts_with(b.as_str()) && src[i + b.len()..].starts_with("__")
                })
            })
            .flatten();
        if let Some(b) = hit {
            out.push_str(b);
            out.push_str("_f");
            out.push_str(&n.to_string());
            i += b.len();
        } else {
            let c = src[i..].chars().next().expect("in bounds");
            out.push(c);
            i += c.len_utf8();
        }
    }
    out
}

/// The wire bytes of one `compile` request; `tag` makes it a pipelined
/// protocol-v2 frame.
pub fn compile_frame(expr: &str, isa: Isa, tag: Option<usize>) -> Vec<u8> {
    let mut members = vec![
        ("op".to_string(), Json::str("compile")),
        ("expr".to_string(), Json::str(expr)),
        ("lanes".to_string(), Json::Int(i128::from(LANES))),
        ("isa".to_string(), Json::str(isa.slug())),
    ];
    if let Some(t) = tag {
        members.push(("tag".to_string(), Json::Int(t as i128)));
    }
    let mut bytes = Vec::new();
    write_frame(&mut bytes, &Json::Object(members)).expect("in-memory write");
    bytes
}

/// The served == direct gate: a reply's lowered expression, program and
/// cycle count must equal a direct compile's. Returns the cycles.
pub fn check_reply(body: &[u8], lowered: &str, program: &str, cycles: u64) -> Result<u64, String> {
    let text = std::str::from_utf8(body).map_err(|_| "reply is not UTF-8".to_string())?;
    let v = json::parse(text).map_err(|e| format!("reply is not JSON: {e}"))?;
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("request failed: {text}"));
    }
    let served = v.get("cycles").and_then(Json::as_int);
    if v.get("lowered").and_then(Json::as_str) != Some(lowered)
        || v.get("program").and_then(Json::as_str) != Some(program)
        || served != Some(i128::from(cycles))
    {
        return Err("served artifact differs from a direct compile".into());
    }
    Ok(cycles)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renaming_gives_a_new_key_with_the_same_program() {
        let kernels = kernels(Suite::Figure);
        let sels = selectors();
        for kernel in &kernels {
            let fresh = rename_buffers(&kernel.src, &kernel.buffers, 17);
            assert_ne!(fresh, kernel.src, "{}", kernel.wl.name());
            let renamed = fpir::parser::parse_expr(&fresh, LANES)
                .unwrap_or_else(|e| panic!("{}: renamed text must parse: {e}", kernel.wl.name()));
            for (pf, isa) in sels.iter().zip(fpir::machine::ALL_ISAS) {
                let (Ok(a), Ok(b)) = (
                    compile_to_executable(pf, &kernel.parsed()),
                    compile_to_executable(pf, &renamed),
                ) else {
                    continue;
                };
                assert_eq!(a.cycles, b.cycles, "{}/{isa}", kernel.wl.name());
                let back = |p: String| {
                    kernel
                        .buffers
                        .iter()
                        .fold(p, |p, buf| p.replace(&format!("{buf}_f17__"), &format!("{buf}__")))
                };
                assert_eq!(back(b.program.render()), a.program.render(), "{}", kernel.wl.name());
                assert_eq!(back(b.lowered.to_string()), a.lowered.to_string());
            }
        }
    }

    #[test]
    fn renaming_touches_only_buffer_taps() {
        let buffers = vec!["in".to_string(), "x".to_string()];
        let src = "max(in__p0_p0_u8, min__p1_p0_u8) + x__m1_p0_u8 + bin__p0_p0_u8 + in_u8";
        assert_eq!(
            rename_buffers(src, &buffers, 3),
            "max(in_f3__p0_p0_u8, min__p1_p0_u8) + x_f3__m1_p0_u8 + bin__p0_p0_u8 + in_u8"
        );
    }

    #[test]
    fn replies_are_checked_member_by_member() {
        let ok = br#"{"ok":true,"lowered":"l","program":"p","cycles":7,"tag":3}"#;
        assert_eq!(check_reply(ok, "l", "p", 7), Ok(7));
        assert!(check_reply(ok, "l", "p", 8).is_err());
        assert!(check_reply(ok, "l", "q", 7).is_err());
        assert!(check_reply(br#"{"ok":false,"error":"x"}"#, "l", "p", 7).is_err());
        assert!(check_reply(b"{", "l", "p", 7).is_err());
    }
}
