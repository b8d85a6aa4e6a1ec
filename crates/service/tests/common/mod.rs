//! The served suite the service's integration tests share: every figure
//! kernel on every ISA (16 × 4 = 64 cache keys), each with the direct
//! compiler's answer that a served response must equal byte for byte.

// Each test crate that includes this module uses only part of it.
#![allow(dead_code)]

use fpir::machine::ALL_ISAS;
use fpir::Isa;
use fpir_workloads::{all_workloads, LANES};
use pitchfork::{compile_to_executable, Config, Pitchfork};
use pitchfork_service::protocol::CompileSpec;
use pitchfork_service::Json;

/// One suite key: a figure kernel's expression text on one ISA.
pub struct Key {
    pub name: String,
    pub expr: String,
    pub isa: Isa,
}

impl Key {
    /// The compile request for this key (default lanes, no deadline).
    pub fn spec(&self, synthesized_rules: bool) -> CompileSpec {
        CompileSpec {
            expr: self.expr.clone(),
            lanes: LANES,
            isa: self.isa,
            synthesized_rules,
            leave_out: None,
            timeout_ms: None,
        }
    }

    /// The same request as a wire frame body.
    pub fn wire(&self, synthesized_rules: bool) -> Json {
        Json::Object(vec![
            ("op".into(), Json::str("compile")),
            ("expr".into(), Json::str(&self.expr)),
            ("lanes".into(), Json::Int(i128::from(LANES))),
            ("isa".into(), Json::str(self.isa.slug())),
            ("synthesized_rules".into(), Json::Bool(synthesized_rules)),
        ])
    }
}

/// `lowered`, `program` and `cycles` of a direct compile at the default
/// lanes. Every suite key compiles on every ISA under either rule set;
/// a failure panics.
pub fn direct(expr: &str, isa: Isa, synthesized_rules: bool) -> (String, String, u64) {
    let cfg = Config::new(isa);
    let cfg = if synthesized_rules { cfg } else { cfg.hand_written_only() };
    let e = fpir::parser::parse_expr(expr, LANES).expect("suite exprs parse");
    let art = compile_to_executable(&Pitchfork::with_config(cfg), &e)
        .unwrap_or_else(|err| panic!("{expr} on {isa}: {err}"));
    (art.lowered.to_string(), art.program.render(), art.cycles)
}

/// The 64 suite keys, kernel-major.
pub fn suite() -> Vec<Key> {
    all_workloads()
        .into_iter()
        .flat_map(|wl| {
            let (name, expr) = (wl.name().to_string(), wl.pipeline.expr.to_string());
            ALL_ISAS.map(|isa| Key { name: name.clone(), expr: expr.clone(), isa })
        })
        .collect()
}

/// Assert that a response carries exactly the direct compiler's
/// `lowered`, `program` and `cycles`.
pub fn assert_served(v: &Json, truth: &(String, String, u64), what: &str) {
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{what}: {v:?}");
    assert_eq!(v.get("lowered").and_then(Json::as_str), Some(truth.0.as_str()), "{what}");
    assert_eq!(v.get("program").and_then(Json::as_str), Some(truth.1.as_str()), "{what}");
    assert_eq!(v.get("cycles").and_then(Json::as_int), Some(i128::from(truth.2)), "{what}");
}
