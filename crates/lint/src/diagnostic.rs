//! The shared diagnostic type every analysis reports through.

use std::fmt;

/// How serious a finding is.
///
/// `Note`s are informational (expected target limitations such as HVX's
/// missing 64-bit lanes); `Warning`s are probable authoring mistakes that
/// do not break compilation; `Error`s violate a well-formedness
/// requirement the compiler relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational.
    Note,
    /// Probable mistake; `rulecheck --deny warnings` turns these fatal.
    Warning,
    /// Well-formedness violation.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Which analysis produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Analysis {
    /// Strict cost descent + rewrite-cycle detection.
    Termination,
    /// Dead rules hidden behind earlier, more general rules.
    Shadowing,
    /// FPIR ops/types a backend cannot select.
    Coverage,
    /// Malformed or contradictory side conditions.
    Predicates,
    /// Rules the root-operator discrimination index would mis-dispatch.
    Index,
    /// Per-rule semantic soundness verdicts (proved/exhausted/sampled).
    Soundness,
}

impl Analysis {
    /// Every analysis, in the order `rulecheck` runs them.
    pub const ALL: [Analysis; 6] = [
        Analysis::Termination,
        Analysis::Shadowing,
        Analysis::Predicates,
        Analysis::Index,
        Analysis::Soundness,
        Analysis::Coverage,
    ];

    /// The name diagnostics report (`error[termination:TERM001] …`).
    pub fn name(self) -> &'static str {
        match self {
            Analysis::Termination => "termination",
            Analysis::Shadowing => "shadowing",
            Analysis::Coverage => "coverage",
            Analysis::Predicates => "predicates",
            Analysis::Index => "index",
            Analysis::Soundness => "soundness",
        }
    }
}

impl fmt::Display for Analysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// How serious it is.
    pub severity: Severity,
    /// Which analysis found it.
    pub analysis: Analysis,
    /// Stable machine-readable code (e.g. `SOUND001`): CI greps and
    /// downstream tooling key on this, never on `detail` text.
    pub code: &'static str,
    /// The rule set (e.g. `lift`, `lower-arm`) it concerns.
    pub ruleset: String,
    /// The offending rule, when the finding is rule-specific.
    pub rule: Option<String>,
    /// Human-readable description.
    pub detail: String,
    /// A concrete witness expression or rewrite chain, when one exists.
    pub witness: Option<String>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}:{}] {}", self.severity, self.analysis, self.code, self.ruleset)?;
        if let Some(rule) = &self.rule {
            write!(f, " · rule `{rule}`")?;
        }
        write!(f, ": {}", self.detail)?;
        if let Some(w) = &self.witness {
            write!(f, "\n    witness: {w}")?;
        }
        Ok(())
    }
}

impl Diagnostic {
    /// Serialize as a JSON object (the environment has no serde; the
    /// diagnostic shape is flat enough to emit by hand).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str(&format!("\"severity\":\"{}\"", self.severity));
        s.push_str(&format!(",\"analysis\":\"{}\"", self.analysis));
        s.push_str(&format!(",\"code\":\"{}\"", self.code));
        s.push_str(&format!(",\"ruleset\":\"{}\"", json_escape(&self.ruleset)));
        match &self.rule {
            Some(r) => s.push_str(&format!(",\"rule\":\"{}\"", json_escape(r))),
            None => s.push_str(",\"rule\":null"),
        }
        s.push_str(&format!(",\"detail\":\"{}\"", json_escape(&self.detail)));
        match &self.witness {
            Some(w) => s.push_str(&format!(",\"witness\":\"{}\"", json_escape(w))),
            None => s.push_str(",\"witness\":null"),
        }
        s.push('}');
        s
    }
}

/// Per-backend lowering-coverage census row: how many rules the
/// target's pattern-context pack ships, and how many coverage holes
/// (rule-set bugs) and notes (inherent target limitations) the coverage
/// analysis found for it. One row per registered lowering TRS; this is
/// the machine-checkable form of the `k + n + 1` census in `docs/isa.md`.
#[derive(Debug, Clone)]
pub struct CoverageSummary {
    /// The lowering rule set (`lower-arm`, `lower-rvv`, …).
    pub ruleset: String,
    /// Rules in the target's pattern-context pack.
    pub rules: usize,
    /// Coverage findings at warning severity or above (`COV002`):
    /// FPIR the legalizer alone could select but the pack broke.
    pub holes: usize,
    /// Coverage notes (`COV001`): inherent target limitations.
    pub notes: usize,
}

impl fmt::Display for CoverageSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "coverage[{}]: {} rules, {} holes, {} notes",
            self.ruleset, self.rules, self.holes, self.notes
        )
    }
}

impl CoverageSummary {
    /// Serialize as a JSON object (hand-built, like [`Diagnostic::to_json`]).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"ruleset\":\"{}\",\"rules\":{},\"holes\":{},\"notes\":{}}}",
            json_escape(&self.ruleset),
            self.rules,
            self.holes,
            self.notes
        )
    }
}

/// Serialize a batch of diagnostics as a JSON array.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut s = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('\n');
        s.push_str("  ");
        s.push_str(&d.to_json());
    }
    if !diags.is_empty() {
        s.push('\n');
    }
    s.push(']');
    s
}

/// Serialize the full `rulecheck --json` report: the per-backend
/// coverage summary followed by every diagnostic. The old top-level
/// array shape lives on as the `diagnostics` field.
pub fn render_report_json(summary: &[CoverageSummary], diags: &[Diagnostic]) -> String {
    let mut s = String::from("{\n  \"schema\": \"pitchfork-rulecheck/v2\",\n  \"summary\": [");
    for (i, row) in summary.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n    ");
        s.push_str(&row.to_json());
    }
    if !summary.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("],\n  \"diagnostics\": ");
    // Indent the diagnostics array to sit inside the report object.
    s.push_str(&render_json(diags).replace('\n', "\n  "));
    s.push_str("\n}");
    s
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders() {
        assert!(Severity::Note < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn json_escapes_specials() {
        let d = Diagnostic {
            severity: Severity::Error,
            analysis: Analysis::Predicates,
            code: "PRED000",
            ruleset: "lift".into(),
            rule: Some("has \"quotes\"".into()),
            detail: "line\nbreak".into(),
            witness: None,
        };
        let j = d.to_json();
        assert!(j.contains("\\\"quotes\\\""));
        assert!(j.contains("line\\nbreak"));
        assert!(j.contains("\"witness\":null"));
    }
}
