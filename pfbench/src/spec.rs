//! The metric contract. `BENCHMARK.json` is compiled in, so metric names,
//! units, directions and bounds have one source, shared by the runs that
//! print metrics and by `compare`, which judges them.

use pitchfork_service::json::{self, Json};

pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// How far (a share of the old value) the metric may worsen before it
    /// counts as a regression; per-layer metrics have none.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end.iter().chain(&self.per_layer).find(|m| m.name == name)
    }
}

/// The compiled-in contract.
pub fn load() -> Spec {
    parse(BENCHMARK_JSON).unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"))
}

pub fn parse(src: &str) -> Result<Spec, String> {
    let root = json::parse(src).map_err(|e| e.to_string())?;
    let list = |key: &str| -> Result<&[Json], String> {
        root.get(key).and_then(Json::as_array).ok_or_else(|| format!("missing array `{key}`"))
    };
    let text = |v: &Json, key: &str| -> Result<String, String> {
        v.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("missing `{key}`"))
    };
    let metrics = |key: &str, bounded: bool| -> Result<Vec<MetricSpec>, String> {
        list(key)?
            .iter()
            .map(|m| {
                let better = text(m, "better")?;
                if better != "lower" && better != "higher" {
                    return Err(format!("`better` must be lower or higher, not {better}"));
                }
                let bound = match m.get("bound") {
                    Some(Json::Float(b)) => Some(*b),
                    Some(Json::Int(b)) => Some(*b as f64),
                    None if !bounded => None,
                    _ => return Err(format!("{key} metric needs a numeric `bound`")),
                };
                Ok(MetricSpec {
                    name: text(m, "name")?,
                    unit: text(m, "unit")?,
                    lower_is_better: better == "lower",
                    bound,
                })
            })
            .collect()
    };
    Ok(Spec {
        workloads: list("workloads")?.iter().map(|w| text(w, "name")).collect::<Result<_, _>>()?,
        end_to_end: metrics("end_to_end", true)?,
        per_layer: metrics("per_layer", false)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_contract_parses_and_names_are_well_formed() {
        let spec = load();
        assert_eq!(spec.workloads, crate::Workload::ALL.map(|w| w.name().to_string()));
        let all: Vec<&MetricSpec> = spec.end_to_end.iter().chain(&spec.per_layer).collect();
        let ok = |s: &str| {
            s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.len() <= 64
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        for m in &all {
            assert!(ok(&m.name), "{}", m.name);
            assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        let mut names: Vec<&str> = all.iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names are used once");
        let setup = spec.metric("setup_s").expect("setup_s is an end-to-end metric");
        assert!(setup.lower_is_better && setup.unit == "s");
        let widest = spec.end_to_end.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "set-up time has the largest bound");
        assert!(widest <= 0.25);
    }

    #[test]
    fn malformed_contracts_are_refused() {
        assert!(parse("{}").is_err());
        let no_bound = r#"{"workloads":[{"name":"w","why":"x"}],
            "end_to_end":[{"name":"m","unit":"s","better":"lower"}],"per_layer":[]}"#;
        assert!(parse(no_bound).is_err());
        let sideways = r#"{"workloads":[],"end_to_end":[
            {"name":"m","unit":"s","better":"up","bound":0.1}],"per_layer":[]}"#;
        assert!(parse(sideways).is_err());
    }
}
