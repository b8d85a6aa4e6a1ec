//! `pfbench compare OLD NEW`: judge one result file against another,
//! row by row, with the bounds `BENCHMARK.json` fixes.

use crate::spec::{MetricSpec, Spec};
use pitchfork_service::json::{self, Json};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    /// A per-layer row: shown, never judged.
    Info,
    /// In the old file but not the new one.
    Missing,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within bound",
            Verdict::Worse => "WORSE",
            Verdict::Info => "info",
            Verdict::Missing => "MISSING",
        }
    }
}

/// Judge one metric: worse when it moved the wrong way by more than its
/// bound (a share of the old value), better when it moved the right way
/// by more than that, otherwise within bound.
pub fn verdict(m: &MetricSpec, old: f64, new: f64) -> Verdict {
    let Some(bound) = m.bound else { return Verdict::Info };
    let change = if old == 0.0 {
        if new == 0.0 {
            0.0
        } else {
            new.signum() * f64::INFINITY
        }
    } else {
        (new - old) / old.abs()
    };
    let worse_by = if m.lower_is_better { change } else { -change };
    if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// One workload run's entry in a result file.
struct Entry {
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
}

type Entries = BTreeMap<(String, bool), Entry>;

fn number(v: &Json) -> Option<f64> {
    match v {
        Json::Float(x) => Some(*x),
        Json::Int(n) => Some(*n as f64),
        _ => None,
    }
}

fn load(path: &str) -> Result<Entries, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn parse(text: &str) -> Result<Entries, String> {
    let root = json::parse(text).map_err(|e| e.to_string())?;
    let results = root.get("results").and_then(Json::as_array).ok_or("no `results` array")?;
    let mut out = Entries::new();
    for r in results {
        let workload =
            r.get("workload").and_then(Json::as_str).ok_or("result without `workload`")?;
        let trace = r.get("trace").and_then(Json::as_bool).unwrap_or(false);
        let metrics = r
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or("result without `metrics`")?
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), number(v.get("value")?)?)))
            .collect();
        let count = |k: &str| r.get(k).and_then(number).unwrap_or(0.0);
        let entry = Entry { attempted: count("attempted"), failed: count("failed"), metrics };
        out.insert((workload.to_string(), trace), entry);
    }
    Ok(out)
}

/// Compare two parsed result files; returns the printed table and
/// whether any row is worse, missing, or failed more often.
fn judge(old: &Entries, new: &Entries, spec: &Spec) -> (String, bool) {
    let mut table = format!(
        "{:<17} {:<34} {:>14} {:>14} {:>9}  verdict\n",
        "workload", "metric", "old", "new", "delta"
    );
    let mut bad = false;
    let groups = [(false, &spec.end_to_end), (true, &spec.per_layer)];
    for w in &spec.workloads {
        for (trace, metrics) in groups {
            let key = (w.clone(), trace);
            let Some(o) = old.get(&key) else { continue };
            let n = new.get(&key);
            for m in metrics {
                let Some(&ov) = o.metrics.get(&m.name) else { continue };
                let nv = n.and_then(|n| n.metrics.get(&m.name)).copied();
                let v = nv.map_or(Verdict::Missing, |nv| verdict(m, ov, nv));
                bad |= matches!(v, Verdict::Worse | Verdict::Missing);
                let (new_s, delta) = match nv {
                    Some(nv) if ov != 0.0 => {
                        (format!("{nv:.4}"), format!("{:+.1}%", (nv - ov) / ov.abs() * 100.0))
                    }
                    Some(nv) => (format!("{nv:.4}"), "-".to_string()),
                    None => ("-".to_string(), "-".to_string()),
                };
                let bound = m.bound.map_or(String::new(), |b| format!(" ({:.0}%)", b * 100.0));
                table.push_str(&format!(
                    "{w:<17} {:<34} {ov:>14.4} {new_s:>14} {delta:>9}  {}{bound}\n",
                    m.name,
                    v.label()
                ));
            }
            if let Some(n) = n {
                let share = |e: &Entry| e.failed / e.attempted.max(1.0);
                if share(n) > share(o) {
                    bad = true;
                    table.push_str(&format!(
                        "{w:<17} {:<34} {:>14.6} {:>14.6} {:>9}  WORSE\n",
                        "failed_share",
                        share(o),
                        share(n),
                        "-"
                    ));
                }
            }
        }
    }
    (table, bad)
}

/// Print the comparison; `Ok(true)` when nothing got worse.
pub fn run(old_path: &str, new_path: &str, spec: &Spec) -> Result<bool, String> {
    let (old, new) = (load(old_path)?, load(new_path)?);
    let (table, bad) = judge(&old, &new, spec);
    print!("{table}");
    Ok(!bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(lower: bool, bound: Option<f64>) -> MetricSpec {
        MetricSpec { name: "x".into(), unit: "s".into(), lower_is_better: lower, bound }
    }

    #[test]
    fn bounds_decide_the_verdict() {
        let lat = m(true, Some(0.10));
        assert_eq!(verdict(&lat, 100.0, 105.0), Verdict::Within);
        assert_eq!(verdict(&lat, 100.0, 111.0), Verdict::Worse);
        assert_eq!(verdict(&lat, 100.0, 89.0), Verdict::Better);
        assert_eq!(verdict(&lat, 100.0, 95.0), Verdict::Within);
        let rate = m(false, Some(0.10));
        assert_eq!(verdict(&rate, 100.0, 89.0), Verdict::Worse);
        assert_eq!(verdict(&rate, 100.0, 111.0), Verdict::Better);
        let exact = m(true, Some(0.0));
        assert_eq!(verdict(&exact, 7.0, 7.0), Verdict::Within);
        assert_eq!(verdict(&exact, 7.0, 7.000001), Verdict::Worse);
        assert_eq!(verdict(&m(true, None), 1.0, 100.0), Verdict::Info);
        assert_eq!(verdict(&lat, 0.0, 0.0), Verdict::Within);
        assert_eq!(verdict(&lat, 0.0, 1.0), Verdict::Worse);
    }

    fn file(rate: f64, failed: u64) -> String {
        format!(
            r#"{{"schema":"pfbench/v1","meta":{{}},"results":[
              {{"workload":"w","trace":false,"attempted":100,"failed":{failed},
                "metrics":{{"rate":{{"value":{rate},"unit":"1/s"}},"lat":{{"value":10.0,"unit":"us"}}}}}},
              {{"workload":"w","trace":true,"attempted":100,"failed":0,
                "metrics":{{"layer":{{"value":{rate},"unit":"us"}}}}}}]}}"#
        )
    }

    fn spec() -> Spec {
        let metric = |name: &str, lower, bound| MetricSpec {
            name: name.into(),
            unit: "u".into(),
            lower_is_better: lower,
            bound,
        };
        Spec {
            workloads: vec!["w".into()],
            end_to_end: vec![metric("rate", false, Some(0.1)), metric("lat", true, Some(0.1))],
            per_layer: vec![metric("layer", true, None)],
        }
    }

    #[test]
    fn a_file_agrees_with_itself_and_flags_regressions() {
        let base = parse(&file(1000.0, 0)).unwrap();
        assert!(!judge(&base, &base, &spec()).1);
        // A per-layer move is shown but never fails the comparison.
        let (table, bad) = judge(&base, &parse(&file(950.0, 0)).unwrap(), &spec());
        assert!(!bad, "{table}");
        assert!(table.contains("info"));
        assert!(judge(&base, &parse(&file(850.0, 0)).unwrap(), &spec()).1);
        assert!(judge(&base, &parse(&file(1000.0, 1)).unwrap(), &spec()).1);
        let empty = parse(r#"{"results":[]}"#).unwrap();
        assert!(judge(&base, &empty, &spec()).1, "a workload that vanished is missing");
        assert!(parse("{}").is_err());
    }
}
