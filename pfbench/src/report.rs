//! What one run measured, and its three renderings: `METRIC` lines, the
//! one-line JSON result that ends standard output, and the full
//! result file (`--out`) with per-trial values and run metadata.

use crate::spec::Spec;
use crate::speed::Trials;
use crate::trace::Span;
use crate::util::{median, percentile, sorted_us};
use pitchfork_service::Json;
use std::collections::BTreeMap;

/// One metric's value, with the per-trial values it was taken from.
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    pub trials: Vec<f64>,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics (untraced runs) or per-layer ones (traced).
    pub metrics: Vec<Measured>,
    /// Operations attempted: compiles, image runs or requests.
    pub attempted: u64,
    /// Operations or gates that failed.
    pub failed: u64,
    /// The first failure messages.
    pub failures: Vec<String>,
    /// Workload facts kept in the result file only.
    pub extra: Vec<(String, Json)>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metric_trials(name, value, Vec::new());
    }

    pub fn metric_trials(&mut self, name: &'static str, value: f64, trials: Vec<f64>) {
        self.metrics.push(Measured { name, value, trials });
    }

    pub fn fail(&mut self, what: impl Into<String>) {
        self.fail_n(1, what);
    }

    /// Record `n` failed operations under one message.
    pub fn fail_n(&mut self, n: u64, what: impl Into<String>) {
        self.failed += n;
        if self.failures.len() < 20 {
            self.failures.push(what.into());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Keep exactly the metrics `names` lists, in its order. A listed
    /// metric a correct run did not produce is a bug in the benchmark; a
    /// failed run may have stopped before measuring it.
    pub fn select(&mut self, names: &[&str]) {
        let mut by_name: BTreeMap<&str, Measured> =
            self.metrics.drain(..).map(|m| (m.name, m)).collect();
        for name in names {
            match by_name.remove(name).filter(|m| m.value.is_finite()) {
                Some(m) => self.metrics.push(m),
                None if !self.correct() => {}
                None => panic!("metric `{name}` was not measured"),
            }
        }
    }
}

/// The end-to-end metrics every workload reports: set-up seconds (the
/// median of the repetitions), the trial rate (the median of the
/// trials), latency percentiles over every sample, peak memory and the
/// cycle model's geometric mean. The result file also keeps each
/// trial's slowdown and unscaled rate.
pub fn end_to_end(
    out: &mut Outcome,
    setups: Vec<f64>,
    trials: &Trials,
    samples_ns: &[u32],
    rss_mib: f64,
    cycles: f64,
) {
    let us = sorted_us(samples_ns);
    out.metric_trials("setup_s", median(&setups), setups);
    out.metric("peak_rss_mb", rss_mib);
    out.metric_trials("ops_per_s", median(&trials.rates), trials.rates.clone());
    out.metric_trials("op_us_p50", percentile(&us, 0.5), trials.p50_us.clone());
    out.metric_trials("op_us_p99", percentile(&us, 0.99), trials.p99_us.clone());
    out.metric("cycles_geomean", cycles);
    let list = |xs: &[f64]| Json::Array(xs.iter().map(|&x| Json::Float(x)).collect());
    out.extra.push(("slowdowns".into(), list(&trials.slowdowns)));
    out.extra.push(("raw_ops_per_s".into(), list(&trials.raw_rates)));
}

/// Per-layer values filled in by whichever probes a workload runs.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn into_outcome(self, out: &mut Outcome) {
        for (name, value) in self.0 {
            out.metric(name, value);
        }
    }
}

/// One `METRIC <workload> <name> <value> <unit>` line per metric.
pub fn metric_lines(workload: &str, out: &Outcome, spec: &Spec) -> String {
    let mut s = String::new();
    for m in &out.metrics {
        let unit = spec.metric(m.name).map_or("", |ms| ms.unit.as_str());
        s.push_str(&format!("METRIC {workload} {} {} {unit}\n", m.name, m.value));
    }
    s
}

/// Each metric's value and unit, with its per-trial values when
/// `with_trials`.
fn metrics_json(out: &Outcome, spec: &Spec, with_trials: bool) -> Json {
    let metrics = out.metrics.iter().map(|m| {
        let unit = spec.metric(m.name).map_or("", |ms| ms.unit.as_str());
        let mut members =
            vec![("value".into(), Json::Float(m.value)), ("unit".into(), Json::str(unit))];
        if with_trials {
            let trials = m.trials.iter().map(|&t| Json::Float(t)).collect();
            members.push(("trials".into(), Json::Array(trials)));
        }
        (m.name.to_string(), Json::Object(members))
    });
    Json::Object(metrics.collect())
}

/// The last line of a run's standard output.
pub fn result_line(out: &Outcome, spec: &Spec) -> String {
    Json::Object(vec![
        ("correct".into(), Json::Bool(out.correct())),
        ("attempted".into(), Json::Int(out.attempted.into())),
        ("failed".into(), Json::Int(out.failed.into())),
        ("metrics".into(), metrics_json(out, spec, false)),
    ])
    .render()
}

/// One workload's entry in a result file.
pub fn result_json(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: &Outcome,
    spec: &Spec,
) -> Json {
    let mut members = vec![
        ("workload".into(), Json::str(workload)),
        ("seed".into(), Json::Int(seed.into())),
        ("seconds".into(), Json::Int(seconds.into())),
        ("trace".into(), Json::Bool(trace)),
        ("correct".into(), Json::Bool(out.correct())),
        ("attempted".into(), Json::Int(out.attempted.into())),
        ("failed".into(), Json::Int(out.failed.into())),
        ("failures".into(), Json::Array(out.failures.iter().map(Json::str).collect())),
        ("metrics".into(), metrics_json(out, spec, true)),
    ];
    members.extend(out.extra.iter().cloned());
    Json::Object(members)
}

/// A result file: run metadata plus workload entries.
pub fn set_json(meta: Vec<(String, Json)>, results: Vec<Json>) -> Json {
    Json::Object(vec![
        ("schema".into(), Json::str("pfbench/v1")),
        ("meta".into(), Json::Object(meta)),
        ("results".into(), Json::Array(results)),
    ])
}
