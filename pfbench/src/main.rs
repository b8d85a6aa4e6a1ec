//! `pfbench` — the repository's benchmark, from kernel compile to served
//! request. It drives every layer from outside, through public calls:
//! the compiler's phase hook, `Executable::link_with`, `run_tiled_exe`,
//! the service's parse/classify/handle entry points, and a stock
//! `pitchforkd` child process with its `stats` op. See `README.md` in
//! this directory for the workloads, the metrics and how to read them.
//!
//! ```text
//! pfbench [run] --workload NAME --seed N [--seconds S] [--trace 0|1]
//!               [--out FILE] [--spans FILE]
//! pfbench set --seed N [--seconds S] --out FILE
//! pfbench compare OLD NEW
//! ```

// The workload loops borrow their inputs, generator, tracer and outcome
// separately, so each caller can lend what it owns.
#![allow(clippy::too_many_arguments)]

mod compare;
mod compile;
mod exec;
mod keys;
mod report;
mod serve;
mod spec;
mod speed;
mod trace;
mod util;

use keys::Suite;
use report::Outcome;
use std::process::{Command, ExitCode};

const USAGE: &str = "\
usage:
  pfbench [run] --workload NAME --seed N [--seconds S] [--trace 0|1]
                [--out FILE] [--spans FILE] [--plant-failure]
  pfbench set --seed N [--seconds S] --out FILE
  pfbench compare OLD NEW

run       measure one workload for S seconds (default 10); prints one
          `METRIC <workload> <name> <value> <unit>` line per metric and,
          last, a one-line JSON result. --trace 1 reports per-layer
          metrics instead of end-to-end ones. --out writes a result file
          with per-trial values and run metadata; --spans writes the
          traced spans. --plant-failure corrupts one reference pixel,
          to show that the gates are fatal. Exits 1 on any failure.
set       run every workload, untraced then traced, each in its own
          process, and write one result file.
compare   judge NEW against OLD with the bounds in BENCHMARK.json; exits
          1 on any row worse than its bound or a higher failed share.

workloads: compile-figure compile-unrolled exec-images serve-hot serve-mixed";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CompileFigure,
    CompileUnrolled,
    ExecImages,
    ServeHot,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::CompileFigure,
        Workload::CompileUnrolled,
        Workload::ExecImages,
        Workload::ServeHot,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CompileFigure => "compile-figure",
            Workload::CompileUnrolled => "compile-unrolled",
            Workload::ExecImages => "exec-images",
            Workload::ServeHot => "serve-hot",
            Workload::ServeMixed => "serve-mixed",
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub plant_failure: bool,
    out: Option<String>,
    spans: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10, false);
    let (mut out, mut spans, mut plant_failure) = (None, None, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--plant-failure" {
            plant_failure = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("`{flag}` needs a whole number"));
        match flag.as_str() {
            "--workload" => {
                let w = Workload::ALL.into_iter().find(|w| w.name() == value);
                workload = Some(w.ok_or_else(|| format!("unknown workload `{value}`"))?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            "--out" => out = Some(value.clone()),
            "--spans" => spans = Some(value.clone()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        plant_failure,
        out,
        spans,
    })
}

fn measure(a: &Args) -> Outcome {
    match a.workload {
        Workload::CompileFigure => compile::run(Suite::Figure, a),
        Workload::CompileUnrolled => compile::run(Suite::Unrolled, a),
        Workload::ExecImages => exec::run(a),
        Workload::ServeHot => serve::run(false, a),
        Workload::ServeMixed => serve::run(true, a),
    }
}

fn run(argv: &[String]) -> ExitCode {
    let a = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = spec::load();
    // Read the host's facts before pinning narrows what it reports.
    let meta = a.out.as_ref().map(|_| util::run_meta());
    util::pin_to_one_cpu();
    let mut out = measure(&a);
    let group = if a.trace { &spec.per_layer } else { &spec.end_to_end };
    let names: Vec<&str> = group.iter().map(|m| m.name.as_str()).collect();
    out.select(&names);
    for f in &out.failures {
        eprintln!("pfbench: FAIL {f}");
    }
    let name = a.workload.name();
    if let (Some(path), Some(meta)) = (&a.out, meta) {
        let entry = report::result_json(name, a.seed, a.seconds, a.trace, &out, &spec);
        let file = report::set_json(meta, vec![entry]);
        if let Err(e) = std::fs::write(path, file.render() + "\n") {
            eprintln!("pfbench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &a.spans {
        if let Err(e) = std::fs::write(path, trace::to_json(&out.spans).render() + "\n") {
            eprintln!("pfbench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    print!("{}", report::metric_lines(name, &out, &spec));
    println!("{}", report::result_line(&out, &spec));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every workload, untraced then traced, each in a child process of
/// its own (so one workload's memory high-water mark cannot leak into
/// another's), and gather the results into one file.
fn set(argv: &[String]) -> ExitCode {
    let mut flags = argv.iter();
    let (mut seed, mut seconds, mut out) = (None, "10".to_string(), None);
    while let Some(flag) = flags.next() {
        match (flag.as_str(), flags.next()) {
            ("--seed", Some(v)) => seed = Some(v.clone()),
            ("--seconds", Some(v)) => seconds = v.clone(),
            ("--out", Some(v)) => out = Some(v.clone()),
            _ => {
                eprintln!("pfbench set: bad arguments\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let (Some(seed), Some(out)) = (seed, out) else {
        eprintln!("pfbench set: --seed and --out are required\n{USAGE}");
        return ExitCode::from(2);
    };
    let Ok(me) = std::env::current_exe() else {
        eprintln!("pfbench set: cannot locate this executable");
        return ExitCode::FAILURE;
    };
    let part = format!("{out}.part");
    let mut results = Vec::new();
    let mut ok = true;
    for trace in ["0", "1"] {
        for w in Workload::ALL {
            let status = Command::new(&me)
                .args(["--workload", w.name(), "--seed", &seed, "--seconds", &seconds])
                .args(["--trace", trace, "--out", &part])
                .status();
            ok &= status.is_ok_and(|s| s.success());
            let entry = std::fs::read_to_string(&part)
                .ok()
                .and_then(|t| pitchfork_service::json::parse(&t).ok())
                .and_then(|v| v.get("results")?.as_array()?.first().cloned());
            let _ = std::fs::remove_file(&part);
            match entry {
                Some(e) => results.push(e),
                None => {
                    eprintln!("pfbench set: {} (trace {trace}) wrote no result", w.name());
                    ok = false;
                }
            }
        }
    }
    let file = report::set_json(util::run_meta(), results);
    if let Err(e) = std::fs::write(&out, file.render() + "\n") {
        eprintln!("pfbench set: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("compare") => match argv.as_slice() {
            [_, old, new] => match compare::run(old, new, &spec::load()) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("pfbench compare: {e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        },
        Some("set") => set(&argv[1..]),
        Some("run") => run(&argv[1..]),
        Some("-h" | "--help") => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        _ => run(&argv),
    }
}
