//! `pitchfork-cli` — a command-line client for `pitchforkd`.
//!
//! ```text
//! pitchfork-cli --socket /tmp/pitchforkd.sock ping
//! pitchfork-cli --socket S compile --expr 'u8(min(u16(a_u8) + u16(b_u8), 255))' --lanes 16 --isa arm
//! pitchfork-cli --tcp 127.0.0.1:7737 run --expr 'a_u8 + b_u8' --lanes 4 --isa x86 \
//!     --input a=1,2,3,4 --input b=5,6,7,8
//! pitchfork-cli --socket S stats [--text]
//! pitchfork-cli --socket S pipeline --expr 'a_u8 + b_u8' --lanes 4 --isa arm
//! pitchfork-cli --socket S shutdown
//! ```
//!
//! Prints the raw JSON response; exits non-zero when the server answers
//! `"ok": false` (or can't be reached). `pipeline` exercises protocol
//! v2: it writes three tagged copies of the request back-to-back before
//! reading anything, then collects the three responses (in whatever
//! order the server answers) and matches them back up by tag.

use pitchfork_service::{Client, Endpoint, Json};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
pitchfork-cli — talk to a running pitchforkd

USAGE:
    pitchfork-cli (--socket PATH | --tcp ADDR) COMMAND [OPTIONS]

COMMANDS:
    ping                       liveness check
    stats                      server counters and latency percentiles
    shutdown                   ask the server to stop
    compile                    compile an expression
    run                        compile and execute over input vectors
    pipeline                   send 3 tagged compile requests back-to-back
                               before reading any response (protocol v2)

STATS OPTIONS:
    --text                     Prometheus-style `name value` lines

COMPILE/RUN OPTIONS:
    --tag TAG                  opaque tag echoed in the response
    --expr EXPR                the expression (printed syntax)
    --lanes N                  vector width
    --isa x86|arm|hvx|rvv      target
    --no-synthesized           drop synthesized rules
    --leave-out NAME           leave-one-out benchmark
    --timeout-ms N             per-request deadline
    --input NAME=V1,V2,...     (run) one input vector, repeatable
";

fn fail(msg: &str) -> ExitCode {
    eprintln!("pitchfork-cli: {msg}");
    eprintln!("{USAGE}");
    ExitCode::FAILURE
}

struct Args {
    rest: std::vec::IntoIter<String>,
}

impl Args {
    fn take(&mut self, what: &str) -> Result<String, String> {
        self.rest.next().ok_or_else(|| format!("{what} needs a value"))
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "-h" || a == "--help") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let mut args = Args { rest: argv.into_iter() };

    let mut endpoint: Option<Endpoint> = None;
    let mut command: Option<String> = None;
    let mut members: Vec<(String, Json)> = Vec::new();
    let mut inputs: Vec<(String, Json)> = Vec::new();

    while let Some(arg) = args.rest.next() {
        let r: Result<(), String> = (|| {
            match arg.as_str() {
                "--socket" => {
                    endpoint = Some(Endpoint::Unix(PathBuf::from(args.take("--socket")?)));
                }
                "--tcp" => endpoint = Some(Endpoint::Tcp(args.take("--tcp")?)),
                "--expr" => members.push(("expr".into(), Json::str(args.take("--expr")?))),
                "--lanes" => {
                    let n: i128 = args
                        .take("--lanes")?
                        .parse()
                        .map_err(|_| "--lanes must be an integer".to_string())?;
                    members.push(("lanes".into(), Json::Int(n)));
                }
                "--isa" => members.push(("isa".into(), Json::str(args.take("--isa")?))),
                "--tag" => members.push(("tag".into(), Json::str(args.take("--tag")?))),
                "--text" => members.push(("format".into(), Json::str("text"))),
                "--no-synthesized" => {
                    members.push(("synthesized_rules".into(), Json::Bool(false)));
                }
                "--leave-out" => {
                    members.push(("leave_out".into(), Json::str(args.take("--leave-out")?)));
                }
                "--timeout-ms" => {
                    let n: i128 = args
                        .take("--timeout-ms")?
                        .parse()
                        .map_err(|_| "--timeout-ms must be an integer".to_string())?;
                    members.push(("timeout_ms".into(), Json::Int(n)));
                }
                "--input" => {
                    let spec = args.take("--input")?;
                    let (name, lanes) = spec
                        .split_once('=')
                        .ok_or_else(|| "--input expects NAME=V1,V2,...".to_string())?;
                    let vals: Result<Vec<Json>, String> = lanes
                        .split(',')
                        .map(|v| {
                            v.trim()
                                .parse::<i128>()
                                .map(Json::Int)
                                .map_err(|_| format!("bad lane value `{v}`"))
                        })
                        .collect();
                    inputs.push((name.to_string(), Json::Array(vals?)));
                }
                cmd if !cmd.starts_with('-') && command.is_none() => {
                    command = Some(cmd.to_string());
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
            Ok(())
        })();
        if let Err(m) = r {
            return fail(&m);
        }
    }

    let Some(endpoint) = endpoint else {
        return fail("one of --socket or --tcp is required");
    };
    let Some(command) = command else {
        return fail("a command is required");
    };
    match command.as_str() {
        "ping" | "stats" | "shutdown" | "compile" | "run" | "pipeline" => {}
        other => return fail(&format!("unknown command `{other}`")),
    }

    let op = if command == "pipeline" { "compile".to_string() } else { command.clone() };
    let mut frame = vec![("op".to_string(), Json::str(op))];
    frame.extend(members);
    if command == "run" || !inputs.is_empty() {
        frame.push(("inputs".into(), Json::Object(inputs)));
    }

    let mut client = match Client::connect(&endpoint) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("pitchfork-cli: cannot connect to {endpoint}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if command == "pipeline" {
        return pipeline(&mut client, frame);
    }
    match client.request(&Json::Object(frame)) {
        Ok(response) => {
            println!("{}", response.render());
            if response.get("ok").and_then(Json::as_bool) == Some(true) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("pitchfork-cli: request failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Protocol v2 demo: three tagged copies of one compile request on the
/// wire before any read; responses may come back in any order and are
/// matched up by their echoed tags.
fn pipeline(client: &mut pitchfork_service::Client, frame: Vec<(String, Json)>) -> ExitCode {
    let tags = ["p1", "p2", "p3"];
    for tag in tags {
        let mut tagged = frame.clone();
        tagged.retain(|(k, _)| k != "tag");
        tagged.push(("tag".into(), Json::str(tag)));
        if let Err(e) = client.send(&Json::Object(tagged)) {
            eprintln!("pitchfork-cli: pipelined send failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    let mut unseen: Vec<&str> = tags.to_vec();
    for _ in tags {
        let response = match client.recv() {
            Ok(v) => v,
            Err(e) => {
                eprintln!("pitchfork-cli: pipelined receive failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        if response.get("ok").and_then(Json::as_bool) != Some(true) {
            eprintln!("pitchfork-cli: pipelined request failed: {}", response.render());
            return ExitCode::FAILURE;
        }
        let Some(tag) = response.get("tag").and_then(Json::as_str) else {
            eprintln!("pitchfork-cli: response carries no tag: {}", response.render());
            return ExitCode::FAILURE;
        };
        let Some(at) = unseen.iter().position(|t| *t == tag) else {
            eprintln!("pitchfork-cli: unexpected or duplicate tag `{tag}`");
            return ExitCode::FAILURE;
        };
        unseen.remove(at);
    }
    println!(
        "{}",
        Json::Object(vec![("ok".into(), Json::Bool(true)), ("pipelined".into(), Json::Int(3)),])
            .render()
    );
    ExitCode::SUCCESS
}
