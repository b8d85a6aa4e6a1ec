//! `pitchforkd` — the compile-and-run daemon.
//!
//! ```text
//! pitchforkd --socket /tmp/pitchforkd.sock
//! pitchforkd --tcp 127.0.0.1:7737 --workers 4 --cache-mb 128 --timeout-ms 5000
//! ```
//!
//! Listens until `SIGTERM`/`SIGINT` or a `{"op":"shutdown"}` frame,
//! then drains connections and (for Unix sockets) unlinks the path.

use pitchfork_service::{
    install_signal_handlers, serve_with, Endpoint, ServeOptions, Service, ServiceConfig,
};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "\
pitchforkd — serve Pitchfork compilations over a socket

USAGE:
    pitchforkd (--socket PATH | --tcp ADDR) [OPTIONS]

OPTIONS:
    --socket PATH       listen on a Unix socket at PATH
    --tcp ADDR          listen on a TCP address, e.g. 127.0.0.1:7737
    --workers N         request worker threads   [default: #cores, max 8]
    --cache-mb N        artifact cache budget    [default: 64]
    --timeout-ms N      default per-request deadline [default: none]
    --max-conns N       concurrent connection cap [default: 128]
    --outq-mb N         per-connection response queue budget [default: 8]
    --max-pipeline N    parsed frames in flight per connection [default: 128]
    --cache-dir PATH    spill served artifacts to PATH and re-admit them
                        on startup (restart-warm) [default: off]
    --cache-max-mb N    spill-store byte budget; an LRU sweep (by mtime,
                        refreshed on hits) evicts the oldest entries at
                        startup and after each spill [default: unbounded]
    --cache-max-age-s N evict spill entries idle longer than N seconds
                        in the same sweep [default: never]
    --peer ADDR         a sibling daemon (unix:PATH, tcp:ADDR, or bare;
                        repeatable); on a miss the key's owner is asked
                        before compiling locally
    --peer-timeout-ms N bound on one fetch from a key's owner (connect,
                        send and receive; the request's deadline may cut
                        it shorter), after which the request compiles
                        locally [default: 1500]
    -h, --help          print this help
";

fn fail(msg: &str) -> ExitCode {
    eprintln!("pitchforkd: {msg}");
    eprintln!("{USAGE}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut endpoint: Option<Endpoint> = None;
    let mut config = ServiceConfig::default();
    let mut opts = ServeOptions::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |what: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("{what} needs a value"))
        };
        let parsed: Result<(), String> = (|| {
            match arg.as_str() {
                "--socket" => endpoint = Some(Endpoint::Unix(PathBuf::from(take("--socket")?))),
                "--tcp" => endpoint = Some(Endpoint::Tcp(take("--tcp")?)),
                "--workers" => {
                    config.workers = take("--workers")?
                        .parse()
                        .map_err(|_| "--workers must be an integer".to_string())?;
                }
                "--cache-mb" => {
                    let mb: usize = take("--cache-mb")?
                        .parse()
                        .map_err(|_| "--cache-mb must be an integer".to_string())?;
                    config.cache_bytes = mb << 20;
                }
                "--timeout-ms" => {
                    config.default_timeout_ms = Some(
                        take("--timeout-ms")?
                            .parse()
                            .map_err(|_| "--timeout-ms must be an integer".to_string())?,
                    );
                }
                "--max-conns" => {
                    opts.max_connections = take("--max-conns")?
                        .parse()
                        .map_err(|_| "--max-conns must be an integer".to_string())?;
                }
                "--outq-mb" => {
                    let mb: usize = take("--outq-mb")?
                        .parse()
                        .map_err(|_| "--outq-mb must be an integer".to_string())?;
                    opts.outq_bytes = mb << 20;
                }
                "--max-pipeline" => {
                    opts.max_pipeline = take("--max-pipeline")?
                        .parse()
                        .map_err(|_| "--max-pipeline must be an integer".to_string())?;
                }
                "--cache-dir" => {
                    config.cache_dir = Some(PathBuf::from(take("--cache-dir")?));
                }
                "--cache-max-mb" => {
                    let mb: u64 = take("--cache-max-mb")?
                        .parse()
                        .map_err(|_| "--cache-max-mb must be an integer".to_string())?;
                    config.cache_max_bytes = Some(mb << 20);
                }
                "--cache-max-age-s" => {
                    let s: u64 = take("--cache-max-age-s")?
                        .parse()
                        .map_err(|_| "--cache-max-age-s must be an integer".to_string())?;
                    config.cache_max_age = Some(std::time::Duration::from_secs(s));
                }
                "--peer" => opts.peers.push(Endpoint::parse(&take("--peer")?)),
                "--peer-timeout-ms" => {
                    opts.peer_timeout_ms = take("--peer-timeout-ms")?
                        .parse()
                        .map_err(|_| "--peer-timeout-ms must be an integer".to_string())?;
                }
                "-h" | "--help" => {
                    println!("{USAGE}");
                    std::process::exit(0);
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
            Ok(())
        })();
        if let Err(m) = parsed {
            return fail(&m);
        }
    }
    let Some(endpoint) = endpoint else {
        return fail("one of --socket or --tcp is required");
    };

    install_signal_handlers();
    eprintln!(
        "pitchforkd: listening on {endpoint} ({} workers, cache {} MiB, {} conns)",
        config.workers,
        config.cache_bytes >> 20,
        opts.max_connections
    );
    if let Some(dir) = &config.cache_dir {
        let budget =
            config.cache_max_bytes.map_or("unbounded".to_string(), |b| format!("{} MiB", b >> 20));
        let age = config.cache_max_age.map_or("never expires".to_string(), |a| {
            format!("expires after {}s idle", a.as_secs())
        });
        eprintln!("pitchforkd: spilling artifacts to {} ({budget}, {age})", dir.display());
    }
    if !opts.peers.is_empty() {
        let fleet: Vec<String> = opts.peers.iter().map(|p| p.to_string()).collect();
        eprintln!("pitchforkd: fleet peers: {}", fleet.join(", "));
    }
    let service = Arc::new(Service::new(config));
    match serve_with(service, &endpoint, &opts) {
        Ok(()) => {
            eprintln!("pitchforkd: shut down cleanly");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pitchforkd: {e}");
            ExitCode::FAILURE
        }
    }
}
