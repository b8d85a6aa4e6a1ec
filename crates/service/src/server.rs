//! The transport layer of `pitchforkd`: binding, graceful shutdown,
//! and the blocking [`Client`].
//!
//! The server listens on a Unix socket or a TCP address and runs every
//! connection on the readiness-driven loop in
//! [`eventloop`] — one thread multiplexing all
//! sockets with `poll(2)`, dispatching ready requests to a worker pool
//! in batches. Shutdown is cooperative and comes from two places — a
//! `{"op":"shutdown"}` frame, which stops only the server that received
//! it via a per-[`serve_with`] stop flag, or `SIGTERM`/`SIGINT`, which set a
//! process-wide flag every server also polls. On the way out the server
//! stops accepting, drains in-flight work and unflushed responses, and
//! unlinks the Unix socket path.

use crate::eventloop::{self, Listener, ServeOptions};
use crate::json::Json;
use crate::protocol::{read_frame, write_frame};
use crate::service::Service;
use std::io::{self};
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Where the server listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix-domain socket at this path (created on bind, unlinked on
    /// shutdown).
    Unix(PathBuf),
    /// A TCP address such as `127.0.0.1:7737`.
    Tcp(String),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(p) => write!(f, "unix:{}", p.display()),
            Endpoint::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

impl Endpoint {
    /// Parse a CLI address: an explicit `unix:` or `tcp:` prefix wins;
    /// a bare string containing `/` is a Unix-socket path, anything
    /// else a TCP address. Round-trips with [`Display`](std::fmt::Display): the display
    /// form doubles as the fleet's rendezvous node id, so every daemon
    /// resolves `--peer` spellings to the same canonical string.
    pub fn parse(s: &str) -> Endpoint {
        if let Some(path) = s.strip_prefix("unix:") {
            Endpoint::Unix(PathBuf::from(path))
        } else if let Some(addr) = s.strip_prefix("tcp:") {
            Endpoint::Tcp(addr.to_string())
        } else if s.contains('/') {
            Endpoint::Unix(PathBuf::from(s))
        } else {
            Endpoint::Tcp(s.to_string())
        }
    }
}

/// Default cap on concurrently open connections. Admission control on
/// the dispatch queue bounds work, not sockets; this bounds sockets, so
/// a connection flood (especially on TCP) cannot exhaust fds or
/// memory. Connections past the cap get an `overloaded` error frame
/// and are closed. Override via [`ServeOptions::max_connections`].
pub const MAX_CONNECTIONS: usize = 128;

/// Process-wide stop flag; set only by signals (and [`request_stop`],
/// which models one). Each `serve_with()` call additionally has its own
/// stop flag for `shutdown` frames, so stopping one server never stops
/// another in the same process.
static SIGNAL_STOP: AtomicBool = AtomicBool::new(false);

/// Install handlers so `SIGTERM` and `SIGINT` request a graceful stop.
///
/// Uses the raw libc `signal` entry point (no `libc` crate in this
/// build environment); the handler only stores to an atomic, which is
/// async-signal-safe.
pub fn install_signal_handlers() {
    extern "C" fn on_signal(_sig: i32) {
        SIGNAL_STOP.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as extern "C" fn(i32) as *const () as usize;
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

/// Ask every running server in this process to stop — the same path
/// the signal handlers take.
pub fn request_stop() {
    SIGNAL_STOP.store(true, Ordering::SeqCst);
}

/// Clear the process-wide signal stop flag so a new `serve_with()` can
/// run after a signal-driven (or [`request_stop`]-driven) stop. Never
/// called implicitly: a `serve_with()` entry must not cancel a stop
/// requested while it was starting.
pub fn reset_signal_stop() {
    SIGNAL_STOP.store(false, Ordering::SeqCst);
}

/// One `serve_with()` call's stop state: its own flag plus the signal flag.
#[derive(Clone)]
pub(crate) struct StopFlag(Arc<AtomicBool>);

impl StopFlag {
    fn new() -> StopFlag {
        StopFlag(Arc::new(AtomicBool::new(false)))
    }

    /// Stop this server only (what a `shutdown` frame requests).
    pub(crate) fn request(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    pub(crate) fn stopping(&self) -> bool {
        self.0.load(Ordering::SeqCst) || SIGNAL_STOP.load(Ordering::SeqCst)
    }
}

/// Run the serve loop on `endpoint` until a shutdown request or signal.
///
/// A `shutdown` frame stops only this server; a signal (or
/// [`request_stop`]) stops every server in the process. Starting with
/// the signal flag already set drains immediately — call
/// [`reset_signal_stop`] first to reuse the process after a stop.
///
/// Concurrent daemons on one Unix-socket path are unsupported: the
/// stale-socket cleanup (remove a path nothing answers on, then bind)
/// is check-then-act, and two servers racing through it can unlink each
/// other. Give each daemon its own path.
///
/// # Errors
///
/// Binding errors and fatal `poll` errors; accept errors are
/// per-connection and logged to stderr instead of aborting the server.
pub fn serve_with(
    service: Arc<Service>,
    endpoint: &Endpoint,
    opts: &ServeOptions,
) -> io::Result<()> {
    let stop = StopFlag::new();
    let listener = match endpoint {
        Endpoint::Unix(path) => {
            // A stale socket file from a crashed predecessor would make
            // bind fail; remove it if nothing is listening. Racy by
            // construction (see above) — fine for the supported
            // one-daemon-per-path deployment.
            if path.exists() && std::os::unix::net::UnixStream::connect(path).is_err() {
                let _ = std::fs::remove_file(path);
            }
            let l = UnixListener::bind(path)?;
            l.set_nonblocking(true)?;
            Listener::Unix(l, path.clone())
        }
        Endpoint::Tcp(addr) => {
            let l = TcpListener::bind(addr.as_str())?;
            l.set_nonblocking(true)?;
            Listener::Tcp(l)
        }
    };

    let result = eventloop::run(&service, &listener, &stop, opts, &endpoint.to_string());
    if let Listener::Unix(l, path) = listener {
        drop(l);
        let _ = std::fs::remove_file(path);
    }
    result
}

/// A blocking client for the frame protocol.
///
/// [`request`](Client::request) is the classic serial call;
/// [`send`](Client::send) / [`recv`](Client::recv) split the two halves
/// so a pipelining client can put many tagged frames on the wire before
/// reading any response.
#[derive(Debug)]
pub struct Client {
    conn: ClientConn,
}

#[derive(Debug)]
enum ClientConn {
    Unix(std::os::unix::net::UnixStream),
    Tcp(std::net::TcpStream),
}

impl Client {
    /// Connect to a serving endpoint.
    ///
    /// # Errors
    ///
    /// Connection errors.
    pub fn connect(endpoint: &Endpoint) -> io::Result<Client> {
        let conn = match endpoint {
            Endpoint::Unix(path) => {
                ClientConn::Unix(std::os::unix::net::UnixStream::connect(path)?)
            }
            Endpoint::Tcp(addr) => ClientConn::Tcp(std::net::TcpStream::connect(addr.as_str())?),
        };
        Ok(Client { conn })
    }

    /// Send one request frame without waiting for the response.
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn send(&mut self, v: &Json) -> io::Result<()> {
        match &mut self.conn {
            ClientConn::Unix(s) => write_frame(s, v),
            ClientConn::Tcp(s) => write_frame(s, v),
        }
    }

    /// Read one response frame.
    ///
    /// # Errors
    ///
    /// I/O errors; `UnexpectedEof` if the server closed without
    /// answering.
    pub fn recv(&mut self) -> io::Result<Json> {
        match &mut self.conn {
            ClientConn::Unix(s) => read_frame(s),
            ClientConn::Tcp(s) => read_frame(s),
        }?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))
    }

    /// Send one request frame and read one response frame.
    ///
    /// # Errors
    ///
    /// I/O errors; `UnexpectedEof` if the server closed without
    /// answering.
    pub fn request(&mut self, v: &Json) -> io::Result<Json> {
        self.send(v)?;
        self.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::service::ServiceConfig;
    use std::io::Write;
    use std::time::Duration;

    /// The loop's idle poll timeout — partial-write tests pause past it.
    const POLL: Duration = Duration::from_millis(50);

    /// The signal stop flag is process-global, so tests that exercise
    /// it must not overlap tests that run a server.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn start(endpoint: Endpoint) -> std::thread::JoinHandle<io::Result<()>> {
        let svc = Arc::new(Service::new(ServiceConfig {
            cache_bytes: 8 << 20,
            workers: 2,
            default_timeout_ms: None,
            cache_dir: None,
            cache_max_bytes: None,
            cache_max_age: None,
        }));
        let ep = endpoint.clone();
        std::thread::spawn(move || serve_with(svc, &ep, &ServeOptions::default()))
    }

    fn connect_with_retry(ep: &Endpoint) -> Client {
        for _ in 0..100 {
            if let Ok(c) = Client::connect(ep) {
                return c;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        panic!("server at {ep} never came up");
    }

    #[test]
    fn unix_round_trip_and_shutdown() {
        let _serial = SERIAL.lock().unwrap();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("pitchforkd-test-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let ep = Endpoint::Unix(path.clone());
        let server = start(ep.clone());
        let mut client = connect_with_retry(&ep);

        let pong = client.request(&parse(r#"{"op":"ping"}"#).unwrap()).unwrap();
        assert_eq!(pong.get("ok").unwrap().as_bool(), Some(true));

        let compiled = client
            .request(
                &parse(
                    r#"{"op":"compile","expr":"u8(min(u16(a_u8) + u16(b_u8), 255))",
                        "lanes":16,"isa":"arm"}"#,
                )
                .unwrap(),
            )
            .unwrap();
        assert_eq!(compiled.get("ok").unwrap().as_bool(), Some(true), "{compiled:?}");
        assert_eq!(compiled.get("lowered").unwrap().as_str(), Some("arm.uqadd(a_u8, b_u8)"));

        let bye = client.request(&parse(r#"{"op":"shutdown"}"#).unwrap()).unwrap();
        assert_eq!(bye.get("stopping").unwrap().as_bool(), Some(true));
        server.join().unwrap().unwrap();
        assert!(!path.exists(), "socket file should be unlinked on shutdown");
    }

    #[test]
    fn tcp_round_trip_and_signal_stop() {
        let _serial = SERIAL.lock().unwrap();
        // Port 0 would need the bound address back; pick an uncommon
        // fixed port and tolerate a busy environment by trying a few.
        let mut server = None;
        let mut ep = None;
        for port in [47731u16, 47741, 47751, 47761] {
            let candidate = Endpoint::Tcp(format!("127.0.0.1:{port}"));
            let h = start(candidate.clone());
            std::thread::sleep(Duration::from_millis(50));
            if !h.is_finished() {
                server = Some(h);
                ep = Some(candidate);
                break;
            }
        }
        let (server, ep) = (server.expect("no free port"), ep.unwrap());
        let mut client = connect_with_retry(&ep);
        let pong = client.request(&parse(r#"{"op":"ping"}"#).unwrap()).unwrap();
        assert_eq!(pong.get("ok").unwrap().as_bool(), Some(true));
        // Stop via the same path the signal handler uses.
        request_stop();
        server.join().unwrap().unwrap();
        reset_signal_stop();
    }

    #[test]
    fn shutdown_frame_stops_only_its_own_server() {
        let _serial = SERIAL.lock().unwrap();
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let path_a = dir.join(format!("pitchforkd-test-{pid}-a.sock"));
        let path_b = dir.join(format!("pitchforkd-test-{pid}-b.sock"));
        let _ = std::fs::remove_file(&path_a);
        let _ = std::fs::remove_file(&path_b);
        let ep_a = Endpoint::Unix(path_a);
        let ep_b = Endpoint::Unix(path_b);
        let server_a = start(ep_a.clone());
        let server_b = start(ep_b.clone());
        let mut client_a = connect_with_retry(&ep_a);
        let mut client_b = connect_with_retry(&ep_b);

        let bye = client_a.request(&parse(r#"{"op":"shutdown"}"#).unwrap()).unwrap();
        assert_eq!(bye.get("stopping").unwrap().as_bool(), Some(true));
        server_a.join().unwrap().unwrap();

        // Server B is unaffected and still answers.
        let pong = client_b.request(&parse(r#"{"op":"ping"}"#).unwrap()).unwrap();
        assert_eq!(pong.get("ok").unwrap().as_bool(), Some(true));
        let bye = client_b.request(&parse(r#"{"op":"shutdown"}"#).unwrap()).unwrap();
        assert_eq!(bye.get("stopping").unwrap().as_bool(), Some(true));
        server_b.join().unwrap().unwrap();
    }

    /// A request whose frame arrives one byte at a time — every chunk
    /// separated by more than the server's poll timeout window would be
    /// too slow for CI, so this just splits the frame into many small
    /// writes with pauses long enough that the loop's timed polls
    /// interleave with the arrival.
    #[test]
    fn slow_partial_writes_do_not_desync_framing() {
        let _serial = SERIAL.lock().unwrap();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("pitchforkd-test-{}-slow.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let ep = Endpoint::Unix(path);
        let server = start(ep.clone());
        connect_with_retry(&ep); // wait until the server is up

        let mut raw = std::os::unix::net::UnixStream::connect(match &ep {
            Endpoint::Unix(p) => p,
            Endpoint::Tcp(_) => unreachable!(),
        })
        .unwrap();
        let mut frame = Vec::new();
        write_frame(&mut frame, &parse(r#"{"op":"ping"}"#).unwrap()).unwrap();
        // Dribble the frame: split inside the 4-byte header and inside
        // the body, pausing past the poll timeout each time so the loop
        // sees the connection readable mid-frame many times.
        for chunk in frame.chunks(3) {
            raw.write_all(chunk).unwrap();
            raw.flush().unwrap();
            std::thread::sleep(POLL + Duration::from_millis(20));
        }
        let pong = read_frame(&mut raw).unwrap().expect("server closed without answering");
        assert_eq!(pong.get("ok").unwrap().as_bool(), Some(true), "{pong:?}");

        // And the connection is still in sync for a normal request.
        write_frame(&mut raw, &parse(r#"{"op":"stats"}"#).unwrap()).unwrap();
        let stats = read_frame(&mut raw).unwrap().expect("server closed without answering");
        assert_eq!(stats.get("ok").unwrap().as_bool(), Some(true));
        drop(raw);

        let mut client = connect_with_retry(&ep);
        let bye = client.request(&parse(r#"{"op":"shutdown"}"#).unwrap()).unwrap();
        assert_eq!(bye.get("stopping").unwrap().as_bool(), Some(true));
        server.join().unwrap().unwrap();
    }
}
