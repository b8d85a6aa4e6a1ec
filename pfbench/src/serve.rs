//! The serve workloads, against a stock `pitchforkd` child process on a
//! Unix socket; the in-process replay of the same requests through
//! `json::parse` + `parse_request`, `Service::classify` and
//! `Service::handle_local`; and the serving probe the other workloads
//! run in their traced runs.
//!
//! The load generator is this process: two connections, one thread
//! each, at most [`DEPTH`] tagged frames in flight per connection. Tags
//! are window slots, reused as a fixed-window client would reuse them.

use crate::keys::{self, Kernel, Key, Suite};
use crate::report::{self, Layers, Outcome};
use crate::speed::{Calibrator, Trials, MIXED_SENSITIVITY, SENSITIVITY};
use crate::trace::Tracer;
use crate::util::{self, ns32, percentile, sorted_us, Arrivals, Rng};
use crate::{compile, exec, Args};
use fpir::expr::RcExpr;
use fpir_workloads::LANES;
use pitchfork::{compile_to_executable, Pitchfork};
use pitchfork_service::{json, parse_request, CacheDecision, Json, Service, ServiceConfig};
use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const SETUP_REPS: usize = 9;
/// Measured trials per run, after the warm-up.
const TRIALS: usize = 18;
/// Connections, each driven by one thread.
const CONNS: usize = 2;
/// Tagged frames in flight per connection.
const DEPTH: usize = 16;
/// A reply this late counts as missing and ends the trial.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);
/// `serve-mixed`: the share of fresh keys, how many fresh replies are
/// checked against a direct compile (one in [`FRESH_STRIDE`] until the
/// sample is full), and the cache budget.
const FRESH_SHARE: f64 = 0.25;
const FRESH_SAMPLE: usize = 64;
const FRESH_STRIDE: usize = 8;
const MIXED_CACHE_MB: usize = 16;
/// The traced open-loop phase offers this share of the rate the closed
/// loop sustained; a run is invalid when the generator achieved less
/// than [`MIN_ACHIEVED`] of what it offered.
const OPEN_SHARE: f64 = 0.25;
const MIN_ACHIEVED: f64 = 0.95;
/// Client spans kept per connection in a traced run.
const SPAN_CAP: usize = 100_000;
const OK: &[u8] = b"{\"ok\":true";

/// The daemon binary, built next to this one.
fn daemon_exe() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("cannot locate pfbench: {e}"))?;
    let dir = me.parent().ok_or("pfbench has no parent directory")?;
    // Test harnesses run from `deps/`, one level below the binaries.
    [dir.join("pitchforkd"), dir.join("../pitchforkd")]
        .into_iter()
        .find(|p| p.is_file())
        .ok_or_else(|| format!("no pitchforkd next to {}", me.display()))
}

/// Sockets live beside the binaries, inside the build directory, as a
/// path relative to the working directory when possible: a Unix socket
/// path must stay under 108 bytes.
fn socket_path(n: usize) -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("cannot locate pfbench: {e}"))?;
    let dir = me.parent().ok_or("pfbench has no parent directory")?.to_path_buf();
    let dir = std::env::current_dir()
        .ok()
        .and_then(|cwd| dir.strip_prefix(cwd).ok().map(PathBuf::from))
        .unwrap_or(dir);
    Ok(dir.join(format!("pfbench-{}-{n}.sock", std::process::id())))
}

extern "C" {
    fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
}

/// Have the child receive SIGTERM when this process dies, so a killed
/// benchmark never leaves a daemon behind.
fn die_with_parent(cmd: &mut Command) {
    use std::os::unix::process::CommandExt;
    const PR_SET_PDEATHSIG: std::ffi::c_int = 1;
    const SIGTERM: std::ffi::c_ulong = 15;
    // SAFETY: the hook runs in the forked child before exec and only
    // calls prctl, which is async-signal-safe, with an option that
    // changes nothing but the child's own death signal.
    unsafe {
        cmd.pre_exec(|| {
            prctl(PR_SET_PDEATHSIG, SIGTERM);
            Ok(())
        });
    }
}

/// Run the calling generator thread under `SCHED_BATCH`: on the one
/// CPU it shares with the daemon, a plain thread's every reply-driven
/// wake-up would preempt the event loop mid-iteration, and the
/// measurement would follow the scheduler's wake-up heuristics instead
/// of the daemon.
fn batch_sched() {
    #[repr(C)]
    struct SchedParam {
        priority: std::ffi::c_int,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: std::ffi::c_int, p: *const SchedParam) -> i32;
    }
    const SCHED_BATCH: std::ffi::c_int = 3;
    // SAFETY: the parameter is a live `struct sched_param`; lowering the
    // calling thread's own policy needs no privilege.
    unsafe {
        sched_setscheduler(0, SCHED_BATCH, &SchedParam { priority: 0 });
    }
}

/// Let this thread's timed waits end within a microsecond of their
/// deadline instead of the default 50: an open-loop generator that
/// wakes late sends late.
fn tight_timer_slack() {
    const PR_SET_TIMERSLACK: std::ffi::c_int = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one integer and changes only the
    // calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1000 as std::ffi::c_ulong);
    }
}

/// A `pitchforkd` child process. Dropping it kills and reaps the
/// process if [`Daemon::stop`] did not.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    sock: PathBuf,
}

impl Daemon {
    fn spawn(extra: &[String], n: usize) -> Result<Daemon, String> {
        let exe = daemon_exe()?;
        let sock = socket_path(n)?;
        let _ = std::fs::remove_file(&sock);
        let mut cmd = Command::new(&exe);
        cmd.arg("--socket").arg(&sock).args(extra);
        cmd.stdin(Stdio::null()).stdout(Stdio::null()).stderr(Stdio::null());
        die_with_parent(&mut cmd);
        let child = cmd.spawn().map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        Ok(Daemon { child, sock })
    }

    fn connect(&self) -> Result<Wire, String> {
        let s = UnixStream::connect(&self.sock).map_err(|e| format!("connect: {e}"))?;
        Ok(Wire::new(s))
    }

    /// Connect and ping until the first pong.
    fn ready(&mut self) -> Result<Wire, String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("pitchforkd exited at start-up: {status}"));
            }
            match self.connect() {
                Ok(mut w) => {
                    let pong = w.request(&frame(&[("op", Json::str("ping"))])).map_err(io_err)?;
                    return match pong.starts_with(OK) {
                        true => Ok(w),
                        false => Err(format!("ping failed: {}", String::from_utf8_lossy(&pong))),
                    };
                }
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_micros(200))
                }
                Err(e) => return Err(format!("pitchforkd never listened: {e}")),
            }
        }
    }

    fn peak_rss_mib(&self) -> Option<f64> {
        util::peak_rss_mib(Some(self.child.id()))
    }

    /// Ask for a clean shutdown and wait for the exit.
    fn stop(mut self) -> Result<(), String> {
        let bye = self
            .connect()
            .and_then(|mut w| w.request(&frame(&[("op", Json::str("shutdown"))])).map_err(io_err));
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return bye.map(|_| ()),
                Ok(Some(status)) => return Err(format!("pitchforkd exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => return Err("pitchforkd did not shut down".into()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.sock);
    }
}

fn io_err(e: io::Error) -> String {
    format!("socket: {e}")
}

/// An untagged control frame.
fn frame(members: &[(&str, Json)]) -> Vec<u8> {
    let v = Json::Object(members.iter().map(|(k, v)| (k.to_string(), v.clone())).collect());
    let mut bytes = Vec::new();
    pitchfork_service::write_frame(&mut bytes, &v).expect("in-memory write");
    bytes
}

/// The client end of one connection, with a read buffer that frames
/// replies.
#[derive(Debug)]
struct Wire {
    stream: UnixStream,
    buf: Vec<u8>,
    head: usize,
    tail: usize,
}

/// Wait until `stream` has data or `timeout` passes. Unlike a socket
/// read timeout, which rounds up to a scheduler tick, `ppoll` waits with
/// nanosecond resolution, which an open-loop schedule needs.
fn wait_readable(stream: &UnixStream, timeout: Duration) -> io::Result<bool> {
    use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: c_long,
    }
    extern "C" {
        fn ppoll(fds: *mut PollFd, n: c_ulong, t: *const Timespec, mask: *const c_void) -> c_int;
    }
    const POLLIN: c_short = 1;
    let mut fd = PollFd { fd: stream.as_raw_fd(), events: POLLIN, revents: 0 };
    let secs = i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX);
    let ts = Timespec { tv_sec: secs, tv_nsec: timeout.subsec_nanos() as c_long };
    // SAFETY: `fd` and `ts` are live values laid out as `struct pollfd`
    // and `struct timespec` for the whole call, the count is 1, and a
    // null mask leaves the signal mask alone.
    let rc = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    if rc < 0 {
        let e = io::Error::last_os_error();
        return if e.kind() == io::ErrorKind::Interrupted { Ok(false) } else { Err(e) };
    }
    Ok(rc > 0)
}

impl Wire {
    fn new(stream: UnixStream) -> Wire {
        Wire { stream, buf: vec![0; 1 << 20], head: 0, tail: 0 }
    }

    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.stream.write_all(frame)
    }

    /// Wait up to `timeout` for data, read once, and hand every complete
    /// reply body to `f`. `Ok(false)` when nothing arrived in time.
    fn pump(&mut self, timeout: Duration, f: &mut dyn FnMut(&[u8])) -> io::Result<bool> {
        if !wait_readable(&self.stream, timeout)? {
            return Ok(false);
        }
        if self.head == self.tail {
            (self.head, self.tail) = (0, 0);
        } else if self.tail == self.buf.len() {
            self.buf.copy_within(self.head..self.tail, 0);
            (self.head, self.tail) = (0, self.tail - self.head);
        }
        if self.tail == self.buf.len() {
            let n = self.buf.len();
            self.buf.resize(2 * n, 0);
        }
        match self.stream.read(&mut self.buf[self.tail..]) {
            Ok(0) => return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "daemon hung up")),
            Ok(n) => self.tail += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => return Ok(false),
            Err(e) => return Err(e),
        }
        while self.tail - self.head >= 4 {
            let h = &self.buf[self.head..self.head + 4];
            let n = u32::from_be_bytes([h[0], h[1], h[2], h[3]]) as usize;
            if self.tail - self.head - 4 < n {
                if 4 + n > self.buf.len() {
                    self.buf.resize(4 + n, 0);
                }
                break;
            }
            f(&self.buf[self.head + 4..self.head + 4 + n]);
            self.head += 4 + n;
        }
        Ok(true)
    }

    /// One request with nothing else in flight: send, then wait for
    /// its reply.
    fn request(&mut self, frame: &[u8]) -> io::Result<Vec<u8>> {
        self.send(frame)?;
        let mut reply = None;
        while reply.is_none() {
            if !self.pump(REPLY_TIMEOUT, &mut |body| reply = Some(body.to_vec()))? {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "no reply"));
            }
        }
        Ok(reply.expect("loop exits with a reply"))
    }
}

/// The integer tag a tagged reply ends with (`..."tag":12}`).
fn reply_tag(body: &[u8]) -> Option<usize> {
    let end = body.len().checked_sub(1)?;
    let start = body[..end].iter().rposition(|b| !b.is_ascii_digit())? + 1;
    if !body[..start].ends_with(b"\"tag\":") || start == end {
        return None;
    }
    std::str::from_utf8(&body[start..end]).ok()?.parse().ok()
}

/// A request in flight in one window slot.
#[derive(Debug, Clone, Copy)]
struct Pending {
    key: usize,
    /// The fresh-key number, for a renamed request.
    fresh: Option<u64>,
    /// Keep the reply for the served == direct gate.
    capture: bool,
    /// When it was due: its send time in a closed loop, its scheduled
    /// time in an open one.
    due: Instant,
}

/// What one connection's generator saw.
#[derive(Debug, Default)]
struct ClientLog {
    lat_ns: Vec<u32>,
    hit_ns: Vec<u32>,
    miss_ns: Vec<u32>,
    /// How late each open-loop send was against its schedule.
    late_ns: Vec<u32>,
    sent: u64,
    received: u64,
    errors: u64,
    first_error: Option<String>,
    /// The first reply to each warm key.
    captured: Vec<Option<Vec<u8>>>,
    /// Sampled fresh replies: key, fresh number, body.
    fresh: Vec<(usize, u64, Vec<u8>)>,
    fresh_count: u64,
    tracer: Option<Tracer>,
}

impl ClientLog {
    fn new(keys: usize, tracer: Option<Tracer>) -> ClientLog {
        ClientLog { captured: vec![None; keys], tracer, ..ClientLog::default() }
    }

    fn error(&mut self, body: &[u8]) {
        self.errors += 1;
        if self.first_error.is_none() {
            self.first_error = Some(String::from_utf8_lossy(body).chars().take(300).collect());
        }
    }

    fn record(&mut self, p: &Pending, at: Instant) {
        let ns = ns32(at - p.due);
        self.lat_ns.push(ns);
        match p.fresh {
            Some(_) => self.miss_ns.push(ns),
            None => self.hit_ns.push(ns),
        }
        if let Some(t) = self.tracer.as_mut().filter(|t| t.spans.len() < SPAN_CAP) {
            t.record("client.request", p.due, at, None, self.received);
        }
    }

    fn clear_samples(&mut self) {
        for v in [&mut self.lat_ns, &mut self.hit_ns, &mut self.miss_ns, &mut self.late_ns] {
            v.clear();
        }
    }
}

/// Move every reply the next read delivers out of its window slot.
fn collect(
    wire: &mut Wire,
    timeout: Duration,
    slots: &mut [Option<Pending>],
    log: &mut ClientLog,
    done: &mut Vec<(usize, Pending, Instant)>,
) -> io::Result<bool> {
    wire.pump(timeout, &mut |body| {
        let at = Instant::now();
        let Some((slot, p)) =
            reply_tag(body).and_then(|s| slots.get_mut(s)?.take().map(|p| (s, p)))
        else {
            log.error(body);
            return;
        };
        log.received += 1;
        if !body.starts_with(OK) {
            log.error(body);
        } else if let Some(n) = p.fresh.filter(|_| p.capture) {
            log.fresh.push((p.key, n, body.to_vec()));
        } else if p.fresh.is_none() && log.captured[p.key].is_none() {
            log.captured[p.key] = Some(body.to_vec());
        }
        done.push((slot, p, at));
    })
}

/// Requests still in flight when the replies stopped count as sent but
/// never received.
fn give_up(slots: &mut [Option<Pending>]) {
    for s in slots.iter_mut() {
        *s = None;
    }
}

/// One connection's generator: its seeded stream, its fresh-key
/// numbers (`base + conn`, `base + conn + CONNS`, ...), and its log.
#[derive(Debug)]
struct Gen {
    rng: Rng,
    conn: u64,
    base: u64,
    log: ClientLog,
}

/// What the generators send.
#[derive(Debug)]
struct Traffic<'a> {
    kernels: &'a [Kernel],
    keys: &'a [Key],
    /// The tagged frame of each warm key in each window slot.
    hot: Vec<Vec<Vec<u8>>>,
    /// The share of requests for a fresh key: a warm key with its input
    /// buffers renamed, which the daemon must compile and insert.
    fresh_share: f64,
}

impl Traffic<'_> {
    /// Send the next request in `slot`, due at `due`: a seeded warm key
    /// or, with the fresh share, that key renamed.
    fn send(&self, wire: &mut Wire, g: &mut Gen, slot: usize, due: Instant) -> io::Result<Pending> {
        let key = g.rng.below(self.keys.len());
        let mut p = Pending { key, fresh: None, capture: false, due };
        if g.rng.unit() < self.fresh_share {
            let n = g.base + g.conn + CONNS as u64 * g.log.fresh_count;
            g.log.fresh_count += 1;
            let kernel = &self.kernels[self.keys[key].kernel];
            let src = keys::rename_buffers(&kernel.src, &kernel.buffers, n);
            p.fresh = Some(n);
            let quota = g.log.fresh.len() < FRESH_SAMPLE / CONNS;
            p.capture = quota && g.rng.below(FRESH_STRIDE) == 0;
            wire.send(&keys::compile_frame(&src, self.keys[key].isa, Some(slot)))?;
        } else {
            wire.send(&self.hot[key][slot])?;
        }
        g.log.sent += 1;
        Ok(p)
    }
}

/// Closed loop: keep every slot busy, sending the next request as soon
/// as a reply frees its slot, until `until`; then drain.
fn closed_loop(wire: &mut Wire, t: &Traffic<'_>, g: &mut Gen, until: Instant) -> io::Result<u64> {
    let received = g.log.received;
    let mut slots: Vec<Option<Pending>> = vec![None; DEPTH];
    let mut done = Vec::with_capacity(DEPTH);
    for (s, slot) in slots.iter_mut().enumerate() {
        *slot = Some(t.send(wire, g, s, Instant::now())?);
    }
    while slots.iter().any(Option::is_some) {
        if !collect(wire, REPLY_TIMEOUT, &mut slots, &mut g.log, &mut done)? {
            give_up(&mut slots);
            break;
        }
        for (s, p, at) in done.drain(..) {
            g.log.record(&p, at);
            if at < until {
                slots[s] = Some(t.send(wire, g, s, Instant::now())?);
            }
        }
    }
    Ok(g.log.received - received)
}

/// Open loop: send on a seeded Poisson schedule at `rate` per second
/// whether or not replies have come back (up to the window), time each
/// request from when it was due, until `until`; then drain.
fn open_loop(
    wire: &mut Wire,
    t: &Traffic<'_>,
    g: &mut Gen,
    rate: f64,
    until: Instant,
) -> io::Result<u64> {
    tight_timer_slack();
    let received = g.log.received;
    let mut arrivals = Arrivals::new(g.rng.fork(0xA11), rate);
    let start = Instant::now();
    let mut slots: Vec<Option<Pending>> = vec![None; DEPTH];
    let mut free: Vec<usize> = (0..DEPTH).rev().collect();
    let mut done = Vec::with_capacity(DEPTH);
    let mut next_due = start + arrivals.next().expect("an endless schedule");
    loop {
        let now = Instant::now();
        if next_due < until && next_due <= now {
            if let Some(s) = free.pop() {
                slots[s] = Some(t.send(wire, g, s, next_due)?);
                g.log.late_ns.push(ns32(Instant::now() - next_due));
                next_due = start + arrivals.next().expect("an endless schedule");
                continue;
            }
        }
        if next_due >= until && free.len() == DEPTH {
            return Ok(g.log.received - received);
        }
        let wait = if next_due < until && !free.is_empty() {
            next_due.saturating_duration_since(now)
        } else {
            REPLY_TIMEOUT
        };
        if !collect(wire, wait, &mut slots, &mut g.log, &mut done)? && wait == REPLY_TIMEOUT {
            give_up(&mut slots);
            return Ok(g.log.received - received);
        }
        for (s, p, at) in done.drain(..) {
            g.log.record(&p, at);
            free.push(s);
        }
    }
}

/// Daemon counters read with the `stats` op.
#[derive(Debug, Default, Clone, Copy)]
struct DaemonStats {
    requests: i128,
    cache_hits: i128,
    cache_misses: i128,
    hot_hits: i128,
    compiles: i128,
    flight_joins: i128,
    sheds: i128,
    cache_evictions: i128,
    dispatch_batch_max: i128,
}

fn daemon_stats(w: &mut Wire) -> Result<DaemonStats, String> {
    let body = w.request(&frame(&[("op", Json::str("stats"))])).map_err(io_err)?;
    let text = String::from_utf8_lossy(&body);
    let v = json::parse(&text).map_err(|e| format!("stats reply: {e}"))?;
    let get = |k: &str| v.get(k).and_then(Json::as_int).ok_or(format!("stats reply lacks `{k}`"));
    Ok(DaemonStats {
        requests: get("requests")?,
        cache_hits: get("cache_hits")?,
        cache_misses: get("cache_misses")?,
        hot_hits: get("hot_hits")?,
        compiles: get("compiles")?,
        flight_joins: get("flight_joins")?,
        sheds: get("sheds")?,
        cache_evictions: get("cache_evictions")?,
        dispatch_batch_max: get("dispatch_batch_max")?,
    })
}

/// What a serving run measured.
#[derive(Debug, Default)]
struct Served {
    trials: Trials,
    /// Closed-loop latencies, scaled to an undisturbed core.
    lat_ns: Vec<u32>,
    /// Closed-loop latencies of warm keys and of compiled keys, raw.
    hit_ns: Vec<u32>,
    miss_ns: Vec<u32>,
    /// Measured closed-loop seconds, summed over trials.
    seconds: f64,
    before: DaemonStats,
    after: DaemonStats,
    /// Geometric mean of the served cycle counts over the warm keys.
    cycles_geomean: f64,
    /// The open-loop phase: latencies from the due time, how late the
    /// generator sent, and the rates offered and achieved.
    open_ns: Vec<u32>,
    open_late_ns: Vec<u32>,
    offered: f64,
    achieved: f64,
}

/// Drive every connection on its own thread for `len`, in a closed loop
/// or, given a total `rate`, an open one; then drain. Returns the
/// replies received and the seconds taken.
fn run_phase(
    wires: &mut [Wire],
    gens: &mut [Gen],
    t: &Traffic<'_>,
    len: Duration,
    rate: Option<f64>,
) -> Result<(u64, f64), String> {
    let t0 = Instant::now();
    let until = t0 + len;
    let results: Vec<io::Result<u64>> = std::thread::scope(|sc| {
        let handles: Vec<_> = wires
            .iter_mut()
            .zip(gens.iter_mut())
            .map(|(w, g)| {
                sc.spawn(move || {
                    batch_sched();
                    match rate {
                        Some(r) => open_loop(w, t, g, r / CONNS as f64, until),
                        None => closed_loop(w, t, g, until),
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let mut n = 0;
    for r in results {
        n += r.map_err(io_err)?;
    }
    Ok((n, t0.elapsed().as_secs_f64()))
}

/// Spawn the daemon `reps` times, timing spawn to first pong (scaled to
/// an undisturbed core); all but the last are stopped again.
fn start(
    extra: &[String],
    reps: usize,
    cal: &mut Calibrator,
) -> Result<(Daemon, Wire, Vec<f64>), String> {
    let before = cal.slowdown();
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for i in 0..reps {
        let t = Instant::now();
        let mut d = Daemon::spawn(extra, i)?;
        let w = d.ready()?;
        secs.push(t.elapsed().as_secs_f64());
        if let Some((old, _)) = last.replace((d, w)) {
            Daemon::stop(old)?;
        }
    }
    let slowdown = (before + cal.slowdown()) / 2.0;
    let (d, w) = last.ok_or("no daemon started")?;
    Ok((d, w, secs.iter().map(|s| s / slowdown).collect()))
}

/// How a serving run is shaped.
#[derive(Debug, Clone)]
struct Plan {
    fresh_share: f64,
    warmup: Duration,
    trials: Vec<Duration>,
    /// Length of the open-loop phase that follows the trials, if any.
    open: Option<Duration>,
}

/// Warm every key, run the warm-up and the closed-loop trials (and the
/// open-loop phase, if planned), and gate the replies: every warm key
/// and the sampled fresh keys must equal a direct compile, and every
/// request sent must be answered.
fn serve(
    daemon: &Daemon,
    mut w0: Wire,
    kernels: &[Kernel],
    keys: &[Key],
    sels: &[Pitchfork],
    plan: &Plan,
    rng: &mut Rng,
    cal: &mut Calibrator,
    tracer: Option<&mut Tracer>,
    out: &mut Outcome,
) -> Result<Served, String> {
    let w1 = daemon.connect()?;
    let mut s = Served::default();
    let name = |key: &Key| format!("{}/{}", kernels[key.kernel].wl.name(), key.isa.slug());

    // Warm keys: each compiled once by the daemon, and checked.
    let mut warm_cycles = Vec::with_capacity(keys.len());
    for key in keys {
        let src = &kernels[key.kernel].src;
        out.attempted += 1;
        let t = Instant::now();
        let body = w0.request(&keys::compile_frame(src, key.isa, None)).map_err(io_err)?;
        s.miss_ns.push(ns32(t.elapsed()));
        match keys::check_reply(&body, &key.lowered, &key.program, key.truth.cycles) {
            Ok(c) => warm_cycles.push(c as f64),
            Err(e) => out.fail(format!("warming {}: {e}", name(key))),
        }
    }
    s.cycles_geomean = util::geomean(&warm_cycles);

    let traffic = Traffic {
        kernels,
        keys,
        hot: keys
            .iter()
            .map(|k| {
                let src = &kernels[k.kernel].src;
                (0..DEPTH).map(|slot| keys::compile_frame(src, k.isa, Some(slot))).collect()
            })
            .collect(),
        fresh_share: plan.fresh_share,
    };
    let base = rng.next_u64() % 1_000_000_000;
    let mut gens: Vec<Gen> = (0..CONNS as u64)
        .map(|conn| Gen {
            rng: rng.fork(conn),
            conn,
            base,
            log: ClientLog::new(keys.len(), tracer.as_ref().map(|t| t.fork())),
        })
        .collect();

    let mut wires = [w0, w1];
    run_phase(&mut wires, &mut gens, &traffic, plan.warmup, None)?;
    for g in &mut gens {
        g.log.clear_samples();
    }
    s.before = daemon_stats(&mut wires[0])?;
    for &len in &plan.trials {
        let before = cal.slowdown();
        let marks: Vec<usize> = gens.iter().map(|g| g.log.lat_ns.len()).collect();
        let (n, took) = run_phase(&mut wires, &mut gens, &traffic, len, None)?;
        let slowdown = (before + cal.slowdown()) / 2.0;
        let mut parts: Vec<&mut [u32]> =
            gens.iter_mut().zip(marks).map(|(g, mark)| &mut g.log.lat_ns[mark..]).collect();
        s.trials.record(n, took, slowdown, &mut parts);
        s.seconds += took;
    }
    s.after = daemon_stats(&mut wires[0])?;
    for g in &mut gens {
        s.lat_ns.append(&mut g.log.lat_ns);
        s.hit_ns.append(&mut g.log.hit_ns);
        s.miss_ns.append(&mut g.log.miss_ns);
    }

    if let Some(len) = plan.open {
        // Offer a quarter of what the closed loop sustained, so the
        // phase measures latency under load, not an overload.
        let rate = OPEN_SHARE * util::median(&s.trials.raw_rates);
        let sent: u64 = gens.iter().map(|g| g.log.sent).sum();
        let (n, took) = run_phase(&mut wires, &mut gens, &traffic, len, Some(rate))?;
        s.offered =
            (gens.iter().map(|g| g.log.sent).sum::<u64>() - sent) as f64 / len.as_secs_f64();
        s.achieved = n as f64 / took;
        for g in &mut gens {
            s.open_ns.append(&mut g.log.lat_ns);
            s.open_late_ns.append(&mut g.log.late_ns);
        }
        if s.achieved < MIN_ACHIEVED * s.offered {
            out.fail(format!(
                "invalid run: the open-loop generator achieved {:.0} of {:.0} req/s offered",
                s.achieved, s.offered
            ));
        }
    }

    let mut firsts = Vec::with_capacity(keys.len());
    let mut fresh = Vec::new();
    let mut tracers = Vec::new();
    let (mut sent, mut received) = (0, 0);
    for (c, log) in gens.into_iter().map(|g| g.log).enumerate() {
        sent += log.sent;
        received += log.received;
        if log.errors > 0 {
            let first = log.first_error.unwrap_or_default();
            out.fail_n(log.errors, format!("connection {c}: error replies, first: {first}"));
        }
        firsts.extend(log.captured.into_iter().enumerate().filter_map(|(k, b)| Some((k, b?))));
        fresh.extend(log.fresh);
        tracers.extend(log.tracer);
    }
    out.attempted += sent;
    if received != sent {
        let missing = sent.saturating_sub(received);
        out.fail_n(missing, format!("{missing} of {sent} requests were never answered"));
    }
    if let Some(t) = tracer {
        for other in tracers {
            t.absorb(other);
        }
    }

    // Served == direct for each warm key's first reply in the traffic;
    // warming checked every key once already.
    for (k, body) in &firsts {
        let key = &keys[*k];
        if let Err(e) = keys::check_reply(body, &key.lowered, &key.program, key.truth.cycles) {
            out.fail(format!("{}: {e}", name(key)));
        }
    }

    // Served == direct, for the sampled fresh keys.
    if plan.fresh_share > 0.0 && fresh.is_empty() {
        out.fail("no fresh-key reply was sampled");
    }
    for (k, n, body) in &fresh {
        let key = &keys[*k];
        let kernel = &kernels[key.kernel];
        let src = keys::rename_buffers(&kernel.src, &kernel.buffers, *n);
        let verdict = fpir::parser::parse_expr(&src, LANES)
            .map_err(|e| e.to_string())
            .and_then(|e| {
                compile_to_executable(&sels[keys::isa_slot(key.isa)], &e).map_err(|e| e.to_string())
            })
            .and_then(|a| {
                keys::check_reply(body, &a.lowered.to_string(), &a.program.render(), a.cycles)
            });
        if let Err(e) = verdict {
            out.fail(format!("fresh {} #{n}: {e}", name(key)));
        }
    }
    out.extra.push(("fresh_checked".into(), Json::Int(fresh.len() as i128)));
    Ok(s)
}

/// Per-layer metrics read off a serving run and the daemon's counters.
fn serve_layers(s: &Served, replay_parse_classify_us: f64, layers: &mut Layers) {
    let (b, a) = (s.before, s.after);
    let d = |f: fn(&DaemonStats) -> i128| (f(&a) - f(&b)) as f64;
    let requests = d(|x| x.requests).max(1.0);
    let hits = d(|x| x.cache_hits);
    layers.set("service.hot_memo_ratio", d(|x| x.hot_hits) / requests);
    layers.set("service.cache_hit_ratio", hits / (hits + d(|x| x.cache_misses)).max(1.0));
    layers.set("service.cache_evictions_per_s", d(|x| x.cache_evictions) / s.seconds);
    layers.set("service.compiles_per_s", d(|x| x.compiles) / s.seconds);
    layers.set("service.flight_joins", d(|x| x.flight_joins));
    layers.set("service.sheds", d(|x| x.sheds));
    layers.set("eventloop.dispatch_batch_max", a.dispatch_batch_max as f64);
    layers.set("serve.hit_us_p99", percentile(&sorted_us(&s.hit_ns), 0.99));
    layers.set("serve.miss_us_p50", percentile(&sorted_us(&s.miss_ns), 0.5));
    // At a quarter load a request seldom queues, so its latency less the
    // in-process parse and classify is the socket and event-loop cost.
    let open = sorted_us(&s.open_ns);
    layers.set("eventloop.transport_us", percentile(&open, 0.5) - replay_parse_classify_us);
    layers.set("serve.open_us_p50", percentile(&open, 0.5));
    layers.set("serve.open_us_p99", percentile(&open, 0.99));
    layers.set("serve.open_achieved_ratio", s.achieved / s.offered);
    layers.set("client.late_us_p99", percentile(&sorted_us(&s.open_late_ns), 0.99));
}

/// Replay a request sequence in-process, timing `json::parse` +
/// `parse_request`, `Service::classify` and, for requests the cache
/// cannot answer, `Service::handle_local`. Returns the parse + classify
/// p50 in microseconds.
fn replay(
    bodies: &[Vec<u8>],
    cache_mb: Option<usize>,
    tracer: &mut Tracer,
    layers: &mut Layers,
    out: &mut Outcome,
) -> f64 {
    let mut config = ServiceConfig::default();
    if let Some(mb) = cache_mb {
        config.cache_bytes = mb << 20;
    }
    let svc = Service::new(config);
    let (mut parse_ns, mut classify_ns, mut local_ns) = (Vec::new(), Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_millis(700);
    for (i, body) in bodies.iter().enumerate() {
        if Instant::now() > deadline && !local_ns.is_empty() {
            break;
        }
        let req_id = i as u64;
        let t0 = Instant::now();
        let text = std::str::from_utf8(&body[4..]).expect("frames are UTF-8");
        let req = json::parse(text)
            .map_err(|e| e.to_string())
            .and_then(|v| parse_request(&v).map_err(|e| e.to_string()));
        let t1 = Instant::now();
        let req = match req {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("replayed request does not parse: {e}"));
                continue;
            }
        };
        let decision = svc.classify(&req);
        let t2 = Instant::now();
        let dispatched = !matches!(decision, CacheDecision::Reply(_));
        if dispatched {
            let reply = svc.handle_local(&req);
            if reply.get("ok").and_then(Json::as_bool) != Some(true) {
                out.fail(format!("replayed request failed: {}", reply.render()));
            }
        }
        let t3 = Instant::now();
        parse_ns.push(ns32(t1 - t0));
        classify_ns.push(ns32(t2 - t1));
        let root = tracer.record("service.request", t0, t3, None, req_id);
        tracer.record("service.protocol.parse", t0, t1, Some(root), req_id);
        tracer.record("service.classify", t1, t2, Some(root), req_id);
        if dispatched {
            local_ns.push(ns32(t3 - t2));
            tracer.record("service.handle_local", t2, t3, Some(root), req_id);
        }
    }
    let p50 = |ns: &[u32]| percentile(&sorted_us(ns), 0.5);
    layers.set("service.protocol.parse_us", p50(&parse_ns));
    layers.set("service.classify_us", p50(&classify_ns));
    layers.set("service.handle_local_us", p50(&local_ns));
    p50(&parse_ns) + p50(&classify_ns)
}

/// The request sequence a serving run sends, for the replay: every key
/// once, then seeded picks (with renamed fresh keys when `fresh_share`
/// is positive).
fn replay_sequence(kernels: &[Kernel], keys: &[Key], fresh_share: f64, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = Rng::new(seed ^ 0x5EED);
    let mut seq: Vec<Vec<u8>> =
        keys.iter().map(|k| keys::compile_frame(&kernels[k.kernel].src, k.isa, None)).collect();
    for i in 0..8192u64 {
        let key = &keys[rng.below(keys.len())];
        let kernel = &kernels[key.kernel];
        let slot = Some(i as usize % DEPTH);
        if rng.unit() < fresh_share {
            let src = keys::rename_buffers(&kernel.src, &kernel.buffers, i);
            seq.push(keys::compile_frame(&src, key.isa, slot));
        } else {
            seq.push(keys::compile_frame(&kernel.src, key.isa, slot));
        }
    }
    seq
}

/// Measure the serving layers on another workload's kernels: the
/// in-process replay, then a default daemon under a short closed loop.
pub fn probe(
    kernels: &[Kernel],
    sels: &[Pitchfork],
    seed: u64,
    tracer: &mut Tracer,
    layers: &mut Layers,
    out: &mut Outcome,
) {
    let keys = match keys::build_keys(kernels, sels, Kernel::parsed) {
        Ok((keys, _)) => keys,
        Err(e) => return out.fail(e),
    };
    let attempted = out.attempted;
    let seq = replay_sequence(kernels, &keys, 0.0, seed);
    let parse_classify = replay(&seq, None, tracer, layers, out);
    let mut rng = Rng::new(seed);
    let mut cal = Calibrator::new(SENSITIVITY);
    let plan = Plan {
        fresh_share: 0.0,
        warmup: Duration::from_millis(200),
        trials: vec![Duration::from_millis(400); 2],
        open: Some(Duration::from_secs(1)),
    };
    let run = start(&[], 1, &mut cal).and_then(|(daemon, w0, _)| {
        let (c, r, t) = (&mut cal, &mut rng, Some(&mut *tracer));
        let served = serve(&daemon, w0, kernels, &keys, sels, &plan, r, c, t, out);
        daemon.stop()?;
        served
    });
    match run {
        Ok(s) => serve_layers(&s, parse_classify, layers),
        Err(e) => out.fail(e),
    }
    out.attempted = attempted;
}

/// `serve-hot` (closed loop over warm keys, default daemon) and
/// `serve-mixed` (open-loop Poisson arrivals with fresh keys, 16 MiB
/// cache).
pub fn run(mixed: bool, a: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut rng = Rng::new(a.seed);
    let kernels = keys::kernels(Suite::Figure);
    let sels = keys::selectors();
    let (keys, skipped) = match keys::build_keys(&kernels, &sels, Kernel::parsed) {
        Ok(k) => k,
        Err(e) => {
            out.fail(e);
            return out;
        }
    };
    out.extra.push(("skipped".into(), compile::skipped_json(&skipped)));

    let total = Duration::from_secs_f64(a.seconds as f64);
    let warmup = Duration::from_secs(1).min(total / 10);
    let plan = Plan {
        fresh_share: if mixed { FRESH_SHARE } else { 0.0 },
        warmup,
        trials: vec![(total - warmup) / TRIALS as u32; TRIALS],
        open: a.trace.then(|| Duration::from_secs(2)),
    };
    let (extra, cache_mb) = match mixed {
        true => (vec!["--cache-mb".to_string(), MIXED_CACHE_MB.to_string()], Some(MIXED_CACHE_MB)),
        false => (Vec::new(), None),
    };

    let mut tracer = Tracer::new(Instant::now());
    let mut cal = Calibrator::new(if mixed { MIXED_SENSITIVITY } else { SENSITIVITY });
    let run = start(&extra, SETUP_REPS, &mut cal).and_then(|(daemon, w0, setups)| {
        let t = a.trace.then_some(&mut tracer);
        let (c, r, o) = (&mut cal, &mut rng, &mut out);
        let served = serve(&daemon, w0, &kernels, &keys, &sels, &plan, r, c, t, o);
        let rss = daemon.peak_rss_mib();
        daemon.stop()?;
        Ok((served?, setups, rss))
    });
    let (s, setups, rss) = match run {
        Ok(r) => r,
        Err(e) => {
            out.fail(e);
            return out;
        }
    };

    if !a.trace {
        let rss = rss.unwrap_or(0.0);
        report::end_to_end(&mut out, setups, &s.trials, &s.lat_ns, rss, s.cycles_geomean);
        return out;
    }
    out.extra.push(("open_offered_rps".into(), Json::Float(s.offered)));
    out.extra.push(("open_achieved_rps".into(), Json::Float(s.achieved)));
    let mut layers = Layers::default();
    layers.set("host.slowdown", util::median(&s.trials.slowdowns));
    let seq = replay_sequence(&kernels, &keys, plan.fresh_share, a.seed);
    let parse_classify = replay(&seq, cache_mb, &mut tracer, &mut layers, &mut out);
    serve_layers(&s, parse_classify, &mut layers);
    let parsed: Vec<RcExpr> = kernels.iter().map(Kernel::parsed).collect();
    let budget = Duration::from_secs(1);
    compile::probe(&sels, &keys, &parsed, &mut rng, budget, &mut tracer, &mut layers, &mut out);
    exec::probe(&kernels, &keys, a.seed, &mut tracer, &mut layers, &mut out);
    layers.into_outcome(&mut out);
    out.spans = tracer.spans;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_read_from_the_end_of_a_reply() {
        assert_eq!(reply_tag(br#"{"ok":true,"x":"a,\"tag\":9","tag":12}"#), Some(12));
        assert_eq!(reply_tag(br#"{"ok":true,"tag":0}"#), Some(0));
        assert_eq!(reply_tag(br#"{"ok":true}"#), None);
        assert_eq!(reply_tag(br#"{"ok":true,"n":12}"#), None);
        assert_eq!(reply_tag(br#"{"tag":}"#), None);
        assert_eq!(reply_tag(b""), None);
    }
}
