//! The readiness-driven server core: one thread, many connections,
//! zero blocking syscalls on the request path.
//!
//! ```text
//!                  ┌──────────────────────────────────────────────┐
//!                  │                 event loop                   │
//!   listener ──▶ accept                                           │
//!                  │   readable conns ──▶ FrameReader ──▶ pending │
//!                  │   pending ──▶ pump ──┬─▶ fast reply (inline) │
//!                  │                      └─▶ dispatch batch      │
//!                  │   FrameWriter ◀── replies ◀── completions    │
//!                  └───────▲──────────────────────────┬───────────┘
//!                          │ wakeup pipe              │ submit_batch
//!                  ┌───────┴──────────────────────────▼───────────┐
//!                  │        dispatch workers (TaskQueue)          │
//!                  │   Service::reply — disk, owner, or compile   │
//!                  └──────────────────────────────────────────────┘
//! ```
//!
//! Every iteration `poll(2)`s the listener, the wakeup pipe, and every
//! client connection; readable connections feed a buffering
//! [`FrameReader`], complete frames queue per-connection as *pending*
//! work, and a pump either answers them inline ([`Service::classify`] —
//! control ops and cache hits) or collects them into one **dispatch
//! batch** submitted to the worker queue under a single lock. Workers
//! push completions and write one coalesced byte into the wakeup pipe,
//! so a slow compile never blocks the loop and a cache hit on any
//! connection is answered in the iteration it arrives. The loop holds
//! no peer sockets: a fleet fetch runs on the worker, inside the
//! artifact cache's single-flight leader (see [`crate::peer`]). A
//! daemon in a fleet serves siblings' `peer_get`s on a second pool of
//! the same size, whose tasks never fetch, so workers waiting on each
//! other's daemons always find someone to answer them.
//!
//! **Ordering.** Tagged requests (protocol v2) may be answered out of
//! order — the tag is the correlation. An untagged request is a full
//! barrier on its connection: it is dispatched only when nothing else
//! is in flight and blocks later frames until answered, which
//! preserves the exact serial request→response ordering v1 clients
//! assume.
//!
//! **Replies.** Every answer — a memo hit, a cache hit, a worker's
//! completion or a transport error — reaches the writer as one rendered
//! body through one rule: the request's tag is spliced in as the last
//! member, and a body past the 16 MiB frame limit is answered with a
//! structured `internal` error instead, on a connection that carries on.
//!
//! **Backpressure.** Reads pause while a connection's pending frames
//! or output backlog are over budget; a connection whose output queue
//! overflows (a client that pipelines but never reads) is sealed with
//! a final `overloaded` frame and closed once that frame drains. The
//! dispatch queue is the one admission gate: ready requests past its
//! bound are shed with `overloaded`.
//!
//! **Deadlines.** Every frame is stamped when it arrives, and a worker
//! charges the time since then (the dispatch queue) against the
//! request's `timeout_ms` before it serves the request; a request whose
//! budget is already spent is answered `timeout` without compiling.
//! What is left bounds the disk refill, the peer fetch and the compile.

use crate::error::ServiceError;
use crate::json::Json;
use crate::peer::Fleet;
use crate::poll::{lower_thread_priority, poll_fds, wake_pipe, PollFd, Waker, POLLIN, POLLOUT};
use crate::protocol::{
    attach_tag_rendered, decode_frame, error_response, frame_too_large, parse_request, request_tag,
    write_frame, FrameReader, FrameWriter, Request, MAX_FRAME,
};
use crate::server::{Endpoint, StopFlag};
use crate::service::{CacheDecision, Resolved, Service};
use crate::stats::Stats;
use fpir_pool::{Task, TaskQueue};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long the loop sleeps in `poll` when nothing is ready. Purely a
/// stop-flag re-check cadence: readiness and wakeups cut it short.
const POLL_TIMEOUT: Duration = Duration::from_millis(50);

/// How long a stopping server waits for in-flight work and unflushed
/// responses before giving up on stragglers.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Tunables for one serve loop — [`Default`] matches the daemon.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Most concurrent connections; extras get an `overloaded` frame.
    pub max_connections: usize,
    /// Per-connection output-queue byte budget; a client that exceeds
    /// it (pipelining without reading) is closed with a final
    /// `overloaded` frame.
    pub outq_bytes: usize,
    /// Most parsed-but-unanswered frames per connection; reads pause at
    /// the cap (backpressure, not an error).
    pub max_pipeline: usize,
    /// Sibling daemons sharing the key space. On a local+disk miss the
    /// key's rendezvous owner is asked for its artifact (`peer_get`)
    /// before compiling locally; every daemon must list the same fleet
    /// (its own serving address excluded), spelled identically.
    pub peers: Vec<Endpoint>,
    /// Bound on one fetch from a key's owner — connect, send and
    /// receive together; the request's own deadline may cut it shorter.
    /// Past it the request compiles locally.
    pub peer_timeout_ms: u64,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            max_connections: crate::server::MAX_CONNECTIONS,
            outq_bytes: 8 << 20,
            max_pipeline: 128,
            peers: Vec::new(),
            peer_timeout_ms: 1500,
        }
    }
}

/// A bound, non-blocking listening socket.
pub(crate) enum Listener {
    /// Unix-domain listener plus the path to unlink on shutdown.
    Unix(UnixListener, PathBuf),
    /// TCP listener.
    Tcp(TcpListener),
}

impl Listener {
    fn fd(&self) -> RawFd {
        match self {
            Listener::Unix(l, _) => l.as_raw_fd(),
            Listener::Tcp(l) => l.as_raw_fd(),
        }
    }

    fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
        }
    }
}

/// A connected Unix or TCP socket: an accepted connection, or a
/// [`Client`](crate::server::Client)'s.
#[derive(Debug)]
pub(crate) enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    fn fd(&self) -> RawFd {
        match self {
            Stream::Unix(s) => s.as_raw_fd(),
            Stream::Tcp(s) => s.as_raw_fd(),
        }
    }

    fn set_nonblocking(&self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_nonblocking(true),
            Stream::Tcp(s) => s.set_nonblocking(true),
        }
    }

    /// Bound each blocking read and write by `t` (`None`: no bound).
    pub(crate) fn set_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Unix(s) => {
                s.set_read_timeout(t)?;
                s.set_write_timeout(t)
            }
            Stream::Tcp(s) => {
                s.set_read_timeout(t)?;
                s.set_write_timeout(t)
            }
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// Largest request or response the hot memo will hold (per entry).
const HOT_MAX_BYTES: usize = 64 * 1024;
/// Entry cap for the hot memo; crossing it clears the map wholesale
/// (cheap, rare, and self-correcting — the working set refills in one
/// round of traffic).
const HOT_MAX_ENTRIES: usize = 2048;

/// A memo of raw compile-request bytes → the exact rendered response,
/// shared by every connection on one loop.
///
/// Compilation is deterministic, so byte-identical compile requests
/// (tag included — the tag is part of the key and of the stored body)
/// get byte-identical responses *for one rule-set generation*. A memo
/// hit skips the JSON parse, the expression parse, and the cache-key
/// construction — the entire per-request CPU cost of a warm compile —
/// leaving a hash lookup and a buffer clone. Entries are seeded only
/// from artifact-cache hits, so the stored body is exactly what
/// [`Service::classify`] would have produced.
///
/// Every entry is stamped with the service's rule-set generation
/// ([`Service::rules_generation`]); the loop refreshes `gen` each
/// iteration and a stale-generation entry reads as a miss, so the memo
/// can never serve a response rendered under a superseded rule set —
/// the raw request bytes alone don't encode which rules were loaded.
struct HotCache {
    map: HashMap<Vec<u8>, HotEntry>,
    /// The current rule-set generation; entries from any other
    /// generation are dead.
    gen: u64,
}

struct HotEntry {
    /// The tagged response; never over [`HOT_MAX_BYTES`], so never over
    /// the frame limit either.
    body: String,
    untagged: bool,
    /// The rule-set generation the body was rendered under.
    rules_gen: u64,
}

impl HotCache {
    fn new(gen: u64) -> HotCache {
        HotCache { map: HashMap::new(), gen }
    }

    fn get(&self, raw: &[u8]) -> Option<&HotEntry> {
        self.map.get(raw).filter(|e| e.rules_gen == self.gen)
    }

    fn insert(&mut self, raw: Vec<u8>, mut body: String, untagged: bool) {
        if body.len() > HOT_MAX_BYTES {
            return;
        }
        // The tag splice grew the body's buffer; an entry lives long.
        body.shrink_to_fit();
        if self.map.len() >= HOT_MAX_ENTRIES {
            self.map.clear();
        }
        self.map.insert(raw, HotEntry { body, untagged, rules_gen: self.gen });
    }
}

/// What one pending frame still needs.
enum Work {
    /// A hot-memo hit: the finished response body (tag already
    /// embedded).
    Hot(String),
    /// A decoded request, or the transport-level error to answer with.
    Parsed(Result<Request, ServiceError>),
}

/// One frame waiting its turn on a connection.
struct PendingFrame {
    /// No `tag` member: v1 serial ordering applies (full barrier).
    untagged: bool,
    tag: Option<Json>,
    work: Work,
    /// Close (drain) the connection after answering — set for framing
    /// errors, where the byte stream can no longer be trusted.
    close_after: bool,
    /// The frame's raw bytes, kept for compile requests so a
    /// cache-hit response can seed the hot memo.
    raw: Option<Vec<u8>>,
    /// When the frame was decoded: the latency ring's start for memo
    /// hits, and the start of a dispatched request's deadline.
    arrived: Instant,
}

/// Per-connection state machine.
struct Conn {
    stream: Stream,
    reader: FrameReader,
    writer: FrameWriter,
    /// Parsed frames not yet answered or dispatched, in arrival order.
    pending: VecDeque<PendingFrame>,
    /// Frames dispatched to workers and not yet completed.
    inflight: usize,
    /// An untagged (v1) request is in flight: nothing later may
    /// dispatch until it completes (strict serial ordering).
    serial_block: bool,
    /// Stop reading; close once every response has drained.
    draining: bool,
    /// Output overflow: late completions are discarded, only the
    /// sealed `overloaded` frame goes out.
    poisoned: bool,
    /// The socket died; tear down without flushing.
    dead: bool,
}

impl Conn {
    fn new(stream: Stream, opts: &ServeOptions) -> Conn {
        Conn {
            stream,
            reader: FrameReader::new(),
            writer: FrameWriter::new(opts.outq_bytes),
            pending: VecDeque::new(),
            inflight: 0,
            serial_block: false,
            draining: false,
            poisoned: false,
            dead: false,
        }
    }

    fn wants_read(&self, opts: &ServeOptions) -> bool {
        !self.draining
            && !self.dead
            && self.pending.len() < opts.max_pipeline
            && self.writer.queued_bytes() < opts.outq_bytes / 2
    }

    /// Nothing queued, in flight, or unflushed.
    fn idle(&self) -> bool {
        self.writer.is_empty() && self.inflight == 0 && self.pending.is_empty()
    }

    fn should_close(&self) -> bool {
        self.dead || (self.draining && self.idle())
    }

    /// Queue one transport-level error reply, optionally fatal to the
    /// connection's framing.
    fn ingest_error(&mut self, e: ServiceError, fatal: bool) {
        self.pending.push_back(PendingFrame {
            untagged: true,
            tag: None,
            work: Work::Parsed(Err(e)),
            close_after: fatal,
            raw: None,
            arrived: Instant::now(),
        });
        if fatal {
            self.draining = true;
        }
    }

    /// Turn one arrived frame's raw bytes into pending work: a hot-memo
    /// hit carries its finished response, anything else gets decoded
    /// (tag errors become an inline error reply; the framing itself is
    /// still intact, while undecodable bytes are fatal).
    fn ingest(&mut self, raw: Vec<u8>, hot: &HotCache) {
        if let Some(entry) = hot.get(&raw) {
            self.pending.push_back(PendingFrame {
                untagged: entry.untagged,
                tag: None,
                work: Work::Hot(entry.body.clone()),
                close_after: false,
                raw: None,
                arrived: Instant::now(),
            });
            return;
        }
        let frame = match decode_frame(raw.clone()) {
            Ok(frame) => frame,
            Err(e) => return self.ingest_error(ServiceError::BadRequest(e.to_string()), true),
        };
        match request_tag(&frame) {
            Ok(tag) => {
                let work = parse_request(&frame);
                let memoizable =
                    matches!(&work, Ok(Request::Compile(_))) && raw.len() <= HOT_MAX_BYTES;
                self.pending.push_back(PendingFrame {
                    untagged: tag.is_none(),
                    tag,
                    work: Work::Parsed(work),
                    close_after: false,
                    raw: memoizable.then_some(raw),
                    arrived: Instant::now(),
                });
            }
            Err(e) => self.ingest_error(e, false),
        }
    }

    /// Move complete frames from the reader's buffer into `pending`, up
    /// to the pipeline cap. A malformed frame queues a final error
    /// reply and puts the connection into draining (the stream can no
    /// longer be framed).
    fn drain_buffered(&mut self, opts: &ServeOptions, hot: &HotCache) -> bool {
        let mut any = false;
        while self.pending.len() < opts.max_pipeline && !self.draining {
            match self.reader.buffered_frame_raw() {
                Ok(Some(raw)) => {
                    self.ingest(raw, hot);
                    any = true;
                }
                Ok(None) => break,
                Err(e) => {
                    self.ingest_error(ServiceError::BadRequest(e.to_string()), true);
                    any = true;
                }
            }
        }
        any
    }

    /// Pull whatever the readable socket has, decoding as we go.
    fn fill(&mut self, opts: &ServeOptions, hot: &HotCache) {
        loop {
            self.drain_buffered(opts, hot);
            if self.pending.len() >= opts.max_pipeline || self.draining {
                return;
            }
            match self.reader.fill_from(&mut self.stream) {
                Ok(0) => {
                    // Peer closed its write half: answer what already
                    // arrived, then close.
                    self.draining = true;
                    return;
                }
                Ok(n) => {
                    // A short read drained the socket buffer: decode
                    // what arrived and skip the read that would return
                    // WouldBlock — level-triggered poll re-arms if more
                    // bytes land in the meantime.
                    if n < crate::protocol::FILL_CHUNK {
                        self.drain_buffered(opts, hot);
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }

    /// Queue one rendered response, echoing the tag as its last member.
    /// A body too large for one frame (a huge pipeline output) is
    /// answered with a structured error instead, and the connection
    /// carries on. Overflow seals the connection with a final untagged
    /// `overloaded` frame.
    fn queue_reply(&mut self, body: String, tag: Option<&Json>) {
        if self.poisoned || self.dead {
            return;
        }
        let mut body = tagged(body, tag);
        if body.len() > MAX_FRAME {
            body = tagged(error_response(&frame_too_large()).render(), tag);
        }
        if self.writer.queue_rendered(body).is_err() {
            self.poisoned = true;
            self.draining = true;
            self.pending.clear();
            self.writer.seal(&error_response(&ServiceError::Overloaded));
        }
    }

    /// Push queued response bytes to the socket (non-blocking).
    fn flush(&mut self) {
        if self.dead || self.writer.is_empty() {
            return;
        }
        if self.writer.write_some(&mut self.stream).is_err() {
            self.dead = true;
        }
    }
}

/// `body` with `tag` spliced in as its last member.
fn tagged(mut body: String, tag: Option<&Json>) -> String {
    if let Some(t) = tag {
        attach_tag_rendered(&mut body, t);
    }
    body
}

/// One ready request bound for a dispatch worker.
struct DispatchItem {
    conn: u64,
    tag: Option<Json>,
    untagged: bool,
    req: Request,
    /// What [`Service::classify`] already resolved for `req`, handed to
    /// the worker so it does not parse and key the expression again.
    resolved: Option<Resolved>,
    /// The frame's arrival; its deadline runs from here.
    arrived: Instant,
}

/// What a dispatch worker runs for one item. The request's effective
/// budget (`timeout_ms`, else the service default) runs from the
/// frame's arrival, so the wait for a worker is charged first: the spec
/// keeps only what is left, and a request with nothing left is answered
/// `timeout` without compiling. `fleet` is `None` once the daemon is
/// stopping, so a stopping daemon starts no peer fetch.
fn dispatch_one(service: &Service, it: &mut DispatchItem, fleet: Option<&Fleet>) -> String {
    #[cfg(test)]
    tests::hold(it.tag.as_ref());
    if let Request::Compile(spec)
    | Request::Run { spec, .. }
    | Request::RunPipeline { spec, .. }
    | Request::PeerGet { spec, .. } = &mut it.req
    {
        if let Some(budget_ms) = spec.timeout_ms.or(service.config().default_timeout_ms) {
            let left = Duration::from_millis(budget_ms).saturating_sub(it.arrived.elapsed());
            if left.is_zero() {
                Stats::bump(&service.stats().requests);
                Stats::bump(&service.stats().timeouts);
                return error_response(&ServiceError::Timeout { budget_ms }).render();
            }
            // Round up: a request is refused only once its deadline
            // has passed.
            spec.timeout_ms = Some(left.as_nanos().div_ceil(1_000_000) as u64);
        }
    }
    service.reply(&it.req, it.resolved.take(), fleet)
}

/// A finished dispatched request on its way back to the loop.
struct Completion {
    conn: u64,
    tag: Option<Json>,
    untagged: bool,
    reply: String,
}

/// What the loop and the dispatch workers share.
struct DispatchShared {
    completions: Mutex<Vec<Completion>>,
    waker: Waker,
    fleet: Fleet,
    stop: StopFlag,
}

/// Answer and dispatch everything answerable on one connection. Ready
/// requests that need a worker go into `batch`; inline-answerable ones
/// are queued on the writer immediately.
fn pump(
    id: u64,
    conn: &mut Conn,
    service: &Arc<Service>,
    stop: &StopFlag,
    opts: &ServeOptions,
    hot: &mut HotCache,
    batch: &mut Vec<DispatchItem>,
) {
    loop {
        let Some(front) = conn.pending.front() else {
            // Pending drained; frames may still sit undecoded in the
            // reader's buffer from a capped earlier read.
            if conn.drain_buffered(opts, hot) {
                continue;
            }
            return;
        };
        if conn.serial_block {
            return;
        }
        let untagged = front.untagged;
        if untagged && conn.inflight > 0 {
            return;
        }
        let f = conn.pending.pop_front().expect("front exists");
        match f.work {
            Work::Hot(body) => {
                // Same accounting as the classify hit this entry was
                // seeded from, plus the memo's own counter.
                let stats = service.stats();
                Stats::bump(&stats.requests);
                Stats::bump(&stats.cache_hits);
                Stats::bump(&stats.hot_hits);
                conn.queue_reply(body, None);
                stats
                    .record_latency_us(u64::try_from(f.arrived.elapsed().as_micros()).unwrap_or(0));
            }
            Work::Parsed(Err(e)) => {
                // Transport-level rejects (unparseable request or tag):
                // answered inline, not counted as service traffic —
                // same as the v1 per-connection loop.
                conn.queue_reply(error_response(&e).render(), f.tag.as_ref());
                if f.close_after {
                    conn.draining = true;
                    conn.pending.clear();
                    return;
                }
            }
            Work::Parsed(Ok(req)) => {
                if matches!(req, Request::Shutdown) {
                    conn.queue_reply(service.reply(&req, None, None), f.tag.as_ref());
                    stop.request();
                    continue;
                }
                let resolved = match service.classify_memo(&req) {
                    (CacheDecision::Reply(body), hit) => {
                        // A compile served from the artifact cache is
                        // memoized, tagged, under the frame's raw bytes.
                        if let (true, Some(raw)) = (hit, f.raw) {
                            hot.insert(raw, tagged(body.clone(), f.tag.as_ref()), untagged);
                        }
                        conn.queue_reply(body, f.tag.as_ref());
                        continue;
                    }
                    (CacheDecision::Dispatch(resolved), _) => resolved,
                };
                conn.inflight += 1;
                if untagged {
                    conn.serial_block = true;
                }
                batch.push(DispatchItem {
                    conn: id,
                    tag: f.tag,
                    untagged,
                    req,
                    resolved,
                    arrived: f.arrived,
                });
            }
        }
    }
}

/// Submit `batch` to `queue` under one lock. Whatever the bounded queue
/// refuses is shed right here, counted as a request and a shed.
fn submit(
    queue: &TaskQueue,
    batch: Vec<DispatchItem>,
    service: &Arc<Service>,
    shared: &Arc<DispatchShared>,
    conns: &mut HashMap<u64, Conn>,
) {
    let meta: Vec<(u64, Option<Json>, bool)> =
        batch.iter().map(|it| (it.conn, it.tag.clone(), it.untagged)).collect();
    let tasks: Vec<Task> = batch
        .into_iter()
        .map(|mut it| {
            let service = Arc::clone(service);
            let shared = Arc::clone(shared);
            Box::new(move || {
                // A cold compile must not delay the warm hits the loop
                // answers on the same core.
                lower_thread_priority();
                let fleet = (!shared.stop.stopping()).then_some(&shared.fleet);
                let reply = dispatch_one(&service, &mut it, fleet);
                shared.completions.lock().expect("completion lock").push(Completion {
                    conn: it.conn,
                    tag: it.tag,
                    untagged: it.untagged,
                    reply,
                });
                shared.waker.wake();
            }) as Task
        })
        .collect();
    let admitted = queue.submit_batch(tasks);
    for (conn_id, tag, untagged) in meta.into_iter().skip(admitted) {
        if let Some(conn) = conns.get_mut(&conn_id) {
            conn.inflight -= 1;
            if untagged {
                conn.serial_block = false;
            }
            Stats::bump(&service.stats().requests);
            Stats::bump(&service.stats().sheds);
            conn.queue_reply(error_response(&ServiceError::Overloaded).render(), tag.as_ref());
        }
    }
}

/// Run the readiness loop until the stop flag trips, then drain.
/// `self_id` is this daemon's own serving address in [`Endpoint`]
/// display form — its rendezvous node id within the fleet.
pub(crate) fn run(
    service: &Arc<Service>,
    listener: &Listener,
    stop: &StopFlag,
    opts: &ServeOptions,
    self_id: &str,
) -> io::Result<()> {
    let (mut wake_rx, waker) = wake_pipe()?;
    let shared = Arc::new(DispatchShared {
        completions: Mutex::new(Vec::new()),
        waker,
        fleet: Fleet::new(self_id, opts),
        stop: stop.clone(),
    });
    let (workers, capacity) =
        (service.config().workers.max(2), (opts.max_connections * 2).max(256));
    let dispatch = TaskQueue::new(workers, capacity);
    // A worker fetching from a peer waits for that peer's workers. If two
    // daemons' workers all waited on each other, neither could serve the
    // `peer_get`s they wait for until the fetches timed out, so a daemon
    // in a fleet serves `peer_get` on a pool of its own, whose tasks
    // never fetch.
    let peer_dispatch = (!opts.peers.is_empty()).then(|| TaskQueue::new(workers, capacity));

    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut hot = HotCache::new(service.rules_generation());
    let mut next_id: u64 = 0;
    let mut drain_deadline: Option<Instant> = None;

    loop {
        // ── stop / drain ────────────────────────────────────────────
        let stopping = stop.stopping();
        if stopping {
            if drain_deadline.is_none() {
                drain_deadline = Some(Instant::now() + DRAIN_GRACE);
                for c in conns.values_mut() {
                    c.draining = true;
                }
            }
            let expired = drain_deadline.is_some_and(|d| Instant::now() >= d);
            if conns.is_empty() || expired {
                break;
            }
        }

        // ── build the poll set ──────────────────────────────────────
        let mut fds = Vec::with_capacity(2 + conns.len());
        fds.push(PollFd::new(wake_rx.fd(), POLLIN));
        let listener_idx = if stopping {
            None
        } else {
            fds.push(PollFd::new(listener.fd(), POLLIN));
            Some(fds.len() - 1)
        };
        let base = fds.len();
        let order: Vec<u64> = conns.keys().copied().collect();
        for id in &order {
            let c = &conns[id];
            let mut interest = 0i16;
            if c.wants_read(opts) {
                interest |= POLLIN;
            }
            if !c.writer.is_empty() {
                interest |= POLLOUT;
            }
            fds.push(PollFd::new(c.stream.fd(), interest));
        }

        poll_fds(&mut fds, POLL_TIMEOUT)?;
        // The memo must not outlive the rule-set generation its bodies
        // were rendered under.
        hot.gen = service.rules_generation();

        // ── drain completions (every iteration: the waker's pending
        // flag makes a missed byte harmless) ────────────────────────
        shared.waker.reset();
        wake_rx.drain();
        let done: Vec<Completion> = std::mem::take(&mut *shared.completions.lock().expect("lock"));
        for c in done {
            if let Some(conn) = conns.get_mut(&c.conn) {
                conn.inflight -= 1;
                if c.untagged {
                    conn.serial_block = false;
                }
                conn.queue_reply(c.reply, c.tag.as_ref());
            }
        }

        // ── accept ──────────────────────────────────────────────────
        if let Some(i) = listener_idx {
            if fds[i].readable() {
                loop {
                    match listener.accept() {
                        Ok(mut stream) => {
                            if conns.len() >= opts.max_connections
                                || stream.set_nonblocking().is_err()
                            {
                                // Refuse politely; the frame fits in a
                                // fresh socket buffer without blocking.
                                let _ = write_frame(
                                    &mut stream,
                                    &error_response(&ServiceError::Overloaded),
                                );
                                continue;
                            }
                            conns.insert(next_id, Conn::new(stream, opts));
                            next_id += 1;
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) => {
                            eprintln!("pitchforkd: accept failed: {e}");
                            break;
                        }
                    }
                }
            }
        }

        // ── read ────────────────────────────────────────────────────
        for (i, id) in order.iter().enumerate() {
            let pf = &fds[base + i];
            let conn = conns.get_mut(id).expect("registered");
            if pf.failed() {
                conn.dead = true;
                continue;
            }
            if pf.readable() && conn.wants_read(opts) {
                conn.fill(opts, &hot);
            }
        }

        // ── pump: inline replies + collect the dispatch batch ───────
        let mut batch: Vec<DispatchItem> = Vec::new();
        for (&id, conn) in conns.iter_mut() {
            if !conn.dead {
                pump(id, conn, service, stop, opts, &mut hot, &mut batch);
            }
        }

        // ── dispatch the batch under one queue lock ─────────────────
        if !batch.is_empty() {
            Stats::record_max(&service.stats().dispatch_batch_max, batch.len() as u64);
            match &peer_dispatch {
                None => submit(&dispatch, batch, service, &shared, &mut conns),
                Some(peer_dispatch) => {
                    let (peer_gets, batch): (Vec<_>, Vec<_>) =
                        batch.into_iter().partition(|it| matches!(it.req, Request::PeerGet { .. }));
                    submit(&dispatch, batch, service, &shared, &mut conns);
                    submit(peer_dispatch, peer_gets, service, &shared, &mut conns);
                }
            }
        }

        // ── write: opportunistic flush of everything queued ─────────
        for conn in conns.values_mut() {
            conn.flush();
        }

        // ── close finished connections, refresh gauges ──────────────
        conns.retain(|_, c| !c.should_close());
        let stats = service.stats();
        Stats::set(&stats.open_connections, conns.len() as u64);
        Stats::set(&stats.inflight_frames, conns.values().map(|c| c.inflight as u64).sum());
        let depth = dispatch.depth() + peer_dispatch.as_ref().map_or(0, TaskQueue::depth);
        Stats::set(&stats.dispatch_queue_depth, depth as u64);
    }

    // Late completions after the drain window are dropped with the
    // queues (their Drop runs admitted tasks to completion first).
    drop(dispatch);
    drop(peer_dispatch);
    Stats::set(&service.stats().open_connections, 0);
    Stats::set(&service.stats().inflight_frames, 0);
    Stats::set(&service.stats().dispatch_queue_depth, 0);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{ok_response, write_frame};
    use crate::server::serve_with;
    use crate::service::ServiceConfig;
    use std::sync::Condvar;

    /// Set once a test lets the held dispatch items run.
    static GATE: (Mutex<bool>, Condvar) = (Mutex::new(false), Condvar::new());

    /// The seam in [`dispatch_one`]: a worker that takes an item tagged
    /// `"held-…"` waits until [`GATE`] opens, so a test can keep dispatch
    /// workers busy for as long as it needs, in any build profile.
    pub(super) fn hold(tag: Option<&Json>) {
        if tag.and_then(Json::as_str).is_some_and(|t| t.starts_with("held-")) {
            let (open, cv) = &GATE;
            let mut open = open.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        }
    }

    #[test]
    fn time_waiting_for_a_worker_counts_against_the_deadline() {
        let path = std::env::temp_dir()
            .join(format!("pitchfork-eventloop-deadline-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        // One service worker gives two dispatch workers.
        let svc = Arc::new(Service::new(ServiceConfig {
            cache_bytes: 8 << 20,
            workers: 1,
            default_timeout_ms: None,
            cache_dir: None,
            cache_max_bytes: None,
            cache_max_age: None,
        }));
        let server = {
            let (svc, ep) = (svc.clone(), Endpoint::Unix(path.clone()));
            std::thread::spawn(move || serve_with(svc, &ep, &ServeOptions::default()))
        };
        let mut stream = (0..100)
            .find_map(|_| {
                let s = UnixStream::connect(&path);
                if s.is_err() {
                    std::thread::sleep(Duration::from_millis(20));
                }
                s.ok()
            })
            .expect("the server comes up");
        let parse = |src: &str| crate::json::parse(src).unwrap();

        // Two held image runs occupy both dispatch workers, so a cold
        // compile queued behind them spends its whole 5 ms budget waiting
        // and is refused without compiling.
        let run = |tag: &str| {
            parse(&format!(
                r#"{{"op":"run_pipeline","expr":"rounding_halving_add(in__p0_p0_u8, in__p1_p0_u8)",
                    "lanes":4,"isa":"arm","inputs":{{"in":{{"elem":"u8","rows":[[1,2,3,4,5,6,7,8]]}}}},
                    "jobs":1,"tag":"{tag}"}}"#
            ))
        };
        let late = parse(
            r#"{"op":"compile","expr":"u8(min(u16(a_u8) + u16(b_u8), 255))","lanes":16,
                "isa":"x86","timeout_ms":5,"tag":"late"}"#,
        );
        let mut burst = Vec::new();
        for frame in [run("held-a"), run("held-b"), late] {
            write_frame(&mut burst, &frame).unwrap();
        }
        stream.write_all(&burst).unwrap();
        // Open the gate once all three are dispatched and the compile has
        // waited past its budget.
        while Stats::read(&svc.stats().inflight_frames) < 3 {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(10));
        let (open, cv) = &GATE;
        *open.lock().unwrap() = true;
        cv.notify_all();

        let mut reader = FrameReader::new();
        let mut next =
            |stream: &mut UnixStream| reader.next_frame(stream).unwrap().expect("a response");
        let mut late = None;
        for _ in 0..3 {
            let v = next(&mut stream);
            if v.get("tag").and_then(Json::as_str) == Some("late") {
                late = Some(v);
            } else {
                assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
            }
        }
        let late = late.expect("the deadlined compile must be answered");
        assert_eq!(late.get("code").and_then(Json::as_str), Some("timeout"), "{late:?}");
        assert_eq!(Stats::read(&svc.stats().timeouts), 1);
        assert_eq!(Stats::read(&svc.stats().compiles), 1, "only the image kernel");

        write_frame(&mut stream, &parse(r#"{"op":"shutdown"}"#)).unwrap();
        let bye = next(&mut stream);
        assert_eq!(bye.get("stopping").and_then(Json::as_bool), Some(true), "{bye:?}");
        server.join().unwrap().unwrap();
    }

    #[test]
    fn an_oversized_reply_is_an_error_frame_on_a_live_connection() {
        let (ours, mut theirs) = UnixStream::pair().unwrap();
        let mut conn = Conn::new(Stream::Unix(ours), &ServeOptions::default());
        let tagged = |v: Json, tag: i128| match v {
            Json::Object(mut members) => {
                members.push(("tag".into(), Json::Int(tag)));
                Json::Object(members)
            }
            other => panic!("a reply is an object: {other:?}"),
        };
        let huge = ok_response(vec![("x".into(), Json::str("a".repeat(MAX_FRAME)))]);
        conn.queue_reply(huge.render(), Some(&Json::Int(7)));
        assert!(!conn.poisoned && !conn.draining && !conn.writer.is_sealed());
        assert_eq!(conn.writer.queued_frames(), 1);
        let pong = ok_response(vec![("pong".into(), Json::Bool(true))]);
        conn.queue_reply(pong.render(), Some(&Json::Int(8)));
        assert_eq!(conn.writer.queued_frames(), 2, "a following reply still queues");
        conn.flush();
        assert!(conn.writer.is_empty() && !conn.dead);
        drop(conn);

        let mut reader = FrameReader::new();
        let error = error_response(&frame_too_large());
        assert_eq!(reader.next_frame(&mut theirs).unwrap(), Some(tagged(error, 7)));
        assert_eq!(reader.next_frame(&mut theirs).unwrap(), Some(tagged(pong, 8)));
        assert_eq!(reader.next_frame(&mut theirs).unwrap(), None);
    }
}
