//! The wire protocol: length-prefixed JSON frames and the typed request
//! vocabulary.
//!
//! A frame is a 4-byte big-endian length followed by that many bytes of
//! UTF-8 JSON — one value per frame, no delimiters to escape, trivially
//! parseable from any language. Requests are objects with an `"op"`
//! member; responses are objects with `"ok": true/false` (the failure
//! shape carries the [`ServiceError`] code and message).
//!
//! ```text
//! → {"op":"compile","expr":"saturating_add(a_u8, b_u8)","lanes":16,"isa":"arm"}
//! ← {"ok":true,"cached":false,"lowered":"arm.uqadd(a_u8, b_u8)", ...}
//! ```

use crate::error::ServiceError;
use crate::json::{parse, Json};
use fpir::types::ScalarType;
use fpir::Isa;
use std::collections::VecDeque;
use std::io::{self, Read, Write};

/// Largest accepted frame (16 MiB) — a denial-of-service guard, far
/// above any legitimate request or response.
pub const MAX_FRAME: usize = 16 << 20;

/// Bytes one [`FrameReader::fill_from`] call asks the OS for. A read
/// shorter than this almost always means the socket buffer is empty —
/// non-blocking callers can skip the follow-up read that would return
/// `WouldBlock` and let level-triggered readiness re-arm instead.
pub const FILL_CHUNK: usize = 16384;

/// Write one value as a frame.
///
/// # Errors
///
/// I/O errors from `w`; `InvalidData` if the rendering exceeds
/// [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, v: &Json) -> io::Result<()> {
    let body = v.render();
    if body.len() > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame too large"));
    }
    w.write_all(&(body.len() as u32).to_be_bytes())?;
    w.write_all(body.as_bytes())?;
    w.flush()
}

fn decode_body(body: Vec<u8>) -> io::Result<Json> {
    let text = String::from_utf8(body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))?;
    parse(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// Decode a frame body drained with
/// [`FrameReader::buffered_frame_raw`].
///
/// # Errors
///
/// `InvalidData` on non-UTF-8 bytes or malformed JSON — the same
/// errors (and messages) the decoding readers produce.
pub fn decode_frame(body: Vec<u8>) -> io::Result<Json> {
    decode_body(body)
}

/// An incremental, timeout-safe frame decoder.
///
/// It never loses bytes when a read fails: everything consumed so far
/// stays in an internal buffer, and a `WouldBlock`/`TimedOut` read
/// mid-frame simply surfaces as an error the caller can retry — the
/// next [`next_frame`](Self::next_frame) call resumes exactly where the
/// stream left off. This is what keeps the event loop's non-blocking
/// reads and a deadline-bounded [`Client`](crate::server::Client)
/// request from desynchronizing when a header or a multi-MiB body
/// arrives split across reads.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// An empty reader (no buffered bytes).
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Read until one complete frame is buffered, then decode it.
    /// `Ok(None)` on clean end-of-stream at a frame boundary.
    ///
    /// # Errors
    ///
    /// `WouldBlock`/`TimedOut` from `r` when no complete frame has
    /// arrived yet — retryable, no bytes are lost; `UnexpectedEof` if
    /// the stream ends mid-frame; `InvalidData` on an oversized length,
    /// non-UTF-8 bytes, or malformed JSON.
    pub fn next_frame(&mut self, r: &mut impl Read) -> io::Result<Option<Json>> {
        loop {
            if let Some(frame) = self.buffered_frame()? {
                return Ok(Some(frame));
            }
            match self.fill_from(r)? {
                0 => {
                    return if self.buf.is_empty() {
                        Ok(None)
                    } else {
                        Err(io::Error::new(io::ErrorKind::UnexpectedEof, "stream ended mid-frame"))
                    };
                }
                _ => continue,
            }
        }
    }

    /// Append one `read` call's worth of bytes to the buffer without
    /// decoding anything. Returns the byte count (0 = end of stream).
    /// The event loop uses this to pull whatever a readable socket has,
    /// then decodes with [`buffered_frame`](Self::buffered_frame) until
    /// its per-connection pipeline cap is reached.
    ///
    /// # Errors
    ///
    /// I/O errors from `r` (`Interrupted` is retried internally).
    pub fn fill_from(&mut self, r: &mut impl Read) -> io::Result<usize> {
        let mut chunk = [0u8; FILL_CHUNK];
        loop {
            match r.read(&mut chunk) {
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    return Ok(n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Decode one complete frame already in the buffer, if any — never
    /// reads from a stream.
    ///
    /// # Errors
    ///
    /// `InvalidData` on an oversized length, non-UTF-8 bytes, or
    /// malformed JSON.
    pub fn buffered_frame(&mut self) -> io::Result<Option<Json>> {
        match self.take_buffered_frame()? {
            Some(body) => decode_body(body).map(Some),
            None => Ok(None),
        }
    }

    /// Drain one complete frame's raw body bytes without decoding the
    /// JSON — the event loop uses this to look frames up in its
    /// hot-request memo before paying for a parse. Decode the result
    /// with [`decode_frame`].
    ///
    /// # Errors
    ///
    /// `InvalidData` on an oversized length.
    pub fn buffered_frame_raw(&mut self) -> io::Result<Option<Vec<u8>>> {
        self.take_buffered_frame()
    }

    /// Bytes buffered but not yet decoded (partial input).
    pub fn buffered_bytes(&self) -> usize {
        self.buf.len()
    }

    /// If the buffer holds a complete `4 + len` frame, drain and return
    /// its body.
    fn take_buffered_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        if len > MAX_FRAME {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "frame too large"));
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let rest = self.buf.split_off(4 + len);
        let mut frame = std::mem::replace(&mut self.buf, rest);
        frame.drain(..4);
        Ok(Some(frame))
    }
}

/// The per-connection output queue is over its byte budget: the peer
/// pipelines requests but is not reading responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOverflow;

impl std::fmt::Display for WriteOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("connection output queue over budget")
    }
}

impl std::error::Error for WriteOverflow {}

/// The sending counterpart of [`FrameReader`]: an incremental frame
/// encoder with a bounded backlog and partial-write tracking.
///
/// Responses are queued as encoded frames and pushed to a non-blocking
/// socket with [`write_some`](Self::write_some), which writes as much
/// as the kernel accepts and keeps its position across `WouldBlock` —
/// the event loop never blocks in `write` and framing never
/// desynchronizes on short writes. The backlog is bounded in bytes:
/// one response is always admitted (a single frame may exceed a small
/// budget), but queueing *behind* unread responses past the budget
/// returns [`WriteOverflow`], which the server converts into a final
/// `overloaded` frame via [`seal`](Self::seal). A client that pipelines
/// requests without ever reading therefore cannot grow server memory
/// without bound.
#[derive(Debug)]
pub struct FrameWriter {
    frames: VecDeque<Vec<u8>>,
    front_written: usize,
    queued: usize,
    budget: usize,
    sealed: bool,
}

impl FrameWriter {
    /// An empty writer whose backlog is bounded at `budget` bytes.
    pub fn new(budget: usize) -> FrameWriter {
        FrameWriter {
            frames: VecDeque::new(),
            front_written: 0,
            queued: 0,
            budget: budget.max(1),
            sealed: false,
        }
    }

    /// Unwritten bytes currently queued.
    pub fn queued_bytes(&self) -> usize {
        self.queued
    }

    /// Nothing left to write.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Whole frames queued (the partially-written front counts).
    pub fn queued_frames(&self) -> usize {
        self.frames.len()
    }

    /// A [`seal`](Self::seal) has been applied: no further frames are
    /// accepted and the connection should close once drained.
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// Queue one rendered JSON body as a frame — the cache-hit fast path
    /// renders a response once at insert time and replays the bytes here
    /// without re-rendering.
    ///
    /// # Errors
    ///
    /// [`WriteOverflow`] if the backlog is over budget or the writer is
    /// sealed. A body over [`MAX_FRAME`] is also refused (the caller
    /// substitutes an error response; it must never be split into a
    /// malformed frame).
    pub fn queue_rendered(&mut self, body: String) -> Result<(), WriteOverflow> {
        if self.sealed || body.len() > MAX_FRAME {
            return Err(WriteOverflow);
        }
        if !self.frames.is_empty() && self.queued + 4 + body.len() > self.budget {
            return Err(WriteOverflow);
        }
        let mut frame = Vec::with_capacity(4 + body.len());
        frame.extend_from_slice(&(body.len() as u32).to_be_bytes());
        frame.extend_from_slice(body.as_bytes());
        self.queued += frame.len();
        self.frames.push_back(frame);
        Ok(())
    }

    /// Replace every frame not yet on the wire with a final `v` frame
    /// and refuse all further queueing. A partially-written front frame
    /// is kept (truncating it would corrupt the peer's framing); whole
    /// undelivered frames are dropped.
    pub fn seal(&mut self, v: &Json) {
        if self.front_written == 0 {
            self.frames.clear();
        } else {
            self.frames.truncate(1);
        }
        self.queued =
            self.frames.iter().map(Vec::len).sum::<usize>().saturating_sub(self.front_written);
        let body = v.render();
        debug_assert!(body.len() <= MAX_FRAME);
        let mut frame = Vec::with_capacity(4 + body.len());
        frame.extend_from_slice(&(body.len() as u32).to_be_bytes());
        frame.extend_from_slice(body.as_bytes());
        self.queued += frame.len();
        self.frames.push_back(frame);
        self.sealed = true;
    }

    /// Write as much of the backlog as the sink accepts right now.
    /// `WouldBlock` stops the pass (not an error); the position is kept
    /// and the next call resumes mid-frame. Returns bytes written.
    ///
    /// # Errors
    ///
    /// Connection errors from `w` (the caller drops the connection).
    pub fn write_some(&mut self, w: &mut impl Write) -> io::Result<usize> {
        let mut total = 0;
        loop {
            let (len, res) = match self.frames.front() {
                None => break,
                Some(front) => (front.len(), w.write(&front[self.front_written..])),
            };
            match res {
                Ok(0) => {
                    return Err(io::Error::new(io::ErrorKind::WriteZero, "peer accepted 0 bytes"))
                }
                Ok(n) => {
                    self.front_written += n;
                    self.queued -= n;
                    total += n;
                    if self.front_written == len {
                        self.frames.pop_front();
                        self.front_written = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        Ok(total)
    }
}

/// Largest accepted `tag` string. The tag is echoed verbatim into the
/// response, so it is bounded like any other attacker-controlled field.
pub const MAX_TAG_STRING: usize = 128;

/// Extract the optional protocol-v2 `tag` from a request frame.
/// `Ok(None)` for untagged (v1) requests.
///
/// # Errors
///
/// [`ServiceError::BadRequest`] for a tag that is neither an integer
/// nor a string, or a string over [`MAX_TAG_STRING`] bytes.
pub fn request_tag(frame: &Json) -> Result<Option<Json>, ServiceError> {
    match frame.get("tag") {
        None | Some(Json::Null) => Ok(None),
        Some(t @ Json::Int(_)) => Ok(Some(t.clone())),
        Some(Json::Str(s)) if s.len() <= MAX_TAG_STRING => Ok(Some(Json::str(s.clone()))),
        Some(Json::Str(_)) => Err(bad(format!("`tag` string exceeds {MAX_TAG_STRING} bytes"))),
        Some(_) => Err(bad("`tag` must be an integer or a string")),
    }
}

/// Echo `tag` into an already-rendered response object by splicing
/// `,"tag":<tag>` before the closing brace — the event loop tags every
/// rendered reply this way, without reparsing it.
pub fn attach_tag_rendered(body: &mut String, tag: &Json) {
    splice_members(body, &[("tag", tag)]);
}

/// Append `members` to an already-rendered response object, before its
/// closing brace: byte for byte what rendering the object with them
/// appended gives.
pub(crate) fn splice_members(body: &mut String, members: &[(&str, &Json)]) {
    debug_assert!(
        body.len() > 2 && body.starts_with('{') && body.ends_with('}'),
        "a rendered object with members"
    );
    body.pop();
    for (name, value) in members {
        body.push(',');
        crate::json::write_member(body, name, value);
    }
    body.push('}');
}

/// Everything that identifies one compilation: the compile half of
/// every `compile` / `run` / `run_pipeline` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileSpec {
    /// The expression, in the printed syntax `fpir::parser` accepts.
    pub expr: String,
    /// Vector width.
    pub lanes: u32,
    /// Target ISA.
    pub isa: Isa,
    /// Include synthesized rules.
    pub synthesized_rules: bool,
    /// Leave-one-out benchmark.
    pub leave_out: Option<String>,
    /// Per-request deadline, if any.
    pub timeout_ms: Option<u64>,
}

/// One input image for a pipeline run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageSpec {
    /// Lane type of the pixels.
    pub elem: ScalarType,
    /// Row-major pixel rows (equal lengths, validated).
    pub rows: Vec<Vec<i128>>,
}

/// How a `stats` response should be rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StatsFormat {
    /// The structured JSON members (the default).
    #[default]
    Json,
    /// Prometheus-style plaintext `name value` lines, carried in the
    /// response's `text` member.
    Text,
}

/// A parsed, validated request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// Server counters and latency percentiles.
    Stats {
        /// Requested rendering (`"format":"text"` for the scrape form).
        format: StatsFormat,
    },
    /// Graceful shutdown.
    Shutdown,
    /// Compile an expression to a selected program.
    Compile(CompileSpec),
    /// Compile (or fetch) and execute over one environment of vectors.
    Run {
        /// What to compile.
        spec: CompileSpec,
        /// Variable name → lane values, one vector per free variable.
        inputs: Vec<(String, Vec<i128>)>,
    },
    /// Compile (or fetch) a stencil pipeline and run it over whole
    /// images with the tiled parallel runner.
    RunPipeline {
        /// What to compile (the expression must be over taps).
        spec: CompileSpec,
        /// Buffer name → image.
        inputs: Vec<(String, ImageSpec)>,
        /// Worker threads for the tiled runner.
        jobs: usize,
    },
    /// A sibling daemon asks the owner of a cache key for its artifact
    /// in portable form (fleet miss forwarding). Carries the full
    /// structured key — the requester's and owner's keys must be equal,
    /// not merely share a fingerprint.
    PeerGet {
        /// The key's compile half, parsed exactly like `compile`'s.
        spec: CompileSpec,
        /// The requester's rule-set fingerprint for this configuration;
        /// the owner answers `found: false` on a mismatch.
        rules_fp: u64,
    },
}

fn bad(msg: impl Into<String>) -> ServiceError {
    ServiceError::BadRequest(msg.into())
}

/// Parse `"x86" | "arm" | "hvx" | "rvv"` (the `Isa::short_name`
/// vocabulary, case-insensitive; new registry backends are accepted
/// automatically).
pub fn parse_isa(s: &str) -> Result<Isa, ServiceError> {
    fpir::machine::ALL_ISAS.into_iter().find(|i| i.short_name().eq_ignore_ascii_case(s)).ok_or_else(
        || {
            let known: Vec<String> = fpir::machine::ALL_ISAS
                .into_iter()
                .map(|i| i.short_name().to_lowercase())
                .collect();
            bad(format!("unknown isa `{s}` (expected one of: {})", known.join(", ")))
        },
    )
}

/// Parse `"u8" | "i16" | ...` (the `ScalarType` display vocabulary).
pub fn parse_elem(s: &str) -> Result<ScalarType, ServiceError> {
    ScalarType::from_name(s).ok_or_else(|| bad(format!("unknown element type `{s}`")))
}

fn parse_spec(v: &Json) -> Result<CompileSpec, ServiceError> {
    let expr = v
        .get("expr")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing string field `expr`"))?
        .to_string();
    let lanes = v
        .get("lanes")
        .and_then(Json::as_int)
        .ok_or_else(|| bad("missing integer field `lanes`"))?;
    let lanes = u32::try_from(lanes)
        .ok()
        .filter(|l| (1..=4096).contains(l))
        .ok_or_else(|| bad("`lanes` must be an integer in 1..=4096"))?;
    let isa = parse_isa(
        v.get("isa").and_then(Json::as_str).ok_or_else(|| bad("missing string field `isa`"))?,
    )?;
    // The selector has one rewriter: there is no engine to choose.
    if v.get("engine").is_some() {
        return Err(bad("`engine` is not a request option"));
    }
    let synthesized_rules = match v.get("synthesized_rules") {
        None => true,
        Some(b) => b.as_bool().ok_or_else(|| bad("`synthesized_rules` must be a boolean"))?,
    };
    let leave_out = match v.get("leave_out") {
        None | Some(Json::Null) => None,
        Some(s) => Some(s.as_str().ok_or_else(|| bad("`leave_out` must be a string"))?.to_string()),
    };
    let timeout_ms = match v.get("timeout_ms") {
        None | Some(Json::Null) => None,
        Some(n) => Some(
            n.as_int()
                .and_then(|n| u64::try_from(n).ok())
                .filter(|&n| n > 0)
                .ok_or_else(|| bad("`timeout_ms` must be a positive integer"))?,
        ),
    };
    Ok(CompileSpec { expr, lanes, isa, synthesized_rules, leave_out, timeout_ms })
}

fn parse_lane_list(v: &Json) -> Result<Vec<i128>, ServiceError> {
    v.as_array()
        .ok_or_else(|| bad("input vector must be an array of integers"))?
        .iter()
        .map(|x| x.as_int().ok_or_else(|| bad("input lanes must be integers")))
        .collect()
}

fn parse_run_inputs(v: &Json) -> Result<Vec<(String, Vec<i128>)>, ServiceError> {
    let obj = v
        .get("inputs")
        .and_then(Json::as_object)
        .ok_or_else(|| bad("missing object field `inputs`"))?;
    obj.iter().map(|(name, lanes)| Ok((name.clone(), parse_lane_list(lanes)?))).collect()
}

fn parse_image(name: &str, v: &Json) -> Result<ImageSpec, ServiceError> {
    let elem = parse_elem(
        v.get("elem")
            .and_then(Json::as_str)
            .ok_or_else(|| bad(format!("input `{name}`: missing string field `elem`")))?,
    )?;
    let rows_json = v
        .get("rows")
        .and_then(Json::as_array)
        .ok_or_else(|| bad(format!("input `{name}`: missing array field `rows`")))?;
    if rows_json.is_empty() {
        return Err(bad(format!("input `{name}`: image has no rows")));
    }
    let mut rows = Vec::with_capacity(rows_json.len());
    for row in rows_json {
        rows.push(
            parse_lane_list(row)
                .map_err(|_| bad(format!("input `{name}`: rows must be arrays of integers")))?,
        );
    }
    let width = rows[0].len();
    if width == 0 {
        return Err(bad(format!("input `{name}`: image has zero width")));
    }
    if rows.iter().any(|r| r.len() != width) {
        return Err(bad(format!("input `{name}`: rows have unequal lengths")));
    }
    for &px in rows.iter().flatten() {
        if !elem.contains(px) {
            return Err(bad(format!("input `{name}`: pixel {px} does not fit in {elem}")));
        }
    }
    Ok(ImageSpec { elem, rows })
}

/// Parse and validate one request frame.
///
/// # Errors
///
/// [`ServiceError::BadRequest`] describing the first problem found.
pub fn parse_request(v: &Json) -> Result<Request, ServiceError> {
    let op = v.get("op").and_then(Json::as_str).ok_or_else(|| bad("missing string field `op`"))?;
    match op {
        "ping" => Ok(Request::Ping),
        "stats" => {
            let format = match v.get("format") {
                None | Some(Json::Null) => StatsFormat::Json,
                Some(f) => match f.as_str() {
                    Some("json") => StatsFormat::Json,
                    Some("text") => StatsFormat::Text,
                    _ => return Err(bad("`format` must be \"json\" or \"text\"")),
                },
            };
            Ok(Request::Stats { format })
        }
        "shutdown" => Ok(Request::Shutdown),
        "compile" => Ok(Request::Compile(parse_spec(v)?)),
        "run" => Ok(Request::Run { spec: parse_spec(v)?, inputs: parse_run_inputs(v)? }),
        "run_pipeline" => {
            let spec = parse_spec(v)?;
            let obj = v
                .get("inputs")
                .and_then(Json::as_object)
                .ok_or_else(|| bad("missing object field `inputs`"))?;
            let mut inputs = Vec::with_capacity(obj.len());
            for (name, img) in obj {
                inputs.push((name.clone(), parse_image(name, img)?));
            }
            let jobs = match v.get("jobs") {
                None => 1,
                Some(n) => n
                    .as_int()
                    .and_then(|n| usize::try_from(n).ok())
                    .filter(|&n| (1..=256).contains(&n))
                    .ok_or_else(|| bad("`jobs` must be an integer in 1..=256"))?,
            };
            Ok(Request::RunPipeline { spec, inputs, jobs })
        }
        "peer_get" => {
            let spec = parse_spec(v)?;
            let rules_fp = v
                .get("rules_fp")
                .and_then(Json::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or_else(|| bad("missing hex string field `rules_fp`"))?;
            Ok(Request::PeerGet { spec, rules_fp })
        }
        other => Err(bad(format!("unknown op `{other}`"))),
    }
}

/// Build the `peer_get` request frame for one cache key.
pub fn peer_get_frame(key: &crate::key::CacheKey) -> Json {
    let mut members = vec![
        ("op".into(), Json::str("peer_get")),
        ("expr".into(), Json::str(key.expr.clone())),
        ("lanes".into(), Json::Int(key.lanes as i128)),
        ("isa".into(), Json::str(key.isa.short_name())),
        ("synthesized_rules".into(), Json::Bool(key.synthesized_rules)),
        ("rules_fp".into(), Json::str(format!("{:016x}", key.rules_fp))),
    ];
    if let Some(l) = &key.leave_out {
        members.insert(5, ("leave_out".into(), Json::str(l.clone())));
    }
    Json::Object(members)
}

/// The error answered in place of a response that would not fit in one
/// frame.
pub(crate) fn frame_too_large() -> ServiceError {
    ServiceError::Internal("response exceeds the 16 MiB frame limit".into())
}

/// The `{"ok": false, ...}` response for an error.
pub fn error_response(e: &ServiceError) -> Json {
    Json::Object(vec![
        ("ok".into(), Json::Bool(false)),
        ("code".into(), Json::str(e.code())),
        ("error".into(), Json::str(e.to_string())),
    ])
}

/// Start an `{"ok": true, ...}` response with `rest` appended.
pub fn ok_response(rest: Vec<(String, Json)>) -> Json {
    let mut members = vec![("ok".into(), Json::Bool(true))];
    members.extend(rest);
    Json::Object(members)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(src: &str) -> Result<Request, ServiceError> {
        parse_request(&parse(src).unwrap())
    }

    #[test]
    fn frames_round_trip() {
        let v = parse(r#"{"op":"ping","payload":[1,2,3]}"#).unwrap();
        let mut buf = Vec::new();
        write_frame(&mut buf, &v).unwrap();
        write_frame(&mut buf, &Json::Null).unwrap();
        let mut r = io::Cursor::new(buf);
        let mut fr = FrameReader::new();
        assert_eq!(fr.next_frame(&mut r).unwrap(), Some(v));
        assert_eq!(fr.next_frame(&mut r).unwrap(), Some(Json::Null));
        assert_eq!(fr.next_frame(&mut r).unwrap(), None, "clean EOF");
    }

    /// Yields a stream one byte at a time, interleaving a `TimedOut`
    /// error before every byte — the worst case a 50ms read timeout can
    /// produce on a slow peer.
    struct DribbleReader {
        data: Vec<u8>,
        pos: usize,
        ready: bool,
    }

    impl Read for DribbleReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if !self.ready {
                self.ready = true;
                return Err(io::Error::new(io::ErrorKind::TimedOut, "simulated timeout"));
            }
            self.ready = false;
            if self.pos >= self.data.len() {
                return Ok(0);
            }
            buf[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn frame_reader_survives_timeouts_mid_frame() {
        let a = parse(r#"{"op":"ping","payload":[1,2,3]}"#).unwrap();
        let b = parse(r#"{"op":"stats"}"#).unwrap();
        let mut data = Vec::new();
        write_frame(&mut data, &a).unwrap();
        write_frame(&mut data, &b).unwrap();
        let mut r = DribbleReader { data, pos: 0, ready: false };
        let mut fr = FrameReader::new();
        let mut frames = Vec::new();
        loop {
            match fr.next_frame(&mut r) {
                Ok(Some(v)) => frames.push(v),
                Ok(None) => break,
                Err(e) if e.kind() == io::ErrorKind::TimedOut => continue,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(frames, vec![a, b], "frames must decode intact despite per-byte timeouts");
    }

    #[test]
    fn frame_reader_reports_eof_mid_frame() {
        let mut data = Vec::new();
        write_frame(&mut data, &Json::str("hello")).unwrap();
        data.truncate(data.len() - 2);
        let mut r = io::Cursor::new(data);
        let mut fr = FrameReader::new();
        let err = fr.next_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn frame_reader_rejects_oversized_length_without_reading_body() {
        let mut data = Vec::from(u32::MAX.to_be_bytes());
        data.extend_from_slice(b"xxxx");
        let mut r = io::Cursor::new(data);
        let mut fr = FrameReader::new();
        let err = fr.next_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn simple_ops_parse() {
        assert_eq!(req(r#"{"op":"ping"}"#).unwrap(), Request::Ping);
        assert_eq!(req(r#"{"op":"stats"}"#).unwrap(), Request::Stats { format: StatsFormat::Json });
        assert_eq!(
            req(r#"{"op":"stats","format":"text"}"#).unwrap(),
            Request::Stats { format: StatsFormat::Text }
        );
        assert!(req(r#"{"op":"stats","format":"xml"}"#).is_err());
        assert_eq!(req(r#"{"op":"shutdown"}"#).unwrap(), Request::Shutdown);
    }

    #[test]
    fn tags_extract_and_attach() {
        let f = parse(r#"{"op":"ping","tag":7}"#).unwrap();
        assert_eq!(request_tag(&f).unwrap(), Some(Json::Int(7)));
        let f = parse(r#"{"op":"ping","tag":"req-1"}"#).unwrap();
        assert_eq!(request_tag(&f).unwrap(), Some(Json::str("req-1")));
        let f = parse(r#"{"op":"ping"}"#).unwrap();
        assert_eq!(request_tag(&f).unwrap(), None);
        let f = parse(r#"{"op":"ping","tag":null}"#).unwrap();
        assert_eq!(request_tag(&f).unwrap(), None);
        let f = parse(r#"{"op":"ping","tag":[1]}"#).unwrap();
        assert!(request_tag(&f).is_err());
        let long = format!(r#"{{"op":"ping","tag":"{}"}}"#, "x".repeat(MAX_TAG_STRING + 1));
        assert!(request_tag(&parse(&long).unwrap()).is_err());

        // Splicing into a rendering gives the object with the tag as
        // its final member.
        let mut rendered = ok_response(vec![("pong".into(), Json::Bool(true))]).render();
        attach_tag_rendered(&mut rendered, &Json::Int(7));
        let tagged =
            ok_response(vec![("pong".into(), Json::Bool(true)), ("tag".into(), Json::Int(7))]);
        assert_eq!(tagged.render(), rendered);
        assert_eq!(parse(&rendered).unwrap().get("tag"), Some(&Json::Int(7)));
    }

    #[test]
    fn frame_writer_round_trips_through_partial_writes() {
        /// Accepts at most `cap` bytes per call, interleaving a
        /// `WouldBlock` before every acceptance.
        struct ChokedSink {
            out: Vec<u8>,
            cap: usize,
            ready: bool,
        }
        impl Write for ChokedSink {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if !self.ready {
                    self.ready = true;
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
                }
                self.ready = false;
                let n = buf.len().min(self.cap);
                self.out.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let frames: Vec<Json> = vec![
            parse(r#"{"ok":true,"pong":true}"#).unwrap(),
            Json::str("x".repeat(100)),
            parse(r#"{"ok":false,"code":"overloaded"}"#).unwrap(),
        ];
        for cap in [1, 3, 7, 64] {
            let mut w = FrameWriter::new(1 << 20);
            for f in &frames {
                w.queue_rendered(f.render()).unwrap();
            }
            let mut sink = ChokedSink { out: Vec::new(), cap, ready: false };
            while !w.is_empty() {
                w.write_some(&mut sink).unwrap();
            }
            assert_eq!(w.queued_bytes(), 0);
            let mut r = io::Cursor::new(sink.out);
            let mut fr = FrameReader::new();
            for f in &frames {
                assert_eq!(fr.next_frame(&mut r).unwrap().as_ref(), Some(f), "cap={cap}");
            }
            assert_eq!(fr.next_frame(&mut r).unwrap(), None);
        }
    }

    #[test]
    fn frame_writer_bounds_backlog_but_admits_one_frame() {
        let mut w = FrameWriter::new(16);
        // First frame always admitted, even over budget.
        w.queue_rendered(Json::str("a".repeat(64)).render()).unwrap();
        // Second refused: backlog over 16 bytes.
        assert_eq!(w.queue_rendered(Json::Bool(true).render()), Err(WriteOverflow));
        // Drain, then small frames fit again.
        let mut out = Vec::new();
        w.write_some(&mut out).unwrap();
        assert!(w.is_empty());
        w.queue_rendered(Json::Bool(true).render()).unwrap();
    }

    #[test]
    fn seal_drops_undelivered_frames_and_keeps_partial_front() {
        struct OneByte(Vec<u8>, bool);
        impl Write for OneByte {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.1 {
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
                }
                self.1 = true;
                self.0.push(buf[0]);
                Ok(1)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let a = Json::str("first");
        let b = Json::str("second-never-delivered");
        let sealed_with = parse(r#"{"ok":false,"code":"overloaded"}"#).unwrap();

        let mut w = FrameWriter::new(1 << 20);
        w.queue_rendered(a.render()).unwrap();
        w.queue_rendered(b.render()).unwrap();
        // One byte of `a` reaches the wire, then the socket jams.
        let mut sink = OneByte(Vec::new(), false);
        w.write_some(&mut sink).unwrap();
        assert_eq!(sink.0.len(), 1);

        w.seal(&sealed_with);
        assert!(w.is_sealed());
        assert_eq!(
            w.queue_rendered(Json::Null.render()),
            Err(WriteOverflow),
            "sealed writers refuse frames"
        );
        // Finish the stream: the partial front frame completes, `b` is
        // gone, the seal frame is last.
        let mut rest = Vec::new();
        while !w.is_empty() {
            w.write_some(&mut rest).unwrap();
        }
        let mut bytes = sink.0;
        bytes.extend_from_slice(&rest);
        let mut r = io::Cursor::new(bytes);
        let mut fr = FrameReader::new();
        assert_eq!(fr.next_frame(&mut r).unwrap(), Some(a));
        assert_eq!(fr.next_frame(&mut r).unwrap(), Some(sealed_with));
        assert_eq!(fr.next_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn seal_with_nothing_written_sends_only_the_seal() {
        let mut w = FrameWriter::new(1 << 20);
        w.queue_rendered(Json::str("undelivered").render()).unwrap();
        let sealed_with = parse(r#"{"ok":false,"code":"overloaded"}"#).unwrap();
        w.seal(&sealed_with);
        let mut out = Vec::new();
        w.write_some(&mut out).unwrap();
        let mut r = io::Cursor::new(out);
        let mut fr = FrameReader::new();
        assert_eq!(fr.next_frame(&mut r).unwrap(), Some(sealed_with));
        assert_eq!(fr.next_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn compile_request_parses_with_defaults() {
        let r = req(r#"{"op":"compile","expr":"a_u8 + b_u8","lanes":16,"isa":"arm"}"#).unwrap();
        match r {
            Request::Compile(spec) => {
                assert_eq!(spec.expr, "a_u8 + b_u8");
                assert_eq!(spec.lanes, 16);
                assert_eq!(spec.isa, Isa::ArmNeon);
                assert!(spec.synthesized_rules);
                assert_eq!(spec.leave_out, None);
                assert_eq!(spec.timeout_ms, None);
            }
            other => panic!("wrong request {other:?}"),
        }
    }

    #[test]
    fn compile_request_honors_every_knob() {
        let r = req(r#"{"op":"compile","expr":"x_u8","lanes":8,"isa":"hvx",
                "synthesized_rules":false,"leave_out":"blur","timeout_ms":250}"#)
        .unwrap();
        match r {
            Request::Compile(spec) => {
                assert_eq!(spec.isa, Isa::HexagonHvx);
                assert!(!spec.synthesized_rules);
                assert_eq!(spec.leave_out.as_deref(), Some("blur"));
                assert_eq!(spec.timeout_ms, Some(250));
            }
            other => panic!("wrong request {other:?}"),
        }
    }

    #[test]
    fn run_request_parses_inputs() {
        let r = req(r#"{"op":"run","expr":"a_u8 + b_u8","lanes":4,"isa":"x86",
                "inputs":{"a_u8":[1,2,3,4],"b_u8":[5,6,7,8]}}"#)
        .unwrap();
        match r {
            Request::Run { inputs, .. } => {
                assert_eq!(inputs.len(), 2);
                assert_eq!(inputs[0], ("a_u8".to_string(), vec![1, 2, 3, 4]));
            }
            other => panic!("wrong request {other:?}"),
        }
    }

    #[test]
    fn pipeline_request_validates_images() {
        let good = req(r#"{"op":"run_pipeline","expr":"in__p0_p0_u8","lanes":4,"isa":"arm",
                "inputs":{"in":{"elem":"u8","rows":[[1,2],[3,4]]}},"jobs":2}"#)
        .unwrap();
        match good {
            Request::RunPipeline { inputs, jobs, .. } => {
                assert_eq!(jobs, 2);
                assert_eq!(inputs[0].1.elem, ScalarType::U8);
                assert_eq!(inputs[0].1.rows, vec![vec![1, 2], vec![3, 4]]);
            }
            other => panic!("wrong request {other:?}"),
        }
        // Ragged rows, out-of-range pixels, empty images: all rejected.
        for bad in [
            r#"{"op":"run_pipeline","expr":"x_u8","lanes":4,"isa":"arm",
                "inputs":{"in":{"elem":"u8","rows":[[1,2],[3]]}}}"#,
            r#"{"op":"run_pipeline","expr":"x_u8","lanes":4,"isa":"arm",
                "inputs":{"in":{"elem":"u8","rows":[[1,256]]}}}"#,
            r#"{"op":"run_pipeline","expr":"x_u8","lanes":4,"isa":"arm",
                "inputs":{"in":{"elem":"u8","rows":[]}}}"#,
        ] {
            assert!(req(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn malformed_requests_name_the_problem() {
        for (src, needle) in [
            (r#"{}"#, "op"),
            (r#"{"op":"warp"}"#, "unknown op"),
            (r#"{"op":"compile","lanes":4,"isa":"arm"}"#, "expr"),
            (r#"{"op":"compile","expr":"x_u8","isa":"arm"}"#, "lanes"),
            (r#"{"op":"compile","expr":"x_u8","lanes":0,"isa":"arm"}"#, "lanes"),
            (r#"{"op":"compile","expr":"x_u8","lanes":4}"#, "isa"),
            (r#"{"op":"compile","expr":"x_u8","lanes":4,"isa":"mips"}"#, "unknown isa"),
            (r#"{"op":"compile","expr":"x_u8","lanes":4,"isa":"arm","timeout_ms":0}"#, "timeout"),
            (r#"{"op":"run","expr":"x_u8","lanes":4,"isa":"arm"}"#, "inputs"),
        ] {
            let err = req(src).unwrap_err();
            assert!(err.to_string().contains(needle), "{src}: error {err} should mention {needle}");
        }
    }

    #[test]
    fn engine_member_is_rejected() {
        let compile = |engine: &str| {
            req(&format!(r#"{{"op":"compile","expr":"x_u8","lanes":4,"isa":"arm"{engine}}}"#))
        };
        assert!(compile("").is_ok());
        for engine in [
            r#","engine":"fast""#,
            r#","engine":"reference""#,
            r#","engine":"warp""#,
            r#","engine":1"#,
        ] {
            let err = compile(engine).unwrap_err();
            assert_eq!(err.code(), "bad_request", "{engine}");
            assert!(err.to_string().contains("engine"), "{engine}: {err}");
        }
        // An older peer's `peer_get` names the fast engine: it fails like
        // any other malformed peer request.
        let old_peer = req(r#"{"op":"peer_get","expr":"x_u8","lanes":4,"isa":"arm",
                "engine":"fast","synthesized_rules":true,"rules_fp":"00000000000000ff","tag":1}"#)
        .unwrap_err();
        assert_eq!(old_peer.code(), "bad_request");
    }

    #[test]
    fn peer_get_frame_round_trips_the_key() {
        use crate::key::{tests::key_for, CacheKey};
        use pitchfork::Config;
        let expr = fpir::parser::parse_expr("u8(min(u16(a_u8) + u16(b_u8), 255))", 16).unwrap();
        let full = Config::new(Isa::ArmNeon);
        let left_out = Config::new(Isa::X86Avx2).hand_written_only().leaving_out("blur");
        for cfg in [full, left_out] {
            let key = key_for(&cfg, &expr);
            let frame = peer_get_frame(&key);
            assert!(frame.get("engine").is_none(), "peer_get no longer names an engine");
            let Ok(Request::PeerGet { spec, rules_fp }) = parse_request(&frame) else {
                panic!("a peer_get frame must parse as peer_get");
            };
            assert_eq!(CacheKey::for_spec(&spec, &expr, rules_fp), key);
        }
    }

    #[test]
    fn error_response_shape() {
        let e = ServiceError::Overloaded;
        let v = error_response(&e);
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("code").unwrap().as_str(), Some("overloaded"));
    }
}
