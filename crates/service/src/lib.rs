//! # pitchfork-service — a concurrent compile-and-run daemon
//!
//! The paper's instruction selector is fast enough to sit inside a
//! compiler's inner loop; this crate makes it fast enough to sit behind
//! one socket for *many* compilers. `pitchforkd` keeps one warm
//! selector per configuration (rule sets loaded and indexed once) and
//! serves `compile` and `run` requests over a dependency-free,
//! length-prefixed JSON protocol, backed by:
//!
//! * a **content-addressed artifact cache** ([`cache`]) — keyed by the
//!   expression's structural print, the target ISA, the rule toggles,
//!   and a fingerprint of the loaded rule sets; bounded
//!   in bytes with LRU eviction;
//! * **single-flight deduplication** — N concurrent identical requests
//!   cost one compile, and everyone shares the same `Arc<Artifact>`;
//! * **admission control and deadlines** ([`eventloop`], [`service`]) —
//!   requests that need a worker wait in one bounded dispatch queue
//!   (full queue ⇒ `overloaded`), and a request's `timeout_ms` covers
//!   that wait and its compile, checked between compiler phases, so an
//!   expired request stops selecting instructions instead of finishing
//!   pointlessly;
//! * a **`stats` endpoint** — hit/miss/shed/timeout counters,
//!   dispatch-queue depth, and p50/p99 service latencies.
//!
//! Served results are bit-identical to calling
//! [`pitchfork::compile_to_executable`] directly: the daemon is a cache
//! and a transport, never a different compiler.
//!
//! ## Wire format
//!
//! One request or response per frame; a frame is a 4-byte big-endian
//! byte length followed by that many bytes of UTF-8 JSON. Protocol v2
//! adds an optional `tag` echoed in the response, letting one
//! connection keep many frames in flight and receive responses out of
//! order ([`eventloop`] answers cache hits inline while compiles run on
//! workers). Untagged v1 traffic keeps its strict serial ordering. See
//! [`protocol`] for the request vocabulary and `docs/service.md` for
//! the full protocol reference.
//!
//! Every answer is one rendered body: [`Service`] renders it once (a
//! cached artifact keeps its `compile`-hit body, and every other answer
//! about it splices its own members into that body), and the event loop
//! splices in the tag and applies one size rule — a body past the
//! 16 MiB frame cap is answered with a structured `internal` error on a
//! connection that stays open.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod error;
pub mod eventloop;
pub mod json;
pub mod key;
pub mod peer;
pub mod poll;
pub mod protocol;
pub mod server;
pub mod service;
pub mod stats;
pub mod store;

pub use cache::{Cache, CacheError, CacheStats, Source};
pub use error::ServiceError;
pub use eventloop::ServeOptions;
pub use json::Json;
pub use key::CacheKey;
pub use protocol::{
    attach_tag_rendered, parse_request, request_tag, write_frame, CompileSpec, FrameReader,
    FrameWriter, Request, StatsFormat, WriteOverflow,
};
pub use server::{
    install_signal_handlers, request_stop, reset_signal_stop, serve_with, Client, Endpoint,
};
pub use service::{CacheDecision, Resolved, Service, ServiceConfig};
pub use stats::{LatencySummary, Stats};
pub use store::{DiskStore, StoreError};
