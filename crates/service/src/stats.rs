//! Server-wide counters and latency percentiles for `/stats`.
//!
//! Counters are plain atomics (lock-free on the request path). Latencies
//! go into a fixed-capacity ring of microsecond samples; percentiles are
//! computed on demand by sorting a snapshot — `/stats` is rare, requests
//! are not, so the cost lands on the right side.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Capacity of the latency ring (most recent samples win).
const RING_CAP: usize = 4096;

/// Monotonic counters + a latency ring. One per server.
#[derive(Debug, Default)]
pub struct Stats {
    /// Requests received (any kind).
    pub requests: AtomicU64,
    /// Requests answered from the artifact cache.
    pub cache_hits: AtomicU64,
    /// Requests that compiled (led a flight).
    pub cache_misses: AtomicU64,
    /// Requests that joined another request's in-flight compile.
    pub flight_joins: AtomicU64,
    /// Compilations actually executed.
    pub compiles: AtomicU64,
    /// Requests shed by admission control.
    pub sheds: AtomicU64,
    /// Requests that exceeded their deadline.
    pub timeouts: AtomicU64,
    /// Malformed / uncompilable requests.
    pub errors: AtomicU64,
    /// Cache misses refilled from the on-disk spill store instead of
    /// compiling.
    pub disk_hits: AtomicU64,
    /// Artifacts spilled to the on-disk store after a compile.
    pub disk_spills: AtomicU64,
    /// Spill-store entries re-admitted into the cache at startup
    /// (restart-warm).
    pub disk_loaded: AtomicU64,
    /// Spill-store entries that failed validation (checksum, version,
    /// decode) and were unlinked, or whose lowered expression prints
    /// past the frame limit — nonzero values warrant a look.
    pub disk_rejected: AtomicU64,
    /// Spill-store entries unlinked by the size/age GC sweep.
    pub disk_evicted: AtomicU64,
    /// Remote fills: misses answered by a peer's pre-rendered artifact.
    pub peer_hits: AtomicU64,
    /// Peer lookups the owner answered with "not found" (or a rule-set
    /// mismatch); the request compiled locally.
    pub peer_misses: AtomicU64,
    /// Peer lookups abandoned at the peer deadline (→ local compile).
    pub peer_timeouts: AtomicU64,
    /// Peer connect/transport/decode failures, and peer artifacts
    /// whose lowered expression prints past the frame limit (→ local
    /// compile).
    pub peer_errors: AtomicU64,
    /// `peer_get` requests this daemon answered for its siblings.
    pub peer_serves: AtomicU64,
    /// Warm frames answered from the event loop's hot-request memo
    /// without parsing.
    pub hot_hits: AtomicU64,
    /// Connections currently open on the event-loop server (gauge).
    pub open_connections: AtomicU64,
    /// Frames dispatched to workers but not yet answered (gauge).
    pub inflight_frames: AtomicU64,
    /// Depth of the event loop's dispatch queue (gauge, sampled once
    /// per loop iteration).
    pub dispatch_queue_depth: AtomicU64,
    /// Largest batch of ready requests dispatched in one loop
    /// iteration (high-water mark).
    pub dispatch_batch_max: AtomicU64,
    latencies: Mutex<Ring>,
}

#[derive(Debug, Default)]
struct Ring {
    samples_us: Vec<u64>,
    next: usize,
}

/// A point-in-time latency summary in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencySummary {
    /// Samples currently in the ring.
    pub count: usize,
    /// Median.
    pub p50_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Maximum.
    pub max_us: u64,
}

impl Stats {
    /// Fresh, all-zero stats.
    pub fn new() -> Stats {
        Stats::default()
    }

    /// Record one served-request latency.
    pub fn record_latency_us(&self, us: u64) {
        let mut ring = self.latencies.lock().expect("stats lock");
        if ring.samples_us.len() < RING_CAP {
            ring.samples_us.push(us);
        } else {
            let at = ring.next;
            ring.samples_us[at] = us;
        }
        ring.next = (ring.next + 1) % RING_CAP;
    }

    /// Percentiles over the current ring contents.
    pub fn latency_summary(&self) -> LatencySummary {
        let mut snapshot = self.latencies.lock().expect("stats lock").samples_us.clone();
        if snapshot.is_empty() {
            return LatencySummary::default();
        }
        snapshot.sort_unstable();
        let at = |q: f64| {
            let idx = ((snapshot.len() as f64 - 1.0) * q).round() as usize;
            snapshot[idx.min(snapshot.len() - 1)]
        };
        LatencySummary {
            count: snapshot.len(),
            p50_us: at(0.50),
            p99_us: at(0.99),
            max_us: *snapshot.last().expect("non-empty"),
        }
    }

    /// Bump a counter by one (relaxed; these are statistics, not
    /// synchronization).
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Read a counter.
    pub fn read(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Overwrite a gauge (relaxed, same rationale as [`bump`](Self::bump)).
    pub fn set(gauge: &AtomicU64, value: u64) {
        gauge.store(value, Ordering::Relaxed);
    }

    /// Raise a high-water-mark gauge to at least `value`.
    pub fn record_max(gauge: &AtomicU64, value: u64) {
        gauge.fetch_max(value, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_zero() {
        let s = Stats::new();
        assert_eq!(s.latency_summary(), LatencySummary::default());
    }

    #[test]
    fn percentiles_over_known_samples() {
        let s = Stats::new();
        for us in 1..=100 {
            s.record_latency_us(us);
        }
        let sum = s.latency_summary();
        assert_eq!(sum.count, 100);
        assert_eq!(sum.p50_us, 51); // round((99) * 0.5) = 50 → sorted[50] = 51
        assert_eq!(sum.p99_us, 99);
        assert_eq!(sum.max_us, 100);
    }

    #[test]
    fn ring_keeps_most_recent_when_full() {
        let s = Stats::new();
        for us in 0..(RING_CAP as u64 + 10) {
            s.record_latency_us(us);
        }
        let sum = s.latency_summary();
        assert_eq!(sum.count, RING_CAP);
        // 0..=9 were overwritten by the wrap-around.
        assert_eq!(sum.max_us, RING_CAP as u64 + 9);
    }

    #[test]
    fn counters_bump() {
        let s = Stats::new();
        Stats::bump(&s.requests);
        Stats::bump(&s.requests);
        Stats::bump(&s.sheds);
        assert_eq!(Stats::read(&s.requests), 2);
        assert_eq!(Stats::read(&s.sheds), 1);
        assert_eq!(Stats::read(&s.timeouts), 0);
    }

    #[test]
    fn gauges_set_and_high_water() {
        let s = Stats::new();
        Stats::set(&s.open_connections, 5);
        Stats::set(&s.open_connections, 3);
        assert_eq!(Stats::read(&s.open_connections), 3);
        Stats::record_max(&s.dispatch_batch_max, 4);
        Stats::record_max(&s.dispatch_batch_max, 2);
        assert_eq!(Stats::read(&s.dispatch_batch_max), 4);
    }
}
