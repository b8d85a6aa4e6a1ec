//! The daemon fleet: which daemon owns a cache key, and how a daemon
//! that does not own a key fetches the owner's artifact.
//!
//! **Ownership** is rendezvous (highest-random-weight) hashing over the
//! cache-key fingerprint space. Every daemon computes, for each key, a
//! score per node from `FNV64(node_id ‖ 0xff ‖ fingerprint)`; the
//! highest score owns the key. All daemons agree on the owner as long as
//! they agree on the node-id strings (each daemon's own serving address
//! plus its `--peer` addresses — give every daemon the same address
//! book, spelled the same way). Rendezvous hashing has the property the
//! fleet wants: adding or removing one node remaps only the keys that
//! node owned, so a daemon death degrades only its share to local
//! compiles instead of reshuffling the whole space. Ties are broken by
//! the node-id string, never by list position, so the owner is
//! independent of the order peers were configured in.
//!
//! **Fetching.** The fleet's address book answers one question for the
//! artifact cache's single-flight leader (`Service::artifact`), asked
//! after the disk store misses and before a local compile: does the
//! key's owner have the artifact? The fetch is one blocking `peer_get`
//! exchange on a fresh connection, bounded in total (connect, send and
//! receive) by `min(--peer-timeout-ms, the request's deadline)`.
//! Requests for the same key that arrive meanwhile join the leader's
//! flight, so the fleet fetches a key once however many ask. A failed
//! dial or a broken exchange backs that peer off for a second;
//! misses it owns compile locally at once until then. The reply is
//! untrusted: the leader decodes and checks it before serving it.

use crate::eventloop::ServeOptions;
use crate::json::Json;
use crate::key::CacheKey;
use crate::protocol::peer_get_frame;
use crate::server::{Client, Endpoint};
use fpir::identity::FnvHasher;
use std::hash::Hasher;
use std::io;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The rendezvous score of one node for one key fingerprint.
pub fn score(node_id: &str, fp: u64) -> u64 {
    let mut h = FnvHasher::default();
    h.write(node_id.as_bytes());
    // A separator that can't appear in UTF-8 keeps `("ab", fp)` from
    // colliding with a node id ending in the fingerprint's first byte.
    h.write(&[0xff]);
    h.write(&fp.to_le_bytes());
    h.finish()
}

/// Which node owns `fp`: `None` for the local daemon (`self_id`),
/// `Some(i)` for `peers[i]`.
pub fn owner_index(self_id: &str, peers: &[String], fp: u64) -> Option<usize> {
    let mut best: (u64, &str, Option<usize>) = (score(self_id, fp), self_id, None);
    for (i, p) in peers.iter().enumerate() {
        let s = score(p, fp);
        if (s, p.as_str()) > (best.0, best.1) {
            best = (s, p, Some(i));
        }
    }
    best.2
}

/// Redial backoff after a failed dial or a broken exchange: a down
/// daemon costs at most one connect attempt per second.
const PEER_RETRY: Duration = Duration::from_secs(1);

/// What one fetch from a key's owner came back with.
#[derive(Debug)]
pub(crate) enum Fetched {
    /// The owner's `artifact` member, untrusted until decoded.
    Artifact(Json),
    /// The owner answered without an artifact.
    Missing,
    /// The fetch's time bound ran out first.
    TimedOut,
    /// No usable answer: the owner is backed off, unreachable, or broke
    /// the exchange.
    Failed,
}

/// The fleet as one daemon sees it.
#[derive(Debug)]
pub(crate) struct Fleet {
    /// This daemon's rendezvous node id: its serving address in
    /// [`Endpoint`] display form.
    self_id: String,
    peers: Vec<Endpoint>,
    /// `peers[i]` in display form, pre-collected for [`owner_index`].
    ids: Vec<String>,
    /// Per peer: don't redial before this instant.
    retry_at: Vec<Mutex<Option<Instant>>>,
    timeout: Duration,
}

impl Fleet {
    pub(crate) fn new(self_id: &str, opts: &ServeOptions) -> Fleet {
        Fleet {
            self_id: self_id.to_string(),
            peers: opts.peers.clone(),
            ids: opts.peers.iter().map(Endpoint::to_string).collect(),
            retry_at: opts.peers.iter().map(|_| Mutex::new(None)).collect(),
            timeout: Duration::from_millis(opts.peer_timeout_ms.max(1)),
        }
    }

    /// Ask the owner of `key` (whose fingerprint is `fp`) for its
    /// artifact, giving up at `deadline` or after the peer timeout,
    /// whichever comes first. `None` when this daemon owns the key.
    pub(crate) fn fetch(
        &self,
        key: &CacheKey,
        fp: u64,
        deadline: Option<Instant>,
    ) -> Option<Fetched> {
        let owner = owner_index(&self.self_id, &self.ids, fp)?;
        let retry_at = &self.retry_at[owner];
        let now = Instant::now();
        if retry_at
            .lock()
            .expect("a peer's backoff lock is never poisoned")
            .is_some_and(|t| now < t)
        {
            return Some(Fetched::Failed);
        }
        let bound = deadline.map_or(now + self.timeout, |d| d.min(now + self.timeout));
        let reply = Client::dial(&self.peers[owner], Some(bound))
            .and_then(|mut client| client.request_by(&peer_get_frame(key), bound));
        Some(match reply {
            Ok(frame) => {
                let yes = |member| frame.get(member).and_then(Json::as_bool) == Some(true);
                match frame.get("artifact") {
                    Some(art) if yes("ok") && yes("found") => Fetched::Artifact(art.clone()),
                    _ => Fetched::Missing,
                }
            }
            Err(e) if matches!(e.kind(), io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock) => {
                Fetched::TimedOut
            }
            Err(e) => {
                *retry_at.lock().expect("a peer's backoff lock is never poisoned") =
                    Some(Instant::now() + PEER_RETRY);
                eprintln!("pitchforkd: peer {} failed: {e}", self.ids[owner]);
                Fetched::Failed
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn owner_name<'a>(nodes: &'a [&str], fp: u64) -> &'a str {
        nodes.iter().copied().max_by_key(|n| (score(n, fp), *n)).expect("non-empty node list")
    }

    #[test]
    fn every_daemon_agrees_on_the_owner() {
        let nodes = ["unix:/tmp/a.sock", "unix:/tmp/b.sock", "unix:/tmp/c.sock"];
        for fp in 0..500u64 {
            let fp = fp.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let expected = owner_name(&nodes, fp);
            // Each daemon sees itself as self and the others as peers,
            // in whatever order; all three must name the same owner.
            for (i, &me) in nodes.iter().enumerate() {
                let mut peers: Vec<String> = nodes
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, n)| n.to_string())
                    .collect();
                let from_forward = match owner_index(me, &peers, fp) {
                    None => me,
                    Some(k) => &peers[k],
                };
                assert_eq!(from_forward, expected, "daemon {me} fp {fp:x}");
                peers.reverse();
                let from_reversed = match owner_index(me, &peers, fp) {
                    None => me,
                    Some(k) => &peers[k],
                };
                assert_eq!(from_reversed, expected, "order must not matter");
            }
        }
    }

    #[test]
    fn removing_a_node_only_remaps_its_own_keys() {
        let all = ["tcp:10.0.0.1:7777", "tcp:10.0.0.2:7777", "tcp:10.0.0.3:7777"];
        let without_last = &all[..2];
        let mut remapped = 0;
        let mut kept = 0;
        for fp in 0..2000u64 {
            let fp = fp.wrapping_mul(0x2545_f491_4f6c_dd1d);
            let before = owner_name(&all, fp);
            let after = owner_name(without_last, fp);
            if before == all[2] {
                remapped += 1; // its keys must land somewhere else
            } else {
                assert_eq!(before, after, "a surviving node's keys must not move");
                kept += 1;
            }
        }
        assert!(remapped > 0 && kept > 0, "both cases exercised");
    }

    #[test]
    fn ownership_is_roughly_balanced() {
        let nodes = ["unix:/run/pf0", "unix:/run/pf1", "unix:/run/pf2", "unix:/run/pf3"];
        let mut counts = [0usize; 4];
        for fp in 0..4000u64 {
            let fp = fp.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(12345);
            let o = owner_name(&nodes, fp);
            counts[nodes.iter().position(|n| *n == o).unwrap()] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((600..=1400).contains(&c), "node {i} owns {c} of 4000 keys — far from 1/4");
        }
    }
}
