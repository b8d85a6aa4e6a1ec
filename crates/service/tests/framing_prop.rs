//! Property tests over the v2 framing layer.
//!
//! Strategy: proptest drives a seed; the seed drives a `StdRng` that
//! generates random frame payloads *and* an adversarial delivery
//! schedule — per-call write caps, per-call read caps, and interleaved
//! `WouldBlock` on both sides. Whatever the chunking, a
//! [`FrameWriter`] → bytes → [`FrameReader`] round trip must
//! reconstruct every frame bit-for-bit, and the raw-bytes drain used by
//! the event loop's hot-request memo must agree with the decoding
//! reader.

use pitchfork_service::protocol::{decode_frame, MAX_FRAME};
use pitchfork_service::{attach_tag_rendered, FrameReader, FrameWriter, Json, WriteOverflow};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{self, Read, Write};

/// A random JSON value: nested containers, escapes, non-ASCII text,
/// extreme integers — everything the renderer and parser must agree on.
fn gen_value(rng: &mut StdRng, depth: usize) -> Json {
    let pick = if depth == 0 { rng.gen_range(0..5) } else { rng.gen_range(0..7) };
    match pick {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_bool(0.5)),
        2 => Json::Int(match rng.gen_range(0..3) {
            0 => rng.gen_range(-100..100),
            1 => i128::from(i64::MAX),
            _ => i128::from(i64::MIN),
        }),
        3 | 4 => Json::Str(gen_string(rng)),
        5 => {
            let n = rng.gen_range(0..4);
            Json::Array((0..n).map(|_| gen_value(rng, depth - 1)).collect())
        }
        _ => {
            let n = rng.gen_range(0..4);
            Json::Object((0..n).map(|i| (format!("k{i}"), gen_value(rng, depth - 1))).collect())
        }
    }
}

fn gen_string(rng: &mut StdRng) -> String {
    const ALPHABET: [&str; 8] = ["a", "\"", "\\", "\n", "\t", "é", "λ", "\u{1}"];
    let n = rng.gen_range(0..24);
    (0..n).map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())]).collect()
}

/// Accepts a random number of bytes per `write`, with `WouldBlock`
/// sprinkled in — the kernel-side worst case for a non-blocking socket.
struct ChokedSink<'a> {
    out: Vec<u8>,
    rng: &'a mut StdRng,
}

impl Write for ChokedSink<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.rng.gen_bool(0.3) {
            return Err(io::Error::new(io::ErrorKind::WouldBlock, "send buffer full"));
        }
        let n = buf.len().min(self.rng.gen_range(1..=13));
        self.out.extend_from_slice(&buf[..n]);
        Ok(n)
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Yields a random number of bytes per `read`, with `WouldBlock`
/// sprinkled in — a slow peer dribbling frames across many readiness
/// cycles.
struct ChokedSource<'a> {
    data: Vec<u8>,
    pos: usize,
    rng: &'a mut StdRng,
}

impl Read for ChokedSource<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.rng.gen_bool(0.3) {
            return Err(io::Error::new(io::ErrorKind::WouldBlock, "nothing yet"));
        }
        if self.pos >= self.data.len() {
            return Ok(0);
        }
        let n = (self.data.len() - self.pos).min(buf.len()).min(self.rng.gen_range(1..=13));
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Push every queued frame through an adversarially-chunked sink,
/// returning the wire bytes.
fn drain_writer(w: &mut FrameWriter, rng: &mut StdRng) -> Vec<u8> {
    let mut sink = ChokedSink { out: Vec::new(), rng };
    while !w.is_empty() {
        w.write_some(&mut sink).unwrap();
    }
    assert_eq!(w.queued_bytes(), 0);
    sink.out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// FrameWriter → adversarial socket → FrameReader reconstructs
    /// every frame exactly, whatever the chunk boundaries.
    #[test]
    fn frames_round_trip_through_adversarial_chunking(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let frames: Vec<Json> =
            (0..rng.gen_range(1..8)).map(|_| gen_value(&mut rng, 3)).collect();

        let mut w = FrameWriter::new(MAX_FRAME);
        for f in &frames {
            w.queue_rendered(f.render()).unwrap();
        }
        let bytes = drain_writer(&mut w, &mut rng);

        let mut src = ChokedSource { data: bytes, pos: 0, rng: &mut rng };
        let mut r = FrameReader::new();
        let mut decoded = Vec::new();
        loop {
            match r.next_frame(&mut src) {
                Ok(Some(v)) => decoded.push(v),
                Ok(None) => break,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
                Err(e) => panic!("unexpected framing error: {e}"),
            }
        }
        prop_assert_eq!(&decoded, &frames);
        prop_assert_eq!(r.buffered_bytes(), 0, "no stray bytes after the last frame");
    }

    /// The event loop's raw drain (`fill_from` + `buffered_frame_raw` +
    /// `decode_frame`) sees exactly the frames the decoding reader
    /// would, over the same adversarial chunking.
    #[test]
    fn raw_frame_drain_agrees_with_decoding_reader(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(2654435761).wrapping_add(1));
        let frames: Vec<Json> =
            (0..rng.gen_range(1..8)).map(|_| gen_value(&mut rng, 3)).collect();

        let mut w = FrameWriter::new(MAX_FRAME);
        for f in &frames {
            w.queue_rendered(f.render()).unwrap();
        }
        let bytes = drain_writer(&mut w, &mut rng);

        let mut src = ChokedSource { data: bytes, pos: 0, rng: &mut rng };
        let mut r = FrameReader::new();
        let mut decoded = Vec::new();
        loop {
            // Drain whole buffered frames first, exactly as the event
            // loop does after each readable cycle.
            while let Some(raw) = r.buffered_frame_raw().unwrap() {
                decoded.push(decode_frame(raw).unwrap());
            }
            match r.fill_from(&mut src) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => panic!("unexpected read error: {e}"),
            }
        }
        while let Some(raw) = r.buffered_frame_raw().unwrap() {
            decoded.push(decode_frame(raw).unwrap());
        }
        prop_assert_eq!(&decoded, &frames);
        prop_assert_eq!(r.buffered_bytes(), 0);
    }

    /// Splicing a tag into rendered bytes is indistinguishable from
    /// attaching it to the value and re-rendering, for any response
    /// object and any legal tag.
    #[test]
    fn tag_splice_agrees_with_value_attach(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e3779b97f4a7c15));
        let n = rng.gen_range(0..5);
        let mut members = vec![("ok".to_string(), Json::Bool(true))];
        members.extend((0..n).map(|i| (format!("m{i}"), gen_value(&mut rng, 2))));
        let tag = if rng.gen_bool(0.5) {
            Json::Int(rng.gen_range(-1000..1000))
        } else {
            Json::Str(gen_string(&mut rng))
        };

        let mut rendered = Json::Object(members.clone()).render();
        attach_tag_rendered(&mut rendered, &tag);
        members.push(("tag".to_string(), tag));
        prop_assert_eq!(Json::Object(members).render(), rendered);
    }

    /// The byte budget never refuses the first frame, never admits a
    /// backlog past the budget, and sealing always leaves exactly one
    /// trailing frame queued behind whatever is mid-write.
    #[test]
    fn writer_budget_and_seal_invariants(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdead_beef);
        let budget = rng.gen_range(8..200usize);
        let mut w = FrameWriter::new(budget);
        let mut admitted = 0usize;
        for i in 0..rng.gen_range(1..20) {
            let body = Json::Str("x".repeat(rng.gen_range(0..64)));
            match w.queue_rendered(body.render()) {
                Ok(()) => admitted += 1,
                Err(WriteOverflow) => {
                    prop_assert!(admitted >= 1, "frame {i}: first frame must be admitted");
                    prop_assert!(w.queued_bytes() + 4 + body.render().len() > budget);
                }
            }
        }
        let seal = Json::Str("sealed".to_string());
        w.seal(&seal);
        prop_assert!(w.is_sealed());
        prop_assert_eq!(w.queue_rendered(Json::Null.render()), Err(WriteOverflow));
        // Nothing was written, so the seal replaced the whole backlog.
        prop_assert_eq!(w.queued_frames(), 1);
        let bytes = drain_writer(&mut w, &mut rng);
        let mut r = FrameReader::new();
        let mut src = io::Cursor::new(bytes);
        prop_assert_eq!(r.next_frame(&mut src).unwrap(), Some(seal));
        prop_assert_eq!(r.next_frame(&mut src).unwrap(), None);
    }
}
