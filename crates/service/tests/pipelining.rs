//! End-to-end tests of protocol v2 pipelining against a live event-loop
//! server: out-of-order completion on one connection, fairness across
//! connections, and the bounded-output-queue overload close. (That a
//! deadline counts the wait for a dispatch worker is tested in
//! `eventloop.rs`, whose test seam holds the workers.)
//!
//! Determinism notes. `run_pipeline` requests are *always* dispatched
//! to the worker pool (whole-image runs are real work even when the
//! artifact is warm), while `ping` and cache hits are answered inline
//! by the loop thread — so a pipelined `[run_pipeline, ping, ping]`
//! burst must come back `[ping, ping, run_pipeline]` without any
//! sleep-based timing: the inline replies are queued in the same loop
//! iteration that dispatches the image run, and the completion can only
//! be drained in a later iteration.

use pitchfork_service::{
    serve_with, write_frame, Client, Endpoint, FrameReader, Json, ServeOptions, Service,
    ServiceConfig,
};
use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn parse(src: &str) -> Json {
    pitchfork_service::json::parse(src).unwrap()
}

fn start(
    path: &Path,
    opts: ServeOptions,
    workers: usize,
) -> std::thread::JoinHandle<io::Result<()>> {
    let _ = std::fs::remove_file(path);
    let svc = Arc::new(Service::new(ServiceConfig {
        cache_bytes: 8 << 20,
        workers,
        default_timeout_ms: None,
        cache_dir: None,
        cache_max_bytes: None,
        cache_max_age: None,
    }));
    let ep = Endpoint::Unix(path.to_path_buf());
    std::thread::spawn(move || serve_with(svc, &ep, &opts))
}

fn connect_with_retry(path: &Path) -> UnixStream {
    for _ in 0..100 {
        if let Ok(s) = UnixStream::connect(path) {
            return s;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("server at {} never came up", path.display());
}

fn client_with_retry(path: &Path) -> Client {
    for _ in 0..100 {
        if let Ok(c) = Client::connect(&Endpoint::Unix(path.to_path_buf())) {
            return c;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("server at {} never came up", path.display());
}

fn shutdown(path: &Path) {
    let mut c = client_with_retry(path);
    let bye = c.request(&parse(r#"{"op":"shutdown"}"#)).unwrap();
    assert_eq!(bye.get("stopping").and_then(Json::as_bool), Some(true));
}

/// A `run_pipeline` request over a `rows`×`cols` image — enough pixels
/// that the tiled runner spends real time on a worker thread.
fn image_run(tag: &str, rows: usize, cols: usize) -> Json {
    let row: Vec<String> = (0..cols).map(|c| ((c * 7) % 256).to_string()).collect();
    let row = format!("[{}]", row.join(","));
    let rows_json = vec![row; rows].join(",");
    parse(&format!(
        r#"{{"op":"run_pipeline","expr":"rounding_halving_add(in__p0_p0_u8, in__p1_p0_u8)",
            "lanes":4,"isa":"arm","inputs":{{"in":{{"elem":"u8","rows":[{rows_json}]}}}},
            "jobs":1,"tag":"{tag}"}}"#
    ))
}

/// The next response on `stream`; `reader` keeps bytes that arrived
/// past it for the next call.
fn read_one(reader: &mut FrameReader, stream: &mut UnixStream) -> Option<Json> {
    reader.next_frame(stream).unwrap()
}

#[test]
fn tagged_requests_complete_out_of_order() {
    let path = sock("ooo");
    let server = start(&path, ServeOptions::default(), 2);
    let (mut stream, mut reader) = (connect_with_retry(&path), FrameReader::new());

    // One write syscall carries all three frames: a whole-image run
    // (dispatched to a worker) followed by two pings (answered inline).
    let mut burst = Vec::new();
    write_frame(&mut burst, &image_run("slow", 32, 512)).unwrap();
    write_frame(&mut burst, &parse(r#"{"op":"ping","tag":"a"}"#)).unwrap();
    write_frame(&mut burst, &parse(r#"{"op":"ping","tag":"b"}"#)).unwrap();
    stream.write_all(&burst).unwrap();

    let tags: Vec<String> = (0..3)
        .map(|_| {
            let v = read_one(&mut reader, &mut stream).expect("three responses expected");
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
            v.get("tag").and_then(Json::as_str).expect("tagged response").to_string()
        })
        .collect();
    assert_eq!(tags, ["a", "b", "slow"], "inline replies must overtake the dispatched image run");

    drop(stream);
    shutdown(&path);
    server.join().unwrap().unwrap();
}

#[test]
fn slow_request_on_one_connection_does_not_stall_another() {
    let path = sock("fair");
    let server = start(&path, ServeOptions::default(), 2);
    let mut a = client_with_retry(&path);
    let mut b = client_with_retry(&path);

    let t0 = Instant::now();
    a.send(&image_run("big", 64, 512)).unwrap();
    let reader = std::thread::spawn(move || {
        let v = a.recv().unwrap();
        (t0.elapsed(), v)
    });

    // While the image run occupies a worker, connection B's pings must
    // keep flowing through the loop thread.
    let ping = parse(r#"{"op":"ping"}"#);
    for _ in 0..5 {
        let v = b.request(&ping).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    }
    let b_done = t0.elapsed();

    let (a_done, a_resp) = reader.join().unwrap();
    assert_eq!(a_resp.get("ok").and_then(Json::as_bool), Some(true), "{a_resp:?}");
    assert_eq!(a_resp.get("tag").and_then(Json::as_str), Some("big"));
    assert!(
        b_done < a_done,
        "B's 5 pings ({b_done:?}) should finish before A's image run ({a_done:?})"
    );

    drop(b);
    shutdown(&path);
    server.join().unwrap().unwrap();
}

#[test]
fn pipelining_past_the_output_budget_closes_with_overloaded() {
    let path = sock("ovl");
    // A deliberately tiny response budget: a burst of stats responses
    // overflows it within one dispatch batch.
    let server = start(&path, ServeOptions { outq_bytes: 4096, ..ServeOptions::default() }, 2);
    let (mut stream, mut reader) = (connect_with_retry(&path), FrameReader::new());

    const SENT: usize = 256;
    let mut burst = Vec::new();
    for i in 0..SENT {
        write_frame(&mut burst, &parse(&format!(r#"{{"op":"stats","tag":{i}}}"#))).unwrap();
    }
    stream.write_all(&burst).unwrap();

    let mut answered = 0usize;
    let mut last = None;
    while let Some(v) = read_one(&mut reader, &mut stream) {
        answered += 1;
        last = Some(v);
    }
    let last = last.expect("at least the final overloaded frame must arrive");
    assert!(answered < SENT, "the bounded queue must shed some of {SENT} responses");
    assert_eq!(last.get("ok").and_then(Json::as_bool), Some(false), "{last:?}");
    assert_eq!(last.get("code").and_then(Json::as_str), Some("overloaded"), "{last:?}");
    // The connection is closed after the seal frame; further reads see
    // end-of-stream, not a hang.
    let mut probe = [0u8; 1];
    assert_eq!(stream.read(&mut probe).unwrap(), 0, "clean close after the seal");

    drop(stream);
    shutdown(&path);
    server.join().unwrap().unwrap();
}

/// A unique-per-test socket path under the temp dir.
fn sock(which: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pitchfork-pipe-{which}-{}.sock", std::process::id()))
}
