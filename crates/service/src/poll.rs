//! A dependency-free wrapper over `poll(2)` plus a self-pipe waker.
//!
//! The event loop needs exactly three things from the OS that `std`
//! does not expose: wait on many fds at once (`poll`), an fd a worker
//! thread can write to interrupt that wait (`pipe`), and a way to make
//! the pipe non-blocking (`fcntl`). This build environment has no
//! crates registry (no `libc`, no `mio`), so — in the same spirit as
//! the hand-rolled [`Json`](crate::json) codec and the raw `signal`
//! binding in [`server`](crate::server) — the three entry points are
//! declared directly. The `struct pollfd` layout and the flag values
//! are fixed by the Linux ABI this workspace targets. One more binding
//! rides along: `lower_thread_priority`, which the dispatch workers
//! call so that their compiles yield a shared core to the event loop.
//!
//! The [`Waker`] half coalesces wakeups: workers completing many tasks
//! between two loop iterations write at most one byte, so the pipe can
//! never fill up and a wake is never lost (the pending flag is cleared
//! by the loop *before* it drains the completion list).

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{FromRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// There is data to read (`POLLIN`).
pub const POLLIN: i16 = 0x001;
/// Writing will not block (`POLLOUT`).
pub const POLLOUT: i16 = 0x004;
/// Error condition (`POLLERR`; returned in `revents` only).
pub const POLLERR: i16 = 0x008;
/// Peer hung up (`POLLHUP`; returned in `revents` only).
pub const POLLHUP: i16 = 0x010;
/// The fd is not open (`POLLNVAL`; returned in `revents` only).
pub const POLLNVAL: i16 = 0x020;

/// One entry of a poll set — layout-compatible with `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// Watch `fd` for the interest set `events` (`POLLIN` / `POLLOUT`).
    pub fn new(fd: RawFd, events: i16) -> PollFd {
        PollFd { fd, events, revents: 0 }
    }

    /// A read will make progress: data, EOF, or a pending error to
    /// collect (`POLLHUP`/`POLLERR` surface through `read` too).
    pub fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLHUP | POLLERR) != 0
    }

    /// A write will make progress (or fail fast with the pending error).
    pub fn writable(&self) -> bool {
        self.revents & (POLLOUT | POLLERR | POLLHUP) != 0
    }

    /// The fd is in an error state and should be torn down.
    pub fn failed(&self) -> bool {
        self.revents & (POLLERR | POLLNVAL) != 0
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    fn pipe(fds: *mut i32) -> i32;
    fn fcntl(fd: i32, cmd: i32, arg: i32) -> i32;
}

#[cfg(target_os = "linux")]
extern "C" {
    fn gettid() -> i32;
    fn getpriority(which: i32, who: u32) -> i32;
    fn setpriority(which: i32, who: u32, prio: i32) -> i32;
}

/// `which` for [`getpriority`]/[`setpriority`]: one process id — on
/// Linux, where nice values are per thread, one thread id.
#[cfg(target_os = "linux")]
const PRIO_PROCESS: i32 = 0;

/// Raise the calling thread's nice value by 10 (capped at 19), once per
/// thread; later calls on the same thread do nothing. Only the calling
/// thread changes — not the process, not threads it spawned earlier.
/// Raising a nice value needs no privilege, so failure is not expected
/// and is ignored: the thread then just keeps its priority. A no-op off
/// Linux.
pub(crate) fn lower_thread_priority() {
    thread_local! {
        static LOWERED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }
    if LOWERED.replace(true) {
        return;
    }
    #[cfg(target_os = "linux")]
    {
        // SAFETY: gettid takes no arguments and cannot fail.
        let tid = unsafe { gettid() } as u32;
        // SAFETY: plain integer arguments, no memory is passed. Its -1
        // error return is also a valid nice value, but it cannot fail for
        // the caller's own, live thread id.
        let nice = unsafe { getpriority(PRIO_PROCESS, tid) };
        // SAFETY: plain integer arguments, no memory is passed.
        unsafe { setpriority(PRIO_PROCESS, tid, (nice + 10).min(19)) };
    }
}

/// Wait until at least one fd in `fds` is ready or `timeout` elapses.
/// Returns the number of ready fds (0 on timeout). A signal arriving
/// mid-wait (`EINTR`) also returns 0 so the caller re-checks its stop
/// flags — exactly what the server's loop wants from a `SIGTERM`.
///
/// # Errors
///
/// The OS error from `poll(2)` for anything other than `EINTR`.
pub fn poll_fds(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, ms) };
    if rc < 0 {
        let e = io::Error::last_os_error();
        return if e.kind() == io::ErrorKind::Interrupted { Ok(0) } else { Err(e) };
    }
    Ok(rc as usize)
}

/// Put `fd` into non-blocking mode.
fn set_nonblocking(fd: RawFd) -> io::Result<()> {
    const F_GETFL: i32 = 3;
    const F_SETFL: i32 = 4;
    const O_NONBLOCK: i32 = 0o4000;
    let flags = unsafe { fcntl(fd, F_GETFL, 0) };
    if flags < 0 {
        return Err(io::Error::last_os_error());
    }
    if unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// The read half of a wakeup pipe: polled by the event loop.
#[derive(Debug)]
pub struct WakePipe {
    reader: File,
}

impl WakePipe {
    /// The fd to include in the poll set (interest: [`POLLIN`]).
    pub fn fd(&self) -> RawFd {
        use std::os::fd::AsRawFd;
        self.reader.as_raw_fd()
    }

    /// Discard every buffered wake byte (non-blocking).
    pub fn drain(&mut self) {
        let mut buf = [0u8; 64];
        loop {
            match self.reader.read(&mut buf) {
                Ok(0) => return, // write end closed
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return, // WouldBlock: drained
            }
        }
    }
}

/// The write half of a wakeup pipe: shared with worker threads.
///
/// [`wake`](Waker::wake) is idempotent between two
/// [`reset`](Waker::reset) calls — only the first writes a byte — so
/// any number of completions costs at most one pipe write and the pipe
/// cannot fill.
#[derive(Debug)]
pub struct Waker {
    writer: File,
    pending: AtomicBool,
}

impl Waker {
    /// Make the next poll on the read half return immediately.
    pub fn wake(&self) {
        if !self.pending.swap(true, Ordering::SeqCst) {
            // `&File` is `Write`; a full pipe (WouldBlock) already
            // guarantees a wake is pending, so the result is ignorable.
            let _ = (&self.writer).write(&[1u8]);
        }
    }

    /// Re-arm: called by the loop before it drains the completion list,
    /// so a completion pushed after the drain re-triggers a wake.
    pub fn reset(&self) {
        self.pending.store(false, Ordering::SeqCst);
    }
}

/// A connected non-blocking wakeup pipe.
///
/// # Errors
///
/// OS errors from `pipe(2)` / `fcntl(2)`.
pub fn wake_pipe() -> io::Result<(WakePipe, Waker)> {
    let mut fds = [0i32; 2];
    if unsafe { pipe(fds.as_mut_ptr()) } < 0 {
        return Err(io::Error::last_os_error());
    }
    // Wrap immediately so an fcntl failure cannot leak the fds.
    let reader = unsafe { File::from_raw_fd(fds[0]) };
    let writer = unsafe { File::from_raw_fd(fds[1]) };
    use std::os::fd::AsRawFd;
    set_nonblocking(reader.as_raw_fd())?;
    set_nonblocking(writer.as_raw_fd())?;
    Ok((WakePipe { reader }, Waker { writer, pending: AtomicBool::new(false) }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn poll_times_out_on_idle_pipe() {
        let (rx, _tx) = wake_pipe().unwrap();
        let mut fds = [PollFd::new(rx.fd(), POLLIN)];
        let n = poll_fds(&mut fds, Duration::from_millis(10)).unwrap();
        assert_eq!(n, 0);
        assert!(!fds[0].readable());
    }

    #[test]
    fn wake_makes_pipe_readable_and_drain_clears_it() {
        let (mut rx, tx) = wake_pipe().unwrap();
        tx.wake();
        let mut fds = [PollFd::new(rx.fd(), POLLIN)];
        let n = poll_fds(&mut fds, Duration::from_secs(5)).unwrap();
        assert_eq!(n, 1);
        assert!(fds[0].readable());
        tx.reset();
        rx.drain();
        let mut fds = [PollFd::new(rx.fd(), POLLIN)];
        assert_eq!(poll_fds(&mut fds, Duration::from_millis(10)).unwrap(), 0);
    }

    #[test]
    fn wakes_coalesce_until_reset() {
        let (mut rx, tx) = wake_pipe().unwrap();
        // A pipe holds ~64 KiB; a million un-coalesced wakes would jam
        // it. With coalescing this writes exactly one byte per reset
        // window, so the loop below must stay instant.
        for _ in 0..1_000_000 {
            tx.wake();
        }
        let mut buf = [0u8; 16];
        let n = rx.reader.read(&mut buf).unwrap();
        assert_eq!(n, 1, "only the first wake writes");
        tx.reset();
        tx.wake();
        assert_eq!(rx.reader.read(&mut buf).unwrap(), 1);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn lowering_priority_touches_only_the_calling_thread() {
        // SAFETY: integer-only calls on the calling thread's own id.
        let nice = || unsafe { getpriority(PRIO_PROCESS, gettid() as u32) };
        let before = nice();
        let (inherited, lowered, again) = std::thread::spawn(move || {
            let inherited = nice();
            lower_thread_priority();
            let lowered = nice();
            lower_thread_priority();
            (inherited, lowered, nice())
        })
        .join()
        .unwrap();
        assert_eq!(inherited, before, "a new thread starts at its spawner's nice value");
        assert_eq!(lowered, (before + 10).min(19));
        assert_eq!(again, lowered, "once per thread");
        assert_eq!(nice(), before, "the spawner keeps its priority");
    }

    #[test]
    fn waker_is_shareable_across_threads() {
        let (mut rx, tx) = wake_pipe().unwrap();
        let tx = Arc::new(tx);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let tx = Arc::clone(&tx);
                std::thread::spawn(move || tx.wake())
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut fds = [PollFd::new(rx.fd(), POLLIN)];
        assert_eq!(poll_fds(&mut fds, Duration::from_secs(5)).unwrap(), 1);
        rx.drain();
    }
}
