//! A long-running worker pool with a **bounded** submission queue.
//!
//! [`Pool`](crate::Pool) opens a `thread::scope` per call — the right
//! shape for one-shot fan-out, the wrong one for a *service* that must
//! accept work from many connection handlers concurrently and **shed
//! load** instead of queueing without bound. [`TaskQueue`] is the serving
//! counterpart:
//!
//! * a fixed set of worker threads started once and kept warm;
//! * a bounded FIFO — [`TaskQueue::submit_batch`] admits a batch's
//!   prefix up to `capacity` waiting tasks and reports how many it took,
//!   so a burst beyond the configured depth is rejected at admission
//!   time rather than piling up latency for everyone behind it;
//! * observable depth ([`TaskQueue::depth`]) and in-flight count
//!   ([`TaskQueue::active`]) for a `/stats` endpoint;
//! * a clean [`TaskQueue::shutdown`]: already-accepted tasks finish,
//!   workers join, later submissions are refused.
//!
//! Tasks are plain `FnOnce` closures; results travel back to the
//! submitter through whatever channel the closure captured (the
//! service's event loop pushes onto a shared completion list and wakes
//! its poll loop).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A unit of work for a [`TaskQueue`].
pub type Task = Box<dyn FnOnce() + Send + 'static>;

struct QueueState {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    ready: Condvar,
    capacity: usize,
    active: AtomicUsize,
}

/// The bounded worker queue. See the [module docs](self).
pub struct TaskQueue {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for TaskQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskQueue")
            .field("workers", &self.workers.len())
            .field("capacity", &self.shared.capacity)
            .field("depth", &self.depth())
            .field("active", &self.active())
            .finish()
    }
}

impl TaskQueue {
    /// Start `workers` threads serving a queue bounded at `capacity`
    /// waiting tasks (both clamped to at least 1).
    pub fn new(workers: usize, capacity: usize) -> TaskQueue {
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState { tasks: VecDeque::new(), shutdown: false }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
            active: AtomicUsize::new(0),
        });
        let workers = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pitchfork-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning a worker thread")
            })
            .collect();
        TaskQueue { shared, workers }
    }

    /// Admit a batch of tasks under one lock acquisition, in order,
    /// stopping at capacity. Returns how many tasks from the front of
    /// `tasks` were admitted; the rest are dropped with the return value
    /// telling the caller which ones (a prefix is always admitted, so
    /// index `>= admitted` was refused). Nothing is admitted once the
    /// queue has been shut down. An event-loop dispatcher uses
    /// this to push one poll iteration's worth of ready requests without
    /// paying a lock round-trip per task.
    pub fn submit_batch(&self, tasks: Vec<Task>) -> usize {
        let mut admitted = 0;
        {
            let mut st = self.shared.state.lock().expect("queue lock");
            if !st.shutdown {
                for task in tasks {
                    if st.tasks.len() >= self.shared.capacity {
                        break;
                    }
                    st.tasks.push_back(task);
                    admitted += 1;
                }
            }
        }
        match admitted {
            0 => {}
            1 => self.shared.ready.notify_one(),
            _ => self.shared.ready.notify_all(),
        }
        admitted
    }

    /// Tasks admitted but not yet started.
    pub fn depth(&self) -> usize {
        self.shared.state.lock().expect("queue lock").tasks.len()
    }

    /// Tasks currently executing on a worker.
    pub fn active(&self) -> usize {
        self.shared.active.load(Ordering::Relaxed)
    }

    /// The configured waiting-task bound.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Stop accepting work, finish everything already admitted, and join
    /// the workers.
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    fn begin_shutdown(&self) {
        let mut st = self.shared.state.lock().expect("queue lock");
        st.shutdown = true;
        drop(st);
        self.shared.ready.notify_all();
    }
}

impl Drop for TaskQueue {
    fn drop(&mut self) {
        self.begin_shutdown();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let task = {
            let mut st = shared.state.lock().expect("queue lock");
            loop {
                if let Some(t) = st.tasks.pop_front() {
                    break t;
                }
                if st.shutdown {
                    return;
                }
                st = shared.ready.wait(st).expect("queue lock");
            }
        };
        shared.active.fetch_add(1, Ordering::Relaxed);
        // A panicking task must not kill the worker: catch, count the
        // worker back out, and keep serving. The submitter's reply cell
        // is dropped unfilled, which its waiter observes as a failure.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
        shared.active.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Submit one task; whether the queue admitted it.
    fn submit(q: &TaskQueue, task: impl FnOnce() + Send + 'static) -> bool {
        q.submit_batch(vec![Box::new(task)]) == 1
    }

    /// A task that parks its worker until the returned gate opens.
    fn parked(q: &TaskQueue) -> Arc<(Mutex<bool>, Condvar)> {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        assert!(submit(q, move || {
            let (m, cv) = &*g;
            let mut open = m.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        }));
        // Wait for the worker to pick the blocker up (depth back to 0).
        while q.active() == 0 {
            std::thread::yield_now();
        }
        gate
    }

    fn open(gate: &(Mutex<bool>, Condvar)) {
        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();
    }

    #[test]
    fn runs_submitted_tasks() {
        let q = TaskQueue::new(4, 64);
        let counter = Arc::new(AtomicU64::new(0));
        let (tx, rx) = mpsc::channel();
        for _ in 0..50 {
            let counter = Arc::clone(&counter);
            let tx = tx.clone();
            assert!(submit(&q, move || {
                counter.fetch_add(1, Ordering::Relaxed);
                tx.send(()).unwrap();
            }));
        }
        for _ in 0..50 {
            rx.recv_timeout(Duration::from_secs(10)).unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 50);
        q.shutdown();
    }

    #[test]
    fn sheds_when_full() {
        // One worker blocked on a gate; capacity 2 admits exactly two
        // more tasks, the third submission is refused.
        let q = TaskQueue::new(1, 2);
        let gate = parked(&q);
        assert!(submit(&q, || {}));
        assert!(submit(&q, || {}));
        assert!(!submit(&q, || {}));
        assert_eq!(q.depth(), 2);
        open(&gate);
        q.shutdown();
    }

    #[test]
    fn batch_submission_admits_a_prefix() {
        // One worker parked on a gate; capacity 3 means a batch of 5
        // admits exactly the first 3.
        let q = TaskQueue::new(1, 3);
        let gate = parked(&q);
        let ran = Arc::new(AtomicU64::new(0));
        let batch: Vec<Task> = (0..5)
            .map(|i| {
                let ran = Arc::clone(&ran);
                Box::new(move || {
                    ran.fetch_add(1 << (8 * i), Ordering::Relaxed);
                }) as Task
            })
            .collect();
        assert_eq!(q.submit_batch(batch), 3);
        assert_eq!(q.depth(), 3);
        open(&gate);
        q.shutdown();
        // Exactly tasks 0, 1, 2 ran (the admitted prefix).
        assert_eq!(ran.load(Ordering::Relaxed), 0x010101);
    }

    #[test]
    fn batch_submission_refused_after_shutdown() {
        let q = TaskQueue::new(1, 8);
        q.begin_shutdown();
        assert_eq!(q.submit_batch(vec![Box::new(|| {})]), 0);
        q.shutdown();
    }

    #[test]
    fn shutdown_finishes_admitted_work() {
        let q = TaskQueue::new(2, 128);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            assert!(submit(&q, move || {
                counter.fetch_add(1, Ordering::Relaxed);
            }));
        }
        q.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn panicking_task_does_not_kill_workers() {
        let q = TaskQueue::new(1, 16);
        let (tx, rx) = mpsc::channel();
        assert!(submit(&q, || panic!("boom")));
        assert!(submit(&q, move || tx.send(7).unwrap()));
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), 7);
        q.shutdown();
    }

    #[test]
    fn drop_joins_workers() {
        let q = TaskQueue::new(2, 8);
        let (tx, rx) = mpsc::channel();
        assert!(submit(&q, move || tx.send(()).unwrap()));
        drop(q);
        // The task either ran before shutdown or was drained by it.
        assert!(rx.try_recv().is_ok());
    }

    #[test]
    fn workers_and_capacity_clamped() {
        let q = TaskQueue::new(0, 0);
        assert_eq!(q.workers(), 1);
        assert_eq!(q.capacity(), 1);
        q.shutdown();
    }
}
