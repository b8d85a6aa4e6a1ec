//! # fpir-pool — a scoped worker pool with deterministic fan-out
//!
//! The offline synthesis pipeline (`fpir-synth`) and the benchmark and
//! lint harnesses parallelize *embarrassingly indexed* work: map a pure
//! function over a slice of corpus entries, candidate indices, or rules.
//! This build environment has no crates registry (rayon is not an
//! option), so the workspace hand-rolls the one primitive it needs on
//! `std::thread::scope`:
//!
//! * a **chunked injector queue** — the input slice is split into chunks
//!   of consecutive indices and workers claim chunks from a shared atomic
//!   cursor (cheap dynamic load balancing, no locks, no channels);
//! * a **deterministic merge** — every chunk remembers its index and the
//!   results are concatenated in ascending chunk order, so
//!   [`Pool::map`] returns exactly what `items.iter().map(f).collect()`
//!   returns, regardless of thread count or scheduling. Callers that need
//!   bit-identical parallel-vs-sequential output (the synthesis
//!   differential gate) get it for free.
//!
//! A `Pool` holds no threads between calls: each [`Pool::map`] opens a
//! `thread::scope`, runs, and joins. That keeps borrowed inputs (`&[T]`)
//! usable without `'static` bounds and makes a pool of one job literally
//! the sequential loop.
//!
//! Worker panics are joined and re-raised on the calling thread with the
//! original payload, so a panicking `f` behaves as it would in the
//! sequential loop.
//!
//! The job count for CLI tools is resolved by [`default_jobs`]:
//! `PITCHFORK_JOBS` overrides `std::thread::available_parallelism()`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod queue;

pub use queue::{Task, TaskQueue};

use std::sync::atomic::{AtomicUsize, Ordering};

/// How many worker threads CLI tools should use by default: the
/// `PITCHFORK_JOBS` environment variable if set to a positive integer,
/// otherwise [`std::thread::available_parallelism`] (1 if unknown).
pub fn default_jobs() -> usize {
    if let Ok(s) = std::env::var("PITCHFORK_JOBS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// A fixed-width worker pool. See the [crate docs](crate) for the design.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    jobs: usize,
}

impl Pool {
    /// A pool running `jobs` workers (clamped to at least 1).
    pub fn new(jobs: usize) -> Pool {
        Pool { jobs: jobs.max(1) }
    }

    /// The single-worker pool: every `map` runs inline on the caller.
    pub fn sequential() -> Pool {
        Pool::new(1)
    }

    /// A pool sized by [`default_jobs`].
    pub fn with_default_jobs() -> Pool {
        Pool::new(default_jobs())
    }

    /// The worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Map `f` over `items`, in parallel, returning results in input
    /// order — the output is identical to `items.iter().map(f).collect()`
    /// for any worker count.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        if self.jobs == 1 || items.len() <= 1 {
            return items.iter().map(f).collect();
        }
        // Several chunks per worker: big enough to amortize the cursor
        // fetch, small enough that an unlucky heavy chunk cannot idle the
        // rest of the pool.
        let chunk = (items.len() / (self.jobs * 4)).max(1);
        let n_chunks = items.len().div_ceil(chunk);
        let workers = self.jobs.min(n_chunks);
        let cursor = AtomicUsize::new(0);

        let per_worker: Vec<Vec<(usize, Vec<R>)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        // Sized for every chunk, so a worker allocates its
                        // list once however many chunks it claims.
                        let mut local: Vec<(usize, Vec<R>)> = Vec::with_capacity(n_chunks);
                        loop {
                            let c = cursor.fetch_add(1, Ordering::Relaxed);
                            if c >= n_chunks {
                                break;
                            }
                            let lo = c * chunk;
                            let hi = (lo + chunk).min(items.len());
                            local.push((c, items[lo..hi].iter().map(&f).collect()));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(v) => v,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });

        let mut chunks: Vec<(usize, Vec<R>)> = per_worker.into_iter().flatten().collect();
        chunks.sort_by_key(|(c, _)| *c);
        chunks.into_iter().flat_map(|(_, v)| v).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        for jobs in [1, 2, 3, 8, 33] {
            let got = Pool::new(jobs).map(&items, |&x| x * x);
            let want: Vec<usize> = items.iter().map(|&x| x * x).collect();
            assert_eq!(got, want, "jobs={jobs}");
        }
    }

    #[test]
    fn uneven_work_still_merges_deterministically() {
        // Work time varies wildly per item; the merge order must not.
        let items: Vec<u64> = (0..64).collect();
        let f = |&x: &u64| -> u64 {
            let spins = (x % 7) * 1000;
            let mut acc = x;
            for i in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            std::hint::black_box(acc);
            x
        };
        let seq = Pool::sequential().map(&items, f);
        for _ in 0..8 {
            assert_eq!(Pool::new(4).map(&items, f), seq);
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<i32> = Vec::new();
        assert!(Pool::new(4).map(&empty, |&x| x).is_empty());
        assert_eq!(Pool::new(4).map(&[7], |&x| x + 1), vec![8]);
    }

    #[test]
    fn more_jobs_than_items() {
        let items = [1, 2, 3];
        assert_eq!(Pool::new(64).map(&items, |&x| x * 2), vec![2, 4, 6]);
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<usize> = (0..100).collect();
        let result = std::panic::catch_unwind(|| {
            Pool::new(4).map(&items, |&x| {
                assert!(x != 57, "boom");
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn jobs_clamped_to_one() {
        assert_eq!(Pool::new(0).jobs(), 1);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }
}
