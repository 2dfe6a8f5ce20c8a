//! Deterministic parallel execution: a hand-rolled scoped worker pool.
//!
//! The paper's core argument (§4–§5) is that modular testing decomposes
//! the SOC into *independent* per-core ATPG problems; wrapper/TAM
//! scheduling work treats cores as schedulable parallel jobs. The same
//! independence holds one level down, between the faults of one fault
//! simulation sweep. This module exploits both: a fixed-size pool of
//! workers — the calling thread plus scoped `std::thread`s — pulls job
//! indices from a shared counter, returns `(index, result)` pairs over
//! an mpsc channel, and the caller reassembles results **in job-index
//! order** — so the output of a
//! parallel run is byte-identical to the sequential run at any worker
//! count. No external dependencies (vendor-only policy): plain
//! `std::thread::scope`, atomics and channels.
//!
//! Determinism contract: [`WorkerPool::map`] returns exactly
//! `items.iter().map(f)` (same values, same order) for any pure-per-item
//! `f`, regardless of the worker count or OS scheduling. Jobs that share
//! mutable state through interior mutability (e.g. a common
//! [`RunBudget`](crate::budget::RunBudget) backtrack pool or cancel
//! flag) may observe scheduling-dependent *budget trips*; clean runs are
//! unaffected.
//!
//! Parallelism is one level deep: a map called from a pool worker
//! (including the caller while it works as one) runs on the sequential
//! path, on that worker. So the engines a
//! modular dispatch runs on its workers sweep their faults serially,
//! while an engine called from outside any pool (the monolithic run,
//! after the dispatch has drained) shards its sweeps. The rule depends
//! only on where the call runs, never on the size of the work.
//!
//! A panic inside a job is contained by the pool (other jobs still run)
//! and re-raised on the calling thread after the scope joins, preserving
//! `catch_unwind` semantics for callers that guard the whole map.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

use modsoc_metrics::{Counter, MetricsSink, NullSink};

thread_local! {
    /// Set on every thread a pool map spawns, for its whole life, and on
    /// the calling thread while it works as worker 0.
    static ON_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Resolve a job-count request: `0` means "all available hardware
/// threads" (1 when detection fails); anything else is used as given.
#[must_use]
pub fn effective_jobs(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Nanoseconds since `start`, clamped: `(nanos, saturated)`.
fn elapsed_nanos(start: Instant) -> (u64, bool) {
    match u64::try_from(start.elapsed().as_nanos()) {
        Ok(n) => (n, false),
        Err(_) => (u64::MAX, true),
    }
}

/// A fixed-width scoped worker pool.
///
/// The pool is a *policy* object (how many workers to use); each
/// [`WorkerPool::map`] call works on the calling thread and spawns the
/// other workers inside a `std::thread::scope`, so borrowed data can
/// flow into jobs without `'static` bounds and no idle threads outlive a
/// call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPool {
    jobs: usize,
}

impl Default for WorkerPool {
    fn default() -> WorkerPool {
        WorkerPool::new(1)
    }
}

impl WorkerPool {
    /// A pool with `jobs` workers (`0` means auto — all hardware
    /// threads).
    #[must_use]
    pub fn new(jobs: usize) -> WorkerPool {
        WorkerPool {
            jobs: effective_jobs(jobs),
        }
    }

    /// Worker count.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Workers a map over `items` items runs from the calling thread:
    /// `1` (the sequential path) on a pool worker, else up to one per
    /// item.
    #[must_use]
    pub(crate) fn width(&self, items: usize) -> usize {
        if ON_POOL_WORKER.with(Cell::get) {
            1
        } else {
            self.jobs.min(items)
        }
    }

    /// Map `f` over `items` on the pool, returning results in item
    /// order — byte-identical to `items.iter().enumerate().map(...)`.
    ///
    /// Workers claim indices from a shared atomic counter (dynamic load
    /// balancing: a slow core does not serialize the rest) and send
    /// `(index, result)` pairs back over a channel; the merge step
    /// reorders by index.
    ///
    /// # Panics
    ///
    /// If `f` panics for some item, every other in-flight job still
    /// completes, then the payload of the lowest-index panic is re-raised
    /// here (deterministic choice when several jobs panic).
    pub fn map<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        self.map_with_sink(items, &NullSink, f)
    }

    /// [`WorkerPool::map`] reporting pool utilization into a
    /// [`MetricsSink`]: the submitted task count lands on the
    /// deterministic `pool_tasks` counter (and panics that escape jobs on
    /// `pool_panics`), while each worker contributes a
    /// scheduling-dependent row (tasks claimed, busy wall time); the
    /// sequential path reports itself as worker 0. The mapped results
    /// are byte-identical to [`WorkerPool::map`].
    ///
    /// # Panics
    ///
    /// Same contract as [`WorkerPool::map`].
    pub fn map_with_sink<I, T, F>(&self, items: &[I], sink: &dyn MetricsSink, f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        sink.add(Counter::PoolTasks, items.len() as u64);
        if self.width(items.len()) > 1 {
            return self.map_with_state(items, &mut (), &mut Vec::new(), sink, |(), i, item| {
                f(i, item)
            });
        }
        let start = sink.enabled().then(Instant::now);
        let out = items.iter().enumerate().map(|(i, it)| f(i, it)).collect();
        if let Some(start) = start {
            let (nanos, saturated) = elapsed_nanos(start);
            sink.worker(0, items.len() as u64, nanos, saturated);
        }
        out
    }

    /// [`WorkerPool::map`] with per-worker state: the calling thread
    /// works as worker 0 on `state` itself, and spawned worker `w` on
    /// `spares[w - 1]`. A map that needs more spares than it is given
    /// clones the missing ones from `state`, before the workers start,
    /// and leaves them in `spares`: a caller that maps again with the
    /// same spares starts its workers on the states the last map left,
    /// warm in their caches, and one that passes an empty `Vec` gets
    /// fresh clones each time. The sequential path runs every job on
    /// `state`, touches no spare and reports no worker row. Nothing
    /// lands on `pool_tasks`, so callers whose item count depends on the
    /// worker count (or whose counters are pinned) stay deterministic.
    ///
    /// # Panics
    ///
    /// Same contract as [`WorkerPool::map`].
    pub(crate) fn map_with_state<S, I, T, F>(
        &self,
        items: &[I],
        state: &mut S,
        spares: &mut Vec<S>,
        sink: &dyn MetricsSink,
        f: F,
    ) -> Vec<T>
    where
        S: Clone + Send,
        I: Sync,
        T: Send,
        F: Fn(&mut S, usize, &I) -> T + Sync,
    {
        let workers = self.width(items.len());
        if workers <= 1 {
            return items
                .iter()
                .enumerate()
                .map(|(i, it)| f(state, i, it))
                .collect();
        }

        let next = AtomicUsize::new(0);
        // One worker's life: claim indices until none are left, run each
        // job on `local`, send `(index, result)` back, report the row.
        let work = |w: usize, local: &mut S, tx: mpsc::Sender<(usize, std::thread::Result<T>)>| {
            let mut claimed = 0u64;
            let mut busy_nanos = 0u64;
            let mut saturated = false;
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                // Busy time is job execution only; the gap to the pool's
                // wall time is the worker's idle share.
                let start = sink.enabled().then(Instant::now);
                let result = catch_unwind(AssertUnwindSafe(|| f(local, i, item)));
                if let Some(start) = start {
                    claimed += 1;
                    let (job_nanos, clamped) = elapsed_nanos(start);
                    let (sum, overflow) = busy_nanos.overflowing_add(job_nanos);
                    saturated |= clamped || overflow;
                    busy_nanos = if overflow { u64::MAX } else { sum };
                }
                if tx.send((i, result)).is_err() {
                    break; // receiver gone: scope is unwinding
                }
            }
            if sink.enabled() {
                sink.worker(w, claimed, busy_nanos, saturated);
            }
        };

        let (tx, rx) = mpsc::channel::<(usize, std::thread::Result<T>)>();
        let mut slots: Vec<Option<std::thread::Result<T>>> =
            (0..items.len()).map(|_| None).collect();
        while spares.len() < workers - 1 {
            spares.push(state.clone());
        }
        std::thread::scope(|scope| {
            for (w, local) in (1..workers).zip(spares.iter_mut()) {
                let tx = tx.clone();
                let work = &work;
                scope.spawn(move || {
                    ON_POOL_WORKER.with(|on| on.set(true));
                    work(w, local, tx);
                });
            }
            // The caller counts as a pool worker while it works, so its
            // jobs do not spawn either.
            ON_POOL_WORKER.with(|on| on.set(true));
            work(0, state, tx);
            ON_POOL_WORKER.with(|on| on.set(false));
            for (i, result) in rx {
                slots[i] = Some(result);
            }
        });

        let mut out = Vec::with_capacity(items.len());
        let mut panic_payload = None;
        let mut panics = 0u64;
        for slot in slots {
            match slot.expect("every job index reports exactly once") {
                Ok(v) => out.push(v),
                Err(payload) => {
                    panics += 1;
                    if panic_payload.is_none() {
                        panic_payload = Some(payload);
                    }
                }
            }
        }
        if panics > 0 {
            sink.add(Counter::PoolPanics, panics);
        }
        if let Some(payload) = panic_payload {
            resume_unwind(payload);
        }
        out
    }

    /// [`WorkerPool::map`] over an index range instead of a slice —
    /// convenience for seeded sweeps (`f(i)` for `i` in `0..n`).
    pub fn map_indices<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let indices: Vec<usize> = (0..n).collect();
        self.map(&indices, |_, &i| f(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn map_preserves_order_at_any_width() {
        let items: Vec<u64> = (0..97).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for jobs in [1, 2, 3, 4, 7, 64] {
            let pool = WorkerPool::new(jobs);
            let got = pool.map(&items, |_, &x| x * x + 1);
            assert_eq!(got, expected, "jobs={jobs}");
        }
    }

    #[test]
    fn map_indices_matches_serial() {
        let pool = WorkerPool::new(4);
        assert_eq!(
            pool.map_indices(10, |i| i * 3),
            vec![0, 3, 6, 9, 12, 15, 18, 21, 24, 27]
        );
        assert_eq!(pool.map_indices(0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let pool = WorkerPool::new(8);
        assert_eq!(pool.map(&[] as &[u32], |_, &x| x), Vec::<u32>::new());
        assert_eq!(pool.map(&[5u32], |i, &x| (i, x)), vec![(0, 5)]);
    }

    #[test]
    fn all_workers_participate_on_slow_jobs() {
        // With 4 workers and 8 jobs that each sleep briefly, at least two
        // distinct threads must have executed jobs (smoke test that the
        // pool actually fans out).
        use std::collections::HashSet;
        use std::sync::Mutex;
        let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        let pool = WorkerPool::new(4);
        pool.map_indices(8, |i| {
            std::thread::sleep(std::time::Duration::from_millis(20));
            seen.lock().unwrap().insert(std::thread::current().id());
            i
        });
        assert!(seen.lock().unwrap().len() >= 2);
    }

    #[test]
    fn state_is_cloned_once_per_spawned_worker() {
        #[derive(Debug)]
        struct Counted<'a>(&'a AtomicU64);
        impl Clone for Counted<'_> {
            fn clone(&self) -> Self {
                self.0.fetch_add(1, Ordering::Relaxed);
                Counted(self.0)
            }
        }
        let clones = AtomicU64::new(0);
        let items: Vec<u64> = (0..40).collect();
        for jobs in [1, 3] {
            clones.store(0, Ordering::Relaxed);
            // The second map works on the spares the first one made.
            let mut spares = Vec::new();
            for _ in 0..2 {
                let got = WorkerPool::new(jobs).map_with_state(
                    &items,
                    &mut Counted(&clones),
                    &mut spares,
                    &NullSink,
                    |_, i, &x| (i as u64) + x,
                );
                assert_eq!(got, items.iter().map(|&x| 2 * x).collect::<Vec<_>>());
            }
            let want = jobs as u64 - 1;
            assert_eq!(clones.load(Ordering::Relaxed), want, "jobs={jobs}");
            assert_eq!(spares.len() as u64, want, "jobs={jobs}");
        }
    }

    #[test]
    fn zero_means_auto_and_clamps_to_one() {
        assert!(WorkerPool::new(0).jobs() >= 1);
        assert_eq!(
            WorkerPool::new(0).jobs(),
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        );
        assert_eq!(effective_jobs(3), 3);
        assert!(effective_jobs(0) >= 1);
    }

    #[test]
    fn panic_in_job_is_reraised_after_siblings_finish() {
        let completed = AtomicU64::new(0);
        let pool = WorkerPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.map_indices(16, |i| {
                if i == 5 {
                    panic!("job 5 exploded");
                }
                completed.fetch_add(1, Ordering::Relaxed);
                i
            })
        }));
        let payload = result.expect_err("panic propagates");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "job 5 exploded");
        // Every non-panicking sibling still ran.
        assert_eq!(completed.load(Ordering::Relaxed), 15);
    }

    #[test]
    fn lowest_index_panic_wins_deterministically() {
        let pool = WorkerPool::new(4);
        for _ in 0..8 {
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.map_indices(12, |i| {
                    if i == 3 || i == 9 {
                        panic!("boom {i}");
                    }
                    i
                })
            }));
            let payload = result.expect_err("panic propagates");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert_eq!(msg, "boom 3");
        }
    }
}
