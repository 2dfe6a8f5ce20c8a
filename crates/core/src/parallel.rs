//! Deterministic parallel execution: a hand-rolled scoped worker pool.
//!
//! The paper's core argument (§4–§5) is that modular testing decomposes
//! the SOC into *independent* per-core ATPG problems; wrapper/TAM
//! scheduling work treats cores as schedulable parallel jobs. This
//! module exploits that independence: a fixed-size pool of scoped
//! `std::thread` workers pulls job indices from a shared counter,
//! returns `(index, result)` pairs over an mpsc channel, and the caller
//! reassembles results **in job-index order** — so the output of a
//! parallel run is byte-identical to the sequential run at any worker
//! count. No external dependencies (vendor-only policy): plain
//! `std::thread::scope`, atomics and channels.
//!
//! Determinism contract: [`WorkerPool::map`] returns exactly
//! `items.iter().map(f)` (same values, same order) for any pure-per-item
//! `f`, regardless of the worker count or OS scheduling. Jobs that share
//! mutable state through interior mutability (e.g. a common
//! [`RunBudget`](crate::runctl::RunBudget) backtrack pool or cancel
//! flag) may observe scheduling-dependent *budget trips*; clean runs are
//! unaffected.
//!
//! A panic inside a job is contained by the pool (other jobs still run)
//! and re-raised on the calling thread after the scope joins, preserving
//! `catch_unwind` semantics for callers that guard the whole map.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

use modsoc_metrics::{Counter, MetricsSink, NullSink};

pub use modsoc_atpg::fault_sim::effective_jobs;

/// A fixed-width scoped worker pool.
///
/// The pool is a *policy* object (how many workers to use); threads are
/// spawned per [`WorkerPool::map`] call inside a `std::thread::scope`,
/// so borrowed data can flow into jobs without `'static` bounds and no
/// idle threads outlive a call.
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
    /// scheduling-dependent row (tasks claimed, busy wall time). The
    /// mapped results are byte-identical to [`WorkerPool::map`].
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
        let workers = self.jobs.min(items.len());
        if workers <= 1 {
            // Sequential fast path: no threads, no channel.
            let start = sink.enabled().then(Instant::now);
            let out: Vec<T> = items.iter().enumerate().map(|(i, it)| f(i, it)).collect();
            if let Some(start) = start {
                let (nanos, saturated) = match u64::try_from(start.elapsed().as_nanos()) {
                    Ok(n) => (n, false),
                    Err(_) => (u64::MAX, true),
                };
                sink.worker(0, items.len() as u64, nanos, saturated);
            }
            return out;
        }

        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, std::thread::Result<T>)>();
        let mut slots: Vec<Option<std::thread::Result<T>>> =
            (0..items.len()).map(|_| None).collect();
        std::thread::scope(|scope| {
            for w in 0..workers {
                let tx = tx.clone();
                let next = &next;
                let f = &f;
                scope.spawn(move || {
                    let mut claimed = 0u64;
                    let mut busy_nanos = 0u64;
                    let mut saturated = false;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        // Busy time is job execution only; the gap to the
                        // pool's wall time is the worker's idle share.
                        let start = sink.enabled().then(Instant::now);
                        let result = catch_unwind(AssertUnwindSafe(|| f(i, item)));
                        if let Some(start) = start {
                            claimed += 1;
                            let job_nanos = match u64::try_from(start.elapsed().as_nanos()) {
                                Ok(n) => n,
                                Err(_) => {
                                    saturated = true;
                                    u64::MAX
                                }
                            };
                            let (sum, overflow) = busy_nanos.overflowing_add(job_nanos);
                            busy_nanos = if overflow {
                                saturated = true;
                                u64::MAX
                            } else {
                                sum
                            };
                        }
                        if tx.send((i, result)).is_err() {
                            break; // receiver gone: scope is unwinding
                        }
                    }
                    if sink.enabled() {
                        sink.worker(w, claimed, busy_nanos, saturated);
                    }
                });
            }
            drop(tx);
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
