//! The parallel runtime: a thread pool executing the iterations of loops the
//! schedule marked `parallel` (Sec. 4.6 — parallel for loops are lowered to
//! tasks consumed by a thread pool at runtime).
//!
//! Workers are **persistent**: they are spawned once per pool (lazily, on the
//! first parallel loop) and then sleep on a condition variable between loops,
//! so a pipeline with many shallow parallel loops pays the OS thread-spawn
//! cost once per realization instead of once per loop entry — the same
//! structure as Halide's own runtime task queue.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::counters::Counters;

thread_local! {
    /// Set while the current thread is executing pool work, so nested
    /// parallel loops degrade gracefully to serial execution instead of
    /// oversubscribing the machine.
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// A chunk body borrowed from the installing thread, as a raw pointer.
type JobBody = *const (dyn Fn(i64, i64) + Sync);

/// One parallel loop in flight. The body pointer is only dereferenced while
/// the job is installed in [`PoolState`]; `parallel_for_chunks` does not
/// return until the job has been removed and no worker is still inside it,
/// which is what makes the borrowed closure sound.
struct Job {
    /// The chunk body: invoked with absolute `[start, end)` iteration ranges.
    body: JobBody,
    min: i64,
    extent: i64,
    chunk: i64,
    /// Next relative iteration index to hand out.
    next: i64,
    /// Workers currently executing a chunk of this job.
    active: usize,
    /// The first panic payload raised by a chunk body; re-raised verbatim
    /// by the caller (preserving message and type, as scoped threads did).
    panic_payload: Option<Box<dyn Any + Send>>,
}

// SAFETY: the raw closure pointer is only sent to workers that dereference it
// while the job is installed; the installing thread outlives the job (see the
// completion protocol in `parallel_for_chunks`).
unsafe impl Send for Job {}

#[derive(Default)]
struct PoolState {
    job: Option<Job>,
    shutdown: bool,
}

#[derive(Default)]
struct Shared {
    state: Mutex<PoolState>,
    /// Signalled when a job is installed or the pool shuts down.
    work_avail: Condvar,
    /// Signalled when the installed job completes.
    work_done: Condvar,
}

impl Shared {
    /// Claims the next chunk of the installed job, if any work remains.
    /// Returns the absolute `[start, end)` range and marks the caller active.
    fn claim(state: &mut PoolState) -> Option<(i64, i64, JobBody)> {
        let job = state.job.as_mut()?;
        if job.next >= job.extent {
            return None;
        }
        let start = job.next;
        let end = (start + job.chunk).min(job.extent);
        job.next = end;
        job.active += 1;
        Some((job.min + start, job.min + end, job.body))
    }

    /// Runs chunks of the current job until none remain, as either a worker
    /// or the installing caller. Returns whether any chunk panicked.
    fn drain_current_job(&self) {
        loop {
            let claimed = {
                let mut state = self.state.lock().unwrap();
                Self::claim(&mut state)
            };
            let Some((start, end, body)) = claimed else {
                return;
            };
            // SAFETY: the job is live (see the struct-level note on `Job`).
            let r = catch_unwind(AssertUnwindSafe(|| unsafe { (*body)(start, end) }));
            let mut state = self.state.lock().unwrap();
            let job = state.job.as_mut().expect("job outlives its active chunks");
            job.active -= 1;
            if let Err(payload) = r {
                if job.panic_payload.is_none() {
                    job.panic_payload = Some(payload);
                }
                // Poison the remaining iterations so the loop winds down.
                job.next = job.extent;
            }
            if job.next >= job.extent && job.active == 0 {
                self.work_done.notify_all();
            }
        }
    }

    fn worker_loop(&self) {
        IN_POOL_WORKER.with(|f| f.set(true));
        loop {
            {
                let mut state = self.state.lock().unwrap();
                loop {
                    if state.shutdown {
                        return;
                    }
                    match &state.job {
                        Some(job) if job.next < job.extent => break,
                        _ => state = self.work_avail.wait(state).unwrap(),
                    }
                }
            }
            self.drain_current_job();
        }
    }
}

struct PoolInner {
    threads: usize,
    shared: Arc<Shared>,
    /// Worker threads, spawned lazily on the first parallel loop.
    workers: Mutex<Vec<JoinHandle<()>>>,
    started: AtomicBool,
}

impl PoolInner {
    /// Spawns the persistent workers if they are not running yet. The caller
    /// participates in every loop, so `threads - 1` workers are enough to
    /// keep `threads` chunks in flight.
    fn ensure_workers(&self) {
        if self.started.swap(true, Ordering::SeqCst) {
            return;
        }
        let mut workers = self.workers.lock().unwrap();
        for _ in 0..self.threads - 1 {
            let shared = Arc::clone(&self.shared);
            workers.push(std::thread::spawn(move || shared.worker_loop()));
        }
    }
}

impl Drop for PoolInner {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().unwrap();
            state.shutdown = true;
        }
        self.shared.work_avail.notify_all();
        for handle in self.workers.lock().unwrap().drain(..) {
            let _ = handle.join();
        }
    }
}

/// A data-parallel loop executor with persistent worker threads.
///
/// The pool hands contiguous chunks of the iteration space to its workers
/// (and to the calling thread, which always participates). Nested parallel
/// loops run serially inside their worker — the same policy as Halide's
/// runtime, which only parallelizes the outermost parallel loop it
/// encounters. Cloning the handle shares the same workers.
#[derive(Clone)]
pub struct ThreadPool {
    inner: Arc<PoolInner>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.inner.threads)
            .finish()
    }
}

impl Default for ThreadPool {
    fn default() -> Self {
        ThreadPool::new(num_threads_default())
    }
}

/// Number of worker threads used when none is specified: the machine's
/// available parallelism.
pub fn num_threads_default() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl ThreadPool {
    /// Creates a pool that uses `threads` workers (minimum 1). The worker
    /// threads themselves are spawned lazily on the first parallel loop, so
    /// pools for purely serial schedules cost nothing.
    pub fn new(threads: usize) -> Self {
        ThreadPool {
            inner: Arc::new(PoolInner {
                threads: threads.max(1),
                shared: Arc::new(Shared::default()),
                workers: Mutex::new(Vec::new()),
                started: AtomicBool::new(false),
            }),
        }
    }

    /// A pool that runs everything on the calling thread (useful for
    /// deterministic tests and for measuring single-threaded baselines).
    pub fn serial() -> Self {
        ThreadPool::new(1)
    }

    /// The number of worker threads.
    pub fn threads(&self) -> usize {
        self.inner.threads
    }

    /// True if the calling thread is already inside a pool worker.
    pub fn in_worker() -> bool {
        IN_POOL_WORKER.with(|f| f.get())
    }

    /// Executes `body(i)` for every `i` in `[min, min + extent)`.
    ///
    /// Iterations are distributed over the workers in contiguous chunks. The
    /// call returns when every iteration has finished (it is a synchronization
    /// point, which is what makes cross-stage reads after a parallel producer
    /// loop safe).
    ///
    /// # Panics
    ///
    /// Re-raises panics from worker threads after the loop has wound down.
    pub fn parallel_for<F>(&self, min: i64, extent: i64, counters: &Counters, body: F)
    where
        F: Fn(i64) + Sync,
    {
        self.parallel_for_chunks(min, extent, counters, |start, end| {
            for i in start..end {
                body(i);
            }
        });
    }

    /// Executes `body(start, end)` over contiguous chunks that exactly cover
    /// `[min, min + extent)`.
    ///
    /// This is the primitive behind [`ThreadPool::parallel_for`], exposed so
    /// callers with per-task state (the compiled backend's register frames)
    /// can set it up once per chunk instead of once per iteration. Chunks
    /// handed to different threads never overlap; a single chunk is always
    /// processed by one thread.
    ///
    /// # Panics
    ///
    /// Re-raises panics from worker threads after the loop has wound down.
    pub fn parallel_for_chunks<F>(&self, min: i64, extent: i64, counters: &Counters, body: F)
    where
        F: Fn(i64, i64) + Sync,
    {
        if extent <= 0 {
            return;
        }
        counters.add_parallel_tasks(extent as u64);
        // Nested parallelism or a single worker: run inline.
        if self.inner.threads == 1 || Self::in_worker() || extent == 1 {
            body(min, min + extent);
            return;
        }
        self.inner.ensure_workers();

        let workers = self.inner.threads.min(extent as usize);
        // Dynamic chunking: each thread repeatedly grabs a chunk of
        // iterations, which balances uneven per-iteration costs (common when
        // inner stages have data-dependent work).
        let chunk = ((extent as usize / (workers * 4)).max(1)) as i64;
        let shared = &self.inner.shared;

        let body_ref: &(dyn Fn(i64, i64) + Sync) = &body;
        {
            let mut state = shared.state.lock().unwrap();
            // Another thread is mid-loop on this pool (e.g. two realizations
            // sharing a context): wait for its job to clear rather than
            // corrupting it.
            while state.job.is_some() {
                state = shared.work_done.wait(state).unwrap();
            }
            // SAFETY(lifetime erasure): the pointer is retired from the state
            // below before `body` goes out of scope.
            let body_ptr = unsafe {
                std::mem::transmute::<&(dyn Fn(i64, i64) + Sync), *const (dyn Fn(i64, i64) + Sync)>(
                    body_ref,
                )
            };
            state.job = Some(Job {
                body: body_ptr,
                min,
                extent,
                chunk,
                next: 0,
                active: 0,
                panic_payload: None,
            });
        }
        shared.work_avail.notify_all();

        // The caller participates: mark it as a pool worker for the duration
        // so nested parallel loops inside its chunks run serially.
        IN_POOL_WORKER.with(|f| f.set(true));
        shared.drain_current_job();
        IN_POOL_WORKER.with(|f| f.set(false));

        // Wait for stragglers, then retire the job (making the closure
        // borrow safe to release).
        let panic_payload = {
            let mut state = shared.state.lock().unwrap();
            loop {
                let job = state.job.as_ref().expect("only the installer retires");
                if job.next >= job.extent && job.active == 0 {
                    break state.job.take().expect("checked above").panic_payload;
                }
                state = shared.work_done.wait(state).unwrap();
            }
        };
        // Hand the pool to any parallel_for waiting for the job slot.
        shared.work_done.notify_all();
        if let Some(payload) = panic_payload {
            resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn covers_every_iteration_exactly_once() {
        let pool = ThreadPool::new(4);
        let counters = Counters::new();
        let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        pool.parallel_for(5, 1000, &counters, |i| {
            hits[(i - 5) as usize].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert_eq!(counters.snapshot().parallel_tasks, 1000);
    }

    #[test]
    fn chunks_partition_the_range() {
        let pool = ThreadPool::new(4);
        let counters = Counters::new();
        let hits: Vec<AtomicU64> = (0..500).map(|_| AtomicU64::new(0)).collect();
        pool.parallel_for_chunks(-3, 500, &counters, |start, end| {
            assert!(start < end);
            for i in start..end {
                hits[(i + 3) as usize].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn workers_persist_across_loops() {
        // Many consecutive parallel loops reuse the same workers; this test
        // mostly guards against deadlocks in the job hand-off protocol.
        let pool = ThreadPool::new(4);
        let counters = Counters::new();
        let total = AtomicU64::new(0);
        for _ in 0..100 {
            pool.parallel_for(0, 64, &counters, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 6400);
    }

    #[test]
    fn zero_extent_is_a_no_op() {
        let pool = ThreadPool::default();
        let counters = Counters::new();
        pool.parallel_for(0, 0, &counters, |_| panic!("must not run"));
        pool.parallel_for(0, -5, &counters, |_| panic!("must not run"));
        assert_eq!(counters.snapshot().parallel_tasks, 0);
    }

    #[test]
    fn nested_parallel_loops_run_serially_inside_workers() {
        let pool = ThreadPool::new(4);
        let counters = Counters::new();
        let total = AtomicU64::new(0);
        pool.parallel_for(0, 8, &counters, |_| {
            assert!(ThreadPool::in_worker() || pool.threads() == 1);
            pool.parallel_for(0, 10, &counters, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 80);
    }

    #[test]
    fn serial_pool_runs_on_calling_thread() {
        let pool = ThreadPool::serial();
        let counters = Counters::new();
        let caller = std::thread::current().id();
        pool.parallel_for(0, 4, &counters, |_| {
            assert_eq!(std::thread::current().id(), caller);
        });
        assert_eq!(pool.threads(), 1);
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let pool = ThreadPool::new(2);
        let counters = Counters::new();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_for(0, 100, &counters, |i| {
                if i == 42 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool survives a panicked loop and can run the next one.
        let total = AtomicU64::new(0);
        pool.parallel_for(0, 10, &counters, |_| {
            total.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn default_pool_uses_available_parallelism() {
        assert!(ThreadPool::default().threads() >= 1);
        assert!(num_threads_default() >= 1);
    }
}
