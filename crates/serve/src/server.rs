//! The pipeline server: one request path over admission, coalescing, the
//! program cache and the buffer pool.
//!
//! [`PipelineServer::call`] reads top to bottom: check the input's shape,
//! key the program, then lead or follow a coalescing flight. A follower
//! waits for the leader's result and copies it; the leader takes an
//! admission slot, looks the program up (compiling it if cold), realizes
//! into a pooled output, publishes to its followers and responds. The
//! pieces live beside this file: `admission.rs` (the fixed execution slots
//! and the priority and deadline wait queue), `coalesce.rs` (flights and the
//! leader's publish guard), `reqtrace.rs` (per-request span trees) and
//! [`cache`](crate::cache) (the cost-aware program cache). Everything reads
//! time through the injectable [`Clock`], so all of it runs
//! deterministically in tests.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use halide_exec::{Backend, OptLevel, Realizer};
use halide_pipelines::{AppKind, ScheduleChoice};
use halide_runtime::{Buffer, BufferPool, CounterSnapshot, PooledBuffer, ThreadPool};

use crate::admission::{Admission, AdmitError, Priority};
use crate::cache::{ParamValue, ProgramCache, ProgramKey};
use crate::clock::{deadline_passed, Clock};
use crate::coalesce::{CoalesceHub, FlightKey, Realized, Role, Shared};
use crate::metrics::{LatencyRecorder, ServerStats};
use crate::reqtrace::{emit_request_trace, ReqTrace};
use crate::{ServeError, ServeResult};

/// Idle bytes the server's buffer pool may retain.
const POOL_IDLE_BYTES: usize = 256 << 20;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Requests allowed to execute simultaneously (each gets its own
    /// persistent worker [`ThreadPool`]).
    pub max_in_flight: usize,
    /// Requests allowed to *wait* for an execution slot before further
    /// arrivals are rejected with [`ServeError::Overloaded`] — the
    /// backpressure bound.
    pub queue_capacity: usize,
    /// Worker threads each in-flight request may use for its parallel
    /// loops. Serving throughput usually wants `1` (scale across requests,
    /// not within them); latency-sensitive single streams want the machine.
    pub threads_per_request: usize,
    /// Execution engine programs are compiled for.
    pub backend: Backend,
    /// Optimizer level programs are compiled at.
    pub opt: OptLevel,
    /// Compiled programs the cache may hold before evicting (cost-aware
    /// LRU; `usize::MAX` = unbounded).
    pub cache_max_entries: usize,
    /// The time source every control loop reads — [`Clock::system`] in
    /// production, [`Clock::manual`] in deterministic tests.
    pub clock: Clock,
}

impl Default for ServeConfig {
    /// Four concurrent requests, a 16-deep wait queue, one thread per
    /// request, the compiled backend at [`OptLevel::Default`], an unbounded
    /// cache, the system clock.
    fn default() -> Self {
        ServeConfig {
            max_in_flight: 4,
            queue_capacity: 16,
            threads_per_request: 1,
            backend: Backend::Compiled,
            opt: OptLevel::Default,
            cache_max_entries: usize::MAX,
            clock: Clock::system(),
        }
    }
}

/// One request: which pipeline, the input image, any scalar parameters, and
/// its scheduling class and time budget.
#[derive(Debug, Clone)]
pub struct Request {
    /// Which application.
    pub app: AppKind,
    /// Which schedule variant.
    pub schedule: ScheduleChoice,
    /// The input image (shared, so enqueueing does not copy pixels).
    pub input: Arc<Buffer>,
    /// Scalar parameters to bind, by name.
    pub params: Vec<(String, ParamValue)>,
    /// Scheduling class (see [`Priority`]).
    pub priority: Priority,
    /// Time budget from submission; past it the request is shed with
    /// [`ServeError::DeadlineExceeded`] instead of occupying a slot.
    /// `None` means no deadline.
    pub deadline: Option<Duration>,
}

impl Request {
    /// A parameterless normal-priority request with no deadline.
    pub fn new(app: AppKind, schedule: ScheduleChoice, input: Arc<Buffer>) -> Self {
        Request {
            app,
            schedule,
            input,
            params: Vec::new(),
            priority: Priority::Normal,
            deadline: None,
        }
    }

    /// Adds a scalar parameter.
    pub fn param(mut self, name: impl Into<String>, value: ParamValue) -> Self {
        self.params.push((name.into(), value));
        self
    }

    /// Sets the scheduling class.
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the time budget (measured from submission).
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// A served response. Dropping it returns the output buffer to the server's
/// pool, so hold it only as long as the pixels are needed (or
/// [`PooledBuffer::detach`] the buffer to keep it).
#[derive(Debug)]
pub struct Response {
    /// The output image, on loan from the buffer pool.
    pub output: PooledBuffer,
    /// Time from submission to completion, queueing included.
    pub latency: Duration,
    /// The lower + compile cost this request paid, if it was the one that
    /// populated its cache entry (`None` on the warm path and for coalesced
    /// followers).
    pub cold_compile: Option<Duration>,
    /// The realization's work counters. For a coalesced follower these
    /// describe the one shared realization, not per-follower work.
    pub counters: CounterSnapshot,
    /// True when this response was served by copying another request's
    /// realization (a coalescing follower).
    pub coalesced: bool,
}

/// A compile-once / realize-many pipeline server.
///
/// Owns the compiled-[`ProgramCache`], the shared [`BufferPool`], and one
/// persistent worker [`ThreadPool`] per admission slot. `&self` is all any
/// operation needs, so any number of client threads can share one server.
#[derive(Debug)]
pub struct PipelineServer {
    config: ServeConfig,
    clock: Clock,
    cache: ProgramCache,
    buffer_pool: Arc<BufferPool>,
    /// One persistent worker pool per admission slot, reused across every
    /// request the slot serves.
    slot_pools: Vec<ThreadPool>,
    admission: Admission,
    hub: CoalesceHub,
    latency: LatencyRecorder,
    requests: AtomicU64,
    rejected: AtomicU64,
    shed: AtomicU64,
    coalesced: AtomicU64,
    realizations: AtomicU64,
    /// Trace-lane allocator: each traced request gets its own tid so its
    /// span tree renders as one row in the trace viewer.
    trace_seq: AtomicU64,
}

impl PipelineServer {
    /// A server for every paper app in either schedule variant.
    pub fn new(config: ServeConfig) -> Self {
        let slots = config.max_in_flight.max(1);
        let clock = config.clock.clone();
        let buffer_pool = Arc::new(BufferPool::new(POOL_IDLE_BYTES));
        PipelineServer {
            slot_pools: (0..slots)
                .map(|_| ThreadPool::new(config.threads_per_request.max(1)))
                .collect(),
            admission: Admission::new(slots, config.queue_capacity, clock.clone()),
            hub: CoalesceHub::new(clock.clone(), Arc::clone(&buffer_pool)),
            cache: ProgramCache::new(config.backend, config.opt, config.cache_max_entries),
            buffer_pool,
            latency: LatencyRecorder::new(),
            requests: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            realizations: AtomicU64::new(0),
            trace_seq: AtomicU64::new(0),
            clock,
            config,
        }
    }

    /// Requests currently waiting for an execution slot (gauge).
    pub fn queued(&self) -> usize {
        self.admission.queued()
    }

    /// Coalescing followers currently parked on an in-progress flight
    /// (gauge).
    pub fn coalesce_waiting(&self) -> u64 {
        self.hub.waiting()
    }

    /// Stops dispatching execution slots: running requests finish, new and
    /// queued ones wait (subject to their deadlines and the queue bound).
    /// The drain/quiesce seam — also what the deterministic coalescing
    /// tests use to pile identical requests onto one flight.
    pub fn pause(&self) {
        self.admission.pause();
    }

    /// Resumes dispatching after [`PipelineServer::pause`].
    pub fn resume(&self) {
        self.admission.resume();
    }

    /// Pre-compiles the program for `(app, schedule)` at the given shape, so
    /// the first real request finds the cache warm. Returns the lower +
    /// compile time when this call populated the entry (`None` if it was
    /// already resident).
    ///
    /// # Errors
    ///
    /// Propagates compile failures.
    pub fn warm(
        &self,
        app: AppKind,
        schedule: ScheduleChoice,
        width: i64,
        height: i64,
    ) -> ServeResult<Option<Duration>> {
        let key = ProgramKey::new(app, schedule, (width, height), &[]);
        let (entry, cold) = self.cache.get_or_compile(&key)?;
        Ok(cold.then(|| entry.compile_time))
    }

    /// Serves one request: coalescing, admission (priorities, deadlines),
    /// program lookup (compiling if cold), realization into a pooled output
    /// buffer, latency recording.
    ///
    /// Blocks while the server is saturated but the wait queue has room.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] once every slot is busy *and*
    /// `queue_capacity` more are waiting; [`ServeError::DeadlineExceeded`]
    /// when the request's time budget runs out first;
    /// [`ServeError::Shape`] for inputs the app cannot consume; compile and
    /// execution failures otherwise.
    pub fn call(&self, req: &Request) -> ServeResult<Response> {
        let submitted = self.clock.now();
        let mut trace = halide_trace::enabled().then(|| {
            ReqTrace::new(
                self.trace_seq.fetch_add(1, Ordering::Relaxed) + 1,
                submitted,
            )
        });
        let result = self.serve(req, submitted, trace.as_mut());
        match &result {
            Ok(resp) => {
                self.requests.fetch_add(1, Ordering::Relaxed);
                self.latency.record(resp.latency);
            }
            Err(ServeError::Overloaded { .. }) => {
                self.rejected.fetch_add(1, Ordering::Relaxed);
            }
            Err(ServeError::DeadlineExceeded { .. }) => {
                self.shed.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {}
        }
        if let Some(t) = &trace {
            emit_request_trace(req, t, &result, self.clock.now());
        }
        result
    }

    /// One request from shape check to response: key the program, lead or
    /// follow its flight, and as leader realize under an admission slot and
    /// publish to the followers.
    fn serve(
        &self,
        req: &Request,
        submitted: Duration,
        trace: Option<&mut ReqTrace>,
    ) -> ServeResult<Response> {
        let deadline = req.deadline.map(|budget| submitted + budget);
        if req.input.dimensions() < 2 {
            return Err(ServeError::Shape(format!(
                "{} expects a 2-D (or deeper) input, got {} dimension(s)",
                req.app.name(),
                req.input.dimensions()
            )));
        }
        let shape = (req.input.dims()[0].extent, req.input.dims()[1].extent);
        let key = ProgramKey::new(req.app, req.schedule, shape, &req.params);

        let leader = match self.hub.join_or_lead(FlightKey::of(req, shape), &req.input) {
            Role::Leader(leader) => leader,
            Role::Follower(flight) => {
                let shared = self.hub.follow(&flight, submitted, deadline);
                if let Some(t) = trace {
                    t.realized = Some(self.clock.now());
                }
                let Shared { output, counters } = shared?;
                self.coalesced.fetch_add(1, Ordering::Relaxed);
                return Ok(Response {
                    output: self.buffer_pool.acquire_copy_of(&output),
                    latency: self.clock.now().saturating_sub(submitted),
                    cold_compile: None,
                    counters,
                    coalesced: true,
                });
            }
        };
        let realized = self.realize_admitted(req, &key, submitted, deadline, trace);
        let Realized {
            output,
            counters,
            cold_compile,
        } = leader.finish(realized)?;
        Ok(Response {
            output,
            latency: self.clock.now().saturating_sub(submitted),
            cold_compile,
            counters,
            coalesced: false,
        })
    }

    /// Admission, program lookup (compiling if cold), and the realization
    /// itself — the slice of a request that holds an execution slot.
    fn realize_admitted(
        &self,
        req: &Request,
        key: &ProgramKey,
        submitted: Duration,
        deadline: Option<Duration>,
        mut trace: Option<&mut ReqTrace>,
    ) -> ServeResult<Realized> {
        let slot = match self.admission.acquire(req.priority, deadline) {
            Ok(slot) => self.admission.guard(slot),
            Err(AdmitError::Full) => {
                return Err(ServeError::Overloaded {
                    in_flight: self.slot_pools.len(),
                    queued: self.config.queue_capacity,
                })
            }
            Err(AdmitError::Expired) => return Err(self.deadline_exceeded(submitted)),
        };
        if let Some(t) = trace.as_deref_mut() {
            t.admitted = Some(self.clock.now());
        }

        let (entry, cold) = self.cache.get_or_compile(key)?;
        if let Some(t) = trace.as_deref_mut() {
            t.compiled = Some(self.clock.now());
            t.cache_hit = !cold;
        }
        if deadline_passed(deadline, self.clock.now()) {
            // The compile consumed the budget: the entry is cached for the
            // next attempt, but realizing now would arrive too late.
            return Err(self.deadline_exceeded(submitted));
        }

        // The output comes from the pool and goes back to it when the caller
        // drops the Response. On a failed realization the allocation is
        // dropped with the error instead of returning to the pool
        // (`realize_into` consumes it); that loss is bounded by the error
        // rate and the pool refills on the next successful request.
        let (output, output_hit) = self
            .buffer_pool
            .acquire_raw(entry.output_ty, &entry.output_extents);

        let mut realizer = match &entry.program {
            Some(program) => Realizer::with_program(&entry.module, Arc::clone(program)),
            None => Realizer::new(&entry.module),
        };
        realizer = realizer
            .backend(self.config.backend)
            .instrument(false)
            .thread_pool(self.slot_pools[slot.slot()].clone())
            .buffer_pool(Arc::clone(&self.buffer_pool))
            .input_shared(entry.input_name.clone(), Arc::clone(&req.input));
        for (name, value) in &req.params {
            realizer = value.bind(realizer, name);
        }

        let realization = realizer
            .realize_into(output)
            .map_err(|e| ServeError::Exec(e.to_string()))?;
        if let Some(t) = trace {
            t.realized = Some(self.clock.now());
        }
        let mut counters = realization.counters;
        if output_hit {
            counters.pool_hits += 1;
        } else {
            counters.pool_misses += 1;
        }
        self.realizations.fetch_add(1, Ordering::Relaxed);
        Ok(Realized {
            output: PooledBuffer::attached(Arc::clone(&self.buffer_pool), realization.output),
            counters,
            cold_compile: cold.then(|| entry.compile_time),
        })
    }

    fn deadline_exceeded(&self, submitted: Duration) -> ServeError {
        ServeError::DeadlineExceeded {
            waited: self.clock.now().saturating_sub(submitted),
        }
    }

    /// Aggregate statistics: request, rejection, shed, and coalescing
    /// counts, realizations, cold compiles, cache residency and evictions,
    /// the latency distribution, and pool accounting.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            requests: self.requests.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            realizations: self.realizations.load(Ordering::Relaxed),
            cold_compiles: self.cache.cold_compiles(),
            cached_programs: self.cache.len() as u64,
            evicted_programs: self.cache.evictions(),
            latency: self.latency.snapshot(),
            pool: self.buffer_pool.stats(),
        }
    }

    /// Forgets recorded latencies (for phase-separated benchmarking; the
    /// monotone counters are kept).
    pub fn reset_latencies(&self) {
        self.latency.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blur_request(width: i64, height: i64) -> Request {
        Request::new(
            AppKind::Blur,
            ScheduleChoice::Tuned,
            Arc::new(AppKind::Blur.make_input(width, height)),
        )
    }

    #[test]
    fn first_call_is_cold_then_warm_and_pooled() {
        let server = PipelineServer::new(ServeConfig::default());
        let req = blur_request(64, 48);

        let first = server.call(&req).unwrap();
        assert!(first.cold_compile.is_some());
        assert_eq!(first.output.dims()[0].extent, 64);
        drop(first);

        let second = server.call(&req).unwrap();
        assert!(second.cold_compile.is_none());
        // The warm request's output came back from the pool.
        assert!(second.counters.pool_hits >= 1);

        let stats = server.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.cold_compiles, 1);
        assert_eq!(stats.cached_programs, 1);
        assert_eq!(stats.realizations, 2);
        assert_eq!(stats.coalesced, 0);
        assert_eq!(stats.latency.count, 2);
        assert!(stats.pool.hits >= 1);
    }

    #[test]
    fn server_output_matches_direct_realization() {
        let server = PipelineServer::new(ServeConfig::default());
        let input = AppKind::Blur.make_input(67, 41);
        let req = Request::new(
            AppKind::Blur,
            ScheduleChoice::Tuned,
            Arc::new(input.clone()),
        );
        let served = server.call(&req).unwrap();
        let direct = halide_pipelines::blur::BlurApp::new();
        halide_pipelines::blur::BlurSchedule::ParallelTiledVector.apply(&direct);
        let module = halide_lower::lower(&direct.pipeline()).unwrap();
        let reference = Realizer::new(&module)
            .input(direct.input.name(), input)
            .threads(1)
            .realize(&[67, 41])
            .unwrap();
        assert_eq!(
            served.output.to_f64_vec(),
            reference.output.to_f64_vec(),
            "served output diverges from a direct realization"
        );
    }

    #[test]
    fn overload_rejects_past_queue_capacity() {
        // One slot, zero queue: a second concurrent request must be refused.
        let server = PipelineServer::new(ServeConfig {
            max_in_flight: 1,
            queue_capacity: 0,
            ..ServeConfig::default()
        });
        // Occupy the only slot manually…
        let slot = server.admission.acquire(Priority::Normal, None).unwrap();
        match server.call(&blur_request(64, 32)) {
            Err(ServeError::Overloaded { in_flight, queued }) => {
                assert_eq!((in_flight, queued), (1, 0));
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        // …then release it: the same request now succeeds.
        server.admission.release(slot);
        server.call(&blur_request(64, 32)).unwrap();
        let stats = server.stats();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.requests, 1);
    }

    #[test]
    fn queued_requests_wait_instead_of_failing() {
        let server = Arc::new(PipelineServer::new(ServeConfig {
            max_in_flight: 1,
            queue_capacity: 8,
            ..ServeConfig::default()
        }));
        // 4 threads through 1 slot with queue room: all succeed.
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let server = Arc::clone(&server);
                scope.spawn(move || {
                    server.call(&blur_request(64, 32)).unwrap();
                });
            }
        });
        let stats = server.stats();
        assert_eq!(stats.requests, 4);
        assert_eq!(stats.rejected, 0);
    }

    #[test]
    fn params_partition_the_cache() {
        let server = PipelineServer::new(ServeConfig::default());
        let req = blur_request(64, 32);
        let with_param = req.clone().param("gain", ParamValue::F32(2.0));
        // Blur ignores unknown params (they bind to nothing), but the cache
        // must still treat the signatures as distinct programs.
        server.call(&req).unwrap();
        server.call(&with_param).unwrap();
        assert_eq!(server.stats().cached_programs, 2);
    }

    // ---- deadlines, priorities, and the virtual clock ---------------------

    #[test]
    fn zero_deadline_is_shed_before_admission() {
        let server = PipelineServer::new(ServeConfig::default());
        let req = blur_request(64, 32).deadline(Duration::ZERO);
        match server.call(&req) {
            Err(ServeError::DeadlineExceeded { .. }) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let stats = server.stats();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.requests, 0);
        assert_eq!(stats.realizations, 0, "shed work must not realize");
    }

    /// A queued request expires when the *virtual* clock passes its
    /// deadline — no sleeping, no real time. The freed-later slot must go
    /// to nobody (the waiter already shed itself).
    #[test]
    fn queued_request_expires_under_virtual_clock() {
        let clock = Clock::manual();
        let server = Arc::new(PipelineServer::new(ServeConfig {
            max_in_flight: 1,
            queue_capacity: 4,
            clock: clock.clone(),
            ..ServeConfig::default()
        }));
        // Occupy the only slot so the request queues.
        let slot = server.admission.acquire(Priority::Normal, None).unwrap();

        let waiter = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                server.call(&blur_request(64, 32).deadline(Duration::from_millis(10)))
            })
        };
        // Deterministic rendezvous: the request is queued.
        while server.queued() != 1 {
            std::thread::yield_now();
        }
        clock.advance(Duration::from_millis(11));
        match waiter.join().unwrap() {
            Err(ServeError::DeadlineExceeded { waited }) => {
                assert_eq!(waited, Duration::from_millis(11));
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert_eq!(server.stats().shed, 1);
        assert_eq!(server.queued(), 0, "expired waiter left the queue");
        // Releasing the slot later finds no one to run.
        server.admission.release(slot);
    }

    // ---- coalescing -------------------------------------------------------

    /// N identical concurrent requests: one compile, one realization,
    /// N bit-identical outputs. Deterministic via pause(): all requests
    /// pile up (leader in the admission queue, followers on the flight)
    /// before any slot dispatches.
    #[test]
    fn coalesced_requests_realize_once_and_fan_out() {
        const CLIENTS: usize = 4;
        let server = Arc::new(PipelineServer::new(ServeConfig {
            max_in_flight: 2,
            queue_capacity: 8,
            ..ServeConfig::default()
        }));
        let input = Arc::new(AppKind::Blur.make_input(64, 48));
        let req = Request::new(AppKind::Blur, ScheduleChoice::Tuned, Arc::clone(&input));

        server.pause();
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let server = Arc::clone(&server);
                let req = req.clone();
                std::thread::spawn(move || server.call(&req).unwrap())
            })
            .collect();
        // Exactly one leader queues for admission; the rest park on the
        // flight.
        while server.queued() != 1 || server.coalesce_waiting() != (CLIENTS - 1) as u64 {
            std::thread::yield_now();
        }
        server.resume();

        let responses: Vec<Response> = clients.into_iter().map(|c| c.join().unwrap()).collect();
        let reference = responses[0].output.to_f64_vec();
        for resp in &responses {
            assert_eq!(resp.output.to_f64_vec(), reference, "fan-out diverged");
        }
        assert_eq!(
            responses.iter().filter(|r| r.coalesced).count(),
            CLIENTS - 1
        );

        let stats = server.stats();
        assert_eq!(stats.requests, CLIENTS as u64);
        assert_eq!(stats.realizations, 1, "coalesced batch realizes once");
        assert_eq!(stats.cold_compiles, 1, "coalesced batch compiles once");
        assert_eq!(stats.coalesced, (CLIENTS - 1) as u64);
        assert_eq!(server.coalesce_waiting(), 0);
    }

    /// Requests differing in parameter *values* must not coalesce (values
    /// change the pixels), and sequential identical requests each realize.
    #[test]
    fn coalescing_requires_identical_values_and_concurrency() {
        let server = PipelineServer::new(ServeConfig::default());
        let input = Arc::new(AppKind::Blur.make_input(64, 32));
        let a = Request::new(AppKind::Blur, ScheduleChoice::Tuned, Arc::clone(&input))
            .param("gain", ParamValue::F32(1.0));
        let b = Request::new(AppKind::Blur, ScheduleChoice::Tuned, Arc::clone(&input))
            .param("gain", ParamValue::F32(2.0));
        server.call(&a).unwrap();
        server.call(&b).unwrap();
        server.call(&a).unwrap();
        let stats = server.stats();
        assert_eq!(stats.coalesced, 0);
        assert_eq!(stats.realizations, 3, "sequential requests never coalesce");
    }

    // ---- request-lifecycle tracing ----------------------------------------

    /// Request spans are recorded against the injectable clock: a request
    /// that waits in the admission queue for exactly 7 virtual milliseconds
    /// produces a `queued` span of exactly 7 ms, and its `request` umbrella
    /// covers it.
    #[test]
    fn request_spans_follow_the_manual_clock() {
        let clock = Clock::manual();
        let server = Arc::new(PipelineServer::new(ServeConfig {
            clock: clock.clone(),
            ..ServeConfig::default()
        }));
        halide_trace::set_enabled(true);
        server.pause();
        let client = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.call(&blur_request(64, 32)))
        };
        while server.queued() != 1 {
            std::thread::yield_now();
        }
        clock.advance(Duration::from_millis(7));
        server.resume();
        client.join().unwrap().unwrap();

        let events = halide_trace::global().events();
        let queued: Vec<_> = events
            .iter()
            .filter(|e| {
                e.name == "queued" && e.pid == halide_trace::PID_SERVE && e.dur_ns == 7_000_000
            })
            .collect();
        assert_eq!(queued.len(), 1, "exactly one 7ms queued span");
        let q = queued[0];
        // Servers of concurrently running tests number their lanes from the
        // same start into the same global sink, so spans are looked up by
        // lane *and* position. The request umbrella on the lane covers the
        // queueing, reports the app, and records a successful outcome.
        let umbrella = events
            .iter()
            .find(|e| {
                e.name == "request"
                    && e.tid == q.tid
                    && e.ts_ns <= q.ts_ns
                    && q.ts_ns + q.dur_ns <= e.ts_ns + e.dur_ns
            })
            .expect("request umbrella span covering the queueing");
        assert!(umbrella.args.iter().any(|(k, v)| k == "app" && v == "Blur"));
        assert!(umbrella
            .args
            .iter()
            .any(|(k, v)| k == "outcome" && v == "ok"));
        // The phase spans within the lane tile it without gaps: queued ends
        // where compile begins, compile where realize begins.
        let next = |prev: &halide_trace::TraceEvent, name: &str| {
            events
                .iter()
                .find(|e| e.name == name && e.tid == q.tid && e.ts_ns == prev.ts_ns + prev.dur_ns)
                .unwrap_or_else(|| panic!("no {name} span where {} ends", prev.name))
                .clone()
        };
        let c = next(q, "compile");
        next(&c, "realize");
        assert!(c.args.iter().any(|(k, v)| k == "cache" && v == "miss"));
    }
}
