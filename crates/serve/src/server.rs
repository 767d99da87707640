//! The pipeline server: overload-safe concurrent admission over the program
//! cache and the buffer pool.
//!
//! Four control loops cooperate here, every one of them reading time through
//! the injectable [`Clock`] seam so it can be driven deterministically in
//! tests:
//!
//! * **Admission** — a fixed set of execution slots behind a bounded wait
//!   queue. Waiters carry a [`Priority`] and an optional deadline; slots are
//!   handed to the highest-priority, longest-waiting *unexpired* waiter
//!   (queue-jump), and a request whose deadline passes while queued returns
//!   [`ServeError::DeadlineExceeded`] without ever occupying a slot.
//! * **Coalescing** — concurrent requests for the same `(app, schedule,
//!   shape, parameter values, input image)` share one realization: the first
//!   becomes the *leader* and runs the pipeline; the rest are *followers*
//!   that wait on the flight and receive a pooled copy of the leader's
//!   output, bit-identical to realizing themselves.
//! * **Eviction** — the program cache is a cost-aware LRU
//!   ([`CostLru`](crate::cache::CostLru)) budgeted in entries and bytes.
//! * **AIMD** — optionally, an [`AimdController`] discovers the concurrency
//!   limit from observed p95 latency instead of trusting `max_in_flight`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

use halide_exec::{Backend, OptLevel, Realizer};
use halide_pipelines::{AppKind, ScheduleChoice};
use halide_runtime::{Buffer, BufferPool, CounterSnapshot, PooledBuffer, ThreadPool};

use crate::aimd::{AimdConfig, AimdController};
use crate::cache::{ParamValue, ProgramCache, ProgramKey};
use crate::clock::{deadline_passed, Clock};
use crate::metrics::{LatencyRecorder, ServerStats};
use crate::registry::Registry;
use crate::{ServeError, ServeResult};

/// Scheduling class of a request: [`Priority::High`] waiters take any freed
/// slot before [`Priority::Normal`] waiters, regardless of arrival order
/// (queue-jump); within a class, arrival order wins.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Best-effort traffic (the default).
    #[default]
    Normal,
    /// Latency-sensitive traffic: jumps the admission queue.
    High,
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Requests allowed to execute simultaneously (each gets its own
    /// persistent worker [`ThreadPool`]). With [`ServeConfig::adaptive`] set
    /// this is the *ceiling*; the effective limit is discovered at runtime.
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
    /// Optimizer level programs are compiled at (part of the cache key).
    pub opt: OptLevel,
    /// Idle bytes the buffer pool may retain.
    pub pool_max_bytes: usize,
    /// Coalesce concurrent identical requests onto one realization.
    pub coalescing: bool,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Compiled programs the cache may hold before evicting (cost-aware
    /// LRU; `usize::MAX` = unbounded).
    pub cache_max_entries: usize,
    /// Estimated bytes the cache may hold before evicting (`u64::MAX` =
    /// unbounded).
    pub cache_max_bytes: u64,
    /// When set, an AIMD controller adapts the concurrency limit between
    /// `adaptive.min_in_flight` and `max_in_flight` from observed p95
    /// latency; when `None`, the limit is the fixed `max_in_flight`.
    pub adaptive: Option<AimdConfig>,
    /// The time source every control loop reads — [`Clock::system`] in
    /// production, [`Clock::manual`] in deterministic tests.
    pub clock: Clock,
}

impl Default for ServeConfig {
    /// Four concurrent requests, a 16-deep wait queue, one thread per
    /// request, the compiled backend at [`OptLevel::Default`], coalescing
    /// on, no deadlines, an unbounded cache, a fixed concurrency limit, the
    /// system clock.
    fn default() -> Self {
        ServeConfig {
            max_in_flight: 4,
            queue_capacity: 16,
            threads_per_request: 1,
            backend: Backend::Compiled,
            opt: OptLevel::Default,
            pool_max_bytes: 256 << 20,
            coalescing: true,
            default_deadline: None,
            cache_max_entries: usize::MAX,
            cache_max_bytes: u64::MAX,
            adaptive: None,
            clock: Clock::system(),
        }
    }
}

/// One request: which registered pipeline, the input image, any scalar
/// parameters, and its scheduling class and time budget.
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
    /// `None` falls back to [`ServeConfig::default_deadline`].
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

/// Why [`Admission::acquire`] refused.
#[derive(Debug, PartialEq, Eq)]
enum AdmitError {
    /// The wait queue was full.
    Full,
    /// The request's deadline passed before a slot was granted.
    Expired,
}

#[derive(Debug)]
struct Waiter {
    ticket: u64,
    priority: Priority,
    deadline: Option<Duration>,
}

#[derive(Debug)]
struct AdmissionState {
    /// Concurrency limit currently in force (≤ the physical slot count;
    /// moved by the AIMD controller when adaptive mode is on).
    limit: usize,
    in_flight: usize,
    free_slots: Vec<usize>,
    waiters: Vec<Waiter>,
    /// Slots granted by `dispatch` but not yet collected by their waiter.
    grants: HashMap<u64, usize>,
    next_ticket: u64,
    /// While paused, nothing dispatches — the drain/quiesce seam.
    paused: bool,
}

/// Bounded admission: a fixed set of execution slots plus a bounded wait
/// queue with priorities, deadlines, and a movable concurrency limit.
///
/// `acquire` blocks while capacity is busy and the queue has room, fails
/// fast once the queue is full, and sheds itself the moment its deadline
/// passes. Freed capacity is *dispatched*: the grant goes to the best
/// waiter (highest priority, then earliest ticket) that has not expired, so
/// high-priority traffic jumps the queue and expired work never reaches a
/// slot.
#[derive(Debug)]
struct Admission {
    state: Mutex<AdmissionState>,
    /// Single condvar for every admission wake (grant, release, resume,
    /// limit move, and virtual-clock advance via the registered waker).
    cv: Arc<Condvar>,
    queue_capacity: usize,
    slots: usize,
    clock: Clock,
}

impl Admission {
    fn new(slots: usize, limit: usize, queue_capacity: usize, clock: Clock) -> Self {
        let cv = Arc::new(Condvar::new());
        clock.register_waker(&cv);
        Admission {
            state: Mutex::new(AdmissionState {
                limit: limit.clamp(1, slots),
                in_flight: 0,
                free_slots: (0..slots).collect(),
                waiters: Vec::new(),
                grants: HashMap::new(),
                next_ticket: 0,
                paused: false,
            }),
            cv,
            queue_capacity,
            slots,
            clock,
        }
    }

    /// Hands free capacity to the best eligible waiters: highest priority
    /// first, earliest ticket within a priority, expired waiters skipped
    /// (they wake and shed themselves).
    fn dispatch(&self, st: &mut AdmissionState) {
        let now = self.clock.now();
        let mut granted = false;
        while !st.paused && st.in_flight < st.limit && !st.free_slots.is_empty() {
            let best = st
                .waiters
                .iter()
                .enumerate()
                .filter(|(_, w)| !deadline_passed(w.deadline, now))
                .max_by_key(|(_, w)| (w.priority, std::cmp::Reverse(w.ticket)))
                .map(|(i, _)| i);
            let Some(i) = best else { break };
            let w = st.waiters.remove(i);
            let slot = st.free_slots.pop().expect("free slot under the limit");
            st.in_flight += 1;
            st.grants.insert(w.ticket, slot);
            granted = true;
        }
        if granted {
            self.cv.notify_all();
        }
    }

    /// Blocks until an execution slot is granted. [`AdmitError::Full`] when
    /// the wait queue has no room, [`AdmitError::Expired`] when `deadline`
    /// (absolute, on the admission clock) passes first.
    fn acquire(&self, priority: Priority, deadline: Option<Duration>) -> Result<usize, AdmitError> {
        let mut st = self.state.lock().unwrap();
        if deadline_passed(deadline, self.clock.now()) {
            return Err(AdmitError::Expired);
        }
        // Reject only arrivals that can neither run now nor queue: admission
        // with spare capacity (and no waiter this request would have to get
        // behind) bypasses the queue-capacity check. Queue room is counted
        // per class — an arrival only competes with same-or-higher-priority
        // waiters — so a backlog of normal traffic cannot lock
        // high-priority requests out of the queue they are meant to jump.
        let runnable_now = !st.paused
            && st.in_flight < st.limit
            && !st.free_slots.is_empty()
            && !st.waiters.iter().any(|w| w.priority >= priority);
        let competing = st.waiters.iter().filter(|w| w.priority >= priority).count();
        if !runnable_now && competing >= self.queue_capacity {
            return Err(AdmitError::Full);
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.waiters.push(Waiter {
            ticket,
            priority,
            deadline,
        });
        self.dispatch(&mut st);
        loop {
            if let Some(slot) = st.grants.remove(&ticket) {
                if deadline_passed(deadline, self.clock.now()) {
                    // Expired between grant and wake: hand the slot straight
                    // to the next waiter instead of running doomed work.
                    st.free_slots.push(slot);
                    st.in_flight -= 1;
                    self.dispatch(&mut st);
                    return Err(AdmitError::Expired);
                }
                return Ok(slot);
            }
            if deadline_passed(deadline, self.clock.now()) {
                st.waiters.retain(|w| w.ticket != ticket);
                return Err(AdmitError::Expired);
            }
            st = self.clock.wait(&self.cv, st, deadline);
        }
    }

    /// Returns a slot and re-dispatches. The returned flag says whether the
    /// release happened *saturated* — the limit fully used or work queued —
    /// which is what licenses the AIMD controller to probe upward.
    fn release(&self, slot: usize) -> bool {
        let mut st = self.state.lock().unwrap();
        let saturated = st.in_flight >= st.limit || !st.waiters.is_empty();
        st.free_slots.push(slot);
        st.in_flight -= 1;
        self.dispatch(&mut st);
        saturated
    }

    /// Moves the concurrency limit (clamped to `1..=slots`), dispatching any
    /// waiters a raised limit can now run.
    fn set_limit(&self, limit: usize) {
        let mut st = self.state.lock().unwrap();
        st.limit = limit.clamp(1, self.slots);
        self.dispatch(&mut st);
    }

    fn limit(&self) -> usize {
        self.state.lock().unwrap().limit
    }

    fn queued(&self) -> usize {
        self.state.lock().unwrap().waiters.len()
    }

    fn in_flight(&self) -> usize {
        self.state.lock().unwrap().in_flight
    }

    fn pause(&self) {
        self.state.lock().unwrap().paused = true;
    }

    fn resume(&self) {
        let mut st = self.state.lock().unwrap();
        st.paused = false;
        self.dispatch(&mut st);
    }
}

/// Returns the admission slot on every exit path of a realization, unless
/// defused by [`SlotGuard::release_now`] (the success path, which wants the
/// saturation reading back).
struct SlotGuard<'a> {
    admission: &'a Admission,
    slot: Option<usize>,
}

impl SlotGuard<'_> {
    fn release_now(mut self) -> bool {
        let slot = self.slot.take().expect("released once");
        self.admission.release(slot)
    }
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        if let Some(slot) = self.slot.take() {
            self.admission.release(slot);
        }
    }
}

/// Everything that must match for two requests to share one realization:
/// the program selector, the output shape, the exact parameter *values*
/// (bit patterns — unlike the program cache, values change the pixels), and
/// the identity of the input image. Identity is the `Arc` pointer: two
/// uploads with equal pixels in different allocations do not coalesce,
/// which keeps the check O(1) and can never false-positive.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct FlightKey {
    app: AppKind,
    schedule: ScheduleChoice,
    shape: (i64, i64),
    input_ptr: usize,
    params: Vec<(String, u8, u64)>,
}

impl FlightKey {
    fn of(req: &Request, shape: (i64, i64)) -> FlightKey {
        let mut params: Vec<(String, u8, u64)> = req
            .params
            .iter()
            .map(|(name, v)| {
                let (tag, bits) = v.value_bits();
                (name.clone(), tag, bits)
            })
            .collect();
        params.sort();
        FlightKey {
            app: req.app,
            schedule: req.schedule,
            shape,
            input_ptr: Arc::as_ptr(&req.input) as usize,
            params,
        }
    }
}

/// What a flight's leader publishes for its followers to fan out.
#[derive(Debug, Clone)]
struct FlightShared {
    /// The one realization's output. Followers copy from it; when the last
    /// holder drops its `Arc`, the allocation returns to the buffer pool.
    output: Arc<PooledBuffer>,
    counters: CounterSnapshot,
}

/// One in-progress realization that identical requests attach to.
#[derive(Debug)]
struct Flight {
    result: OnceLock<ServeResult<FlightShared>>,
    /// Followers that joined before the leader concluded — final once the
    /// flight leaves the hub map.
    followers: AtomicU64,
    /// Keeps the input image alive while the flight is joinable, so the
    /// pointer in [`FlightKey`] cannot be recycled onto a different image.
    _input: Arc<Buffer>,
}

enum Role {
    Leader(Arc<Flight>),
    Follower(Arc<Flight>),
}

/// The coalescing hub: in-flight realizations keyed by [`FlightKey`].
#[derive(Debug)]
struct CoalesceHub {
    flights: Mutex<HashMap<FlightKey, Arc<Flight>>>,
    cv: Arc<Condvar>,
}

impl CoalesceHub {
    fn new(clock: &Clock) -> Self {
        let cv = Arc::new(Condvar::new());
        clock.register_waker(&cv);
        CoalesceHub {
            flights: Mutex::new(HashMap::new()),
            cv,
        }
    }

    /// Attaches to the in-progress flight for `key`, or registers a new one
    /// with the caller as leader.
    fn join_or_lead(&self, key: FlightKey, input: Arc<Buffer>) -> Role {
        let mut flights = self.flights.lock().unwrap();
        match flights.get(&key) {
            Some(flight) => {
                flight.followers.fetch_add(1, Ordering::Relaxed);
                Role::Follower(Arc::clone(flight))
            }
            None => {
                let flight = Arc::new(Flight {
                    result: OnceLock::new(),
                    followers: AtomicU64::new(0),
                    _input: input,
                });
                flights.insert(key, Arc::clone(&flight));
                Role::Leader(flight)
            }
        }
    }

    /// Removes the flight from the hub, freezing its follower count: after
    /// this, no request can join it.
    fn conclude(&self, key: &FlightKey) {
        self.flights.lock().unwrap().remove(key);
    }

    /// Publishes a concluded flight's result and wakes its followers. The
    /// hub lock is taken so the store is ordered against every follower's
    /// check-then-wait.
    fn publish(&self, flight: &Flight, result: ServeResult<FlightShared>) {
        let _flights = self.flights.lock().unwrap();
        let _ = flight.result.set(result);
        self.cv.notify_all();
    }
}

/// The leader's realization, before it is published or packaged.
struct Realized {
    output: Buffer,
    cold_compile: Option<Duration>,
    counters: CounterSnapshot,
}

/// Lifecycle timestamps of one request, collected only while the global
/// trace sink is enabled and flushed as one span tree (on the server's
/// [`Clock`] timebase, pid [`halide_trace::PID_SERVE`]) when the request
/// concludes. Every field is a reading of the injectable clock, so
/// manual-clock tests can assert exact span durations.
struct ReqTrace {
    /// Synthetic "thread" id: one lane per request in the trace viewer.
    tid: u64,
    submitted: Duration,
    /// When the admission slot was granted (leader path).
    admitted: Option<Duration>,
    /// When the program was ready (compiled or cache hit).
    compiled: Option<Duration>,
    /// Whether the program lookup was a cache hit.
    cache_hit: bool,
    /// When the realization finished (leader) or the flight's result
    /// arrived (follower).
    realized: Option<Duration>,
}

impl ReqTrace {
    fn new(tid: u64, submitted: Duration) -> Self {
        ReqTrace {
            tid,
            submitted,
            admitted: None,
            compiled: None,
            cache_hit: false,
            realized: None,
        }
    }
}

/// A compile-once / realize-many pipeline server.
///
/// Owns the name [`Registry`], the compiled-[`ProgramCache`], the shared
/// [`BufferPool`], and one persistent worker [`ThreadPool`] per admission
/// slot. `&self` is all any operation needs, so any number of client threads
/// can share one server.
#[derive(Debug)]
pub struct PipelineServer {
    config: ServeConfig,
    clock: Clock,
    registry: Registry,
    cache: ProgramCache,
    buffer_pool: Arc<BufferPool>,
    /// One persistent worker pool per admission slot, reused across every
    /// request the slot serves.
    slot_pools: Vec<ThreadPool>,
    admission: Admission,
    hub: CoalesceHub,
    aimd: Option<AimdController>,
    latency: LatencyRecorder,
    requests: AtomicU64,
    rejected: AtomicU64,
    shed: AtomicU64,
    coalesced: AtomicU64,
    realizations: AtomicU64,
    /// Followers currently parked on a flight (gauge, for tests and drains).
    coalesce_waiting: AtomicU64,
    /// Trace-lane allocator: each traced request gets its own tid so its
    /// span tree renders as one row in the trace viewer.
    trace_seq: AtomicU64,
}

impl PipelineServer {
    /// A server over the full paper-app registry.
    pub fn new(config: ServeConfig) -> Self {
        Self::with_registry(config, Registry::with_paper_apps())
    }

    /// A server over a caller-assembled registry.
    pub fn with_registry(config: ServeConfig, registry: Registry) -> Self {
        let slots = config.max_in_flight.max(1);
        let clock = config.clock.clone();
        let aimd = config
            .adaptive
            .clone()
            .map(|cfg| AimdController::new(cfg, slots, clock.now()));
        let initial_limit = aimd.as_ref().map_or(slots, AimdController::limit);
        PipelineServer {
            slot_pools: (0..slots)
                .map(|_| ThreadPool::new(config.threads_per_request.max(1)))
                .collect(),
            admission: Admission::new(slots, initial_limit, config.queue_capacity, clock.clone()),
            hub: CoalesceHub::new(&clock),
            buffer_pool: Arc::new(BufferPool::new(config.pool_max_bytes)),
            cache: ProgramCache::with_budget(config.cache_max_entries, config.cache_max_bytes),
            latency: LatencyRecorder::new(),
            requests: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            realizations: AtomicU64::new(0),
            coalesce_waiting: AtomicU64::new(0),
            trace_seq: AtomicU64::new(0),
            aimd,
            clock,
            registry,
            config,
        }
    }

    /// The server's registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The shared buffer pool (outputs and scratch draw from it).
    pub fn buffer_pool(&self) -> &Arc<BufferPool> {
        &self.buffer_pool
    }

    /// The time source the server's control loops read.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The concurrency limit currently in force (`max_in_flight`, or the
    /// AIMD controller's current discovery in adaptive mode).
    pub fn concurrency_limit(&self) -> usize {
        self.admission.limit()
    }

    /// Requests currently waiting for an execution slot (gauge).
    pub fn queued(&self) -> usize {
        self.admission.queued()
    }

    /// Requests currently holding an execution slot (gauge).
    pub fn in_flight(&self) -> usize {
        self.admission.in_flight()
    }

    /// Coalescing followers currently parked on an in-progress flight
    /// (gauge).
    pub fn coalesce_waiting(&self) -> u64 {
        self.coalesce_waiting.load(Ordering::Relaxed)
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
        let key = ProgramKey::new(
            app,
            schedule,
            self.config.backend,
            self.config.opt,
            (width, height),
            &[],
        );
        let (entry, cold) = self.cache.get_or_compile(&key)?;
        Ok(cold.then(|| entry.compile_time))
    }

    /// Serves one request: coalescing, admission (priorities, deadlines,
    /// the adaptive limit), program lookup (compiling if cold), realization
    /// into a pooled output buffer, latency recording.
    ///
    /// Blocks while the server is saturated but the wait queue has room.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] once the concurrency limit is filled *and*
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
        let result = self.call_inner(req, submitted, trace.as_mut());
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
            self.emit_request_trace(req, t, &result);
        }
        result
    }

    /// Flushes one request's span tree into the global sink: a `request`
    /// umbrella plus the phases its timestamps witnessed (`queued` →
    /// `compile` → `realize` → `respond` for leaders, `coalesced-wait` →
    /// `respond` for followers).
    fn emit_request_trace(&self, req: &Request, t: &ReqTrace, result: &ServeResult<Response>) {
        let sink = halide_trace::global();
        let done = self.clock.now();
        let event = |name: &str, start: Duration, end: Duration| halide_trace::TraceEvent {
            name: name.to_string(),
            cat: "serve",
            ts_ns: start.as_nanos() as u64,
            dur_ns: end.saturating_sub(start).as_nanos() as u64,
            pid: halide_trace::PID_SERVE,
            tid: t.tid,
            args: Vec::new(),
        };
        let outcome = match result {
            Ok(resp) if resp.coalesced => "ok-coalesced",
            Ok(_) => "ok",
            Err(ServeError::Overloaded { .. }) => "rejected",
            Err(ServeError::DeadlineExceeded { .. }) => "shed",
            Err(_) => "error",
        };
        let coalesced = matches!(result, Ok(resp) if resp.coalesced)
            || (t.admitted.is_none() && t.realized.is_some());
        if let Some(admitted) = t.admitted {
            sink.record(event("queued", t.submitted, admitted));
            if let Some(compiled) = t.compiled {
                let mut e = event("compile", admitted, compiled);
                e.args.push((
                    "cache".to_string(),
                    if t.cache_hit { "hit" } else { "miss" }.to_string(),
                ));
                sink.record(e);
                if let Some(realized) = t.realized {
                    sink.record(event("realize", compiled, realized));
                    sink.record(event("respond", realized, done));
                }
            }
        } else if coalesced {
            if let Some(joined) = t.realized {
                sink.record(event("coalesced-wait", t.submitted, joined));
                sink.record(event("respond", joined, done));
            }
        }
        let mut e = event("request", t.submitted, done);
        e.args.push(("app".to_string(), req.app.name().to_string()));
        e.args
            .push(("schedule".to_string(), format!("{:?}", req.schedule)));
        e.args.push(("outcome".to_string(), outcome.to_string()));
        sink.record(e);
    }

    fn call_inner(
        &self,
        req: &Request,
        submitted: Duration,
        mut trace: Option<&mut ReqTrace>,
    ) -> ServeResult<Response> {
        let deadline = req
            .deadline
            .or(self.config.default_deadline)
            .map(|budget| submitted + budget);
        if req.input.dimensions() < 2 {
            return Err(ServeError::Shape(format!(
                "{} expects a 2-D (or deeper) input, got {} dimension(s)",
                req.app.name(),
                req.input.dimensions()
            )));
        }
        let shape = (req.input.dims()[0].extent, req.input.dims()[1].extent);
        let key = ProgramKey::new(
            req.app,
            req.schedule,
            self.config.backend,
            self.config.opt,
            shape,
            &req.params,
        );

        if !self.config.coalescing {
            let Realized {
                output,
                cold_compile,
                counters,
            } = self.realize_admitted(req, &key, submitted, deadline, trace.as_deref_mut())?;
            return Ok(Response {
                output: self.attach(output),
                latency: self.clock.now().saturating_sub(submitted),
                cold_compile,
                counters,
                coalesced: false,
            });
        }

        let fkey = FlightKey::of(req, shape);
        match self.hub.join_or_lead(fkey.clone(), Arc::clone(&req.input)) {
            Role::Follower(flight) => {
                self.follow(&flight, submitted, deadline, trace.as_deref_mut())
            }
            Role::Leader(flight) => {
                let led =
                    self.realize_admitted(req, &key, submitted, deadline, trace.as_deref_mut());
                match led {
                    Ok(Realized {
                        output,
                        cold_compile,
                        counters,
                    }) => {
                        self.hub.conclude(&fkey);
                        // The count is frozen by `conclude`: nothing joins a
                        // flight that has left the map.
                        let followers = flight.followers.load(Ordering::Relaxed);
                        let output = if followers == 0 {
                            // Fast path — nobody coalesced; the realization is
                            // handed over without a copy, exactly as with
                            // coalescing off.
                            self.attach(output)
                        } else {
                            let shared = Arc::new(self.attach(output));
                            self.hub.publish(
                                &flight,
                                Ok(FlightShared {
                                    output: Arc::clone(&shared),
                                    counters,
                                }),
                            );
                            self.buffer_pool.acquire_copy_of(&shared)
                        };
                        Ok(Response {
                            output,
                            latency: self.clock.now().saturating_sub(submitted),
                            cold_compile,
                            counters,
                            coalesced: false,
                        })
                    }
                    Err(e) => {
                        self.hub.conclude(&fkey);
                        if flight.followers.load(Ordering::Relaxed) > 0 {
                            self.hub.publish(&flight, Err(e.clone()));
                        }
                        Err(e)
                    }
                }
            }
        }
    }

    /// Admission, compile-or-lookup, and the realization itself — the slice
    /// of a request that holds an execution slot. Feeds the AIMD controller
    /// on completion.
    fn realize_admitted(
        &self,
        req: &Request,
        key: &ProgramKey,
        submitted: Duration,
        deadline: Option<Duration>,
        mut trace: Option<&mut ReqTrace>,
    ) -> ServeResult<Realized> {
        let slot = match self.admission.acquire(req.priority, deadline) {
            Ok(slot) => slot,
            Err(AdmitError::Full) => {
                return Err(ServeError::Overloaded {
                    in_flight: self.admission.limit(),
                    queued: self.config.queue_capacity,
                })
            }
            Err(AdmitError::Expired) => return Err(self.deadline_exceeded(submitted)),
        };
        if let Some(t) = trace.as_deref_mut() {
            t.admitted = Some(self.clock.now());
        }
        let guard = SlotGuard {
            admission: &self.admission,
            slot: Some(slot),
        };

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
            .thread_pool(self.slot_pools[slot].clone())
            .buffer_pool(Arc::clone(&self.buffer_pool))
            .input_shared(entry.input_name.clone(), Arc::clone(&req.input));
        for (name, value) in &req.params {
            realizer = value.bind(realizer, name);
        }

        let realization = realizer
            .realize_into(output)
            .map_err(|e| ServeError::Exec(e.to_string()))?;
        if let Some(t) = trace.as_deref_mut() {
            t.realized = Some(self.clock.now());
        }
        let mut counters = realization.counters;
        if output_hit {
            counters.pool_hits += 1;
        } else {
            counters.pool_misses += 1;
        }
        self.realizations.fetch_add(1, Ordering::Relaxed);

        let saturated = guard.release_now();
        if let Some(ctrl) = &self.aimd {
            let now = self.clock.now();
            if let Some(decision) = ctrl.observe(now.saturating_sub(submitted), saturated, now) {
                self.admission.set_limit(decision.limit());
            }
        }

        Ok(Realized {
            output: realization.output,
            cold_compile: cold.then(|| entry.compile_time),
            counters,
        })
    }

    /// Waits on a flight someone else is realizing and fans its output out
    /// into a pooled buffer of our own — bit-identical to having realized.
    fn follow(
        &self,
        flight: &Flight,
        submitted: Duration,
        deadline: Option<Duration>,
        trace: Option<&mut ReqTrace>,
    ) -> ServeResult<Response> {
        self.coalesce_waiting.fetch_add(1, Ordering::Relaxed);
        let shared = {
            let mut flights = self.hub.flights.lock().unwrap();
            loop {
                if let Some(result) = flight.result.get() {
                    break result.clone();
                }
                if deadline_passed(deadline, self.clock.now()) {
                    break Err(self.deadline_exceeded(submitted));
                }
                flights = self.clock.wait(&self.hub.cv, flights, deadline);
            }
        };
        self.coalesce_waiting.fetch_sub(1, Ordering::Relaxed);
        if let Some(t) = trace {
            t.realized = Some(self.clock.now());
        }
        let shared = shared?;
        let output = self.buffer_pool.acquire_copy_of(&shared.output);
        self.coalesced.fetch_add(1, Ordering::Relaxed);
        Ok(Response {
            output,
            latency: self.clock.now().saturating_sub(submitted),
            cold_compile: None,
            counters: shared.counters,
            coalesced: true,
        })
    }

    fn deadline_exceeded(&self, submitted: Duration) -> ServeError {
        ServeError::DeadlineExceeded {
            waited: self.clock.now().saturating_sub(submitted),
        }
    }

    /// Wraps a realized output so it returns to the pool when the caller
    /// drops it.
    fn attach(&self, output: Buffer) -> PooledBuffer {
        PooledBuffer::attached(Arc::clone(&self.buffer_pool), output)
    }

    /// [`PipelineServer::call`] addressed through the registry by name.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownApp`] for unregistered names, otherwise as
    /// [`PipelineServer::call`].
    pub fn call_named(&self, name: &str, input: Arc<Buffer>) -> ServeResult<Response> {
        let spec = self
            .registry
            .get(name)
            .ok_or_else(|| ServeError::UnknownApp(name.to_string()))?;
        self.call(&Request::new(spec.app, spec.schedule, input))
    }

    /// Aggregate statistics: request, rejection, shed, and coalescing
    /// counts, realizations, cold compiles, cache residency and evictions,
    /// the concurrency limit, the latency distribution, and pool accounting.
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
            cache_bytes: self.cache.bytes(),
            concurrency_limit: self.admission.limit() as u64,
            latency: self.latency.snapshot(),
            pool: self.buffer_pool.stats(),
        }
    }

    /// Exports everything collected in the process-global trace sink as
    /// chrome://tracing JSON — request-lifecycle spans from this server
    /// (pid 2) alongside any compile-telemetry spans (pid 1). Tracing must
    /// have been enabled via [`halide_trace::set_enabled`]; with it off the
    /// export is an empty (but valid) trace.
    pub fn trace_export(&self) -> String {
        halide_trace::export_json()
    }

    /// The build cost of every compiled artifact currently resident in the
    /// program cache, keyed by [`ProgramKey`] and sorted most expensive
    /// first — what each entry cost to lower + compile, i.e. the latency a
    /// cold request would pay if it were evicted.
    pub fn compile_costs(&self) -> Vec<(ProgramKey, Duration)> {
        let mut costs = self.cache.compile_costs();
        costs.sort_by_key(|(_, cost)| std::cmp::Reverse(*cost));
        costs
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
    fn named_calls_resolve_through_the_registry() {
        let server = PipelineServer::new(ServeConfig::default());
        let input = Arc::new(AppKind::Blur.make_input(64, 32));
        let resp = server.call_named("blur/naive", Arc::clone(&input)).unwrap();
        assert_eq!(resp.output.dims()[1].extent, 32);
        match server.call_named("sharpen/tuned", input) {
            Err(ServeError::UnknownApp(name)) => assert_eq!(name, "sharpen/tuned"),
            other => panic!("expected UnknownApp, got {other:?}"),
        }
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
        let server = PipelineServer::with_registry(
            ServeConfig {
                max_in_flight: 1,
                queue_capacity: 0,
                ..ServeConfig::default()
            },
            Registry::with_paper_apps(),
        );
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
        let server = Arc::new(PipelineServer::with_registry(
            ServeConfig {
                max_in_flight: 1,
                queue_capacity: 8,
                ..ServeConfig::default()
            },
            Registry::with_paper_apps(),
        ));
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
        let server = Arc::new(PipelineServer::with_registry(
            ServeConfig {
                max_in_flight: 1,
                queue_capacity: 4,
                clock: clock.clone(),
                ..ServeConfig::default()
            },
            Registry::with_paper_apps(),
        ));
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
        assert_eq!(server.in_flight(), 0);
    }

    /// High-priority waiters take freed slots before earlier-arrived normal
    /// waiters; within a class, arrival order wins.
    #[test]
    fn high_priority_jumps_the_queue() {
        let clock = Clock::manual();
        let admission = Arc::new(Admission::new(1, 1, 8, clock.clone()));
        let slot = admission.acquire(Priority::Normal, None).unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));

        let spawn_waiter = |priority: Priority, tag: &'static str| {
            let admission = Arc::clone(&admission);
            let order = Arc::clone(&order);
            std::thread::spawn(move || {
                let slot = admission.acquire(priority, None).unwrap();
                order.lock().unwrap().push(tag);
                admission.release(slot);
            })
        };
        // Normal queues first…
        let normal = spawn_waiter(Priority::Normal, "normal");
        while admission.queued() != 1 {
            std::thread::yield_now();
        }
        // …then two high-priority arrivals.
        let high_a = spawn_waiter(Priority::High, "high-a");
        while admission.queued() != 2 {
            std::thread::yield_now();
        }
        let high_b = spawn_waiter(Priority::High, "high-b");
        while admission.queued() != 3 {
            std::thread::yield_now();
        }

        admission.release(slot);
        for t in [high_a, high_b, normal] {
            t.join().unwrap();
        }
        assert_eq!(
            *order.lock().unwrap(),
            vec!["high-a", "high-b", "normal"],
            "queue-jump order"
        );
    }

    /// An expired waiter is skipped at dispatch even if it has not woken
    /// yet: the grant goes straight to a live waiter.
    #[test]
    fn dispatch_skips_expired_waiters() {
        let clock = Clock::manual();
        let admission = Arc::new(Admission::new(1, 1, 8, clock.clone()));
        let slot = admission.acquire(Priority::Normal, None).unwrap();

        let doomed = {
            let admission = Arc::clone(&admission);
            std::thread::spawn(move || {
                admission.acquire(Priority::High, Some(Duration::from_millis(5)))
            })
        };
        while admission.queued() != 1 {
            std::thread::yield_now();
        }
        let live = {
            let admission = Arc::clone(&admission);
            std::thread::spawn(move || admission.acquire(Priority::Normal, None))
        };
        while admission.queued() != 2 {
            std::thread::yield_now();
        }

        clock.advance(Duration::from_millis(6));
        // The doomed waiter sheds itself on the advance wake.
        assert_eq!(doomed.join().unwrap(), Err(AdmitError::Expired));
        // The freed slot must reach the live normal waiter, not the expired
        // high-priority one.
        admission.release(slot);
        let granted = live.join().unwrap().expect("live waiter runs");
        admission.release(granted);
        assert_eq!(admission.in_flight(), 0);
    }

    // ---- coalescing -------------------------------------------------------

    /// N identical concurrent requests: one compile, one realization,
    /// N bit-identical outputs. Deterministic via pause(): all requests
    /// pile up (leader in the admission queue, followers on the flight)
    /// before any slot dispatches.
    #[test]
    fn coalesced_requests_realize_once_and_fan_out() {
        const CLIENTS: usize = 4;
        let server = Arc::new(PipelineServer::with_registry(
            ServeConfig {
                max_in_flight: 2,
                queue_capacity: 8,
                ..ServeConfig::default()
            },
            Registry::with_paper_apps(),
        ));
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

    /// Coalescing can be disabled wholesale.
    #[test]
    fn coalescing_can_be_disabled() {
        let server = PipelineServer::with_registry(
            ServeConfig {
                coalescing: false,
                ..ServeConfig::default()
            },
            Registry::with_paper_apps(),
        );
        let resp = server.call(&blur_request(64, 32)).unwrap();
        assert!(!resp.coalesced);
        assert_eq!(server.stats().realizations, 1);
    }

    // ---- adaptive concurrency --------------------------------------------

    /// With a zero-length decision window every completion closes a window,
    /// so a few serial saturated requests are enough to watch the limit
    /// climb from 1 toward the ceiling.
    #[test]
    fn adaptive_limit_discovers_width() {
        let server = PipelineServer::with_registry(
            ServeConfig {
                max_in_flight: 4,
                adaptive: Some(AimdConfig {
                    initial_in_flight: 1,
                    window: Duration::ZERO,
                    ..AimdConfig::default()
                }),
                ..ServeConfig::default()
            },
            Registry::with_paper_apps(),
        );
        assert_eq!(server.concurrency_limit(), 1);
        let req = blur_request(64, 32);
        for _ in 0..3 {
            server.call(&req).unwrap();
        }
        // Serial traffic fills the whole limit (in_flight == limit), so each
        // healthy window probes one slot wider.
        assert!(
            server.concurrency_limit() > 1,
            "limit stayed at {}",
            server.concurrency_limit()
        );
        assert_eq!(
            server.stats().concurrency_limit,
            server.concurrency_limit() as u64
        );
    }

    // ---- request-lifecycle tracing ----------------------------------------

    /// Request spans are recorded against the injectable clock: a request
    /// that waits in the admission queue for exactly 7 virtual milliseconds
    /// produces a `queued` span of exactly 7 ms, and its `request` umbrella
    /// covers it.
    #[test]
    fn request_spans_follow_the_manual_clock() {
        let clock = Clock::manual();
        let server = Arc::new(PipelineServer::with_registry(
            ServeConfig {
                clock: clock.clone(),
                ..ServeConfig::default()
            },
            Registry::with_paper_apps(),
        ));
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

    /// The cache's compile-cost surface reports each resident artifact once,
    /// keyed by its ProgramKey, with the cost the cold request paid.
    #[test]
    fn compile_costs_report_resident_artifacts() {
        let server = PipelineServer::new(ServeConfig::default());
        assert!(server.compile_costs().is_empty());
        server.call(&blur_request(64, 32)).unwrap();
        server.call(&blur_request(96, 32)).unwrap();
        let costs = server.compile_costs();
        assert_eq!(costs.len(), 2);
        assert!(costs.iter().all(|(k, _)| k.app == AppKind::Blur));
        assert!(costs[0].1 >= costs[1].1, "sorted most expensive first");
        assert!(costs.iter().all(|(_, c)| *c > Duration::ZERO));
    }

    /// Raising the limit dispatches already-queued waiters.
    #[test]
    fn raising_the_limit_dispatches_waiters() {
        let clock = Clock::manual();
        let admission = Arc::new(Admission::new(4, 1, 8, clock));
        let first = admission.acquire(Priority::Normal, None).unwrap();
        let waiter = {
            let admission = Arc::clone(&admission);
            std::thread::spawn(move || admission.acquire(Priority::Normal, None))
        };
        while admission.queued() != 1 {
            std::thread::yield_now();
        }
        admission.set_limit(2);
        let second = waiter.join().unwrap().expect("limit now admits two");
        assert_eq!(admission.in_flight(), 2);
        admission.release(first);
        admission.release(second);
    }
}
