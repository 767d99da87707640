//! # halide-serve
//!
//! A compile-once / realize-many **pipeline server** over the halide-rs
//! compiler — the deployment shape the paper describes (Sec. 4.4: the
//! compiler emits one entry point that is then invoked repeatedly on streams
//! of images) scaled out to concurrent request traffic, and hardened for
//! overload:
//!
//! * a [`ProgramCache`] keyed by *(app, schedule, shape, parameter
//!   signature)* holding shared `Arc<Program>`s, so each distinct pipeline
//!   compiles **once** for the server's backend and optimizer level — and,
//!   under a configured budget, a **cost-aware LRU** ([`CostLru`]) that
//!   prefers evicting cheap-to-recompile programs over expensive ones;
//! * a shared [`BufferPool`](halide_runtime::BufferPool) that outputs and
//!   scratch buffers cycle through, so steady-state requests perform **zero
//!   large allocations** (hit rates are part of [`ServerStats`]);
//! * bounded concurrent **admission**: up to `max_in_flight` requests
//!   execute at once over persistent per-slot worker pools, `queue_capacity`
//!   more may wait, and anything past that is rejected with
//!   [`ServeError::Overloaded`] — backpressure, not collapse;
//! * **request coalescing**: concurrent requests for the same *(app,
//!   schedule, shape, parameter values, input image)* share one realization
//!   — one compile, one execution, every caller a bit-identical output;
//! * per-request **deadlines** and two [`Priority`] classes: high-priority
//!   waiters jump the queue, and a request whose deadline passes is shed
//!   with [`ServeError::DeadlineExceeded`] instead of occupying a slot;
//! * per-request **latency recording** (p50/p95/p99 over a bounded ring) and
//!   request counters.
//!
//! Every time-dependent decision reads the injectable [`Clock`] seam, so
//! deadline expiry and queue-jump are testable under a manual clock with no
//! sleeping.
//!
//! See `docs/serving.md` for the design walkthrough and benchmark numbers
//! (`bench_serve` emits `BENCH_serve.json`, including the overload
//! scenario).
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use halide_serve::{PipelineServer, Request, ServeConfig};
//! use halide_pipelines::{AppKind, ScheduleChoice};
//!
//! let server = PipelineServer::new(ServeConfig::default());
//! // Optional: pay the compile before traffic arrives.
//! server.warm(AppKind::Blur, ScheduleChoice::Tuned, 64, 64).unwrap();
//!
//! let input = Arc::new(AppKind::Blur.make_input(64, 64));
//! let req = Request::new(AppKind::Blur, ScheduleChoice::Tuned, input);
//! for _ in 0..3 {
//!     let resp = server.call(&req).unwrap(); // warm: cached program, pooled output
//!     assert!(resp.cold_compile.is_none());
//!     assert_eq!(resp.output.dims()[0].extent, 64);
//! } // dropping each Response returns its buffer to the pool
//! let stats = server.stats();
//! assert_eq!(stats.requests, 3);
//! assert!(stats.pool.hits >= 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod admission;
pub mod cache;
pub mod clock;
mod coalesce;
pub mod metrics;
mod reqtrace;
pub mod server;

pub use admission::Priority;
pub use cache::{CompiledApp, CostLru, CostLruStats, ParamValue, ProgramCache, ProgramKey};
pub use clock::Clock;
pub use metrics::{LatencyRecorder, LatencyStats, ServerStats, DEFAULT_LATENCY_WINDOW};
pub use server::{PipelineServer, Request, Response, ServeConfig};

use std::sync::{LockResult, PoisonError};

/// Everything that can go wrong while serving a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The server is saturated and its wait queue is full — retry later or
    /// shed load upstream.
    Overloaded {
        /// The server's execution slots (`max_in_flight`), all busy.
        in_flight: usize,
        /// The configured wait-queue bound that was reached.
        queued: usize,
    },
    /// The request's deadline passed before it could execute; it was shed
    /// without occupying an execution slot.
    DeadlineExceeded {
        /// How long the request had been waiting when it was shed.
        waited: std::time::Duration,
    },
    /// The request's input cannot be served (wrong dimensionality etc.).
    Shape(String),
    /// Lowering or program compilation failed.
    Compile(String),
    /// The realization itself failed.
    Exec(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { in_flight, queued } => write!(
                f,
                "server overloaded: {in_flight} requests in flight and {queued} queued"
            ),
            ServeError::DeadlineExceeded { waited } => {
                write!(f, "deadline exceeded after waiting {waited:?}")
            }
            ServeError::Shape(msg) => write!(f, "bad request shape: {msg}"),
            ServeError::Compile(msg) => write!(f, "compilation failed: {msg}"),
            ServeError::Exec(msg) => write!(f, "execution failed: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Serving result alias.
pub type ServeResult<T> = std::result::Result<T, ServeError>;

/// Takes the guard out of a poisoned lock or condvar wait. Every critical
/// section in this crate leaves its state consistent between statements, so
/// a panic under a lock must not turn into a panic in every later request.
pub(crate) fn unpoison<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}
