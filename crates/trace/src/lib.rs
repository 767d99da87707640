//! Workspace-wide observability for the Halide reproduction.
//!
//! Three producers feed one sink:
//!
//! * the **sampling per-Func profiler** ([`Profiler`]) — a sampler thread
//!   reads an atomic "current func" token that the execution engines
//!   publish at produce-nest entry/exit, yielding per-Func wall-time %,
//!   peak allocation bytes, and invocation counts with near-zero mutator
//!   overhead;
//! * **compile telemetry** — lowering phases and pre-codegen optimizer
//!   passes record wall-time spans;
//! * **request-lifecycle tracing** — the pipeline server records a span
//!   tree per request (queued → admitted → compile → realize → respond)
//!   against its injectable clock.
//!
//! All spans land in one process-global ring-buffered [`TraceSink`],
//! exportable as chrome://tracing-compatible JSON via [`export_json`].
//! Tracing is **disabled by default**: when disabled, every record call
//! is a single relaxed atomic load and the span guards never touch the
//! clock, so the instrumentation costs ~0%.
//!
//! See `docs/observability.md` for the span taxonomy and the overhead
//! methodology.

mod json;
mod profiler;
mod sink;

pub use json::JsonValue;
pub use profiler::{FuncProfile, ProfileReport, Profiler, NO_FUNC};
pub use sink::{current_tid, validate_json_syntax, TraceEvent, TraceSink, PID_COMPILE, PID_SERVE};

use std::sync::OnceLock;
use std::time::Instant;

/// Returns the process-global trace sink.
///
/// All instrumentation in the workspace records into this sink; call
/// [`set_enabled`]`(true)` to start collecting and [`export_json`] to
/// dump everything collected so far.
pub fn global() -> &'static TraceSink {
    static SINK: OnceLock<TraceSink> = OnceLock::new();
    SINK.get_or_init(TraceSink::new)
}

/// Enables or disables the process-global sink at runtime.
pub fn set_enabled(on: bool) {
    global().set_enabled(on);
}

/// Whether the process-global sink is currently collecting.
pub fn enabled() -> bool {
    global().enabled()
}

/// Exports everything in the global sink as chrome://tracing JSON
/// (load the string via `chrome://tracing` or <https://ui.perfetto.dev>).
pub fn export_json() -> String {
    global().export_json()
}

/// Nanoseconds since the process trace epoch (first use).
///
/// `Instant`-based span timestamps share this epoch so spans from
/// different crates line up on one timeline.
pub fn epoch_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// An RAII wall-clock span: records a complete event into the global
/// sink when dropped. Construct with [`span`].
pub struct Span {
    inner: Option<SpanInner>,
}

struct SpanInner {
    name: String,
    cat: &'static str,
    start_ns: u64,
    args: Vec<(String, String)>,
}

impl Span {
    /// Attaches a key/value argument shown in the trace viewer.
    /// No-op when tracing is disabled.
    pub fn arg(mut self, key: &str, value: impl ToString) -> Self {
        if let Some(inner) = &mut self.inner {
            inner.args.push((key.to_string(), value.to_string()));
        }
        self
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let end = epoch_ns();
            global().record(TraceEvent {
                name: inner.name,
                cat: inner.cat,
                ts_ns: inner.start_ns,
                dur_ns: end.saturating_sub(inner.start_ns),
                pid: PID_COMPILE,
                tid: current_tid(),
                args: inner.args,
            });
        }
    }
}

/// Opens a wall-clock span (category `cat`) that records itself into the
/// global sink when the returned guard drops.
///
/// When tracing is disabled this neither reads the clock nor allocates:
/// the cost is one relaxed atomic load.
pub fn span(name: impl Into<String>, cat: &'static str) -> Span {
    if !enabled() {
        return Span { inner: None };
    }
    Span {
        inner: Some(SpanInner {
            name: name.into(),
            cat,
            start_ns: epoch_ns(),
            args: Vec::new(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_records_nothing() {
        // Uses a private sink (not the global one) to stay independent of
        // other tests that may enable global tracing concurrently.
        let sink = TraceSink::new();
        assert!(!sink.enabled());
        sink.record(TraceEvent::complete("x", "test", 0, 1));
        assert_eq!(sink.events().len(), 0);
    }

    #[test]
    fn span_guard_records_into_global_when_enabled() {
        set_enabled(true);
        {
            let _s = span("unit-test-span", "test").arg("k", "v");
        }
        let found = global()
            .events()
            .into_iter()
            .any(|e| e.name == "unit-test-span" && e.cat == "test");
        assert!(found, "span guard should have recorded an event");
    }
}
