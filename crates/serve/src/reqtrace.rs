//! Request-lifecycle tracing: the timestamps one request collects while the
//! global trace sink is enabled, flushed as one span tree when it concludes.

use std::time::Duration;

use crate::server::{Request, Response};
use crate::{ServeError, ServeResult};

/// Lifecycle timestamps of one request, collected only while the global
/// trace sink is enabled and flushed as one span tree (on the server's
/// [`Clock`](crate::Clock) timebase, pid [`halide_trace::PID_SERVE`]) when
/// the request concludes. Every field is a reading of the injectable clock,
/// so manual-clock tests can assert exact span durations.
pub(crate) struct ReqTrace {
    /// Synthetic "thread" id: one lane per request in the trace viewer.
    tid: u64,
    submitted: Duration,
    /// When the admission slot was granted (leader path).
    pub(crate) admitted: Option<Duration>,
    /// When the program was ready (compiled or cache hit).
    pub(crate) compiled: Option<Duration>,
    /// Whether the program lookup was a cache hit.
    pub(crate) cache_hit: bool,
    /// When the realization finished (leader) or the flight's result
    /// arrived (follower).
    pub(crate) realized: Option<Duration>,
}

impl ReqTrace {
    pub(crate) fn new(tid: u64, submitted: Duration) -> Self {
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

/// Flushes one request's span tree into the global sink: a `request`
/// umbrella plus the phases its timestamps witnessed (`queued` →
/// `compile` → `realize` → `respond` for leaders, `coalesced-wait` →
/// `respond` for followers). `done` is when the request concluded, on the
/// server's clock.
pub(crate) fn emit_request_trace(
    req: &Request,
    t: &ReqTrace,
    result: &ServeResult<Response>,
    done: Duration,
) {
    let sink = halide_trace::global();
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
