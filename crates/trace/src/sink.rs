//! Ring-buffered trace sink with a chrome://tracing JSON exporter.
//!
//! Events are stored as *complete* events (`"ph":"X"`: a start timestamp
//! plus a duration) rather than begin/end pairs, so an exported trace can
//! never contain orphaned begin or end markers — the failure mode the CI
//! schema check guards against.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::json::JsonValue;

/// `pid` used for compile-side spans (lowering, optimizer passes,
/// realize-side profiling) whose timestamps come from `Instant`.
pub const PID_COMPILE: u32 = 1;

/// `pid` used for serve request-lifecycle spans whose timestamps come
/// from the server's injectable `Clock` (a different timebase, so they
/// get their own process row in the viewer).
pub const PID_SERVE: u32 = 2;

/// Default ring capacity: oldest events are dropped beyond this.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// One complete trace event (chrome://tracing `"ph":"X"`).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Span name, e.g. `"lower/vectorize"` or `"request blur/tuned"`.
    pub name: String,
    /// Category, e.g. `"compile"`, `"serve"`, `"profile"`.
    pub cat: &'static str,
    /// Start timestamp in nanoseconds (timebase depends on `pid`).
    pub ts_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Process row in the viewer ([`PID_COMPILE`] or [`PID_SERVE`]).
    pub pid: u32,
    /// Thread / request row within the process row.
    pub tid: u64,
    /// Key/value arguments shown when the span is selected.
    pub args: Vec<(String, String)>,
}

impl TraceEvent {
    /// Builds a bare compile-side event with no args.
    pub fn complete(name: impl Into<String>, cat: &'static str, ts_ns: u64, dur_ns: u64) -> Self {
        TraceEvent {
            name: name.into(),
            cat,
            ts_ns,
            dur_ns,
            pid: PID_COMPILE,
            tid: current_tid(),
            args: Vec::new(),
        }
    }
}

/// A ring-buffered event sink, disabled by default.
///
/// When disabled, [`TraceSink::record`] is a single relaxed atomic load.
/// When enabled, events are pushed into a bounded ring under a mutex;
/// once full the oldest events are dropped (and counted).
pub struct TraceSink {
    enabled: AtomicBool,
    dropped: AtomicU64,
    ring: Mutex<VecDeque<TraceEvent>>,
    capacity: usize,
}

impl TraceSink {
    /// Creates a disabled sink with the default ring capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// Creates a disabled sink holding at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceSink {
            enabled: AtomicBool::new(false),
            dropped: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
        }
    }

    /// Turns collection on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether the sink is currently collecting.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Records one event (dropped silently when the sink is disabled).
    pub fn record(&self, event: TraceEvent) {
        if !self.enabled() {
            return;
        }
        let mut ring = self.ring.lock().unwrap();
        if ring.len() >= self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
    }

    /// Number of events evicted from the ring since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Snapshot of every event currently in the ring (oldest first).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.ring.lock().unwrap().iter().cloned().collect()
    }

    /// Discards all collected events.
    pub fn clear(&self) {
        self.ring.lock().unwrap().clear();
    }

    /// Exports the ring as a chrome://tracing JSON object.
    ///
    /// Timestamps are emitted in microseconds (the chrome trace unit)
    /// with nanosecond precision preserved in the fraction. Two metadata
    /// events name the process rows. The output always passes
    /// [`validate_json_syntax`].
    pub fn export_json(&self) -> String {
        let process_name = |pid: u32, name: &str| {
            JsonValue::object([
                ("name", JsonValue::from("process_name")),
                ("ph", "M".into()),
                ("pid", pid.into()),
                ("tid", 0u32.into()),
                ("args", JsonValue::object([("name", name)])),
            ])
        };
        let mut trace_events = vec![
            process_name(PID_COMPILE, "compile+exec"),
            process_name(PID_SERVE, "serve"),
        ];
        for e in self.events() {
            let args = (!e.args.is_empty()).then(|| ("args", JsonValue::object(e.args)));
            let fields = [
                ("name", JsonValue::from(e.name)),
                ("cat", e.cat.into()),
                ("ph", "X".into()),
                ("ts", (e.ts_ns as f64 / 1000.0).into()),
                ("dur", (e.dur_ns as f64 / 1000.0).into()),
                ("pid", e.pid.into()),
                ("tid", e.tid.into()),
            ];
            trace_events.push(JsonValue::object(fields.into_iter().chain(args)));
        }
        let mut out = String::new();
        JsonValue::object([
            ("displayTimeUnit", JsonValue::from("ms")),
            ("traceEvents", JsonValue::Array(trace_events)),
        ])
        .write(&mut out);
        out
    }
}

impl Default for TraceSink {
    fn default() -> Self {
        Self::new()
    }
}

/// Returns a small stable integer id for the current thread, used as the
/// chrome trace `tid`.
pub fn current_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

// ---------------------------------------------------------------------------
// Trace-file validation (used by the CI schema check).
// ---------------------------------------------------------------------------

/// Validates an exported trace against the chrome://tracing schema:
/// syntactically well-formed JSON, a top-level `traceEvents` array, and
/// every event an object with a `name`, a known phase, and (for complete
/// events) non-negative `ts`/`dur`. Since the exporter only emits
/// complete (`"X"`) and metadata (`"M"`) events, a passing trace cannot
/// contain orphaned begin/end markers.
///
/// Returns the number of events on success.
pub fn validate_json_syntax(json: &str) -> Result<usize, String> {
    let doc = JsonValue::parse(json)?;
    if !matches!(doc, JsonValue::Object(_)) {
        return Err("top level is not an object".into());
    }
    let Some(JsonValue::Array(events)) = doc.get("traceEvents") else {
        return Err("missing traceEvents array".into());
    };
    for (i, ev) in events.iter().enumerate() {
        if !matches!(ev, JsonValue::Object(_)) {
            return Err(format!("event {i} is not an object"));
        }
        match ev.get("name") {
            Some(JsonValue::String(n)) if !n.is_empty() => {}
            _ => return Err(format!("event {i} has no name")),
        }
        let Some(JsonValue::String(ph)) = ev.get("ph") else {
            return Err(format!("event {i} has no phase"));
        };
        match ph.as_str() {
            "M" => {}
            "X" => {
                for key in ["ts", "dur"] {
                    match ev.get(key) {
                        Some(JsonValue::Int(n)) if *n >= 0 => {}
                        Some(JsonValue::Number(n)) if *n >= 0.0 && n.is_finite() => {}
                        _ => return Err(format!("event {i} has invalid {key}")),
                    }
                }
            }
            // Begin/end/async phases would need pairing; the exporter
            // never emits them, so their presence is a schema violation.
            other => return Err(format!("event {i} has unsupported phase {other:?}")),
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_drops_oldest_when_full() {
        let sink = TraceSink::with_capacity(2);
        sink.set_enabled(true);
        for i in 0..5 {
            sink.record(TraceEvent::complete(format!("e{i}"), "t", i, 1));
        }
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "e3");
        assert_eq!(events[1].name, "e4");
        assert_eq!(sink.dropped(), 3);
    }

    #[test]
    fn export_round_trips_through_validator() {
        let sink = TraceSink::new();
        sink.set_enabled(true);
        let mut e = TraceEvent::complete("needs \"escaping\"\n", "test", 1234, 5678);
        e.args = vec![("app".into(), "blur".into()), ("n".into(), "3".into())];
        sink.record(e);
        sink.record(TraceEvent::complete("plain", "test", 9999, 0));
        let json = sink.export_json();
        let n = validate_json_syntax(&json).expect("exported trace must validate");
        // 2 recorded events + 2 process_name metadata events.
        assert_eq!(n, 4);
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_json_syntax("not json").is_err());
        assert!(validate_json_syntax("{}").is_err());
        assert!(validate_json_syntax("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err());
        assert!(
            validate_json_syntax("{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"B\",\"ts\":1}]}")
                .is_err()
        );
        assert!(validate_json_syntax(
            "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"ts\":1,\"dur\":-2}]}"
        )
        .is_err());
    }

    #[test]
    fn validator_accepts_minimal_complete_event() {
        let ok = "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"ts\":0.5,\"dur\":2}]}";
        assert_eq!(validate_json_syntax(ok), Ok(1));
    }

    #[test]
    fn tids_are_stable_per_thread() {
        let a = current_tid();
        let b = current_tid();
        assert_eq!(a, b);
        let other = std::thread::spawn(current_tid).join().unwrap();
        assert_ne!(a, other);
    }
}
