//! The benchmark's own span recorder: one span around every call into a
//! layer (`lang.build`, `schedule.apply`, `lower.lower`, `exec.compile`,
//! `exec.bind`, `exec.realize`, `serve.call`, `oracle.check`), recorded from
//! outside the program. Spans inside the program are a later issue.
//!
//! [`Recorder::span`] always *times* the call (every phase time in the
//! benchmark comes from here) and additionally *records* it when the
//! recorder is on, so the traced and untraced passes run the same code.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::json::Json;

/// One completed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `lower.lower`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the span that was open on this thread when this one started.
    pub parent: Option<usize>,
    /// The operation (realize, compile or request) the span belongs to;
    /// spans of one operation share it.
    pub op: u64,
}

impl Span {
    fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    /// Indices of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// In-memory span store; written out once, when the workload ends.
#[derive(Debug)]
pub struct Recorder {
    on: AtomicBool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A recorder that is off: it times calls and records nothing.
    pub fn new() -> Recorder {
        Recorder {
            on: AtomicBool::new(false),
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Turns recording on or off (timing is unaffected).
    pub fn set_on(&self, on: bool) {
        // Relaxed: the flag publishes no other data; a span that straddles
        // the flip is either recorded whole or not at all.
        self.on.store(on, Ordering::Relaxed);
    }

    /// Nanoseconds since the recorder was created — the clock spans use.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f`, returning its result and its wall time; when the recorder
    /// is on the call is also stored as a span of operation `op`, nested
    /// under whatever span this thread has open.
    pub fn span<R>(&self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> (R, Duration) {
        if !self.on.load(Ordering::Relaxed) {
            let start = Instant::now();
            let r = f();
            return (r, start.elapsed());
        }
        let parent = OPEN.with(|o| o.borrow().last().copied());
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self.spans.lock().expect("span store poisoned");
            spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                op,
            });
            spans.len() - 1
        };
        OPEN.with(|o| o.borrow_mut().push(id));
        let r = f();
        OPEN.with(|o| o.borrow_mut().pop());
        let end_ns = self.now_ns();
        self.spans.lock().expect("span store poisoned")[id].end_ns = end_ns;
        (r, Duration::from_nanos(end_ns - start_ns))
    }

    /// A copy of everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

/// Self time per span name, in nanoseconds: each span's duration minus the
/// part of it its child spans cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.nanos();
        }
    }
    let mut out = BTreeMap::new();
    for (s, children) in spans.iter().zip(&child_ns) {
        *out.entry(s.name).or_insert(0) += s.nanos().saturating_sub(*children);
    }
    out
}

/// The trace file: every span plus the per-name self-time table.
pub fn to_json(workload: &str, spans: &[Span]) -> Json {
    let rows = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            Json::obj([
                ("id", Json::Num(id as f64)),
                ("name", Json::str(s.name)),
                ("start_us", Json::Num(s.start_ns as f64 / 1e3)),
                ("end_us", Json::Num(s.end_ns as f64 / 1e3)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("op", Json::Num(s.op as f64)),
            ])
        })
        .collect();
    let self_ms = self_times(spans)
        .into_iter()
        .map(|(name, ns)| (name, Json::Num(ns as f64 / 1e6)));
    Json::obj([
        ("workload", Json::str(workload)),
        ("self_ms", Json::obj(self_ms)),
        ("spans", Json::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_recorder_times_but_stores_nothing() {
        let rec = Recorder::new();
        let (v, d) = rec.span("exec.realize", 1, || {
            std::thread::sleep(Duration::from_millis(2));
            7
        });
        assert_eq!(v, 7);
        assert!(d >= Duration::from_millis(2));
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn nesting_gives_parents_and_self_time_subtracts_children() {
        let rec = Recorder::new();
        rec.set_on(true);
        rec.span("serve.call", 9, || {
            rec.span("exec.realize", 9, || {
                std::thread::sleep(Duration::from_millis(3))
            });
            std::thread::sleep(Duration::from_millis(2));
        });
        rec.span("oracle.check", 9, || ());
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert!(spans.iter().all(|s| s.op == 9));

        let st = self_times(&spans);
        let total: u64 = st.values().sum();
        let roots: u64 = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::nanos)
            .sum();
        assert_eq!(total, roots, "self times telescope to the root spans");
        assert!(st["serve.call"] < spans[0].nanos());
        assert!(st["exec.realize"] >= 3_000_000);

        let file = to_json("w", &spans);
        assert_eq!(
            file.get("spans").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
    }
}
