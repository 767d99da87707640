//! Sampling per-Func profiler (Halide-profiler style).
//!
//! The execution engines publish an atomic "current func" token when they
//! enter and leave a produce nest; a sampler thread reads the token at a
//! fixed interval and charges the sample to whichever Func it names.
//! Attribution is therefore statistical — per-Func time is
//! `total run wall time x samples(f) / total samples` — but the mutator
//! cost is one atomic swap per produce-nest entry/exit, not per
//! operation (per-op atomics were measured to throttle the compiled
//! engine ~3x, which is exactly what this design avoids).
//!
//! Invocation counts and allocation high-water marks are exact: entries
//! are counted with one atomic add per produce entry, and allocation
//! sites charge their buffer's bytes to the Func the buffer stores.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Token value meaning "not inside any produce nest".
pub const NO_FUNC: u32 = u32::MAX;

/// Default sampler period, matching Halide's profiler (1 ms). Faster
/// periods sharpen attribution on short runs but the wakeups preempt the
/// mutator — on a single-core host a 20us period was measured to cost
/// more than 50% wall time, while 1 ms stays under the 10% overhead gate
/// with plenty of samples once a few runs accumulate.
const DEFAULT_SAMPLE_INTERVAL: Duration = Duration::from_millis(1);

struct FuncSlot {
    samples: AtomicU64,
    invocations: AtomicU64,
    alloc_live: AtomicU64,
    alloc_peak: AtomicU64,
}

impl FuncSlot {
    fn new() -> Self {
        FuncSlot {
            samples: AtomicU64::new(0),
            invocations: AtomicU64::new(0),
            alloc_live: AtomicU64::new(0),
            alloc_peak: AtomicU64::new(0),
        }
    }
}

struct ProfilerInner {
    names: Vec<String>,
    index: HashMap<String, u32>,
    slots: Vec<FuncSlot>,
    /// Func currently executing (a produce nest is on the stack).
    current: AtomicU32,
    /// Number of realize calls currently inside the profiled region;
    /// the sampler only counts samples while this is non-zero.
    running: AtomicU32,
    /// Cleared on drop to stop the sampler thread.
    alive: AtomicBool,
    total_samples: AtomicU64,
    outside_samples: AtomicU64,
    run_ns: AtomicU64,
    runs: AtomicU64,
    interval: Duration,
}

/// A sampling per-Func profiler shared between a `Realizer` and its
/// execution contexts. Dropping the last handle stops and joins the
/// sampler thread.
pub struct Profiler {
    inner: Arc<ProfilerInner>,
    sampler: Mutex<Option<JoinHandle<()>>>,
}

impl Profiler {
    /// Creates a profiler for the given Func/buffer names and starts its
    /// sampler thread. Duplicate names collapse onto one slot.
    pub fn new(names: impl IntoIterator<Item = String>) -> Profiler {
        Self::with_interval(names, DEFAULT_SAMPLE_INTERVAL)
    }

    /// Like [`Profiler::new`] with an explicit sampler period.
    pub fn with_interval(names: impl IntoIterator<Item = String>, interval: Duration) -> Profiler {
        let mut uniq: Vec<String> = Vec::new();
        let mut index = HashMap::new();
        for name in names {
            if !index.contains_key(&name) {
                index.insert(name.clone(), uniq.len() as u32);
                uniq.push(name);
            }
        }
        let slots = uniq.iter().map(|_| FuncSlot::new()).collect();
        let inner = Arc::new(ProfilerInner {
            names: uniq,
            index,
            slots,
            current: AtomicU32::new(NO_FUNC),
            running: AtomicU32::new(0),
            alive: AtomicBool::new(true),
            total_samples: AtomicU64::new(0),
            outside_samples: AtomicU64::new(0),
            run_ns: AtomicU64::new(0),
            runs: AtomicU64::new(0),
            interval,
        });
        let sampler = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("halide-profiler".into())
                .spawn(move || sampler_loop(&inner))
                .ok()
        };
        Profiler {
            inner,
            sampler: Mutex::new(sampler),
        }
    }

    /// Resolves a Func name to its slot id.
    pub fn func_id(&self, name: &str) -> Option<u32> {
        self.inner.index.get(name).copied()
    }

    /// Slot names, in id order.
    pub fn names(&self) -> &[String] {
        &self.inner.names
    }

    /// Publishes `id` as the currently-producing Func and counts one
    /// invocation. Returns the previous token, to be passed to
    /// [`Profiler::exit`] when the produce nest is left.
    #[inline]
    pub fn enter(&self, id: u32) -> u32 {
        if let Some(slot) = self.inner.slots.get(id as usize) {
            slot.invocations.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.current.swap(id, Ordering::Relaxed)
    }

    /// [`Profiler::enter`] by name (used by the tree-walking
    /// interpreter). Unknown names leave the token unchanged.
    #[inline]
    pub fn enter_named(&self, name: &str) -> u32 {
        match self.func_id(name) {
            Some(id) => self.enter(id),
            None => self.inner.current.load(Ordering::Relaxed),
        }
    }

    /// Restores the token saved by a matching [`Profiler::enter`].
    #[inline]
    pub fn exit(&self, prev: u32) {
        self.inner.current.store(prev, Ordering::Relaxed);
    }

    /// Charges `bytes` of freshly-allocated storage to `name` and
    /// updates that Func's allocation high-water mark.
    pub fn record_alloc(&self, name: &str, bytes: u64) {
        if let Some(id) = self.func_id(name) {
            let slot = &self.inner.slots[id as usize];
            let live = slot.alloc_live.fetch_add(bytes, Ordering::Relaxed) + bytes;
            slot.alloc_peak.fetch_max(live, Ordering::Relaxed);
        }
    }

    /// Releases `bytes` previously charged to `name`.
    pub fn record_free(&self, name: &str, bytes: u64) {
        if let Some(id) = self.func_id(name) {
            self.inner.slots[id as usize]
                .alloc_live
                .fetch_sub(bytes, Ordering::Relaxed);
        }
    }

    /// Marks the start of a profiled realization: the sampler counts
    /// samples only while at least one run is active.
    pub fn begin_run(&self) {
        self.inner.running.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks the end of a profiled realization and accumulates its wall
    /// time into the attribution denominator.
    pub fn end_run(&self, wall: Duration) {
        self.inner.running.fetch_sub(1, Ordering::Relaxed);
        self.inner
            .run_ns
            .fetch_add(wall.as_nanos() as u64, Ordering::Relaxed);
        self.inner.runs.fetch_add(1, Ordering::Relaxed);
    }

    /// Total samples taken while runs were active.
    pub fn total_samples(&self) -> u64 {
        self.inner.total_samples.load(Ordering::Relaxed)
    }

    /// Builds the per-Func attribution report from everything sampled so
    /// far. Funcs with no samples, invocations, or allocations are
    /// omitted.
    pub fn report(&self) -> ProfileReport {
        let total = self.inner.total_samples.load(Ordering::Relaxed);
        let outside = self.inner.outside_samples.load(Ordering::Relaxed);
        let run_ns = self.inner.run_ns.load(Ordering::Relaxed);
        let mut funcs: Vec<FuncProfile> = Vec::new();
        for (i, slot) in self.inner.slots.iter().enumerate() {
            let samples = slot.samples.load(Ordering::Relaxed);
            let invocations = slot.invocations.load(Ordering::Relaxed);
            let peak = slot.alloc_peak.load(Ordering::Relaxed);
            if samples == 0 && invocations == 0 && peak == 0 {
                continue;
            }
            let frac = if total > 0 {
                samples as f64 / total as f64
            } else {
                0.0
            };
            funcs.push(FuncProfile {
                name: self.inner.names[i].clone(),
                samples,
                invocations,
                peak_alloc_bytes: peak,
                time_frac: frac,
                est_time: Duration::from_nanos((frac * run_ns as f64) as u64),
            });
        }
        funcs.sort_by(|a, b| b.samples.cmp(&a.samples).then(a.name.cmp(&b.name)));
        ProfileReport {
            total_wall: Duration::from_nanos(run_ns),
            runs: self.inner.runs.load(Ordering::Relaxed),
            total_samples: total,
            outside_samples: outside,
            funcs,
        }
    }
}

impl Drop for Profiler {
    fn drop(&mut self) {
        self.inner.alive.store(false, Ordering::Relaxed);
        if let Some(handle) = self.sampler.lock().unwrap().take() {
            let _ = handle.join();
        }
    }
}

fn sampler_loop(inner: &ProfilerInner) {
    while inner.alive.load(Ordering::Relaxed) {
        if inner.running.load(Ordering::Relaxed) > 0 {
            let cur = inner.current.load(Ordering::Relaxed);
            inner.total_samples.fetch_add(1, Ordering::Relaxed);
            match inner.slots.get(cur as usize) {
                Some(slot) => {
                    slot.samples.fetch_add(1, Ordering::Relaxed);
                }
                None => {
                    inner.outside_samples.fetch_add(1, Ordering::Relaxed);
                }
            }
            std::thread::sleep(inner.interval);
        } else {
            // Idle between runs: back off so a live-but-unused profiler
            // costs essentially nothing.
            std::thread::sleep(inner.interval * 8);
        }
    }
}

/// One row of a [`ProfileReport`].
#[derive(Debug, Clone)]
pub struct FuncProfile {
    /// Func (or buffer) name.
    pub name: String,
    /// Samples that landed while this Func's produce nest was current.
    pub samples: u64,
    /// Exact number of produce-nest entries.
    pub invocations: u64,
    /// High-water mark of live storage bytes charged to this Func.
    pub peak_alloc_bytes: u64,
    /// Fraction of in-run samples attributed to this Func.
    pub time_frac: f64,
    /// `time_frac` scaled by total profiled wall time.
    pub est_time: Duration,
}

/// Per-Func attribution summary; `Display` renders the compact text
/// table printed by `Realizer::profile_report()`.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Sum of wall time over all profiled realizations.
    pub total_wall: Duration,
    /// Number of profiled realizations.
    pub runs: u64,
    /// Samples taken while at least one run was active.
    pub total_samples: u64,
    /// In-run samples that landed outside any produce nest.
    pub outside_samples: u64,
    /// Per-Func rows, hottest first.
    pub funcs: Vec<FuncProfile>,
}

impl ProfileReport {
    /// Fraction of in-run samples attributed to a named Func (the
    /// acceptance gate requires >= 0.95 on the tuned camera pipe).
    pub fn attributed_frac(&self) -> f64 {
        if self.total_samples == 0 {
            return 0.0;
        }
        1.0 - self.outside_samples as f64 / self.total_samples as f64
    }

    /// The `n` hottest rows.
    pub fn top(&self, n: usize) -> &[FuncProfile] {
        &self.funcs[..self.funcs.len().min(n)]
    }
}

impl fmt::Display for ProfileReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "profile: {} run(s), {:.3} ms total, {} samples ({:.1}% attributed)",
            self.runs,
            self.total_wall.as_secs_f64() * 1e3,
            self.total_samples,
            100.0 * self.attributed_frac()
        )?;
        writeln!(
            f,
            "  {:<24} {:>7} {:>11} {:>9} {:>12}",
            "func", "time%", "est ms", "calls", "peak bytes"
        )?;
        for row in &self.funcs {
            writeln!(
                f,
                "  {:<24} {:>6.1}% {:>11.3} {:>9} {:>12}",
                row.name,
                100.0 * row.time_frac,
                row.est_time.as_secs_f64() * 1e3,
                row.invocations,
                row.peak_alloc_bytes
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enter_exit_counts_invocations_and_restores_token() {
        let p = Profiler::new(["a".to_string(), "b".to_string()]);
        let a = p.func_id("a").unwrap();
        let b = p.func_id("b").unwrap();
        let prev = p.enter(a);
        assert_eq!(prev, NO_FUNC);
        let prev2 = p.enter(b);
        assert_eq!(prev2, a);
        p.exit(prev2);
        p.exit(prev);
        let report = p.report();
        let get = |n: &str| report.funcs.iter().find(|r| r.name == n).unwrap();
        assert_eq!(get("a").invocations, 1);
        assert_eq!(get("b").invocations, 1);
    }

    #[test]
    fn sampler_attributes_time_to_current_func() {
        let p = Profiler::with_interval(
            ["hot".to_string(), "cold".to_string()],
            Duration::from_micros(20),
        );
        let hot = p.func_id("hot").unwrap();
        p.begin_run();
        let prev = p.enter(hot);
        std::thread::sleep(Duration::from_millis(30));
        p.exit(prev);
        p.end_run(Duration::from_millis(30));
        let report = p.report();
        assert!(report.total_samples > 0, "sampler should have fired");
        let hot_row = report.funcs.iter().find(|r| r.name == "hot").unwrap();
        assert!(
            hot_row.time_frac > 0.9,
            "hot func should dominate, got {}",
            hot_row.time_frac
        );
        assert!(report.attributed_frac() > 0.9);
    }

    #[test]
    fn alloc_tracking_keeps_high_water_mark() {
        let p = Profiler::new(["f".to_string()]);
        p.record_alloc("f", 100);
        p.record_alloc("f", 50);
        p.record_free("f", 100);
        p.record_alloc("f", 20);
        p.record_free("f", 70);
        let report = p.report();
        let row = report.funcs.iter().find(|r| r.name == "f").unwrap();
        assert_eq!(row.peak_alloc_bytes, 150);
        p.record_alloc("unknown-func", 1 << 40); // ignored, no slot
        assert_eq!(p.report().funcs.len(), 1);
    }

    #[test]
    fn sampler_is_idle_between_runs() {
        let p = Profiler::with_interval(["f".to_string()], Duration::from_micros(20));
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(p.total_samples(), 0, "no samples outside begin/end_run");
    }
}
