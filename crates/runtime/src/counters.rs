//! Instrumentation counters.
//!
//! The executor counts the work it performs so the benchmark harnesses can
//! report the quantities of Fig. 3 of the paper (work amplification, locality
//! proxies, available parallelism) in addition to wall-clock time.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// How a vector memory access touches a buffer, judged purely from its lane
/// indices — see [`classify_flat_indices`]. Both execution backends classify
/// every multi-lane load and store through the same rule, so the per-op
/// counters below agree exactly between them (a requirement of the
/// differential test suite).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// One lane (or none): the scalar paths.
    Scalar,
    /// Consecutive indices (`stride == 1`): one contiguous bulk read/write.
    Dense,
    /// A constant non-unit stride between lanes (including stride 0).
    Strided,
    /// Anything else: a data-dependent gather (load) or scatter (store).
    Gather,
}

/// Classifies a flat-index vector by the rule shared between the engines:
/// `<= 1` lane is scalar, equal lane-to-lane deltas are dense (delta 1) or
/// strided (any other constant delta), and everything else is a gather /
/// scatter.
pub fn classify_flat_indices(idx: &[i64]) -> AccessPattern {
    if idx.len() <= 1 {
        return AccessPattern::Scalar;
    }
    let stride = idx[1].wrapping_sub(idx[0]);
    if idx.windows(2).all(|w| w[1].wrapping_sub(w[0]) == stride) {
        if stride == 1 {
            AccessPattern::Dense
        } else {
            AccessPattern::Strided
        }
    } else {
        AccessPattern::Gather
    }
}

/// Thread-safe work counters, shared by every thread of a realization.
#[derive(Debug, Default)]
pub struct Counters {
    arith_ops: AtomicU64,
    loads: AtomicU64,
    stores: AtomicU64,
    elements_loaded: AtomicU64,
    elements_stored: AtomicU64,
    dense_loads: AtomicU64,
    strided_loads: AtomicU64,
    gather_loads: AtomicU64,
    dense_stores: AtomicU64,
    strided_stores: AtomicU64,
    scatter_stores: AtomicU64,
    masked_selects: AtomicU64,
    masked_loads: AtomicU64,
    masked_stores: AtomicU64,
    allocations: AtomicU64,
    pool_hits: AtomicU64,
    pool_misses: AtomicU64,
    bytes_allocated: AtomicU64,
    peak_bytes_live: AtomicU64,
    bytes_live: AtomicU64,
    parallel_tasks: AtomicU64,
}

impl Counters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` arithmetic operations (a vector operation counts once, as
    /// a SIMD unit would execute it).
    pub fn add_arith(&self, n: u64) {
        self.arith_ops.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a load of `lanes` elements.
    pub fn add_load(&self, lanes: u64) {
        self.loads.fetch_add(1, Ordering::Relaxed);
        self.elements_loaded.fetch_add(lanes, Ordering::Relaxed);
    }

    /// Records a store of `lanes` elements.
    pub fn add_store(&self, lanes: u64) {
        self.stores.fetch_add(1, Ordering::Relaxed);
        self.elements_stored.fetch_add(lanes, Ordering::Relaxed);
    }

    /// Records the access pattern of a vector load ([`AccessPattern::Scalar`]
    /// is a no-op: scalar accesses are `loads - dense - strided - gather`).
    pub fn add_load_pattern(&self, pattern: AccessPattern) {
        match pattern {
            AccessPattern::Scalar => {}
            AccessPattern::Dense => {
                self.dense_loads.fetch_add(1, Ordering::Relaxed);
            }
            AccessPattern::Strided => {
                self.strided_loads.fetch_add(1, Ordering::Relaxed);
            }
            AccessPattern::Gather => {
                self.gather_loads.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Records the access pattern of a vector store (scalar is a no-op, as
    /// for [`Counters::add_load_pattern`]).
    pub fn add_store_pattern(&self, pattern: AccessPattern) {
        match pattern {
            AccessPattern::Scalar => {}
            AccessPattern::Dense => {
                self.dense_stores.fetch_add(1, Ordering::Relaxed);
            }
            AccessPattern::Strided => {
                self.strided_stores.fetch_add(1, Ordering::Relaxed);
            }
            AccessPattern::Gather => {
                self.scatter_stores.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Records a `select` evaluated with a multi-lane condition (a masked
    /// blend rather than a taken-branch dispatch).
    pub fn add_masked_select(&self) {
        self.masked_selects.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a predicated (masked) bulk load — one per load instruction,
    /// on top of the [`Counters::add_load`] / pattern accounting, which
    /// still classifies the full-width index vector.
    pub fn add_masked_load(&self) {
        self.masked_loads.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a predicated (masked) bulk store, mirroring
    /// [`Counters::add_masked_load`].
    pub fn add_masked_store(&self) {
        self.masked_stores.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an allocation of `bytes` bytes.
    pub fn add_allocation(&self, bytes: u64) {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        self.bytes_allocated.fetch_add(bytes, Ordering::Relaxed);
        let live = self.bytes_live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak_bytes_live.fetch_max(live, Ordering::Relaxed);
    }

    /// Records freeing an allocation of `bytes` bytes.
    pub fn add_free(&self, bytes: u64) {
        self.bytes_live.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Records a buffer acquisition served by recycling from a
    /// [`BufferPool`](crate::BufferPool).
    pub fn add_pool_hit(&self) {
        self.pool_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a buffer acquisition that fell through the pool to a fresh
    /// allocation (or ran with no pool configured at all — the two are
    /// equivalent for steady-state accounting).
    pub fn add_pool_miss(&self) {
        self.pool_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` tasks handed to the thread pool.
    pub fn add_parallel_tasks(&self, n: u64) {
        self.parallel_tasks.fetch_add(n, Ordering::Relaxed);
    }

    /// Takes a consistent-enough snapshot for reporting (individual counters
    /// are read independently; tiny skew between them is irrelevant for
    /// benchmarking purposes).
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            arith_ops: self.arith_ops.load(Ordering::Relaxed),
            loads: self.loads.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            elements_loaded: self.elements_loaded.load(Ordering::Relaxed),
            elements_stored: self.elements_stored.load(Ordering::Relaxed),
            dense_loads: self.dense_loads.load(Ordering::Relaxed),
            strided_loads: self.strided_loads.load(Ordering::Relaxed),
            gather_loads: self.gather_loads.load(Ordering::Relaxed),
            dense_stores: self.dense_stores.load(Ordering::Relaxed),
            strided_stores: self.strided_stores.load(Ordering::Relaxed),
            scatter_stores: self.scatter_stores.load(Ordering::Relaxed),
            masked_selects: self.masked_selects.load(Ordering::Relaxed),
            masked_loads: self.masked_loads.load(Ordering::Relaxed),
            masked_stores: self.masked_stores.load(Ordering::Relaxed),
            allocations: self.allocations.load(Ordering::Relaxed),
            pool_hits: self.pool_hits.load(Ordering::Relaxed),
            pool_misses: self.pool_misses.load(Ordering::Relaxed),
            bytes_allocated: self.bytes_allocated.load(Ordering::Relaxed),
            peak_bytes_live: self.peak_bytes_live.load(Ordering::Relaxed),
            parallel_tasks: self.parallel_tasks.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`Counters`], cheap to clone and compare.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Arithmetic operations executed (vector ops count once).
    pub arith_ops: u64,
    /// Load instructions executed (vector loads count once).
    pub loads: u64,
    /// Store instructions executed (vector stores count once).
    pub stores: u64,
    /// Individual elements loaded.
    pub elements_loaded: u64,
    /// Individual elements stored.
    pub elements_stored: u64,
    /// Vector loads through consecutive (unit-stride) indices.
    pub dense_loads: u64,
    /// Vector loads through a constant non-unit stride.
    pub strided_loads: u64,
    /// Vector loads through data-dependent indices (gathers).
    pub gather_loads: u64,
    /// Vector stores through consecutive (unit-stride) indices.
    pub dense_stores: u64,
    /// Vector stores through a constant non-unit stride.
    pub strided_stores: u64,
    /// Vector stores through data-dependent indices (scatters).
    pub scatter_stores: u64,
    /// `select`s evaluated with a multi-lane condition (masked blends).
    pub masked_selects: u64,
    /// Predicated (masked) bulk loads — tail iterations of predicated
    /// vectorization.
    pub masked_loads: u64,
    /// Predicated (masked) bulk stores.
    pub masked_stores: u64,
    /// Number of buffer allocations performed.
    pub allocations: u64,
    /// Scratch-buffer acquisitions recycled from a buffer pool.
    pub pool_hits: u64,
    /// Scratch-buffer acquisitions that allocated (pool empty or absent).
    pub pool_misses: u64,
    /// Total bytes allocated over the realization.
    pub bytes_allocated: u64,
    /// Peak bytes simultaneously live (a working-set / locality proxy).
    pub peak_bytes_live: u64,
    /// Tasks submitted to the thread pool (an available-parallelism proxy,
    /// the "span" column of Fig. 3).
    pub parallel_tasks: u64,
}

impl CounterSnapshot {
    /// Work amplification relative to a baseline snapshot: the ratio of
    /// arithmetic operations (Fig. 3, "work amplification" column).
    pub fn work_amplification(&self, baseline: &CounterSnapshot) -> f64 {
        if baseline.arith_ops == 0 {
            return f64::NAN;
        }
        self.arith_ops as f64 / baseline.arith_ops as f64
    }
}

impl fmt::Display for CounterSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "arith={} loads={} (dense={} strided={} gather={}) stores={} (dense={} strided={} scatter={}) masked_sel={} masked_ld={} masked_st={} alloc={} ({} B, peak live {} B, pool {}/{}) tasks={}",
            self.arith_ops,
            self.loads,
            self.dense_loads,
            self.strided_loads,
            self.gather_loads,
            self.stores,
            self.dense_stores,
            self.strided_stores,
            self.scatter_stores,
            self.masked_selects,
            self.masked_loads,
            self.masked_stores,
            self.allocations,
            self.bytes_allocated,
            self.peak_bytes_live,
            self.pool_hits,
            self.pool_misses,
            self.parallel_tasks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_and_snapshot() {
        let c = Counters::new();
        c.add_arith(10);
        c.add_load(4);
        c.add_store(1);
        c.add_allocation(100);
        c.add_allocation(50);
        c.add_free(100);
        c.add_parallel_tasks(8);
        let s = c.snapshot();
        assert_eq!(s.arith_ops, 10);
        assert_eq!(s.loads, 1);
        assert_eq!(s.elements_loaded, 4);
        assert_eq!(s.stores, 1);
        assert_eq!(s.allocations, 2);
        assert_eq!(s.bytes_allocated, 150);
        assert_eq!(s.peak_bytes_live, 150);
        assert_eq!(s.parallel_tasks, 8);
        assert!(s.to_string().contains("arith=10"));
    }

    #[test]
    fn access_patterns_classify_and_count() {
        use AccessPattern::*;
        assert_eq!(classify_flat_indices(&[]), Scalar);
        assert_eq!(classify_flat_indices(&[7]), Scalar);
        assert_eq!(classify_flat_indices(&[3, 4, 5, 6]), Dense);
        assert_eq!(classify_flat_indices(&[0, 4, 8]), Strided);
        assert_eq!(classify_flat_indices(&[9, 6, 3]), Strided);
        assert_eq!(classify_flat_indices(&[5, 5, 5]), Strided);
        assert_eq!(classify_flat_indices(&[0, 1, 3]), Gather);

        let c = Counters::new();
        c.add_load_pattern(Dense);
        c.add_load_pattern(Strided);
        c.add_load_pattern(Gather);
        c.add_load_pattern(Scalar); // no-op
        c.add_store_pattern(Dense);
        c.add_store_pattern(Gather);
        c.add_masked_select();
        let s = c.snapshot();
        assert_eq!((s.dense_loads, s.strided_loads, s.gather_loads), (1, 1, 1));
        assert_eq!(
            (s.dense_stores, s.strided_stores, s.scatter_stores),
            (1, 0, 1)
        );
        assert_eq!(s.masked_selects, 1);
        assert!(s.to_string().contains("masked_sel=1"));
    }

    #[test]
    fn peak_tracks_maximum_live() {
        let c = Counters::new();
        c.add_allocation(100);
        c.add_free(100);
        c.add_allocation(60);
        let s = c.snapshot();
        assert_eq!(s.peak_bytes_live, 100);
    }

    #[test]
    fn work_amplification_ratio() {
        let a = CounterSnapshot {
            arith_ops: 200,
            ..Default::default()
        };
        let b = CounterSnapshot {
            arith_ops: 100,
            ..Default::default()
        };
        assert_eq!(a.work_amplification(&b), 2.0);
        assert!(a.work_amplification(&CounterSnapshot::default()).is_nan());
    }
}
