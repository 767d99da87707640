//! A size-classed free-list pool of [`Buffer`]s.
//!
//! The serving layer (`halide-serve`) realizes the same pipelines over and
//! over at steady shapes; allocating a fresh output image and fresh scratch
//! buffers per request would make the allocator the hot path. The pool keeps
//! returned buffers on free lists keyed by *(storage kind, size class)* —
//! the storage kind is the element representation (`u8`, `f32`, …) and the
//! size class is `ceil(log2(element count))`, so a returned buffer can serve
//! any later request of the same representation that fits its allocation,
//! not just requests of the identical shape.
//!
//! Acquired buffers are zero-filled (a `memset`, not an allocation), so a
//! pooled buffer is indistinguishable from a freshly constructed one —
//! realizations into pooled buffers are bit-identical to realizations into
//! fresh buffers, which the serving stress tests assert.
//!
//! Buffers come back via the RAII guard [`PooledBuffer`] or an explicit
//! [`BufferPool::release`]. The pool holds at most `max_bytes` of idle
//! storage; beyond that, returned buffers are simply dropped.

use std::collections::HashMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use halide_ir::ScalarType;

use crate::buffer::Buffer;

/// Largest size class tracked: `2^40` elements is far beyond any realizable
/// image, so the class search terminates without an unbounded scan.
const MAX_CLASS: u32 = 40;

/// The size class a *request* of `len` elements looks in first: the smallest
/// class whose members are guaranteed to fit it.
fn class_for_request(len: usize) -> u32 {
    (len.max(1)).next_power_of_two().trailing_zeros()
}

/// The size class a buffer with `capacity` elements files under: the largest
/// class whose guarantee (`capacity >= 2^class`) it meets.
fn class_for_capacity(capacity: usize) -> u32 {
    (usize::BITS - 1).saturating_sub(capacity.max(1).leading_zeros())
}

/// A thread-safe pool of reusable [`Buffer`] allocations with size-classed
/// free lists and hit/miss accounting.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use halide_runtime::{Buffer, BufferPool};
/// use halide_ir::ScalarType;
///
/// let pool = Arc::new(BufferPool::new(64 << 20));
/// let a = pool.acquire(ScalarType::Float(32), &[64, 64]); // miss: allocates
/// drop(a);                                                // returns to pool
/// let b = pool.acquire(ScalarType::Float(32), &[32, 32]); // hit: recycled
/// assert_eq!(pool.stats().hits, 1);
/// assert_eq!(b.dims()[0].extent, 32);
/// ```
#[derive(Debug)]
pub struct BufferPool {
    /// Free lists: (storage kind, size class) → idle buffers. Every buffer
    /// filed under class `c` has an allocation of at least `2^c` elements.
    classes: Mutex<HashMap<(u8, u32), Vec<Buffer>>>,
    /// Idle bytes the pool may hold before dropping returns on the floor.
    max_bytes: usize,
    /// Idle bytes currently held.
    idle_bytes: AtomicUsize,
    /// Bytes currently checked out (acquired and not yet released). Signed:
    /// releasing a buffer the pool never handed out (a legal use of
    /// [`PooledBuffer::attached`]) may drive the instantaneous value
    /// negative, which [`BufferPool::stats`] clamps to zero.
    in_use_bytes: AtomicI64,
    /// Buffers currently checked out.
    outstanding: AtomicI64,
    /// High-water mark of `in_use_bytes`.
    peak_in_use_bytes: AtomicI64,
    /// High-water mark of `outstanding`.
    peak_outstanding: AtomicI64,
    hits: AtomicU64,
    misses: AtomicU64,
    returns: AtomicU64,
    dropped: AtomicU64,
}

/// A point-in-time view of a pool's accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Acquisitions served by recycling an idle buffer.
    pub hits: u64,
    /// Acquisitions that had to allocate.
    pub misses: u64,
    /// Buffers returned to the pool.
    pub returns: u64,
    /// Returned buffers dropped because the pool was at capacity.
    pub dropped: u64,
    /// Bytes of idle storage currently pooled.
    pub idle_bytes: u64,
    /// Bytes currently checked out of the pool (acquired, not yet
    /// released). A buffer taken out of circulation with
    /// [`PooledBuffer::detach`] stays counted here — from the pool's point
    /// of view it is still outstanding.
    pub in_use_bytes: u64,
    /// Buffers currently checked out of the pool.
    pub outstanding: u64,
    /// High-water mark of [`PoolStats::in_use_bytes`] over the pool's
    /// lifetime — the working-set figure the serving benchmarks report.
    pub peak_in_use_bytes: u64,
    /// High-water mark of [`PoolStats::outstanding`].
    pub peak_outstanding: u64,
}

impl PoolStats {
    /// Fraction of acquisitions served from the pool (`NaN` before the first
    /// acquisition).
    pub fn hit_rate(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses) as f64
    }
}

impl Default for BufferPool {
    /// A pool holding up to 256 MiB of idle storage.
    fn default() -> Self {
        BufferPool::new(256 << 20)
    }
}

impl BufferPool {
    /// Creates a pool that keeps at most `max_bytes` of idle storage.
    pub fn new(max_bytes: usize) -> Self {
        BufferPool {
            classes: Mutex::new(HashMap::new()),
            max_bytes,
            idle_bytes: AtomicUsize::new(0),
            in_use_bytes: AtomicI64::new(0),
            outstanding: AtomicI64::new(0),
            peak_in_use_bytes: AtomicI64::new(0),
            peak_outstanding: AtomicI64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            returns: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Records a buffer of `bytes` leaving the pool, updating the in-use
    /// gauges and their high-water marks.
    fn note_checkout(&self, bytes: usize) {
        let now = self.in_use_bytes.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
        self.peak_in_use_bytes.fetch_max(now, Ordering::Relaxed);
        let count = self.outstanding.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_outstanding.fetch_max(count, Ordering::Relaxed);
    }

    /// Acquires a zero-filled buffer of the given type and extents, recycling
    /// an idle allocation when one fits, wrapped in an RAII guard that
    /// returns it to this pool on drop.
    pub fn acquire(self: &Arc<Self>, ty: ScalarType, extents: &[i64]) -> PooledBuffer {
        let (buf, _) = self.acquire_raw(ty, extents);
        PooledBuffer::attached(Arc::clone(self), buf)
    }

    /// Acquires a zero-filled buffer as a bare [`Buffer`] plus whether the
    /// acquisition was a pool hit. The caller is responsible for handing the
    /// buffer back via [`BufferPool::release`] (or keeping it).
    pub fn acquire_raw(&self, ty: ScalarType, extents: &[i64]) -> (Buffer, bool) {
        let len: usize = extents.iter().map(|&e| e.max(0) as usize).product();
        let kind = Buffer::storage_kind(ty);
        let reclaimed = {
            let mut classes = self.classes.lock().unwrap();
            let mut found = None;
            'search: for class in class_for_request(len)..=MAX_CLASS {
                if let Some(list) = classes.get_mut(&(kind, class)) {
                    if let Some(buf) = list.pop() {
                        found = Some(buf);
                        break 'search;
                    }
                }
            }
            found
        };
        match reclaimed {
            Some(buf) => {
                // Accounting uses the storage footprint (see
                // `Buffer::storage_bytes_per_elem`): the buffer's previous
                // nominal type may differ from `ty` while sharing the same
                // underlying representation.
                let bytes = buf.capacity_elems() * Buffer::storage_bytes_per_elem(ty);
                self.idle_bytes.fetch_sub(bytes, Ordering::Relaxed);
                self.note_checkout(bytes);
                self.hits.fetch_add(1, Ordering::Relaxed);
                // The memset happens outside the free-list lock.
                (buf.recycle(ty, extents), true)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                // Pad the allocation to its size class so that, once
                // returned, it serves any request of this class — an
                // exact-size allocation of (say) 112 elements would file
                // under class 6 yet never satisfy another 112-element
                // request, which routes to class 7. At most 2x idle
                // overhead, the standard size-class trade.
                let padded = len.max(1).next_power_of_two() as i64;
                let buf = Buffer::with_extents(ty, &[padded]);
                self.note_checkout(buf.capacity_elems() * Buffer::storage_bytes_per_elem(ty));
                (buf.recycle(ty, extents), false)
            }
        }
    }

    /// Acquires a pooled buffer shaped like `src` and bulk-copies `src`'s
    /// elements into it — the fan-out path of coalesced serving, where one
    /// realization's output is replicated into a pooled buffer per waiting
    /// request. Bit-identical to realizing into the buffer directly.
    pub fn acquire_copy_of(self: &Arc<Self>, src: &Buffer) -> PooledBuffer {
        let extents: Vec<i64> = src.dims().iter().map(|d| d.extent).collect();
        let out = self.acquire(src.ty(), &extents);
        out.copy_from(src);
        out
    }

    /// Returns a buffer's allocation to the pool for reuse (dropped instead
    /// if the pool is already holding `max_bytes` of idle storage).
    pub fn release(&self, buf: Buffer) {
        self.returns.fetch_add(1, Ordering::Relaxed);
        let bytes = buf.capacity_elems() * Buffer::storage_bytes_per_elem(buf.ty());
        // A dropped-on-the-floor return still left circulation: both gauges
        // come down whether the allocation is kept idle or freed.
        self.in_use_bytes.fetch_sub(bytes as i64, Ordering::Relaxed);
        self.outstanding.fetch_sub(1, Ordering::Relaxed);
        if self.idle_bytes.load(Ordering::Relaxed) + bytes > self.max_bytes {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let kind = Buffer::storage_kind(buf.ty());
        let class = class_for_capacity(buf.capacity_elems());
        self.idle_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.classes
            .lock()
            .unwrap()
            .entry((kind, class))
            .or_default()
            .push(buf);
    }

    /// Drops every idle buffer (the accounting counters are kept).
    pub fn clear(&self) {
        self.classes.lock().unwrap().clear();
        self.idle_bytes.store(0, Ordering::Relaxed);
    }

    /// Current accounting.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            returns: self.returns.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            idle_bytes: self.idle_bytes.load(Ordering::Relaxed) as u64,
            in_use_bytes: self.in_use_bytes.load(Ordering::Relaxed).max(0) as u64,
            outstanding: self.outstanding.load(Ordering::Relaxed).max(0) as u64,
            peak_in_use_bytes: self.peak_in_use_bytes.load(Ordering::Relaxed).max(0) as u64,
            peak_outstanding: self.peak_outstanding.load(Ordering::Relaxed).max(0) as u64,
        }
    }
}

/// An RAII guard over a [`Buffer`] acquired from (or destined for) a
/// [`BufferPool`]: dropping the guard returns the buffer's allocation to the
/// pool. Dereferences to the underlying [`Buffer`].
#[derive(Debug)]
pub struct PooledBuffer {
    buf: Option<Buffer>,
    pool: Arc<BufferPool>,
}

impl PooledBuffer {
    /// Wraps a buffer so that dropping the guard returns it to `pool`.
    pub fn attached(pool: Arc<BufferPool>, buf: Buffer) -> Self {
        PooledBuffer {
            buf: Some(buf),
            pool,
        }
    }

    /// Takes the buffer out of the guard; it will *not* return to the pool.
    pub fn detach(mut self) -> Buffer {
        self.buf.take().expect("guard holds a buffer until dropped")
    }
}

impl Deref for PooledBuffer {
    type Target = Buffer;

    fn deref(&self) -> &Buffer {
        self.buf
            .as_ref()
            .expect("guard holds a buffer until dropped")
    }
}

impl Drop for PooledBuffer {
    fn drop(&mut self) {
        if let Some(buf) = self.buf.take() {
            self.pool.release(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_classes_round_sensibly() {
        assert_eq!(class_for_request(1), 0);
        assert_eq!(class_for_request(0), 0);
        assert_eq!(class_for_request(9), 4);
        assert_eq!(class_for_request(16), 4);
        assert_eq!(class_for_capacity(16), 4);
        assert_eq!(class_for_capacity(31), 4);
        assert_eq!(class_for_capacity(32), 5);
        // A buffer filed under its capacity class always satisfies a request
        // routed to that class.
        for cap in [1usize, 3, 8, 100, 1000] {
            for len in [1usize, 2, 7, 64, 900] {
                if class_for_capacity(cap) >= class_for_request(len) {
                    assert!(cap >= len, "cap {cap} filed as serving len {len}");
                }
            }
        }
    }

    #[test]
    fn acquire_release_acquire_hits() {
        let pool = Arc::new(BufferPool::default());
        let a = pool.acquire(ScalarType::Float(32), &[8, 8]);
        a.set_coords_f64(&[3, 3], 42.0);
        assert_eq!(pool.stats().misses, 1);
        drop(a);
        assert_eq!(pool.stats().returns, 1);
        // Same kind, smaller shape: recycled and zeroed.
        let b = pool.acquire(ScalarType::Float(32), &[5, 5]);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(b.dims().len(), 2);
        assert_eq!(b.dims()[1].extent, 5);
        assert!(b.to_f64_vec().iter().all(|&v| v == 0.0), "not zeroed");
        assert!(s.hit_rate() > 0.49 && s.hit_rate() < 0.51);
    }

    #[test]
    fn kinds_do_not_cross() {
        let pool = Arc::new(BufferPool::default());
        drop(pool.acquire(ScalarType::Float(32), &[16]));
        // u8 storage cannot reuse an f32 allocation.
        let _b = pool.acquire(ScalarType::UInt(8), &[16]);
        assert_eq!(pool.stats().hits, 0);
        // But UInt(1) and UInt(8) share a representation.
        drop(pool.acquire(ScalarType::UInt(8), &[4]));
        let c = pool.acquire(ScalarType::UInt(1), &[4]);
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(c.ty(), ScalarType::UInt(1));
    }

    /// Types that share a storage kind but differ in nominal width (f16 and
    /// f64 both store as `f64`) must keep the idle-byte ledger balanced:
    /// release credits and acquire debits both use the storage footprint.
    #[test]
    fn byte_accounting_is_consistent_across_nominal_widths() {
        let pool = Arc::new(BufferPool::default());
        drop(pool.acquire(ScalarType::Float(16), &[8]));
        let idle_after_release = pool.stats().idle_bytes;
        assert_eq!(idle_after_release, 64, "f16 stores as f64: 8 x 8 bytes");
        let b = pool.acquire(ScalarType::Float(64), &[8]);
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(pool.stats().idle_bytes, 0, "ledger must return to zero");
        drop(b);
        // And the buffer can keep cycling without the ledger drifting.
        drop(pool.acquire(ScalarType::Float(16), &[4]));
        assert_eq!(pool.stats().idle_bytes, 64);
    }

    #[test]
    fn capacity_cap_drops_excess_returns() {
        let pool = Arc::new(BufferPool::new(100));
        drop(pool.acquire(ScalarType::Float(64), &[4])); // 32 bytes idle
        drop(pool.acquire(ScalarType::Float(64), &[16])); // 128 > cap: dropped
        let s = pool.stats();
        assert_eq!(s.returns, 2);
        assert_eq!(s.dropped, 1);
        assert!(s.idle_bytes <= 100);
        pool.clear();
        assert_eq!(pool.stats().idle_bytes, 0);
    }

    #[test]
    fn detach_keeps_the_buffer_out_of_the_pool() {
        let pool = Arc::new(BufferPool::default());
        let a = pool.acquire(ScalarType::Int(32), &[8]);
        let buf = a.detach();
        assert_eq!(pool.stats().returns, 0);
        assert_eq!(buf.len(), 8);
        drop(buf);
        assert_eq!(pool.stats().returns, 0);
    }

    #[test]
    fn acquire_copy_of_is_bit_identical_and_pooled() {
        let pool = Arc::new(BufferPool::default());
        let src = Buffer::from_fn_2d(ScalarType::Float(32), 6, 4, |x, y| (x * 10 + y) as f64);
        let a = pool.acquire_copy_of(&src);
        assert_eq!(a.to_f64_vec(), src.to_f64_vec());
        assert_eq!(a.ty(), src.ty());
        drop(a);
        // The copy's allocation recycles like any pooled buffer.
        let b = pool.acquire_copy_of(&src);
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(b.to_f64_vec(), src.to_f64_vec());
    }

    /// The in-use gauges track checkouts and keep their high-water marks;
    /// a detached buffer stays counted as outstanding (documented: the pool
    /// never learns it left circulation).
    #[test]
    fn in_use_gauges_track_checkouts_and_peaks() {
        let pool = Arc::new(BufferPool::default());
        let a = pool.acquire(ScalarType::Float(64), &[8]); // 64 bytes
        let b = pool.acquire(ScalarType::Float(64), &[8]);
        let s = pool.stats();
        assert_eq!(s.outstanding, 2);
        assert_eq!(s.in_use_bytes, 128);
        assert_eq!(s.peak_outstanding, 2);
        assert_eq!(s.peak_in_use_bytes, 128);
        drop(a);
        drop(b);
        let s = pool.stats();
        assert_eq!(s.outstanding, 0);
        assert_eq!(s.in_use_bytes, 0);
        // Peaks persist after the buffers come back.
        assert_eq!(s.peak_outstanding, 2);
        assert_eq!(s.peak_in_use_bytes, 128);
        // A detached buffer never releases: it remains outstanding.
        let c = pool.acquire(ScalarType::Float(64), &[8]).detach();
        assert_eq!(pool.stats().outstanding, 1);
        drop(c);
        assert_eq!(pool.stats().outstanding, 1);
        assert_eq!(pool.stats().peak_outstanding, 2);
    }

    #[test]
    fn concurrent_acquire_release_is_consistent() {
        let pool = Arc::new(BufferPool::default());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let pool = Arc::clone(&pool);
                scope.spawn(move || {
                    for i in 0..50 {
                        let b = pool.acquire(ScalarType::Float(32), &[1 + (i % 7), 16]);
                        b.set_flat_f64(0, 1.0);
                    }
                });
            }
        });
        let s = pool.stats();
        assert_eq!(s.hits + s.misses, 400);
        assert_eq!(s.returns, 400);
        // Steady state on repeated shapes must be nearly all hits.
        assert!(s.hits > 300, "hits {} of 400", s.hits);
    }
}
