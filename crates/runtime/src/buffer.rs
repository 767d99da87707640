//! Typed, multi-dimensional buffers.
//!
//! A [`Buffer`] owns the pixel data of an input image, an output image, or an
//! intermediate allocation created by an `Allocate` statement. Storage is in
//! scanline order (innermost dimension has stride 1), matching the flattening
//! convention of the compiler (Sec. 4.4).
//!
//! # Concurrency
//!
//! Buffers support shared-reference stores ([`Buffer::set_flat_lane`]) because the
//! generated code writes to them from many threads at once. This is sound for
//! the same reason Halide's generated code is sound: the compiler only
//! parallelizes loops whose iterations write disjoint elements (data
//! parallelism is guaranteed by construction in the language), so no two
//! threads ever write the same element concurrently, and reads of an element
//! only happen after the producer loop that wrote it (enforced by the thread
//! pool joining before consumers run).

use std::cell::UnsafeCell;

use halide_ir::ScalarType;

use crate::value::{Scalar, Value};

/// One dimension of a buffer: the coordinates `[min, min + extent)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferDim {
    /// Smallest valid coordinate.
    pub min: i64,
    /// Number of valid coordinates.
    pub extent: i64,
}

#[derive(Debug, Clone)]
enum Storage {
    U8(Vec<u8>),
    U16(Vec<u16>),
    U32(Vec<u32>),
    I8(Vec<i8>),
    I16(Vec<i16>),
    I32(Vec<i32>),
    I64(Vec<i64>),
    F32(Vec<f32>),
    F64(Vec<f64>),
}

impl Storage {
    fn new(ty: ScalarType, len: usize) -> Storage {
        match ty {
            ScalarType::UInt(1) | ScalarType::UInt(8) => Storage::U8(vec![0; len]),
            ScalarType::UInt(16) => Storage::U16(vec![0; len]),
            ScalarType::UInt(_) => Storage::U32(vec![0; len]),
            ScalarType::Int(8) => Storage::I8(vec![0; len]),
            ScalarType::Int(16) => Storage::I16(vec![0; len]),
            ScalarType::Int(32) => Storage::I32(vec![0; len]),
            ScalarType::Int(_) => Storage::I64(vec![0; len]),
            ScalarType::Float(32) => Storage::F32(vec![0.0; len]),
            ScalarType::Float(_) => Storage::F64(vec![0.0; len]),
        }
    }

    fn len(&self) -> usize {
        match self {
            Storage::U8(v) => v.len(),
            Storage::U16(v) => v.len(),
            Storage::U32(v) => v.len(),
            Storage::I8(v) => v.len(),
            Storage::I16(v) => v.len(),
            Storage::I32(v) => v.len(),
            Storage::I64(v) => v.len(),
            Storage::F32(v) => v.len(),
            Storage::F64(v) => v.len(),
        }
    }

    /// The storage-kind tag a [`ScalarType`] maps to — two scalar types with
    /// the same tag share a `Storage` variant, so their allocations are
    /// interchangeable (the buffer pool's free lists are keyed by this).
    fn kind_of(ty: ScalarType) -> u8 {
        match ty {
            ScalarType::UInt(1) | ScalarType::UInt(8) => 0,
            ScalarType::UInt(16) => 1,
            ScalarType::UInt(_) => 2,
            ScalarType::Int(8) => 3,
            ScalarType::Int(16) => 4,
            ScalarType::Int(32) => 5,
            ScalarType::Int(_) => 6,
            ScalarType::Float(32) => 7,
            ScalarType::Float(_) => 8,
        }
    }

    fn capacity(&self) -> usize {
        match self {
            Storage::U8(v) => v.capacity(),
            Storage::U16(v) => v.capacity(),
            Storage::U32(v) => v.capacity(),
            Storage::I8(v) => v.capacity(),
            Storage::I16(v) => v.capacity(),
            Storage::I32(v) => v.capacity(),
            Storage::I64(v) => v.capacity(),
            Storage::F32(v) => v.capacity(),
            Storage::F64(v) => v.capacity(),
        }
    }

    /// Clears and zero-fills to `len` elements, keeping the allocation when
    /// it is large enough (the reuse path of the buffer pool).
    fn reset(&mut self, len: usize) {
        match self {
            Storage::U8(v) => {
                v.clear();
                v.resize(len, 0);
            }
            Storage::U16(v) => {
                v.clear();
                v.resize(len, 0);
            }
            Storage::U32(v) => {
                v.clear();
                v.resize(len, 0);
            }
            Storage::I8(v) => {
                v.clear();
                v.resize(len, 0);
            }
            Storage::I16(v) => {
                v.clear();
                v.resize(len, 0);
            }
            Storage::I32(v) => {
                v.clear();
                v.resize(len, 0);
            }
            Storage::I64(v) => {
                v.clear();
                v.resize(len, 0);
            }
            Storage::F32(v) => {
                v.clear();
                v.resize(len, 0.0);
            }
            Storage::F64(v) => {
                v.clear();
                v.resize(len, 0.0);
            }
        }
    }

    /// Bulk-copies another storage's elements into this one. Both sides must
    /// be the same variant and length (callers guarantee this via the
    /// buffer-level shape/type checks).
    fn copy_from(&mut self, src: &Storage) {
        match (self, src) {
            (Storage::U8(d), Storage::U8(s)) => d.copy_from_slice(s),
            (Storage::U16(d), Storage::U16(s)) => d.copy_from_slice(s),
            (Storage::U32(d), Storage::U32(s)) => d.copy_from_slice(s),
            (Storage::I8(d), Storage::I8(s)) => d.copy_from_slice(s),
            (Storage::I16(d), Storage::I16(s)) => d.copy_from_slice(s),
            (Storage::I32(d), Storage::I32(s)) => d.copy_from_slice(s),
            (Storage::I64(d), Storage::I64(s)) => d.copy_from_slice(s),
            (Storage::F32(d), Storage::F32(s)) => d.copy_from_slice(s),
            (Storage::F64(d), Storage::F64(s)) => d.copy_from_slice(s),
            _ => panic!("copying between storage variants"),
        }
    }

    fn get_f64(&self, i: usize) -> f64 {
        match self {
            Storage::U8(v) => v[i] as f64,
            Storage::U16(v) => v[i] as f64,
            Storage::U32(v) => v[i] as f64,
            Storage::I8(v) => v[i] as f64,
            Storage::I16(v) => v[i] as f64,
            Storage::I32(v) => v[i] as f64,
            Storage::I64(v) => v[i] as f64,
            Storage::F32(v) => v[i] as f64,
            Storage::F64(v) => v[i],
        }
    }

    fn get_i64(&self, i: usize) -> i64 {
        match self {
            Storage::U8(v) => v[i] as i64,
            Storage::U16(v) => v[i] as i64,
            Storage::U32(v) => v[i] as i64,
            Storage::I8(v) => v[i] as i64,
            Storage::I16(v) => v[i] as i64,
            Storage::I32(v) => v[i] as i64,
            Storage::I64(v) => v[i],
            Storage::F32(v) => v[i] as i64,
            Storage::F64(v) => v[i] as i64,
        }
    }

    fn set_i64(&mut self, i: usize, v: i64) {
        match self {
            Storage::U8(s) => s[i] = v as u8,
            Storage::U16(s) => s[i] = v as u16,
            Storage::U32(s) => s[i] = v as u32,
            Storage::I8(s) => s[i] = v as i8,
            Storage::I16(s) => s[i] = v as i16,
            Storage::I32(s) => s[i] = v as i32,
            Storage::I64(s) => s[i] = v,
            Storage::F32(s) => s[i] = v as f32,
            Storage::F64(s) => s[i] = v as f64,
        }
    }

    fn set_f64(&mut self, i: usize, v: f64) {
        match self {
            Storage::U8(s) => s[i] = v as u8,
            Storage::U16(s) => s[i] = v as u16,
            Storage::U32(s) => s[i] = v as u32,
            Storage::I8(s) => s[i] = v as i8,
            Storage::I16(s) => s[i] = v as i16,
            Storage::I32(s) => s[i] = v as i32,
            Storage::I64(s) => s[i] = v as i64,
            Storage::F32(s) => s[i] = v as f32,
            Storage::F64(s) => s[i] = v,
        }
    }
}

/// Dispatches once on the storage variant and runs `$body` with `$s` bound
/// to the typed element slice — the heart of the bulk accessors below.
macro_rules! with_storage {
    ($storage:expr, $s:ident, $body:expr) => {
        match $storage {
            Storage::U8($s) => $body,
            Storage::U16($s) => $body,
            Storage::U32($s) => $body,
            Storage::I8($s) => $body,
            Storage::I16($s) => $body,
            Storage::I32($s) => $body,
            Storage::I64($s) => $body,
            Storage::F32($s) => $body,
            Storage::F64($s) => $body,
        }
    };
}

/// The lanes of one vector access, in lane order — what
/// [`Buffer::read_lanes`] and [`Buffer::write_lanes`] take.
#[derive(Debug, Clone)]
pub enum Lanes<I> {
    /// Every lane enabled, at consecutive flat indices: the unit-stride
    /// shape, read or written as one slice.
    Dense {
        /// Flat index of lane 0.
        base: i64,
        /// Number of lanes.
        lanes: usize,
    },
    /// Lane by lane: a flat index per lane, or `None` for a masked-off lane.
    Each(I),
}

/// The storage range of a dense run of `lanes` elements at `base`, or the
/// first out-of-range index in lane order.
fn dense_run(
    len: usize,
    base: i64,
    lanes: usize,
) -> std::result::Result<std::ops::Range<usize>, i64> {
    match usize::try_from(base) {
        Ok(start) if start.saturating_add(lanes) <= len => Ok(start..start + lanes),
        Ok(_) => Err(base.max(len as i64)),
        Err(_) => Err(base),
    }
}

/// A typed, multi-dimensional pixel buffer with interior mutability for
/// data-parallel stores (see the module-level concurrency note).
#[derive(Debug)]
pub struct Buffer {
    ty: ScalarType,
    dims: Vec<BufferDim>,
    data: UnsafeCell<Storage>,
}

// SAFETY: see the module-level documentation — the compiler guarantees that
// concurrently executing iterations write disjoint elements, and all
// cross-thread reads of an element are ordered after the thread-pool join of
// the loop that produced it.
unsafe impl Sync for Buffer {}
unsafe impl Send for Buffer {}

impl Buffer {
    /// Creates a zero-filled buffer with the given element type and
    /// dimensions (each dimension is `(min, extent)`).
    ///
    /// # Panics
    ///
    /// Panics if any extent is negative or the total size overflows.
    pub fn new(ty: ScalarType, dims: &[(i64, i64)]) -> Buffer {
        let mut len: usize = 1;
        let dims: Vec<BufferDim> = dims
            .iter()
            .map(|&(min, extent)| {
                assert!(
                    extent >= 0,
                    "buffer extent must be non-negative, got {extent}"
                );
                len = len
                    .checked_mul(extent as usize)
                    .expect("buffer size overflow");
                BufferDim { min, extent }
            })
            .collect();
        Buffer {
            ty,
            dims,
            data: UnsafeCell::new(Storage::new(ty, len)),
        }
    }

    /// Creates a buffer spanning `[0, extent)` in each dimension.
    pub fn with_extents(ty: ScalarType, extents: &[i64]) -> Buffer {
        let dims: Vec<(i64, i64)> = extents.iter().map(|&e| (0, e)).collect();
        Buffer::new(ty, &dims)
    }

    /// Creates a 2-D buffer filled from a closure of `(x, y)`.
    pub fn from_fn_2d(
        ty: ScalarType,
        width: i64,
        height: i64,
        f: impl Fn(i64, i64) -> f64,
    ) -> Buffer {
        let buf = Buffer::with_extents(ty, &[width, height]);
        for y in 0..height {
            for x in 0..width {
                buf.set_coords_f64(&[x, y], f(x, y));
            }
        }
        buf
    }

    /// Element type.
    pub fn ty(&self) -> ScalarType {
        self.ty
    }

    /// The storage-kind tag of a scalar type: buffers whose types share a tag
    /// store their elements in the same `Vec` variant, so one's allocation
    /// can be recycled into the other (see [`crate::BufferPool`]).
    pub(crate) fn storage_kind(ty: ScalarType) -> u8 {
        Storage::kind_of(ty)
    }

    /// Bytes per element of the *storage* a scalar type maps to — the
    /// allocation's real footprint, which can exceed `ty.bytes()` (e.g.
    /// `Float(16)` is stored in the `f64` variant). Pool byte accounting
    /// must use this, not the nominal width, or credits and debits for
    /// types sharing a storage kind diverge.
    pub(crate) fn storage_bytes_per_elem(ty: ScalarType) -> usize {
        match Storage::kind_of(ty) {
            0 | 3 => 1,     // U8, I8
            1 | 4 => 2,     // U16, I16
            2 | 5 | 7 => 4, // U32, I32, F32
            _ => 8,         // I64, F64
        }
    }

    /// The number of elements the underlying allocation can hold without
    /// reallocating.
    pub(crate) fn capacity_elems(&self) -> usize {
        // SAFETY: reading the capacity does not race with element writes.
        unsafe { &*self.data.get() }.capacity()
    }

    /// Consumes this buffer and rebuilds it for a new type and shape,
    /// reusing the storage allocation when it is large enough. All elements
    /// of the result are zero, exactly as [`Buffer::new`] produces.
    ///
    /// # Panics
    ///
    /// Panics if `ty` maps to a different storage kind than the buffer's
    /// current type (the pool's free lists are keyed by kind, so this is a
    /// pool-internal invariant), or if an extent is negative.
    pub(crate) fn recycle(self, ty: ScalarType, extents: &[i64]) -> Buffer {
        assert_eq!(
            Storage::kind_of(self.ty),
            Storage::kind_of(ty),
            "recycling across storage kinds"
        );
        let mut len: usize = 1;
        let dims: Vec<BufferDim> = extents
            .iter()
            .map(|&extent| {
                assert!(
                    extent >= 0,
                    "buffer extent must be non-negative, got {extent}"
                );
                len = len
                    .checked_mul(extent as usize)
                    .expect("buffer size overflow");
                BufferDim { min: 0, extent }
            })
            .collect();
        let mut storage = self.data.into_inner();
        storage.reset(len);
        Buffer {
            ty,
            dims,
            data: UnsafeCell::new(storage),
        }
    }

    /// Dimension descriptors.
    pub fn dims(&self) -> &[BufferDim] {
        &self.dims
    }

    /// Number of dimensions.
    pub fn dimensions(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        // SAFETY: reading the length does not race with element writes.
        unsafe { &*self.data.get() }.len()
    }

    /// True if the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.len() * self.ty.bytes()
    }

    /// The stride (in elements) of each dimension: innermost is 1.
    pub fn strides(&self) -> Vec<i64> {
        let mut strides = Vec::with_capacity(self.dims.len());
        let mut s = 1i64;
        for d in &self.dims {
            strides.push(s);
            s *= d.extent;
        }
        strides
    }

    fn flat_index(&self, coords: &[i64]) -> usize {
        assert_eq!(
            coords.len(),
            self.dims.len(),
            "buffer has {} dimensions, got {} coordinates",
            self.dims.len(),
            coords.len()
        );
        let strides = self.strides();
        let mut idx = 0i64;
        for ((c, d), s) in coords.iter().zip(&self.dims).zip(&strides) {
            let off = c - d.min;
            assert!(
                off >= 0 && off < d.extent,
                "coordinate {c} outside [{}, {})",
                d.min,
                d.min + d.extent
            );
            idx += off * s;
        }
        idx as usize
    }

    /// Reads the element at flat index `i` as an `f64`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn get_flat_f64(&self, i: usize) -> f64 {
        // SAFETY: element reads racing with writes of *other* elements are
        // fine; same-element read/write races are excluded by construction.
        unsafe { &*self.data.get() }.get_f64(i)
    }

    /// Reads the element at flat index `i` as an `i64`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn get_flat_i64(&self, i: usize) -> i64 {
        unsafe { &*self.data.get() }.get_i64(i)
    }

    /// Reads the element at flat index `i` as a [`Value`] lane of the
    /// buffer's kind (integer buffers produce integer values).
    pub fn get_flat(&self, i: usize) -> Value {
        if self.ty.is_float() {
            Value::float(self.get_flat_f64(i))
        } else {
            Value::int(self.get_flat_i64(i))
        }
    }

    /// Reads the element at flat index `i` as an unboxed [`Scalar`] of the
    /// buffer's kind — the allocation-free accessor the compiled backend
    /// loads through.
    #[inline]
    pub fn get_flat_scalar(&self, i: usize) -> Scalar {
        if self.ty.is_float() {
            Scalar::Float(self.get_flat_f64(i))
        } else {
            Scalar::Int(self.get_flat_i64(i))
        }
    }

    /// Stores an unboxed [`Scalar`] at flat index `i` (converted to the
    /// element type, with the same conversion rules as [`Value`] stores).
    #[inline]
    pub fn set_flat_scalar(&self, i: usize, v: Scalar) {
        match v {
            Scalar::Int(x) => self.set_flat_i64(i, x),
            Scalar::Float(x) => self.set_flat_f64(i, x),
        }
    }

    /// The storage, mutably through a shared reference (data-parallel
    /// stores; see the module-level concurrency note).
    #[allow(clippy::mut_from_ref)]
    fn storage_mut(&self) -> &mut Storage {
        // SAFETY: see the module-level concurrency note.
        unsafe { &mut *self.data.get() }
    }

    /// Stores an `i64` at flat index `i`.
    pub fn set_flat_i64(&self, i: usize, v: i64) {
        self.storage_mut().set_i64(i, v);
    }

    /// Stores an `f64` at flat index `i`.
    pub fn set_flat_f64(&self, i: usize, v: f64) {
        self.storage_mut().set_f64(i, v);
    }

    /// Stores one lane of a [`Value`] at flat index `i`.
    pub fn set_flat_lane(&self, i: usize, v: &Value, lane: usize) {
        match v {
            Value::Int(_) => self.set_flat_i64(i, v.lane_int(lane)),
            Value::Float(_) => self.set_flat_f64(i, v.lane_f64(lane)),
        }
    }

    // ---- bulk access ------------------------------------------------------
    //
    // One storage dispatch per vector access instead of one per lane. Every
    // vector load and store of the compiled backend — dense, strided,
    // gather, clamped or masked — is one [`Lanes`] sequence through these
    // two.

    /// Reads one element per lane into `out`: lane `k` reads the `k`-th flat
    /// index of `lanes`, and a masked-off lane reads nothing and yields 0.
    /// `out` takes the buffer's kind (integer buffers produce
    /// [`Value::Int`]), reusing its storage when it already has that kind,
    /// so a caller that recycles `out` reads without allocating.
    ///
    /// # Errors
    ///
    /// Returns the index of the first enabled lane, in lane order, outside
    /// `[0, len)`. Masked-off lanes are never bounds-checked. After an error
    /// `out` holds the lanes before the bad one.
    pub fn read_lanes<I: Iterator<Item = Option<i64>>>(
        &self,
        lanes: Lanes<I>,
        out: &mut Value,
    ) -> std::result::Result<(), i64> {
        // SAFETY: see the module-level concurrency note.
        let storage = unsafe { &*self.data.get() };
        macro_rules! read {
            ($elem:ty, $out:expr) => {{
                let out: &mut Vec<$elem> = $out;
                with_storage!(storage, s, {
                    match lanes {
                        Lanes::Dense { base, lanes } => {
                            let run = dense_run(s.len(), base, lanes)?;
                            out.extend(s[run].iter().map(|x| *x as $elem));
                        }
                        Lanes::Each(idx) => {
                            for i in idx {
                                out.push(match i {
                                    None => 0 as $elem,
                                    Some(i) => match usize::try_from(i).ok().and_then(|u| s.get(u))
                                    {
                                        Some(x) => *x as $elem,
                                        None => return Err(i),
                                    },
                                });
                            }
                        }
                    }
                    Ok(())
                })
            }};
        }
        if self.ty.is_float() {
            read!(f64, out.floats_mut())
        } else {
            read!(i64, out.ints_mut())
        }
    }

    /// Writes lane `k` of `v` (converted to the element type) at the `k`-th
    /// flat index of `lanes`; a masked-off lane writes nothing. A value
    /// narrower than the access repeats its last lane, exactly as
    /// [`Value::lane_f64`] / [`Value::lane_int`] read it.
    ///
    /// # Errors
    ///
    /// Returns the index of the first enabled lane, in lane order, outside
    /// `[0, len)`. Masked-off lanes are never bounds-checked. After an error
    /// the lanes before the bad one may or may not have been written
    /// (callers surface the error and discard the buffer).
    pub fn write_lanes<I: Iterator<Item = Option<i64>>>(
        &self,
        lanes: Lanes<I>,
        v: &Value,
    ) -> std::result::Result<(), i64> {
        let storage = self.storage_mut();
        macro_rules! write {
            ($vals:expr) => {{
                let last = $vals.len() - 1;
                with_storage!(storage, s, {
                    match lanes {
                        Lanes::Dense { base, lanes } => {
                            let run = dense_run(s.len(), base, lanes)?;
                            if $vals.len() >= lanes {
                                for (d, v) in s[run].iter_mut().zip($vals.iter()) {
                                    *d = *v as _;
                                }
                            } else {
                                for (k, d) in s[run].iter_mut().enumerate() {
                                    *d = $vals[k.min(last)] as _;
                                }
                            }
                        }
                        Lanes::Each(idx) => {
                            for (k, i) in idx.enumerate() {
                                if let Some(i) = i {
                                    match usize::try_from(i).ok().and_then(|u| s.get_mut(u)) {
                                        Some(d) => *d = $vals[k.min(last)] as _,
                                        None => return Err(i),
                                    }
                                }
                            }
                        }
                    }
                    Ok(())
                })
            }};
        }
        match v {
            Value::Int(vals) => write!(vals),
            Value::Float(vals) => write!(vals),
        }
    }

    /// The elements of a `Float(32)` buffer as one slice in flat
    /// (scanline) order, or `None` for another element type — the typed
    /// view hand-written code reads images through.
    pub fn f32_elems(&self) -> Option<&[f32]> {
        // SAFETY: see the module-level concurrency note — a reader of an
        // element runs after the loop that wrote it has been joined.
        match unsafe { &*self.data.get() } {
            Storage::F32(v) => Some(v),
            _ => None,
        }
    }

    /// [`Buffer::f32_elems`] for writing, through exclusive access.
    pub fn f32_elems_mut(&mut self) -> Option<&mut [f32]> {
        match self.data.get_mut() {
            Storage::F32(v) => Some(v),
            _ => None,
        }
    }

    /// The elements of a `UInt(8)` (or `UInt(1)`) buffer as one slice in
    /// flat order, or `None` for another element type.
    pub fn u8_elems(&self) -> Option<&[u8]> {
        // SAFETY: as in `f32_elems`.
        match unsafe { &*self.data.get() } {
            Storage::U8(v) => Some(v),
            _ => None,
        }
    }

    /// [`Buffer::u8_elems`] for writing, through exclusive access.
    pub fn u8_elems_mut(&mut self) -> Option<&mut [u8]> {
        match self.data.get_mut() {
            Storage::U8(v) => Some(v),
            _ => None,
        }
    }

    /// Reads the element at the given coordinates as `f64`.
    pub fn at_f64(&self, coords: &[i64]) -> f64 {
        self.get_flat_f64(self.flat_index(coords))
    }

    /// Reads the element at the given coordinates as `i64`.
    pub fn at_i64(&self, coords: &[i64]) -> i64 {
        self.get_flat_i64(self.flat_index(coords))
    }

    /// Writes an `f64` at the given coordinates (converted to the element type).
    pub fn set_coords_f64(&self, coords: &[i64], v: f64) {
        let i = self.flat_index(coords);
        self.set_flat_f64(i, v);
    }

    /// Writes an `i64` at the given coordinates (converted to the element type).
    pub fn set_coords_i64(&self, coords: &[i64], v: i64) {
        let i = self.flat_index(coords);
        self.set_flat_i64(i, v);
    }

    /// Bulk-copies another buffer's elements into this one — one `memcpy`
    /// per buffer instead of one store per element. This is the fan-out path
    /// of coalesced serving: one realization's output is replicated into
    /// each waiting request's pooled buffer.
    ///
    /// # Panics
    ///
    /// Panics if the element types or shapes differ.
    pub fn copy_from(&self, src: &Buffer) {
        assert_eq!(self.ty, src.ty, "copying between element types");
        assert_eq!(self.dims, src.dims, "copying between shapes");
        // SAFETY: see the module-level concurrency note — the destination is
        // exclusively held by the copying thread, and the source's producer
        // has been joined before the copy.
        self.storage_mut().copy_from(unsafe { &*src.data.get() });
    }

    /// Maximum absolute difference against another buffer of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &Buffer) -> f64 {
        assert_eq!(self.dims, other.dims, "buffer shapes differ");
        (0..self.len())
            .map(|i| (self.get_flat_f64(i) - other.get_flat_f64(i)).abs())
            .fold(0.0, f64::max)
    }

    /// All elements as `f64`, in flat (scanline) order.
    pub fn to_f64_vec(&self) -> Vec<f64> {
        (0..self.len()).map(|i| self.get_flat_f64(i)).collect()
    }
}

impl Clone for Buffer {
    fn clone(&self) -> Self {
        // One allocation-plus-memcpy, not one dispatch per element.
        // SAFETY: cloning reads every element; the producer that wrote them
        // has been joined before a clone can be reached (module-level note).
        Buffer {
            ty: self.ty,
            dims: self.dims.clone(),
            data: UnsafeCell::new(unsafe { &*self.data.get() }.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_layout() {
        let b = Buffer::with_extents(ScalarType::UInt(8), &[4, 3]);
        assert_eq!(b.len(), 12);
        assert_eq!(b.size_bytes(), 12);
        assert_eq!(b.strides(), vec![1, 4]);
        assert_eq!(b.dimensions(), 2);
        assert!(!b.is_empty());
    }

    #[test]
    fn typed_storage_wraps() {
        let b = Buffer::with_extents(ScalarType::UInt(8), &[2]);
        b.set_flat_i64(0, 300);
        assert_eq!(b.get_flat_i64(0), 44);
        let f = Buffer::with_extents(ScalarType::Float(32), &[2]);
        f.set_flat_f64(1, 1.5);
        assert_eq!(f.get_flat_f64(1), 1.5);
        assert_eq!(f.get_flat(1), Value::float(1.5));
        assert_eq!(b.get_flat(0), Value::int(44));
    }

    #[test]
    fn coordinates_respect_mins() {
        let b = Buffer::new(ScalarType::Int(32), &[(-2, 5), (10, 3)]);
        b.set_coords_i64(&[-2, 10], 7);
        b.set_coords_i64(&[2, 12], 9);
        assert_eq!(b.at_i64(&[-2, 10]), 7);
        assert_eq!(b.at_i64(&[2, 12]), 9);
        assert_eq!(b.get_flat_i64(0), 7);
        assert_eq!(b.get_flat_i64(14), 9);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_coordinates_panic() {
        let b = Buffer::with_extents(ScalarType::Int(32), &[4]);
        let _ = b.at_i64(&[4]);
    }

    #[test]
    fn from_fn_and_diff() {
        let a = Buffer::from_fn_2d(ScalarType::Float(32), 3, 2, |x, y| (x + 10 * y) as f64);
        let b = a.clone();
        assert_eq!(a.max_abs_diff(&b), 0.0);
        b.set_coords_f64(&[1, 1], 0.0);
        assert_eq!(a.max_abs_diff(&b), 11.0);
        assert_eq!(a.to_f64_vec().len(), 6);
    }

    type Seq = Lanes<std::vec::IntoIter<Option<i64>>>;

    /// A dense run.
    fn dense(base: i64, lanes: usize) -> Seq {
        Lanes::Dense { base, lanes }
    }

    /// Lane by lane, `None` for a masked-off lane.
    fn each(idx: &[Option<i64>]) -> Seq {
        Lanes::Each(Vec::from(idx).into_iter())
    }

    /// Lane by lane, every lane enabled.
    fn all(idx: &[i64]) -> Seq {
        Lanes::Each(idx.iter().map(|&i| Some(i)).collect::<Vec<_>>().into_iter())
    }

    /// [`Buffer::read_lanes`] into a fresh value.
    fn read(b: &Buffer, seq: Seq) -> std::result::Result<Value, i64> {
        let mut v = Value::Int(Vec::new());
        b.read_lanes(seq, &mut v).map(|()| v)
    }

    /// The lanes of `ramp(base, stride, lanes)`.
    fn ramp(base: i64, stride: i64, lanes: i64) -> Vec<i64> {
        (0..lanes).map(|k| base + stride * k).collect()
    }

    #[test]
    fn bulk_accessors_match_single_element_paths() {
        for ty in [
            ScalarType::UInt(8),
            ScalarType::Int(32),
            ScalarType::Float(32),
            ScalarType::Float(64),
        ] {
            let b = Buffer::with_extents(ty, &[10]);
            for i in 0..10 {
                b.set_flat_f64(i, (i as f64) * 1.5 - 3.0);
            }
            // A dense run and arbitrary index lists read what the
            // single-element path reads, in the buffer's kind.
            for (seq, idx) in [
                (dense(2, 5), ramp(2, 1, 5)),
                (all(&[9, 0, 4, 4]), vec![9, 0, 4, 4]),
            ] {
                let v = read(&b, seq).unwrap();
                assert_eq!(v.lanes(), idx.len());
                assert_eq!(matches!(v, Value::Float(_)), ty.is_float());
                for (k, &i) in idx.iter().enumerate() {
                    assert_eq!(v.lane_f64(k), b.get_flat_f64(i as usize), "{ty:?} read");
                }
            }
            // The first out-of-range lane in lane order is reported, by a
            // dense run exactly as lane by lane.
            for (base, lanes, bad) in [(8, 4, 10), (12, 2, 12), (-2, 3, -2)] {
                assert_eq!(read(&b, dense(base, lanes)).unwrap_err(), bad);
                let each = all(&ramp(base, 1, lanes as i64));
                assert_eq!(read(&b, each).unwrap_err(), bad);
            }
            assert_eq!(read(&b, all(&[3, 10, -1])).unwrap_err(), 10);
            assert_eq!(read(&b, all(&[-1, 10])).unwrap_err(), -1);

            // Float and integer values convert exactly as the single-element
            // stores do, through a dense run and lane by lane; a value
            // narrower than the access repeats its last lane.
            let w = Buffer::with_extents(ty, &[10]);
            let expect = Buffer::with_extents(ty, &[10]);
            let fvals = Value::Float(vec![1.25, 2.5, 3.75]);
            w.write_lanes(dense(1, 3), &fvals).unwrap();
            w.write_lanes(all(&[5, 6]), &Value::Int(vec![7, -2]))
                .unwrap();
            w.write_lanes(dense(7, 3), &Value::Int(vec![4, 9])).unwrap();
            for (k, i) in (1..4).enumerate() {
                expect.set_flat_lane(i, &fvals, k);
            }
            for (i, v) in [(5, 7), (6, -2), (7, 4), (8, 9), (9, 9)] {
                expect.set_flat_i64(i, v);
            }
            assert_eq!(w.to_f64_vec(), expect.to_f64_vec(), "{ty:?} write");
            assert_eq!(w.write_lanes(dense(9, 2), &fvals).unwrap_err(), 10);
        }
    }

    #[test]
    fn scatter_strided_and_clamped_accessors_match_per_lane_paths() {
        for ty in [
            ScalarType::UInt(8),
            ScalarType::Int(32),
            ScalarType::Float(32),
            ScalarType::Float(64),
        ] {
            let b = Buffer::with_extents(ty, &[12]);
            for i in 0..12 {
                b.set_flat_f64(i, (i as f64) * 1.5 - 3.0);
            }
            let per_lane = |idx: &[Option<i64>]| -> Vec<f64> {
                idx.iter()
                    .map(|i| i.map_or(0.0, |i| b.get_flat_f64(i as usize)))
                    .collect()
            };

            // Ramps with non-unit, zero and negative strides, and a clamped
            // list (`max(min(i, hi), lo)` applied by the caller), read what
            // per-lane reads do.
            let clamped: Vec<i64> = [-5i64, 0, 7, 40, 11]
                .iter()
                .map(|i| (*i).clamp(0, 11))
                .collect();
            for idx in [ramp(1, 3, 4), ramp(5, 0, 3), ramp(9, -4, 3), clamped] {
                let lanes: Vec<Option<i64>> = idx.iter().map(|&i| Some(i)).collect();
                let v = read(&b, each(&lanes)).unwrap();
                assert_eq!(v.to_f64_lanes(), per_lane(&lanes), "{ty:?} {idx:?}");
            }
            assert_eq!(read(&b, all(&ramp(9, 4, 2))).unwrap_err(), 13);
            assert_eq!(read(&b, all(&ramp(2, -3, 2))).unwrap_err(), -1);

            // Masks: a masked-off lane reads 0 and is not bounds-checked,
            // even when its index would be out of range; an enabled
            // out-of-range lane after it still fails.
            let masked = [Some(4), None, Some(11), None];
            let v = read(&b, each(&masked)).unwrap();
            assert_eq!(v.to_f64_lanes(), per_lane(&masked), "{ty:?} masked");
            assert_eq!(read(&b, each(&[None, Some(12), Some(-3)])).unwrap_err(), 12);

            // Scatters, strided writes and masked writes agree with
            // per-element stores; a masked-off lane writes nothing.
            let w1 = Buffer::with_extents(ty, &[12]);
            let w2 = Buffer::with_extents(ty, &[12]);
            let fvals = Value::Float(vec![1.25, -2.5, 3.75, 40.0]);
            let ivals = Value::Int(vec![7, -2, 300, 9]);
            for (idx, v) in [
                (vec![Some(11), Some(0), Some(5), Some(2)], &fvals),
                (ramp(2, 4, 3).into_iter().map(Some).collect(), &fvals),
                (ramp(10, -3, 4).into_iter().map(Some).collect(), &ivals),
                (vec![Some(3), None, Some(6), None], &ivals),
            ] {
                w1.write_lanes(each(&idx), v).unwrap();
                for (k, i) in idx.iter().enumerate() {
                    if let Some(i) = i {
                        w2.set_flat_lane(*i as usize, v, k);
                    }
                }
                assert_eq!(w1.to_f64_vec(), w2.to_f64_vec(), "{ty:?} {idx:?}");
            }
            for (idx, bad) in [
                (vec![Some(1), None, Some(12), Some(-1)], 12),
                (vec![None, Some(99)], 99),
                (vec![Some(-4), None], -4),
            ] {
                assert_eq!(w1.write_lanes(each(&idx), &fvals).unwrap_err(), bad);
            }
            w1.write_lanes(each(&[None, None]), &fvals).unwrap();
        }
    }

    #[test]
    fn copy_from_replicates_bit_exactly() {
        for ty in [
            ScalarType::UInt(8),
            ScalarType::Int(32),
            ScalarType::Float(32),
            ScalarType::Float(64),
        ] {
            let src = Buffer::with_extents(ty, &[5, 3]);
            for i in 0..src.len() {
                src.set_flat_f64(i, (i as f64) * 1.5 - 3.0);
            }
            let dst = Buffer::with_extents(ty, &[5, 3]);
            dst.copy_from(&src);
            assert_eq!(dst.to_f64_vec(), src.to_f64_vec(), "{ty:?} copy_from");
            // Clone takes the same storage-level path.
            assert_eq!(src.clone().to_f64_vec(), src.to_f64_vec(), "{ty:?} clone");
        }
        // Non-zero mins survive a clone.
        let b = Buffer::new(ScalarType::Int(32), &[(-2, 4)]);
        b.set_coords_i64(&[-1], 9);
        assert_eq!(b.clone().at_i64(&[-1]), 9);
    }

    #[test]
    #[should_panic(expected = "shapes")]
    fn copy_from_rejects_shape_mismatch() {
        let a = Buffer::with_extents(ScalarType::Float(32), &[4]);
        let b = Buffer::with_extents(ScalarType::Float(32), &[5]);
        a.copy_from(&b);
    }

    #[test]
    fn i16_and_f64_storage() {
        let b = Buffer::with_extents(ScalarType::Int(16), &[2]);
        b.set_flat_i64(0, 40000);
        assert_eq!(b.get_flat_i64(0), 40000i64 as i16 as i64);
        let d = Buffer::with_extents(ScalarType::Float(64), &[1]);
        d.set_flat_f64(0, 1e-12);
        assert_eq!(d.get_flat_f64(0), 1e-12);
    }
}
