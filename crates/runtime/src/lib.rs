//! # halide-runtime
//!
//! The runtime substrate for the halide-rs reproduction: typed pixel
//! [`Buffer`]s, the data-parallel [`ThreadPool`], instrumentation
//! [`Counters`], and the runtime [`Value`] representation the executor
//! evaluates expressions to.
//!
//! The paper's generated code relies on a small runtime (a task queue
//! consumed by a thread pool, and buffer management); this crate plays that
//! role for the closure-compiling backend in `halide-exec`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod buffer;
pub mod bufpool;
pub mod counters;
pub mod pool;
pub mod value;

pub use buffer::{Buffer, BufferDim, Lanes};
pub use bufpool::{BufferPool, PoolStats, PooledBuffer};
pub use counters::{classify_flat_indices, AccessPattern, CounterSnapshot, Counters};
pub use pool::{num_threads_default, ThreadPool};
pub use value::{
    abs_owned, binary_op, binary_op_owned, boxed, cast_owned, compare_op, compare_op_owned,
    float_lanes, float_splat, int_lanes, int_splat, map_f64_owned, not_op_owned, recycle,
    recycle_box, scalar_binary_op, scalar_compare_op, select_op, select_op_owned, zip_f64_owned,
    Scalar, Value,
};
