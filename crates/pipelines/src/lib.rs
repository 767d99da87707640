//! # halide-pipelines
//!
//! The image-processing applications from the paper's evaluation (Sec. 6),
//! written in the halide-rs DSL, together with synthetic input generators and
//! hand-written reference implementations used as baselines and correctness
//! oracles:
//!
//! * [`blur`] — the two-stage 3×3 blur of Sec. 3.1 with the five schedules of
//!   Fig. 3;
//! * [`histogram`] — histogram equalization (the reduction example of Sec. 2);
//! * [`bilateral_grid`] — scatter into a 3-D grid, blur it, slice it;
//! * [`camera_pipe`] — raw sensor data to RGB (demosaic, color, tone curve);
//! * [`interpolate`] — multi-scale pyramid interpolation;
//! * [`local_laplacian`] — the ~99-stage local Laplacian filter of Fig. 1;
//! * [`apps`] — a uniform driver over all of the above for the benchmark
//!   harnesses.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod apps;
pub mod bilateral_grid;
pub mod blur;
pub mod camera_pipe;
pub mod histogram;
pub mod interpolate;
pub mod local_laplacian;
pub mod pyramid;

pub use apps::{AppKind, ScheduleChoice};

/// Test support: lowers `pipeline` under its current schedule and realizes
/// it once on the default backend, `buf` bound as `input`, per-op counters on.
#[cfg(test)]
fn realize(
    pipeline: &halide_lang::Pipeline,
    input: &halide_lang::ImageParam,
    buf: &halide_runtime::Buffer,
    extents: &[i64],
    threads: usize,
) -> halide_exec::Realization {
    let module = halide_lower::lower(pipeline).expect("schedule lowers");
    halide_exec::Realizer::new(&module)
        .input(input.name(), buf.clone())
        .threads(threads)
        .realize(extents)
        .expect("pipeline runs")
}
