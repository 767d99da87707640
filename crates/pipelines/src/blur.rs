//! The two-stage 3×3 box blur of Sec. 3.1 — the paper's running example —
//! together with the five schedules of Fig. 3 and hand-written reference
//! implementations.

use halide_ir::{ScalarType, Type};
use halide_lang::{Func, ImageParam, Pipeline, TailStrategy, Var};
use halide_runtime::Buffer;

/// The blur pipeline's frontend objects (kept so schedules can be applied).
pub struct BlurApp {
    /// The input image parameter.
    pub input: ImageParam,
    /// First stage: horizontal 3×1 blur.
    pub blurx: Func,
    /// Second stage (output): vertical 1×3 blur of `blurx`.
    pub out: Func,
}

impl BlurApp {
    /// Builds the two-stage blur algorithm (no schedule applied yet).
    ///
    /// ```text
    /// blurx(x, y) = (in(x-1, y) + in(x, y) + in(x+1, y)) / 3
    /// out(x, y)   = (blurx(x, y-1) + blurx(x, y) + blurx(x, y+1)) / 3
    /// ```
    pub fn new() -> BlurApp {
        let input = ImageParam::new("blur_input", Type::f32(), 2);
        let (x, y) = (Var::new("x"), Var::new("y"));
        let blurx = Func::new("blurx");
        blurx.define(
            &[x.clone(), y.clone()],
            (input.at_clamped(vec![x.expr() - 1, y.expr()])
                + input.at_clamped(vec![x.expr(), y.expr()])
                + input.at_clamped(vec![x.expr() + 1, y.expr()]))
                / 3.0f32,
        );
        let out = Func::new("blur_out");
        out.define(
            &[x.clone(), y.clone()],
            (blurx.at(vec![x.expr(), y.expr() - 1])
                + blurx.at(vec![x.expr(), y.expr()])
                + blurx.at(vec![x.expr(), y.expr() + 1]))
                / 3.0f32,
        );
        BlurApp { input, blurx, out }
    }

    /// The pipeline rooted at the output stage.
    pub fn pipeline(&self) -> Pipeline {
        Pipeline::new(&self.out)
    }
}

impl Default for BlurApp {
    fn default() -> Self {
        BlurApp::new()
    }
}

/// The five scheduling strategies of Fig. 3 plus the paper's fastest
/// CPU schedule (tiled + vectorized + parallel).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlurSchedule {
    /// Compute and store `blurx` entirely before `out` (root/root).
    BreadthFirst,
    /// Inline `blurx` into `out`: recompute it at every use.
    FullFusion,
    /// Store `blurx` for the whole image but compute it one scanline ahead of
    /// `out` (serial `y`, reuse across iterations).
    SlidingWindow,
    /// Compute `blurx` per 32×32 tile of `out` (overlapping tiles).
    Tiled,
    /// Split `out` into strips of 8 scanlines processed in parallel, sliding
    /// `blurx` within each strip.
    SlidingInTiles,
    /// The paper's fastest CPU strategy: parallel strips of 32 scanlines,
    /// `blurx` computed per strip, both stages vectorized 64 wide along x
    /// (the output's last partial vector is masked, `blurx`'s shifts inwards).
    ParallelTiledVector,
}

impl BlurSchedule {
    /// All schedules, in the order of Fig. 3.
    pub const ALL: [BlurSchedule; 6] = [
        BlurSchedule::BreadthFirst,
        BlurSchedule::FullFusion,
        BlurSchedule::SlidingWindow,
        BlurSchedule::Tiled,
        BlurSchedule::SlidingInTiles,
        BlurSchedule::ParallelTiledVector,
    ];

    /// The label used in Fig. 3.
    pub fn label(&self) -> &'static str {
        match self {
            BlurSchedule::BreadthFirst => "Breadth-first",
            BlurSchedule::FullFusion => "Full fusion",
            BlurSchedule::SlidingWindow => "Sliding window",
            BlurSchedule::Tiled => "Tiled",
            BlurSchedule::SlidingInTiles => "Sliding in tiles",
            BlurSchedule::ParallelTiledVector => "Parallel tiled + vectorized",
        }
    }

    /// Applies this schedule to the blur app's functions.
    pub fn apply(&self, app: &BlurApp) {
        match self {
            BlurSchedule::BreadthFirst => {
                app.blurx.compute_root();
                app.out.parallelize("y");
            }
            BlurSchedule::FullFusion => {
                app.blurx.compute_inline();
                app.out.parallelize("y");
            }
            BlurSchedule::SlidingWindow => {
                // Serial y is required for reuse; parallelism is given up.
                app.blurx.compute_at(&app.out, "y");
                app.blurx.store_root();
            }
            BlurSchedule::Tiled => {
                app.out
                    .tile_dims("x", "y", "xo", "yo", "xi", "yi", 32, 32)
                    .parallelize("yo");
                app.blurx.compute_at(&app.out, "xo");
            }
            BlurSchedule::SlidingInTiles => {
                app.out.split_dim("y", "ty", "y", 8).parallelize("ty");
                app.blurx.compute_at(&app.out, "y");
                app.blurx.store_at(&app.out, "ty");
            }
            BlurSchedule::ParallelTiledVector => schedule_tiled_vector(app, 64),
        }
    }
}

/// [`BlurSchedule::ParallelTiledVector`] with both stages `lanes` wide.
fn schedule_tiled_vector(app: &BlurApp, lanes: i64) {
    app.out
        .split_dim("y", "yo", "yi", 32)
        .parallelize("yo")
        .split_dim_tail("x", "xo", "xi", lanes, TailStrategy::Predicate)
        .vectorize_dim("xi");
    app.blurx.compute_at(&app.out, "yo");
    app.blurx
        .split_dim("x", "bxo", "bxi", lanes)
        .vectorize_dim("bxi");
}

/// A synthetic input image: a smooth gradient plus a deterministic
/// high-frequency pattern (so blurring it is observable and reproducible).
pub fn make_input(width: i64, height: i64) -> Buffer {
    Buffer::from_fn_2d(ScalarType::Float(32), width, height, |x, y| {
        let smooth = (x as f64) * 0.25 + (y as f64) * 0.5;
        let texture = ((x * 7 + y * 13) % 32) as f64;
        smooth + texture
    })
}

fn clamp(v: i64, lo: i64, hi: i64) -> i64 {
    v.max(lo).min(hi)
}

/// The straightforward hand-written implementation (the "clean C" baseline):
/// two separate passes over full-image temporaries.
pub fn reference(input: &Buffer) -> Buffer {
    let w = input.dims()[0].extent;
    let h = input.dims()[1].extent;
    let blurx = Buffer::with_extents(ScalarType::Float(32), &[w, h]);
    for y in 0..h {
        for x in 0..w {
            let a = input.at_f64(&[clamp(x - 1, 0, w - 1), y]);
            let b = input.at_f64(&[x, y]);
            let c = input.at_f64(&[clamp(x + 1, 0, w - 1), y]);
            blurx.set_coords_f64(
                &[x, y],
                (a as f32 + b as f32 + c as f32) as f64 / 3.0f32 as f64,
            );
        }
    }
    let out = Buffer::with_extents(ScalarType::Float(32), &[w, h]);
    for y in 0..h {
        for x in 0..w {
            let a = blurx.at_f64(&[x, (y - 1).max(0)]);
            let b = blurx.at_f64(&[x, y]);
            let c = blurx.at_f64(&[x, (y + 1).min(h - 1)]);
            out.set_coords_f64(&[x, y], (a as f32 + b as f32 + c as f32) as f64 / 3.0);
        }
    }
    out
}

/// A hand-optimized implementation in the spirit of the paper's expert
/// baseline: fused passes over strips of 16 scanlines, processed in
/// parallel, each with a rolling window of three horizontally blurred
/// scanlines (no full-image temporary). It works on `&[f32]` rows, and
/// its inner loops are plain slice zips the compiler vectorizes.
pub fn reference_optimized(input: &Buffer, threads: usize) -> Buffer {
    let w = input.dims()[0].extent as usize;
    let h = input.dims()[1].extent as usize;
    let src = input.f32_elems().expect("the blur input stores f32");
    let mut out = Buffer::with_extents(ScalarType::Float(32), &[w as i64, h as i64]);
    if w == 0 || h == 0 {
        return out;
    }
    let dst = out.f32_elems_mut().expect("the blur output stores f32");
    const STRIP: usize = 16;
    let row = |y: usize| &src[y * w..(y + 1) * w];

    // One strip: `rows` is output rows `y0..` (a whole number of rows).
    let process_strip = |y0: usize, rows: &mut [f32]| {
        let mut r0 = vec![0f32; w];
        let mut r1 = vec![0f32; w];
        let mut r2 = vec![0f32; w];
        blur_row(row(y0.saturating_sub(1)), &mut r0);
        blur_row(row(y0), &mut r1);
        for (k, out_row) in rows.chunks_exact_mut(w).enumerate() {
            blur_row(row((y0 + k + 1).min(h - 1)), &mut r2);
            for (((d, a), b), c) in out_row.iter_mut().zip(&r0).zip(&r1).zip(&r2) {
                *d = (a + b + c) / 3.0;
            }
            std::mem::swap(&mut r0, &mut r1);
            std::mem::swap(&mut r1, &mut r2);
        }
    };

    let strips = dst.chunks_mut(STRIP * w).enumerate();
    if threads <= 1 {
        for (i, rows) in strips {
            process_strip(i * STRIP, rows);
        }
    } else {
        let mut strips: Vec<_> = strips.collect();
        let per_thread = strips.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for chunk in strips.chunks_mut(per_thread) {
                let process_strip = &process_strip;
                scope.spawn(move || {
                    for (i, rows) in chunk.iter_mut() {
                        process_strip(*i * STRIP, rows);
                    }
                });
            }
        });
    }
    out
}

/// `dst[x] = (src[x - 1] + src[x] + src[x + 1]) / 3` with the neighbours
/// clamped to the row, in `f32`.
fn blur_row(src: &[f32], dst: &mut [f32]) {
    let w = src.len();
    let last = w - 1;
    dst[0] = (src[0] + src[0] + src[1.min(last)]) / 3.0;
    if w > 1 {
        dst[last] = (src[last - 1] + src[last] + src[last]) / 3.0;
    }
    if w > 2 {
        let middle = dst[1..last]
            .iter_mut()
            .zip(src.iter().zip(&src[1..]).zip(&src[2..]));
        for (d, ((a, b), c)) in middle {
            *d = (a + b + c) / 3.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halide_exec::Realization;

    /// A fresh blur under `schedule`, realized once over all of `input`.
    fn run(schedule: BlurSchedule, input: &Buffer, threads: usize) -> Realization {
        let app = BlurApp::new();
        schedule.apply(&app);
        let extents = [input.dims()[0].extent, input.dims()[1].extent];
        crate::realize(&app.pipeline(), &app.input, input, &extents, threads)
    }

    /// Every schedule of Fig. 3 must compute exactly the same image as the
    /// hand-written reference: schedules change performance, never results.
    #[test]
    fn all_schedules_match_reference() {
        let input = make_input(67, 41);
        let expected = reference(&input);
        for schedule in BlurSchedule::ALL {
            let result = run(schedule, &input, 2);
            let diff = result.output.max_abs_diff(&expected);
            assert!(
                diff < 1e-4,
                "schedule {:?} diverges from reference by {diff}",
                schedule.label()
            );
        }
    }

    #[test]
    fn optimized_reference_matches_naive_reference() {
        for (w, h) in [(41, 29), (1, 5), (2, 3), (3, 17), (16, 33)] {
            let input = make_input(w, h);
            let a = reference(&input);
            for threads in [1, 4] {
                let b = reference_optimized(&input, threads);
                assert!(a.max_abs_diff(&b) < 1e-4, "{w}x{h} on {threads} threads");
            }
        }
    }

    #[test]
    fn full_fusion_does_more_work_than_breadth_first() {
        let input = make_input(64, 64);
        let bf = run(BlurSchedule::BreadthFirst, &input, 1);
        let fused = run(BlurSchedule::FullFusion, &input, 1);

        let amplification = fused.counters.work_amplification(&bf.counters);
        assert!(
            amplification > 1.5,
            "full fusion should roughly double arithmetic, got {amplification}"
        );
    }

    #[test]
    fn sliding_window_avoids_redundant_work() {
        let input = make_input(64, 64);
        let bf = run(BlurSchedule::BreadthFirst, &input, 1);
        let sw = run(BlurSchedule::SlidingWindow, &input, 1);

        let amplification = sw.counters.work_amplification(&bf.counters);
        assert!(
            amplification < 1.25,
            "sliding window should do (nearly) no redundant work, got {amplification}"
        );
        // and its peak live intermediate storage is much smaller
        assert!(sw.counters.peak_bytes_live < bf.counters.peak_bytes_live / 4);
    }

    #[test]
    fn tiled_schedule_recomputes_only_tile_edges() {
        let input = make_input(128, 128);
        let bf = run(BlurSchedule::BreadthFirst, &input, 1);
        let t = run(BlurSchedule::Tiled, &input, 1);

        let amplification = t.counters.work_amplification(&bf.counters);
        assert!(
            amplification > 1.0 && amplification < 1.3,
            "tiling should add a small boundary overhead, got {amplification}"
        );
    }

    /// Statement plus expression nodes of blur lowered under the tuned
    /// schedule with both stages `lanes` wide.
    fn lowered_nodes(lanes: i64) -> usize {
        use halide_ir::{IrVisitor, Stmt};
        struct Counter(usize);
        impl IrVisitor for Counter {
            fn visit_expr(&mut self, e: &halide_ir::Expr) {
                self.0 += 1;
                halide_ir::visit_expr_children(self, e);
            }
            fn visit_stmt(&mut self, s: &Stmt) {
                self.0 += 1;
                halide_ir::visit_stmt_children(self, s);
            }
        }
        let app = BlurApp::new();
        schedule_tiled_vector(&app, lanes);
        let module = halide_lower::lower(&app.pipeline()).expect("schedule lowers");
        let mut c = Counter(0);
        c.visit_stmt(&module.stmt);
        c.0
    }

    /// Lowering has no per-lane loop: a vector is one `Ramp` or `Broadcast`
    /// node whatever its width.
    #[test]
    fn lowered_size_does_not_depend_on_vector_width() {
        assert_eq!(lowered_nodes(8), lowered_nodes(512));
    }
}
