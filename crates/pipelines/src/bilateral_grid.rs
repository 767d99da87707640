//! The bilateral grid (Chen, Paris, Durand 2007) — the paper's example of a
//! pipeline mixing a scattering reduction (grid construction), three small
//! stencils (blurring the grid), and a data-dependent trilinear gather
//! (slicing).

use halide_exec::{Realization, Realizer, Result as ExecResult};
use halide_ir::{Expr, ScalarType, Type};
use halide_lang::{Func, ImageParam, Pipeline, RDom, Var};
use halide_lower::{lower, Module, Result as LowerResult};
use halide_runtime::Buffer;

/// Spatial sampling rate of the grid (pixels per grid cell).
pub const S_SIGMA: i32 = 8;
/// Range sampling rate of the grid (intensity units per grid cell).
pub const R_SIGMA: f32 = 0.1;
/// Number of intensity bins in the grid.
pub const GRID_Z: i32 = 11; // ceil(1.0 / R_SIGMA) + 1

/// The bilateral-grid pipeline's frontend objects.
pub struct BilateralGridApp {
    /// Input image (float, expected in `[0, 1]`).
    pub input: ImageParam,
    /// Grid construction (scatter reduction): value and weight channels.
    pub grid: Func,
    /// Blur along z.
    pub blurz: Func,
    /// Blur along x.
    pub blurx: Func,
    /// Blur along y.
    pub blury: Func,
    /// Output: trilinear slice through the blurred grid.
    pub out: Func,
}

impl BilateralGridApp {
    /// Builds the algorithm.
    pub fn new() -> BilateralGridApp {
        let input = ImageParam::new("bilateral_input", Type::f32(), 2);
        let (x, y, z, c) = (Var::new("x"), Var::new("y"), Var::new("z"), Var::new("c"));

        // Construct the grid: each S_SIGMA x S_SIGMA block of pixels scatters
        // (value, 1) into the intensity bin of each pixel.
        let grid = Func::new("bg_grid");
        grid.define(
            &[x.clone(), y.clone(), z.clone(), c.clone()],
            Expr::f32(0.0),
        );
        let r = RDom::new(
            "r",
            vec![
                (Expr::int(0), Expr::int(S_SIGMA)),
                (Expr::int(0), Expr::int(S_SIGMA)),
            ],
        );
        let sample = input.at_clamped(vec![
            x.expr() * S_SIGMA + r.x().expr() - S_SIGMA / 2,
            y.expr() * S_SIGMA + r.y().expr() - S_SIGMA / 2,
        ]);
        let zi = (sample.clone() * (1.0f32 / R_SIGMA) + 0.5f32)
            .cast(Type::i32())
            .clamp(Expr::int(0), Expr::int(GRID_Z - 1));
        grid.update(
            vec![x.expr(), y.expr(), zi, c.expr()],
            grid.at(vec![
                x.expr(),
                y.expr(),
                (sample.clone() * (1.0f32 / R_SIGMA) + 0.5f32)
                    .cast(Type::i32())
                    .clamp(Expr::int(0), Expr::int(GRID_Z - 1)),
                c.expr(),
            ]) + Expr::select(Expr::eq(c.expr(), Expr::int(0)), sample, Expr::f32(1.0)),
            Some(r),
        );

        // 5-point (1, 4, 6, 4, 1) blur along each grid axis.
        let five_point = |f: &Func, dim: usize| -> Box<dyn Fn(Expr, Expr, Expr, Expr) -> Expr> {
            let f = f.clone();
            Box::new(move |xx: Expr, yy: Expr, zz: Expr, cc: Expr| {
                let shift = |d: i32| {
                    let mut coords = vec![xx.clone(), yy.clone(), zz.clone(), cc.clone()];
                    coords[dim] = coords[dim].clone() + d;
                    f.at(coords)
                };
                (shift(-2) + shift(-1) * 4.0f32 + shift(0) * 6.0f32 + shift(1) * 4.0f32 + shift(2))
                    / 16.0f32
            })
        };

        let blurz = Func::new("bg_blurz");
        blurz.define(
            &[x.clone(), y.clone(), z.clone(), c.clone()],
            five_point(&grid, 2)(x.expr(), y.expr(), z.expr(), c.expr()),
        );
        let blurx = Func::new("bg_blurx");
        blurx.define(
            &[x.clone(), y.clone(), z.clone(), c.clone()],
            five_point(&blurz, 0)(x.expr(), y.expr(), z.expr(), c.expr()),
        );
        let blury = Func::new("bg_blury");
        blury.define(
            &[x.clone(), y.clone(), z.clone(), c.clone()],
            five_point(&blurx, 1)(x.expr(), y.expr(), z.expr(), c.expr()),
        );

        // Slice: trilinear interpolation at (x/S, y/S, value/R_SIGMA).
        let out = Func::new("bg_out");
        let val = input.at_clamped(vec![x.expr(), y.expr()]);
        let zv = val * (1.0f32 / R_SIGMA);
        let zint = zv
            .clone()
            .cast(Type::i32())
            .clamp(Expr::int(0), Expr::int(GRID_Z - 2));
        let zf = zv - zint.clone().cast(Type::f32());
        let xf = (x.expr() % S_SIGMA).cast(Type::f32()) / S_SIGMA as f32;
        let yf = (y.expr() % S_SIGMA).cast(Type::f32()) / S_SIGMA as f32;
        let xi = x.expr() / S_SIGMA;
        let yi = y.expr() / S_SIGMA;
        let lerp = |a: Expr, b: Expr, w: Expr| a.clone() + (b - a) * w;
        let sample_grid = |cc: i32| {
            let corner = |dx: i32, dy: i32, dz: i32| {
                blury.at(vec![
                    xi.clone() + dx,
                    yi.clone() + dy,
                    zint.clone() + dz,
                    Expr::int(cc),
                ])
            };
            lerp(
                lerp(
                    lerp(corner(0, 0, 0), corner(1, 0, 0), xf.clone()),
                    lerp(corner(0, 1, 0), corner(1, 1, 0), xf.clone()),
                    yf.clone(),
                ),
                lerp(
                    lerp(corner(0, 0, 1), corner(1, 0, 1), xf.clone()),
                    lerp(corner(0, 1, 1), corner(1, 1, 1), xf.clone()),
                    yf.clone(),
                ),
                zf.clone(),
            )
        };
        let value = sample_grid(0);
        let weight = sample_grid(1);
        out.define(
            &[x.clone(), y.clone()],
            value / Expr::max(weight, Expr::f32(1e-6)),
        );

        BilateralGridApp {
            input,
            grid,
            blurz,
            blurx,
            blury,
            out,
        }
    }

    /// The pipeline rooted at the output.
    pub fn pipeline(&self) -> Pipeline {
        Pipeline::new(&self.out)
    }

    /// A good CPU schedule in the spirit of the paper's result: the grid
    /// stages are computed at root and parallelized over their (small) y
    /// dimension; the slice stage is tiled, parallelized and computed per
    /// tile. The three grid blurs and the slice are vectorized 8 wide —
    /// the slice's trilinear reads become bulk gathers on the compiled
    /// engine (the grid construction itself stays scalar: its scatter
    /// reduction is latency-, not width-, bound at these grid sizes).
    pub fn schedule_good(&self) {
        self.grid.compute_root().parallelize("y");
        for f in [&self.blurz, &self.blurx, &self.blury] {
            f.compute_root()
                .parallelize("y")
                .split_dim("x", "xv", "xl", 8)
                .vectorize_dim("xl");
        }
        self.out
            .tile_dims("x", "y", "xo", "yo", "xi", "yi", 32, 32)
            .parallelize("yo")
            .split_dim("xi", "xio", "xii", 8)
            .vectorize_dim("xii");
    }

    /// Compiles with the current schedule.
    ///
    /// # Errors
    ///
    /// Propagates lowering errors.
    pub fn compile(&self) -> LowerResult<Module> {
        lower(&self.pipeline())
    }

    /// Runs a compiled module.
    ///
    /// # Errors
    ///
    /// Propagates execution errors.
    pub fn run(&self, module: &Module, input: &Buffer, threads: usize) -> ExecResult<Realization> {
        self.run_on(
            module,
            input,
            threads,
            true,
            halide_exec::Backend::default(),
        )
    }

    /// Runs on an explicit execution [`Backend`](halide_exec::Backend)
    /// (the benchmark harnesses compare engines through this). `instrument`
    /// toggles the per-operation counters; pass `false` when the wall time
    /// matters (see [`halide_exec::Realizer::instrument`]).
    ///
    /// # Errors
    ///
    /// Propagates execution errors.
    pub fn run_on(
        &self,
        module: &Module,
        input: &Buffer,
        threads: usize,
        instrument: bool,
        backend: halide_exec::Backend,
    ) -> ExecResult<Realization> {
        let (w, h) = (input.dims()[0].extent, input.dims()[1].extent);
        Realizer::new(module)
            .input(self.input.name(), input.clone())
            .threads(threads)
            .instrument(instrument)
            .backend(backend)
            .realize(&[w, h])
    }
}

impl Default for BilateralGridApp {
    fn default() -> Self {
        BilateralGridApp::new()
    }
}

/// A synthetic input in `[0, 1]`: a soft edge plus texture, the kind of
/// content edge-preserving smoothing is interesting on.
pub fn make_input(width: i64, height: i64) -> Buffer {
    Buffer::from_fn_2d(ScalarType::Float(32), width, height, |x, y| {
        let edge = if x < width / 2 { 0.25 } else { 0.75 };
        let texture = ((x * 13 + y * 7) % 16) as f64 / 160.0;
        (edge + texture).clamp(0.0, 1.0)
    })
}

/// Hand-written reference implementation of the same algorithm.
pub fn reference(input: &Buffer) -> Buffer {
    let w = input.dims()[0].extent;
    let h = input.dims()[1].extent;
    let s = S_SIGMA as i64;
    // Grid extents mirror what bounds inference derives: the slice stage
    // reads cells [0, (w-1)/s + 1] x [0, (h-1)/s + 1], the blurs pad by 2 in
    // each blurred dimension, and grid construction pads z by 2 via blurz.
    let gw = (w - 1) / s + 2 + 4;
    let gh = (h - 1) / s + 2 + 4;
    let gz = GRID_Z as i64 + 4;
    let off = 2i64; // index offset so cell -2 maps to slot 0
    let idx = |x: i64, y: i64, z: i64, c: i64| -> usize {
        ((((y + off) * gw + (x + off)) * gz + (z + off)) * 2 + c) as usize
    };
    let clampi = |v: i64, lo: i64, hi: i64| v.max(lo).min(hi);

    let mut grid = vec![0f32; (gw * gh * gz * 2) as usize];
    for gy in -2..gh - 2 {
        for gx in -2..gw - 2 {
            for ry in 0..s {
                for rx in 0..s {
                    let px = clampi(gx * s + rx - s / 2, 0, w - 1);
                    let py = clampi(gy * s + ry - s / 2, 0, h - 1);
                    let val = input.at_f64(&[px, py]) as f32;
                    let zi = clampi((val * (1.0 / R_SIGMA) + 0.5) as i64, 0, (GRID_Z - 1) as i64);
                    grid[idx(gx, gy, zi, 0)] += val;
                    grid[idx(gx, gy, zi, 1)] += 1.0;
                }
            }
        }
    }

    let blur_axis = |src: &Vec<f32>, axis: usize| -> Vec<f32> {
        let mut dst = vec![0f32; src.len()];
        for gy in -2..gh - 2 {
            for gx in -2..gw - 2 {
                for gz_i in -2..gz - 2 {
                    for c in 0..2 {
                        let mut acc = 0f32;
                        for (k, wgt) in [(-2i64, 1f32), (-1, 4.0), (0, 6.0), (1, 4.0), (2, 1.0)] {
                            let (mut sx, mut sy, mut sz) = (gx, gy, gz_i);
                            match axis {
                                0 => sx += k,
                                1 => sy += k,
                                _ => sz += k,
                            }
                            if sx < -off
                                || sx >= gw - off
                                || sy < -off
                                || sy >= gh - off
                                || sz < -off
                                || sz >= gz - off
                            {
                                continue; // outside: grid value is zero
                            }
                            acc += wgt * src[idx(sx, sy, sz, c)];
                        }
                        dst[idx(gx, gy, gz_i, c)] = acc / 16.0;
                    }
                }
            }
        }
        dst
    };
    let blurz = blur_axis(&grid, 2);
    let blurx = blur_axis(&blurz, 0);
    let blury = blur_axis(&blurx, 1);

    let out = Buffer::with_extents(ScalarType::Float(32), &[w, h]);
    for y in 0..h {
        for x in 0..w {
            let val = input.at_f64(&[x, y]) as f32;
            let zv = val * (1.0 / R_SIGMA);
            let zint = clampi(zv as i64, 0, (GRID_Z - 2) as i64);
            let zf = zv - zint as f32;
            let xf = (x % s) as f32 / s as f32;
            let yf = (y % s) as f32 / s as f32;
            let xi = x / s;
            let yi = y / s;
            let lerp = |a: f32, b: f32, w: f32| a + (b - a) * w;
            let mut interp = [0f32; 2];
            for (c, slot) in interp.iter_mut().enumerate() {
                let g =
                    |dx: i64, dy: i64, dz: i64| blury[idx(xi + dx, yi + dy, zint + dz, c as i64)];
                *slot = lerp(
                    lerp(
                        lerp(g(0, 0, 0), g(1, 0, 0), xf),
                        lerp(g(0, 1, 0), g(1, 1, 0), xf),
                        yf,
                    ),
                    lerp(
                        lerp(g(0, 0, 1), g(1, 0, 1), xf),
                        lerp(g(0, 1, 1), g(1, 1, 1), xf),
                        yf,
                    ),
                    zf,
                );
            }
            out.set_coords_f64(&[x, y], (interp[0] / interp[1].max(1e-6)) as f64);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference() {
        let input = make_input(40, 32);
        let app = BilateralGridApp::new();
        app.schedule_good();
        let module = app.compile().unwrap();
        let result = app.run(&module, &input, 2).unwrap();
        let expected = reference(&input);
        let diff = result.output.max_abs_diff(&expected);
        assert!(
            diff < 1e-3,
            "bilateral grid diverges from reference by {diff}"
        );
    }

    #[test]
    fn smooths_texture_but_preserves_the_edge() {
        let input = make_input(48, 32);
        let app = BilateralGridApp::new();
        app.schedule_good();
        let module = app.compile().unwrap();
        let result = app.run(&module, &input, 2).unwrap();
        // texture variance within each half is reduced
        let spread = |buf: &Buffer, x0: i64, x1: i64| {
            let mut min = f64::MAX;
            let mut max = f64::MIN;
            for y in 4..20 {
                for x in x0..x1 {
                    let v = buf.at_f64(&[x, y]);
                    min = min.min(v);
                    max = max.max(v);
                }
            }
            max - min
        };
        assert!(spread(&result.output, 4, 20) < spread(&input, 4, 20) * 0.7);
        // but the edge magnitude survives
        let edge_in = input.at_f64(&[32, 12]) - input.at_f64(&[12, 12]);
        let edge_out = result.output.at_f64(&[32, 12]) - result.output.at_f64(&[12, 12]);
        assert!(edge_out > edge_in * 0.5);
    }
}
