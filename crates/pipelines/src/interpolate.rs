//! Multi-scale interpolation: uses an image pyramid to interpolate pixel data
//! for seamless compositing (Sec. 6, "Multi-scale interpolation").
//!
//! The input is an RGBA-style image where the alpha channel marks known
//! pixels; the pyramid pulls known colors across unknown regions so the
//! result is a smooth interpolation. Chains of `DOWN` stages propagate
//! information globally; chains of `UP` stages redistribute it.

use halide_ir::{Expr, ScalarType, Type};
use halide_lang::{Func, ImageParam, Pipeline, TailStrategy, Var};
use halide_runtime::Buffer;

use crate::pyramid::{downsample, level_lanes, upsample};

/// The interpolation pipeline's frontend objects.
pub struct InterpolateApp {
    /// Input image: 3 channels (value·alpha premultiplied is computed
    /// internally): channel 0 = value, channel 1 = alpha.
    pub input: ImageParam,
    /// Per-level downsampled pyramid (premultiplied), coarsest last.
    pub downsampled: Vec<Func>,
    /// Per-level interpolated pyramid, finest first.
    pub interpolated: Vec<Func>,
    /// The normalized output.
    pub out: Func,
    /// Every stage but the output, by the pyramid level its x loop runs at
    /// (finest first) — the downsample and upsample helpers included.
    pub level_stages: Vec<Vec<Func>>,
    /// Number of pyramid levels.
    pub levels: usize,
}

impl InterpolateApp {
    /// Builds the algorithm with the given number of pyramid levels
    /// (the paper's implementation uses ~10 for multi-megapixel inputs;
    /// tests use fewer).
    pub fn new(levels: usize) -> InterpolateApp {
        assert!(
            levels >= 2,
            "interpolation needs at least two pyramid levels"
        );
        let input = ImageParam::new("interp_input", Type::f32(), 3);
        let (x, y, c) = (Var::new("x"), Var::new("y"), Var::new("c"));

        // downsampled[0]: premultiplied (value * alpha, alpha).
        let base = Func::new("interp_premultiplied");
        let alpha = input.at_clamped(vec![x.expr(), y.expr(), Expr::int(1)]);
        let value = input.at_clamped(vec![x.expr(), y.expr(), Expr::int(0)]);
        base.define(
            &[x.clone(), y.clone(), c.clone()],
            Expr::select(
                Expr::eq(c.expr(), Expr::int(0)),
                value * alpha.clone(),
                alpha,
            ),
        );

        let mut level_stages = vec![Vec::new(); levels];
        level_stages[0].push(base.clone());
        let mut downsampled = vec![base.clone()];
        for l in 1..levels {
            let (d, dx) = downsample(
                &format!("interp_down_{l}"),
                &downsampled[l - 1],
                &[c.clone()],
            );
            level_stages[l].extend([dx, d.clone()]);
            downsampled.push(d);
        }

        // interpolated[levels-1] is the coarsest downsampled level; walking
        // back up, unknown (low-alpha) pixels take the upsampled coarse value.
        let mut interpolated: Vec<Option<Func>> = vec![None; levels];
        interpolated[levels - 1] = Some(downsampled[levels - 1].clone());
        for l in (0..levels - 1).rev() {
            let (up, upx) = upsample(
                &format!("interp_up_{l}"),
                interpolated[l + 1]
                    .as_ref()
                    .expect("built in previous iteration"),
                &[c.clone()],
            );
            let f = Func::new(format!("interp_level_{l}"));
            let d = &downsampled[l];
            let d_alpha = d.at(vec![x.expr(), y.expr(), Expr::int(1)]);
            f.define(
                &[x.clone(), y.clone(), c.clone()],
                d.at(vec![x.expr(), y.expr(), c.expr()])
                    + (Expr::f32(1.0) - d_alpha) * up.at(vec![x.expr(), y.expr(), c.expr()]),
            );
            level_stages[l].extend([upx, up, f.clone()]);
            interpolated[l] = Some(f);
        }
        let interpolated: Vec<Func> = interpolated
            .into_iter()
            .map(|f| f.expect("filled"))
            .collect();

        let out = Func::new("interp_out");
        let num = interpolated[0].at(vec![x.expr(), y.expr(), Expr::int(0)]);
        let den = interpolated[0].at(vec![x.expr(), y.expr(), Expr::int(1)]);
        out.define(
            &[x.clone(), y.clone()],
            num / Expr::max(den, Expr::f32(1e-6)),
        );

        InterpolateApp {
            input,
            downsampled,
            interpolated,
            out,
            level_stages,
            levels,
        }
    }

    /// The pipeline rooted at the normalized output.
    pub fn pipeline(&self) -> Pipeline {
        Pipeline::new(&self.out)
    }

    /// A good CPU schedule: every stage of every pyramid level — including
    /// the `*_downx`/`*_upx` resampling helpers `downsample`/`upsample`
    /// create — computed at root, parallelized over rows, and vectorized
    /// across columns [`level_lanes`] wide. The level extents are symbolic
    /// (they halve per level and rarely divide the vector width), so each
    /// interior stage shifts its last vector inwards — lowering grows a
    /// region narrower than one vector to one vector — while the
    /// caller-allocated output takes a scalar epilogue via `guard_with_if`.
    pub fn schedule_good(&self) {
        for (level, stages) in self.level_stages.iter().enumerate() {
            for f in stages {
                f.compute_root()
                    .parallelize("y")
                    .split_dim("x", "xo", "xi", level_lanes(level))
                    .vectorize_dim("xi");
            }
        }
        self.out
            .split_dim("y", "yo", "yi", 8)
            .parallelize("yo")
            .split_dim_tail("x", "xo", "xi", 16, TailStrategy::GuardWithIf)
            .vectorize_dim("xi");
    }

    /// A tiled schedule: every pyramid level is computed at root in 8x8
    /// tiles and the output in 16x16 tiles, each with its rows of tiles in
    /// parallel.
    pub fn schedule_tiled(&self) {
        let tile = |f: &Func, size: i64| {
            f.tile_dims("x", "y", "xo", "yo", "xi", "yi", size, size)
                .parallelize("yo");
        };
        for f in self.downsampled.iter().skip(1) {
            tile(f.compute_root(), 8);
        }
        for f in self.interpolated.iter().take(self.levels - 1) {
            tile(f.compute_root(), 8);
        }
        tile(&self.out, 16);
    }
}

/// A synthetic input: channel 0 holds values, channel 1 holds alpha. A sparse
/// grid of "known" pixels carries a smooth function; everything else is
/// unknown (alpha 0).
pub fn make_input(width: i64, height: i64) -> Buffer {
    let buf = Buffer::with_extents(ScalarType::Float(32), &[width, height, 2]);
    for y in 0..height {
        for x in 0..width {
            let known = x % 8 == 0 && y % 8 == 0;
            let value = 0.2 + 0.6 * ((x + y) as f64 / (width + height) as f64);
            buf.set_coords_f64(&[x, y, 0], if known { value } else { 0.0 });
            buf.set_coords_f64(&[x, y, 1], if known { 1.0 } else { 0.0 });
        }
    }
    buf
}

/// An input where every pixel is known (alpha = 1): interpolation must then
/// reproduce the input exactly.
pub fn make_opaque_input(width: i64, height: i64, f: impl Fn(i64, i64) -> f64) -> Buffer {
    let buf = Buffer::with_extents(ScalarType::Float(32), &[width, height, 2]);
    for y in 0..height {
        for x in 0..width {
            buf.set_coords_f64(&[x, y, 0], f(x, y));
            buf.set_coords_f64(&[x, y, 1], 1.0);
        }
    }
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fully_known_image_is_reproduced() {
        // With alpha = 1 everywhere, every level's alpha is 1, so the output
        // equals the input values exactly (the upsampled correction term is
        // multiplied by 1 - alpha = 0).
        let input = make_opaque_input(32, 32, |x, y| 0.25 + (x as f64) * 0.01 + (y as f64) * 0.005);
        let app = InterpolateApp::new(3);
        app.schedule_good();
        let result = crate::realize(&app.pipeline(), &app.input, &input, &[32, 32], 2);
        for y in 0..32 {
            for x in 0..32 {
                let expected = input.at_f64(&[x, y, 0]);
                let got = result.output.at_f64(&[x, y]);
                assert!(
                    (expected - got).abs() < 1e-4,
                    "({x},{y}): expected {expected}, got {got}"
                );
            }
        }
    }

    #[test]
    fn sparse_samples_are_interpolated_smoothly() {
        let input = make_input(48, 48);
        let app = InterpolateApp::new(4);
        app.schedule_good();
        let result = crate::realize(&app.pipeline(), &app.input, &input, &[48, 48], 2);
        // Every output pixel must lie within the range of the known samples
        // (no ringing beyond the data), and unknown pixels must be filled.
        for y in 0..48 {
            for x in 0..48 {
                let v = result.output.at_f64(&[x, y]);
                assert!(v.is_finite());
                assert!(
                    v > 0.05 && v < 1.0,
                    "({x},{y}) value {v} outside plausible range"
                );
            }
        }
    }

    #[test]
    fn tiled_lowering_stays_compact() {
        // Regression: tiled pyramid chains used to make bounds
        // expressions grow multiplicatively per level — first because the
        // `min(0, max(e - f, 0))` split guards never folded, then because
        // bounds inference substituted whole interval expressions through
        // consumer chains. With let-bound bounds variables
        // (`<func>.<dim>.min/.extent` emitted per realization level), the
        // lowered statement must grow *linearly* with pyramid depth: a
        // 5-level pyramid lowers to roughly a 3-level one plus two more
        // levels' worth of stages, not 16x the size.
        let lowered_len = |levels: usize| {
            let app = InterpolateApp::new(levels);
            app.schedule_tiled();
            halide_lower::lower(&app.pipeline()).unwrap().pretty().len()
        };
        let len3 = lowered_len(3);
        let len4 = lowered_len(4);
        let len5 = lowered_len(5);
        assert!(len3 < 100_000, "3-level pyramid blew up to {len3} bytes");
        // Per-level increments must be roughly constant (linear growth).
        // Exponential growth makes the second increment ~4x the first.
        let grow4 = len4.saturating_sub(len3);
        let grow5 = len5.saturating_sub(len4);
        assert!(
            grow4 > 0 && grow5 > 0,
            "deeper pyramids must lower to larger statements ({len3}, {len4}, {len5})"
        );
        assert!(
            grow5 < 2 * grow4,
            "lowered-size growth is superlinear: 3->4 added {grow4} bytes, \
             4->5 added {grow5} bytes ({len3}, {len4}, {len5})"
        );
    }
}
