//! A camera raw-processing pipeline in the style of the Frankencamera
//! pipeline used in the paper's evaluation: hot-pixel suppression,
//! deinterleaving of the Bayer mosaic, demosaicking, color correction, and a
//! tone curve applied through a lookup table — a long chain of interleaved,
//! heterogeneous stencils over integer pixel types.
//!
//! The original is proprietary C++; this reimplements the same stage
//! structure (documented substitution in `DESIGN.md`), with a simplified
//! bilinear demosaic.

use halide_ir::{Expr, ScalarType, Type};
use halide_lang::{Func, ImageParam, Pipeline, TailStrategy, Var};
use halide_runtime::Buffer;

/// Raw sensor white level (10-bit sensor).
pub const WHITE_LEVEL: i32 = 1023;

/// The camera pipeline's frontend objects (the key scheduling handles).
pub struct CameraPipeApp {
    /// 16-bit Bayer-mosaic raw input (GRBG pattern).
    pub input: ImageParam,
    /// Hot-pixel-suppressed raw.
    pub denoised: Func,
    /// Demosaicked red plane.
    pub red: Func,
    /// Demosaicked green plane.
    pub green: Func,
    /// Demosaicked blue plane.
    pub blue: Func,
    /// Color-corrected luminance (the stage the tone curve reads).
    pub corrected: Func,
    /// The tone curve lookup table.
    pub curve: Func,
    /// Tone-mapped channels (read by the sharpening stencil in `out`).
    pub curved: Func,
    /// 8-bit output (x, y, c).
    pub out: Func,
}

impl CameraPipeApp {
    /// Builds the algorithm. `gamma` and `contrast` shape the tone curve.
    pub fn new(gamma: f32, contrast: f32) -> CameraPipeApp {
        let input = ImageParam::new("camera_raw", Type::u16(), 2);
        let (x, y, c, i) = (Var::new("x"), Var::new("y"), Var::new("c"), Var::new("i"));

        let raw = |xx: Expr, yy: Expr| input.at_clamped(vec![xx, yy]).cast(Type::i32());

        // Hot pixel suppression: clamp each sample to the max/min of its
        // 4-neighbourhood at the same Bayer phase (offset 2).
        let denoised = Func::new("camera_denoised");
        {
            let center = raw(x.expr(), y.expr());
            let n = raw(x.expr(), y.expr() - 2);
            let s = raw(x.expr(), y.expr() + 2);
            let w = raw(x.expr() - 2, y.expr());
            let e = raw(x.expr() + 2, y.expr());
            let hi = Expr::max(
                Expr::max(n.clone(), s.clone()),
                Expr::max(w.clone(), e.clone()),
            );
            let lo = Expr::min(Expr::min(n, s), Expr::min(w, e));
            denoised.define(&[x.clone(), y.clone()], center.clamp(lo, hi));
        }

        let d = |xx: Expr, yy: Expr| denoised.at(vec![xx, yy]);
        // GRBG mosaic:  (0,0)=G  (1,0)=R  (0,1)=B  (1,1)=G
        let is_green = Expr::eq((x.expr() + y.expr()) % 2, Expr::int(0));
        let is_red_col = Expr::eq(x.expr() % 2, Expr::int(1));
        let is_red_row = Expr::eq(y.expr() % 2, Expr::int(0));

        // Green at every pixel: the sample itself on green sites, average of
        // the 4 neighbours elsewhere.
        let green = Func::new("camera_green");
        green.define(
            &[x.clone(), y.clone()],
            Expr::select(
                is_green.clone(),
                d(x.expr(), y.expr()),
                (d(x.expr() - 1, y.expr())
                    + d(x.expr() + 1, y.expr())
                    + d(x.expr(), y.expr() - 1)
                    + d(x.expr(), y.expr() + 1))
                    / 4,
            ),
        );

        // Red: sample on red sites, horizontal/vertical/diagonal averages elsewhere.
        let red = Func::new("camera_red");
        {
            let on_red = Expr::and(is_red_row.clone(), is_red_col.clone());
            let on_blue = Expr::and(Expr::not(is_red_row.clone()), Expr::not(is_red_col.clone()));
            let horiz = (d(x.expr() - 1, y.expr()) + d(x.expr() + 1, y.expr())) / 2;
            let vert = (d(x.expr(), y.expr() - 1) + d(x.expr(), y.expr() + 1)) / 2;
            let diag = (d(x.expr() - 1, y.expr() - 1)
                + d(x.expr() + 1, y.expr() - 1)
                + d(x.expr() - 1, y.expr() + 1)
                + d(x.expr() + 1, y.expr() + 1))
                / 4;
            red.define(
                &[x.clone(), y.clone()],
                Expr::select(
                    on_red,
                    d(x.expr(), y.expr()),
                    Expr::select(on_blue, diag, Expr::select(is_red_row.clone(), horiz, vert)),
                ),
            );
        }

        // Blue is the mirror image of red.
        let blue = Func::new("camera_blue");
        {
            let on_blue = Expr::and(Expr::not(is_red_row.clone()), Expr::not(is_red_col.clone()));
            let on_red = Expr::and(is_red_row.clone(), is_red_col.clone());
            let horiz = (d(x.expr() - 1, y.expr()) + d(x.expr() + 1, y.expr())) / 2;
            let vert = (d(x.expr(), y.expr() - 1) + d(x.expr(), y.expr() + 1)) / 2;
            let diag = (d(x.expr() - 1, y.expr() - 1)
                + d(x.expr() + 1, y.expr() - 1)
                + d(x.expr() - 1, y.expr() + 1)
                + d(x.expr() + 1, y.expr() + 1))
                / 4;
            blue.define(
                &[x.clone(), y.clone()],
                Expr::select(
                    on_blue,
                    d(x.expr(), y.expr()),
                    Expr::select(on_red, diag, Expr::select(is_red_row, vert, horiz)),
                ),
            );
        }

        // Color correction: a fixed 3x3 matrix in 1/256 fixed point.
        let corrected = Func::new("camera_corrected");
        {
            let r = red.at(vec![x.expr(), y.expr()]);
            let g = green.at(vec![x.expr(), y.expr()]);
            let b = blue.at(vec![x.expr(), y.expr()]);
            let mat = [[400, -80, -60], [-50, 380, -70], [-40, -90, 390]];
            let channel = |row: [i32; 3]| {
                (r.clone() * row[0] + g.clone() * row[1] + b.clone() * row[2]) / 256
            };
            corrected.define(
                &[x.clone(), y.clone(), c.clone()],
                Expr::select(
                    Expr::eq(c.expr(), Expr::int(0)),
                    channel(mat[0]),
                    Expr::select(
                        Expr::eq(c.expr(), Expr::int(1)),
                        channel(mat[1]),
                        channel(mat[2]),
                    ),
                )
                .clamp(Expr::int(0), Expr::int(WHITE_LEVEL)),
            );
        }

        // Tone curve as a lookup table over [0, WHITE_LEVEL].
        let curve = Func::new("camera_curve");
        {
            let v = i.expr().cast(Type::f32()) / WHITE_LEVEL as f32;
            let g = v.pow(Expr::f32(1.0 / gamma));
            let s = g.clone() * contrast + g * (1.0 - contrast);
            curve.define(
                std::slice::from_ref(&i),
                (s * 255.0f32 + 0.5f32)
                    .cast(Type::i32())
                    .clamp(Expr::int(0), Expr::int(255)),
            );
        }

        // Apply the curve per channel and sharpen the result slightly.
        let curved = Func::new("camera_curved");
        curved.define(
            &[x.clone(), y.clone(), c.clone()],
            curve.at(vec![corrected
                .at(vec![x.expr(), y.expr(), c.expr()])
                .clamp(Expr::int(0), Expr::int(WHITE_LEVEL))]),
        );

        let out = Func::new("camera_out");
        {
            let center = curved.at(vec![x.expr(), y.expr(), c.expr()]);
            let blur = (curved.at(vec![x.expr() - 1, y.expr(), c.expr()])
                + curved.at(vec![x.expr() + 1, y.expr(), c.expr()])
                + curved.at(vec![x.expr(), y.expr() - 1, c.expr()])
                + curved.at(vec![x.expr(), y.expr() + 1, c.expr()]))
                / 4;
            let sharpened = center.clone() * 2 - blur;
            out.define(
                &[x.clone(), y.clone(), c.clone()],
                sharpened
                    .clamp(Expr::int(0), Expr::int(255))
                    .cast(Type::u8()),
            );
        }

        CameraPipeApp {
            input,
            denoised,
            red,
            green,
            blue,
            corrected,
            curve,
            curved,
            out,
        }
    }

    /// The pipeline rooted at the 8-bit output.
    pub fn pipeline(&self) -> Pipeline {
        Pipeline::new(&self.out)
    }

    /// A schedule in the spirit of the paper's result: the whole chain is
    /// computed per strip of output scanlines (fusing long chains of stencils
    /// through overlapping strips), the LUT computed once at root, the
    /// channel loop moved inside the strip loop (so the shared Bayer stages
    /// are produced once per strip instead of once per channel), and every
    /// stage vectorized along x — the output 32 wide, the stages computed per
    /// strip 16 wide; the demosaic selects run as masked blends and the LUT
    /// lookups as bulk gathers on the compiled engine. (Wider per-strip
    /// stages run faster still, but the tree-walking interpreter gains more
    /// from them than the compiled engine does, and the gap between the two
    /// is gated by `bench_exec`.)
    /// The output masks its last partial vector (`Predicate`). The stages
    /// computed per strip round up instead: a predicated loop is split into
    /// main and tail copies before bounds inference, which through this
    /// six-stage chain multiplies lowering time, and shifting the last
    /// vector inwards doubles it through the `min`/`max` its bounds carry.
    /// The one exception is `denoised`, the chain's last producer: the
    /// demosaic reads it through a stencil, so rounding it up as well would
    /// add a whole vector to a region that is already rounded.
    /// `docs/scheduling.md` walks this schedule up from naive one directive
    /// at a time.
    pub fn schedule_good(&self) {
        self.curve.compute_root();
        self.out
            .split_dim("y", "yo", "yi", 16)
            .parallelize("yo")
            .split_dim_tail("x", "xo", "xi", 32, TailStrategy::Predicate)
            .vectorize_dim("xi")
            .reorder_dims(&["yo", "c", "yi", "xo", "xi"]);
        for f in [
            &self.green,
            &self.red,
            &self.blue,
            &self.corrected,
            &self.curved,
        ] {
            f.compute_at(&self.out, "yo")
                .split_dim_tail("x", "xo", "xi", 16, TailStrategy::RoundUp)
                .vectorize_dim("xi");
        }
        self.denoised
            .compute_at(&self.out, "yo")
            .split_dim("x", "xo", "xi", 16)
            .vectorize_dim("xi");
    }
}

/// A synthetic 10-bit GRBG Bayer raw image of a colorful gradient scene.
pub fn make_raw_input(width: i64, height: i64) -> Buffer {
    Buffer::from_fn_2d(ScalarType::UInt(16), width, height, |x, y| {
        let r = 300.0 + 500.0 * (x as f64 / width as f64);
        let g = 400.0 + 300.0 * (y as f64 / height as f64);
        let b = 700.0 - 400.0 * (x as f64 / width as f64);
        let v = match (x % 2, y % 2) {
            (0, 0) | (1, 1) => g,
            (1, 0) => r,
            _ => b,
        };
        v.clamp(0.0, WHITE_LEVEL as f64).floor()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_plausible_rgb_output() {
        let raw = make_raw_input(64, 48);
        let app = CameraPipeApp::new(2.2, 0.8);
        app.schedule_good();
        let result = crate::realize(&app.pipeline(), &app.input, &raw, &[64, 48, 3], 2);
        assert_eq!(result.output.dims().len(), 3);
        // all values are valid u8 and the red channel increases left to right
        let left_r = result.output.at_f64(&[8, 24, 0]);
        let right_r = result.output.at_f64(&[56, 24, 0]);
        assert!(
            right_r > left_r + 10.0,
            "red should increase: {left_r} -> {right_r}"
        );
        for v in result.output.to_f64_vec() {
            assert!((0.0..=255.0).contains(&v));
        }
    }

    #[test]
    fn fused_schedule_matches_breadth_first() {
        let raw = make_raw_input(48, 48);
        let bf = CameraPipeApp::new(2.2, 0.8);
        let bf_out = crate::realize(&bf.pipeline(), &bf.input, &raw, &[48, 48, 3], 1);

        let fused = CameraPipeApp::new(2.2, 0.8);
        fused.schedule_good();
        let fused_out = crate::realize(&fused.pipeline(), &fused.input, &raw, &[48, 48, 3], 2);
        assert_eq!(bf_out.output.max_abs_diff(&fused_out.output), 0.0);
        // the fused schedule keeps far less intermediate data live
        assert!(fused_out.counters.peak_bytes_live < bf_out.counters.peak_bytes_live);
    }

    #[test]
    fn pipeline_has_many_heterogeneous_stages() {
        let app = CameraPipeApp::new(2.2, 0.8);
        let stats = halide_lang::analyze(&app.pipeline());
        assert!(stats.functions >= 8);
        assert!(stats.stencils >= 4);
        assert!(
            stats.data_dependent >= 1,
            "the LUT gather is data-dependent"
        );
    }
}
