//! Histogram equalization — the reduction example of Sec. 2 of the paper:
//! a scattering reduction builds a histogram, a recursive scan integrates it
//! into a CDF, and a point-wise, data-dependent gather remaps the input.

use halide_ir::{Expr, ScalarType, Type};
use halide_lang::{Func, ImageParam, Pipeline, RDom, Var};
use halide_runtime::Buffer;

/// Number of intensity bins (8-bit input).
pub const BINS: i32 = 256;

/// The histogram-equalization pipeline's frontend objects.
pub struct HistogramApp {
    /// 8-bit grayscale input.
    pub input: ImageParam,
    /// The scattering histogram reduction.
    pub histogram: Func,
    /// The recursive-scan CDF.
    pub cdf: Func,
    /// The output stage (data-dependent gather through the CDF).
    pub out: Func,
    /// Input width the algorithm was built for (the reduction domain spans
    /// it); schedules consult it for width-dependent choices.
    width: i32,
}

impl HistogramApp {
    /// Builds the algorithm for an input of known size (the histogram's
    /// reduction domain spans the whole input).
    pub fn new(width: i32, height: i32) -> HistogramApp {
        let input = ImageParam::new("histeq_input", Type::u8(), 2);
        let (x, y, i) = (Var::new("x"), Var::new("y"), Var::new("i"));

        let bucket_of = |e: Expr| e.cast(Type::i32()).clamp(Expr::int(0), Expr::int(BINS - 1));

        let histogram = Func::new("histeq_hist");
        histogram.define(&[i.clone()], Expr::int(0));
        let r = RDom::new(
            "r",
            vec![
                (Expr::int(0), Expr::int(width)),
                (Expr::int(0), Expr::int(height)),
            ],
        );
        let bucket = bucket_of(input.at(vec![r.x().expr(), r.y().expr()]));
        histogram.update(
            vec![bucket.clone()],
            histogram.at(vec![bucket]) + 1,
            Some(r),
        );

        let cdf = Func::new("histeq_cdf");
        cdf.define(&[i.clone()], Expr::int(0));
        // cdf(0) = histogram(0)
        cdf.update(vec![Expr::int(0)], histogram.at(vec![Expr::int(0)]), None);
        // cdf(ri) = cdf(ri - 1) + histogram(ri) for ri in [1, BINS)
        let ri = RDom::over("ri", 1, BINS - 1);
        cdf.update(
            vec![ri.x().expr()],
            cdf.at(vec![ri.x().expr() - 1]) + histogram.at(vec![ri.x().expr()]),
            Some(ri),
        );

        let out = Func::new("histeq_out");
        let total = Expr::int(width) * Expr::int(height);
        let remapped =
            cdf.at(vec![bucket_of(input.at(vec![x.expr(), y.expr()]))]) * (BINS - 1) / total;
        out.define(
            &[x.clone(), y.clone()],
            remapped
                .clamp(Expr::int(0), Expr::int(BINS - 1))
                .cast(Type::u8()),
        );

        HistogramApp {
            input,
            histogram,
            cdf,
            out,
            width,
        }
    }

    /// The pipeline rooted at the output.
    pub fn pipeline(&self) -> Pipeline {
        Pipeline::new(&self.out)
    }

    /// Applies a sensible parallel schedule: the histogram and CDF are small
    /// and computed at root; the output stage is parallelized over rows and
    /// vectorized across x. The remap `cdf(bucket(input(x, y)))` then runs as
    /// one dense vector load of the input row, a vector bucket computation,
    /// and one bulk clamped **gather** through the 256-entry CDF per 8
    /// pixels, instead of 8 scalar loads and table lookups (the reductions
    /// themselves are serial by data dependence and stay scalar). Images
    /// narrower than one vector keep the scalar inner loop — the split
    /// would otherwise reject them at realize time.
    pub fn schedule_good(&self) {
        self.histogram.compute_root();
        self.cdf.compute_root();
        self.out.parallelize("y");
        if self.width >= 8 {
            self.out.split_dim("x", "xo", "xi", 8).vectorize_dim("xi");
        }
    }
}

/// A synthetic low-contrast 8-bit input (values clustered in the middle of
/// the range, so equalization visibly stretches them).
pub fn make_input(width: i64, height: i64) -> Buffer {
    Buffer::from_fn_2d(ScalarType::UInt(8), width, height, |x, y| {
        let v = 96.0 + 32.0 * (((x * 3 + y * 7) % 64) as f64 / 63.0);
        v.floor()
    })
}

/// Hand-written reference implementation.
pub fn reference(input: &Buffer) -> Buffer {
    let w = input.dims()[0].extent;
    let h = input.dims()[1].extent;
    let mut hist = vec![0i64; BINS as usize];
    for y in 0..h {
        for x in 0..w {
            hist[input.at_i64(&[x, y]).clamp(0, (BINS - 1) as i64) as usize] += 1;
        }
    }
    let mut cdf = vec![0i64; BINS as usize];
    cdf[0] = hist[0];
    for i in 1..BINS as usize {
        cdf[i] = cdf[i - 1] + hist[i];
    }
    let total = w * h;
    let out = Buffer::with_extents(ScalarType::UInt(8), &[w, h]);
    for y in 0..h {
        for x in 0..w {
            let b = input.at_i64(&[x, y]).clamp(0, (BINS - 1) as i64) as usize;
            let v = (cdf[b] * (BINS - 1) as i64).div_euclid(total);
            out.set_coords_i64(&[x, y], v.clamp(0, (BINS - 1) as i64));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference() {
        let input = make_input(48, 32);
        let app = HistogramApp::new(48, 32);
        app.schedule_good();
        let result = crate::realize(&app.pipeline(), &app.input, &input, &[48, 32], 2);
        let expected = reference(&input);
        assert_eq!(result.output.max_abs_diff(&expected), 0.0);
    }

    #[test]
    fn equalization_stretches_contrast() {
        let input = make_input(64, 64);
        let app = HistogramApp::new(64, 64);
        let result = crate::realize(&app.pipeline(), &app.input, &input, &[64, 64], 1);
        let values = result.output.to_f64_vec();
        let min = values.iter().cloned().fold(f64::MAX, f64::min);
        let max = values.iter().cloned().fold(f64::MIN, f64::max);
        // the input only spans ~[96, 128]; the equalized output must span
        // most of [0, 255]
        assert!(max - min > 180.0, "output range {min}..{max} too narrow");
    }

    /// The tuned schedule must keep serving images narrower than one
    /// vector (it falls back to the scalar inner loop instead of emitting
    /// a split the realizer would reject).
    #[test]
    fn tuned_schedule_handles_tiny_widths() {
        let input = make_input(4, 4);
        let app = HistogramApp::new(4, 4);
        app.schedule_good();
        let result = crate::realize(&app.pipeline(), &app.input, &input, &[4, 4], 1);
        assert_eq!(result.output.max_abs_diff(&reference(&input)), 0.0);
    }

    #[test]
    fn default_breadth_first_schedule_also_correct() {
        let input = make_input(33, 17);
        let app = HistogramApp::new(33, 17);
        let result = crate::realize(&app.pipeline(), &app.input, &input, &[33, 17], 1);
        assert_eq!(result.output.max_abs_diff(&reference(&input)), 0.0);
    }
}
