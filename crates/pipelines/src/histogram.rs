//! Histogram equalization — the reduction example of Sec. 2 of the paper:
//! a scattering reduction builds a histogram, a recursive scan integrates it
//! into a CDF, and a point-wise, data-dependent gather remaps the input.

use halide_ir::{Expr, ScalarType, Type};
use halide_lang::{Func, ImageParam, Pipeline, RDom, TailStrategy, Var};
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
}

impl HistogramApp {
    /// Builds the algorithm for an input of known size (the histogram's
    /// reduction domain spans the whole input).
    pub fn new(width: i32, height: i32) -> HistogramApp {
        let input = ImageParam::new("histeq_input", Type::u8(), 2);
        let (x, y, i) = (Var::new("x"), Var::new("y"), Var::new("i"));

        let bucket_of = |e: Expr| e.cast(Type::i32()).clamp(Expr::int(0), Expr::int(BINS - 1));

        let histogram = Func::new("histeq_hist");
        histogram.define(std::slice::from_ref(&i), Expr::int(0));
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
        cdf.define(std::slice::from_ref(&i), Expr::int(0));
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
        }
    }

    /// The pipeline rooted at the output.
    pub fn pipeline(&self) -> Pipeline {
        Pipeline::new(&self.out)
    }

    /// Applies a sensible parallel schedule. The histogram and CDF are
    /// small and computed at root; the output stage is parallelized over
    /// rows and vectorized across x, so the remap `cdf(bucket(input(x, y)))`
    /// runs as one dense vector load of the input row, a vector bucket
    /// computation, and one bulk clamped **gather** through the 256-entry CDF
    /// per 64 pixels. The last, partial vector of a row is masked, so any
    /// width works, including images narrower than one vector.
    ///
    /// The histogram's scatter is factored 64 ways (`rfactor`): `r.x` is
    /// split by 64 and its inner half becomes the pure dimension `u` of an
    /// intermediate `intm(i, u)` — 64 private histograms, one per lane —
    /// whose update is vectorized over `u`. Lanes never collide (each writes
    /// its own histogram), so each step is one masked dense load of 64
    /// input pixels, one gather and one scatter. The merge
    /// `hist(i) += intm(i, rxi)` and `intm`'s initialization run as vectors
    /// over all 256 bins. Integer sums wrap, so the regrouped sum is
    /// bit-identical to the serial one.
    pub fn schedule_good(&self) {
        self.histogram.compute_root();
        let merge = self.histogram.update_stage(0);
        merge.split_dim("r.x", "rxo", "rxi", 64);
        let intm = merge.rfactor("rxi", "u");
        merge.vectorize_dim("i");
        intm.compute_root().vectorize_dim("i");
        intm.update_stage(0).vectorize_dim("u");
        self.cdf.compute_root();
        self.out
            .parallelize("y")
            .split_dim_tail("x", "xo", "xi", 64, TailStrategy::Predicate)
            .vectorize_dim("xi");
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

/// A hand-optimized implementation: one pass over the input's `&[u8]`
/// builds the histogram, the CDF becomes a 256-entry remapping table, and
/// one more pass maps every pixel through it. Bit-identical to
/// [`reference()`] (an 8-bit pixel is its own bucket).
pub fn reference_optimized(input: &Buffer) -> Buffer {
    let w = input.dims()[0].extent;
    let h = input.dims()[1].extent;
    let src = input.u8_elems().expect("the histogram input stores u8");
    let mut out = Buffer::with_extents(ScalarType::UInt(8), &[w, h]);
    let total = w * h;
    if total == 0 {
        return out;
    }
    let mut hist = [0i64; BINS as usize];
    for &v in src {
        hist[v as usize] += 1;
    }
    let mut table = [0u8; BINS as usize];
    let mut cdf = 0i64;
    for (t, count) in table.iter_mut().zip(hist) {
        cdf += count;
        *t = (cdf * (BINS - 1) as i64)
            .div_euclid(total)
            .clamp(0, (BINS - 1) as i64) as u8;
    }
    let dst = out.u8_elems_mut().expect("the histogram output stores u8");
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = table[v as usize];
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
    fn optimized_reference_matches_reference() {
        for (w, h) in [(48, 32), (1, 1), (67, 49)] {
            let input = make_input(w, h);
            assert_eq!(
                reference_optimized(&input).to_f64_vec(),
                reference(&input).to_f64_vec()
            );
        }
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
    /// vector (1, 3, 4 and 7 wide: the masked tail covers the whole row),
    /// rows that end in a partial vector (63, 65, 67 and 129 wide) or in a
    /// whole one (96 is one and a half), and single-row images. Both the
    /// output's predicated tail and the factored histogram's guarded `r.x`
    /// tail are live at these widths.
    #[test]
    fn tuned_schedule_handles_tiny_widths() {
        for (w, h) in [
            (4, 4),
            (1, 1),
            (3, 9),
            (7, 5),
            (63, 1),
            (65, 33),
            (67, 49),
            (96, 64),
            (129, 31),
        ] {
            let input = make_input(w, h);
            let naive = HistogramApp::new(w as i32, h as i32);
            let naive = crate::realize(&naive.pipeline(), &naive.input, &input, &[w, h], 1);
            let app = HistogramApp::new(w as i32, h as i32);
            app.schedule_good();
            let result = crate::realize(&app.pipeline(), &app.input, &input, &[w, h], 2);
            assert_eq!(
                result.output.max_abs_diff(&reference(&input)),
                0.0,
                "{w}x{h}"
            );
            assert_eq!(result.output.max_abs_diff(&naive.output), 0.0, "{w}x{h}");
        }
    }

    /// The tuned schedule factors the scatter into 64 private histograms:
    /// one vectorized update over `u`, whose last `r.x` tile is masked and
    /// whose bucket is computed once per step, then a vectorized merge.
    #[test]
    fn tuned_histogram_is_a_vectorized_factored_reduction() {
        let app = HistogramApp::new(67, 49);
        app.schedule_good();
        let text = halide_lower::lower(&app.pipeline())
            .expect("schedule lowers")
            .pretty();
        let intm = format!("{}_intm", app.histogram.name());
        let has = |needle: &str| assert!(text.contains(needle), "{needle:?} in\n{text}");
        has(&format!("allocate {intm}[int32 * 16384]"));
        has(&format!(
            "let {intm}.s1.r.x = (({intm}.s1.rxo*64) + ramp(0, 1, 64))"
        ));
        has(&format!("if ({intm}.s1.r.x < 67)"));
        has(&format!("let {intm}.s1.i.coord = "));
        // One input load per copy of the update (main and tail) and of the
        // output (main and tail): the bucket is not recomputed.
        assert_eq!(text.matches("histeq_input[").count(), 4, "{text}");
        assert!(!text.contains(&format!("for {intm}.s1.u")), "{text}");
        assert!(
            !text.contains(&format!("for {}.s1.i ", app.histogram.name())),
            "{text}"
        );
    }

    #[test]
    fn default_breadth_first_schedule_also_correct() {
        let input = make_input(33, 17);
        let app = HistogramApp::new(33, 17);
        let result = crate::realize(&app.pipeline(), &app.input, &input, &[33, 17], 1);
        assert_eq!(result.output.max_abs_diff(&reference(&input)), 0.0);
    }
}
