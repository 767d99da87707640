//! Image-pyramid building blocks shared by the multi-scale interpolation and
//! local Laplacian pipelines: the `DOWN` and `UP` stages of Fig. 1.

use halide_ir::Expr;
use halide_lang::{Func, Var};

/// The vector width of a tuned pyramid stage whose x loop runs at `level`
/// (0 = full resolution): 128 lanes at full resolution, halving with the
/// level's width down to 16. A stage shifts its last vector inwards, so a
/// level narrower than its width computes one vector — never more than the
/// width per row, whatever the image size.
pub fn level_lanes(level: usize) -> i64 {
    128 >> level.min(3)
}

/// Creates a function computing a 2× downsample of `input` using the
/// separable `[1 3 3 1]/8` kernel of Fig. 1. Extra dimensions (e.g. the
/// intensity-level dimension `k` of the local Laplacian pyramids) are passed
/// through untouched.
///
/// Returns the downsampled function and its horizontal pass
/// (`<name>_downx`), whose x loop also runs at the coarser resolution.
pub fn downsample(name: &str, input: &Func, extra_dims: &[Var]) -> (Func, Func) {
    let (x, y) = (Var::new("x"), Var::new("y"));
    let extra_exprs: Vec<Expr> = extra_dims.iter().map(|v| v.expr()).collect();
    let call = |xx: Expr, yy: Expr| {
        let mut coords = vec![xx, yy];
        coords.extend(extra_exprs.iter().cloned());
        input.at(coords)
    };

    // Horizontal [1 3 3 1] at 2x, then vertical.
    let downx = Func::new(format!("{name}_downx"));
    {
        let mut args = vec![x.clone(), y.clone()];
        args.extend(extra_dims.iter().cloned());
        downx.define(
            &args,
            (call(x.expr() * 2 - 1, y.expr())
                + call(x.expr() * 2, y.expr()) * 3.0f32
                + call(x.expr() * 2 + 1, y.expr()) * 3.0f32
                + call(x.expr() * 2 + 2, y.expr()))
                / 8.0f32,
        );
    }
    let down = Func::new(name.to_string());
    {
        let callx = |xx: Expr, yy: Expr| {
            let mut coords = vec![xx, yy];
            coords.extend(extra_exprs.iter().cloned());
            downx.at(coords)
        };
        let mut args = vec![x.clone(), y.clone()];
        args.extend(extra_dims.iter().cloned());
        down.define(
            &args,
            (callx(x.expr(), y.expr() * 2 - 1)
                + callx(x.expr(), y.expr() * 2) * 3.0f32
                + callx(x.expr(), y.expr() * 2 + 1) * 3.0f32
                + callx(x.expr(), y.expr() * 2 + 2))
                / 8.0f32,
        );
    }
    (down, downx)
}

/// Creates a function computing a 2× upsample of `input` using bilinear
/// interpolation (the linear-phase counterpart of `UP` in Fig. 1).
///
/// Returns the upsampled function and its horizontal pass (`<name>_upx`),
/// whose x loop also runs at the finer resolution.
pub fn upsample(name: &str, input: &Func, extra_dims: &[Var]) -> (Func, Func) {
    let (x, y) = (Var::new("x"), Var::new("y"));
    let extra_exprs: Vec<Expr> = extra_dims.iter().map(|v| v.expr()).collect();
    let call = |xx: Expr, yy: Expr| {
        let mut coords = vec![xx, yy];
        coords.extend(extra_exprs.iter().cloned());
        input.at(coords)
    };

    let upx = Func::new(format!("{name}_upx"));
    {
        let mut args = vec![x.clone(), y.clone()];
        args.extend(extra_dims.iter().cloned());
        // Sample between coarse pixels: weights 1/4, 3/4 alternating with parity.
        upx.define(
            &args,
            call((x.expr() / 2) - 1 + 2 * (x.expr() % 2), y.expr()) * 0.25f32
                + call(x.expr() / 2, y.expr()) * 0.75f32,
        );
    }
    let up = Func::new(name.to_string());
    {
        let callx = |xx: Expr, yy: Expr| {
            let mut coords = vec![xx, yy];
            coords.extend(extra_exprs.iter().cloned());
            upx.at(coords)
        };
        let mut args = vec![x.clone(), y.clone()];
        args.extend(extra_dims.iter().cloned());
        up.define(
            &args,
            callx(x.expr(), (y.expr() / 2) - 1 + 2 * (y.expr() % 2)) * 0.25f32
                + callx(x.expr(), y.expr() / 2) * 0.75f32,
        );
    }
    (up, upx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use halide_exec::Realizer;
    use halide_ir::{ScalarType, Type};
    use halide_lang::{ImageParam, Pipeline};
    use halide_lower::lower;
    use halide_runtime::Buffer;

    #[test]
    fn downsample_then_upsample_preserves_a_constant_image() {
        let input = ImageParam::new("pyr_test_in", Type::f32(), 2);
        let (x, y) = (Var::new("x"), Var::new("y"));
        let clamped = Func::new("pyr_test_clamped");
        clamped.define(
            &[x.clone(), y.clone()],
            input.at_clamped(vec![x.expr(), y.expr()]),
        );
        let (down, _) = downsample("pyr_test_down", &clamped, &[]);
        let (up, _) = upsample("pyr_test_up", &down, &[]);
        let module = lower(&Pipeline::new(&up)).unwrap();
        let buf = Buffer::from_fn_2d(ScalarType::Float(32), 32, 32, |_, _| 0.5);
        let result = Realizer::new(&module)
            .input("pyr_test_in", buf)
            .threads(1)
            .realize(&[32, 32])
            .unwrap();
        for v in result.output.to_f64_vec() {
            assert!((v - 0.5).abs() < 1e-5, "constant image not preserved: {v}");
        }
    }

    #[test]
    fn downsample_halves_resolution_content() {
        let input = ImageParam::new("pyr_test2_in", Type::f32(), 2);
        let (x, y) = (Var::new("x"), Var::new("y"));
        let clamped = Func::new("pyr_test2_clamped");
        clamped.define(
            &[x.clone(), y.clone()],
            input.at_clamped(vec![x.expr(), y.expr()]),
        );
        let (down, _) = downsample("pyr_test2_down", &clamped, &[]);
        let module = lower(&Pipeline::new(&down)).unwrap();
        // a horizontal ramp stays a ramp (with 2x slope) after downsampling
        let buf = Buffer::from_fn_2d(ScalarType::Float(32), 64, 64, |x, _| x as f64);
        let result = Realizer::new(&module)
            .input("pyr_test2_in", buf)
            .threads(1)
            .realize(&[32, 32])
            .unwrap();
        let a = result.output.at_f64(&[10, 16]);
        let b = result.output.at_f64(&[11, 16]);
        assert!((b - a - 2.0).abs() < 0.3, "expected slope 2, got {}", b - a);
    }
}
