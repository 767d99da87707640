//! Local Laplacian filters (Paris, Hasinoff, Kautz / Aubry et al.) — the
//! paper's largest example (Fig. 1): Gaussian and Laplacian pyramids over a
//! family of remapped images, combined by a data-dependent resampling across
//! the intensity dimension, then collapsed back to an image.
//!
//! The number of stages grows with the pyramid depth `J` and the number of
//! intensity levels `K`; at the paper's parameters (J = 8, K = 8) the graph
//! has ~99 stages.

use halide_ir::{Expr, ScalarType, Type};
use halide_lang::{Func, ImageParam, Pipeline, TailStrategy, Var};
use halide_runtime::Buffer;

use crate::pyramid::{downsample, level_lanes, upsample};

/// The local Laplacian pipeline's frontend objects.
pub struct LocalLaplacianApp {
    /// Grayscale float input in `[0, 1]`.
    pub input: ImageParam,
    /// Gaussian pyramid of the remapped image family (indexed by level).
    pub g_pyramid: Vec<Func>,
    /// Laplacian pyramid of the remapped image family.
    pub l_pyramid: Vec<Func>,
    /// Gaussian pyramid of the input.
    pub in_g_pyramid: Vec<Func>,
    /// Output Laplacian pyramid (after the data-dependent blend).
    pub out_l_pyramid: Vec<Func>,
    /// Collapsed output pyramid, finest level first.
    pub out_g_pyramid: Vec<Func>,
    /// The output stage.
    pub out: Func,
    /// Every stage but the output, by the pyramid level its x loop runs at
    /// (finest first) — the downsample and upsample helpers included.
    pub level_stages: Vec<Vec<Func>>,
    /// Pyramid depth.
    pub levels: usize,
    /// Number of discrete intensity levels.
    pub k: usize,
}

impl LocalLaplacianApp {
    /// Builds the algorithm.
    ///
    /// `levels` is the pyramid depth (paper: 8), `k` the number of intensity
    /// levels (paper: 8), `alpha` controls detail enhancement and `beta`
    /// tone-mapping strength (`alpha = 0, beta = 1` is the identity filter).
    pub fn new(levels: usize, k: usize, alpha: f32, beta: f32) -> LocalLaplacianApp {
        assert!(levels >= 2 && k >= 2);
        let input = ImageParam::new("llf_input", Type::f32(), 2);
        let (x, y, kv) = (Var::new("x"), Var::new("y"), Var::new("k"));

        let gray = Func::new("llf_gray");
        gray.define(
            &[x.clone(), y.clone()],
            input.at_clamped(vec![x.expr(), y.expr()]),
        );

        // The remapped image family: one remapping per intensity level k,
        // expressed as a 3-D function (x, y, k). This is the LUT stage of
        // Fig. 1 fused with the level construction.
        let remapped = Func::new("llf_remapped");
        {
            let level = kv.expr().cast(Type::f32()) / (k as i32 - 1) as f32;
            let g = gray.at(vec![x.expr(), y.expr()]);
            let diff = g.clone() - level.clone();
            // smooth detail remapping: beta scales the base difference, alpha
            // adds a sigmoid-ish detail boost
            let detail = diff.clone()
                * (Expr::f32(1.0) - diff.clone() * diff.clone())
                    .clamp(Expr::f32(0.0), Expr::f32(1.0));
            remapped.define(
                &[x.clone(), y.clone(), kv.clone()],
                level + diff * beta + detail * alpha,
            );
        }

        let mut level_stages = vec![Vec::new(); levels];
        level_stages[0] = vec![gray.clone(), remapped.clone()];

        // Gaussian pyramid of the remapped family (3-D: x, y, k).
        let mut g_pyramid = vec![remapped.clone()];
        for j in 1..levels {
            let (down, downx) = downsample(
                &format!("llf_gpyr_{j}"),
                &g_pyramid[j - 1],
                std::slice::from_ref(&kv),
            );
            level_stages[j].extend([downx, down.clone()]);
            g_pyramid.push(down);
        }
        // Laplacian pyramid: difference between a level and the upsampled
        // next-coarser level; the coarsest level is the Gaussian level itself.
        let mut l_pyramid = Vec::with_capacity(levels);
        for j in 0..levels - 1 {
            let (up, upx) = upsample(
                &format!("llf_lpyr_up_{j}"),
                &g_pyramid[j + 1],
                std::slice::from_ref(&kv),
            );
            let l = Func::new(format!("llf_lpyr_{j}"));
            l.define(
                &[x.clone(), y.clone(), kv.clone()],
                g_pyramid[j].at(vec![x.expr(), y.expr(), kv.expr()])
                    - up.at(vec![x.expr(), y.expr(), kv.expr()]),
            );
            level_stages[j].extend([upx, up, l.clone()]);
            l_pyramid.push(l);
        }
        l_pyramid.push(g_pyramid[levels - 1].clone());

        // Gaussian pyramid of the input itself.
        let mut in_g_pyramid = vec![gray.clone()];
        for j in 1..levels {
            let (down, downx) = downsample(&format!("llf_inpyr_{j}"), &in_g_pyramid[j - 1], &[]);
            level_stages[j].extend([downx, down.clone()]);
            in_g_pyramid.push(down);
        }

        // Output Laplacian pyramid: at each level and pixel, blend the two
        // intensity levels bracketing the input pyramid's value — the
        // data-dependent access (DDA) of Fig. 1.
        let mut out_l_pyramid = Vec::with_capacity(levels);
        for j in 0..levels {
            let f = Func::new(format!("llf_outlpyr_{j}"));
            let level = in_g_pyramid[j]
                .at(vec![x.expr(), y.expr()])
                .clamp(Expr::f32(0.0), Expr::f32(1.0))
                * (k as i32 - 1) as f32;
            let li = level
                .clone()
                .cast(Type::i32())
                .clamp(Expr::int(0), Expr::int(k as i32 - 2));
            let lf = level - li.clone().cast(Type::f32());
            f.define(
                &[x.clone(), y.clone()],
                l_pyramid[j].at(vec![x.expr(), y.expr(), li.clone()])
                    * (Expr::f32(1.0) - lf.clone())
                    + l_pyramid[j].at(vec![x.expr(), y.expr(), li + 1]) * lf,
            );
            level_stages[j].push(f.clone());
            out_l_pyramid.push(f);
        }

        // Collapse: start from the coarsest output level and add detail back.
        let mut out_g_pyramid: Vec<Option<Func>> = vec![None; levels];
        out_g_pyramid[levels - 1] = Some(out_l_pyramid[levels - 1].clone());
        for j in (0..levels - 1).rev() {
            let (up, upx) = upsample(
                &format!("llf_collapse_up_{j}"),
                out_g_pyramid[j + 1]
                    .as_ref()
                    .expect("built in previous iteration"),
                &[],
            );
            let f = Func::new(format!("llf_outgpyr_{j}"));
            f.define(
                &[x.clone(), y.clone()],
                up.at(vec![x.expr(), y.expr()]) + out_l_pyramid[j].at(vec![x.expr(), y.expr()]),
            );
            level_stages[j].extend([upx, up, f.clone()]);
            out_g_pyramid[j] = Some(f);
        }
        let out_g_pyramid: Vec<Func> = out_g_pyramid
            .into_iter()
            .map(|f| f.expect("filled"))
            .collect();

        let out = Func::new("llf_out");
        out.define(
            &[x.clone(), y.clone()],
            out_g_pyramid[0]
                .at(vec![x.expr(), y.expr()])
                .clamp(Expr::f32(0.0), Expr::f32(1.0)),
        );

        LocalLaplacianApp {
            input,
            g_pyramid,
            l_pyramid,
            in_g_pyramid,
            out_l_pyramid,
            out_g_pyramid,
            out,
            level_stages,
            levels,
            k,
        }
    }

    /// The pipeline rooted at the output.
    pub fn pipeline(&self) -> Pipeline {
        Pipeline::new(&self.out)
    }

    /// Number of functions in the pipeline graph (the paper reports 99 at
    /// J = 8, K = 8 with its exact stage structure).
    pub fn stage_count(&self) -> usize {
        self.pipeline().len()
    }

    /// A good CPU schedule: every stage of every pyramid level — including
    /// the `*_downx`/`*_upx` resampling helpers `downsample`/`upsample`
    /// create — computed at root, parallelized over rows, and vectorized
    /// across columns [`level_lanes`] wide. The level extents are symbolic
    /// and rarely divide the vector width, so each interior stage shifts its
    /// last vector inwards, and lowering grows a region narrower than one
    /// vector to one vector; the caller-allocated output takes a scalar
    /// epilogue via `guard_with_if`.
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
}

/// A synthetic HDR-ish grayscale input in `[0, 1]` with low-contrast detail
/// on top of a strong illumination gradient — the content local Laplacian
/// filtering is designed for.
pub fn make_input(width: i64, height: i64) -> Buffer {
    Buffer::from_fn_2d(ScalarType::Float(32), width, height, |x, y| {
        let illumination = 0.15 + 0.7 * (x as f64 / width as f64);
        let detail = 0.05 * (((x * 5 + y * 3) % 16) as f64 / 15.0 - 0.5);
        (illumination + detail).clamp(0.0, 1.0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_parameters_reproduce_the_input() {
        // With alpha = 0 (no detail boost) and beta = 1 (no tone compression)
        // every remapped level equals the input, so the Laplacian blend and
        // collapse reconstruct the input (up to pyramid resampling error).
        let input = make_input(32, 32);
        let app = LocalLaplacianApp::new(3, 4, 0.0, 1.0);
        app.schedule_good();
        let result = crate::realize(&app.pipeline(), &app.input, &input, &[32, 32], 2);
        let diff = result.output.max_abs_diff(&input);
        assert!(
            diff < 0.02,
            "identity filter should reproduce the input, diff {diff}"
        );
    }

    #[test]
    fn enhancement_increases_local_contrast() {
        let input = make_input(32, 32);
        let identity = LocalLaplacianApp::new(3, 4, 0.0, 1.0);
        identity.schedule_good();
        let id_out = crate::realize(&identity.pipeline(), &identity.input, &input, &[32, 32], 2);

        let boost = LocalLaplacianApp::new(3, 4, 2.0, 1.0);
        boost.schedule_good();
        let boost_out = crate::realize(&boost.pipeline(), &boost.input, &input, &[32, 32], 2);

        // local contrast proxy: mean absolute difference between neighbours
        let contrast = |b: &Buffer| {
            let mut acc = 0.0;
            let mut n = 0.0;
            for y in 1..31 {
                for x in 1..31 {
                    acc += (b.at_f64(&[x, y]) - b.at_f64(&[x - 1, y])).abs();
                    n += 1.0;
                }
            }
            acc / n
        };
        assert!(contrast(&boost_out.output) > contrast(&id_out.output) * 1.1);
    }

    /// The constant value of `e` in the lowered `stmt` realized at
    /// `width`×`height`: every let binding in the statement resolved in.
    fn evaluate(stmt: &halide_ir::Stmt, out: &str, e: &Expr, width: i32, height: i32) -> i64 {
        use halide_ir::{IrVisitor, StmtNode};
        use std::collections::HashMap;
        struct Lets(HashMap<String, Expr>);
        impl IrVisitor for Lets {
            fn visit_stmt(&mut self, s: &halide_ir::Stmt) {
                if let StmtNode::LetStmt { name, value, .. } = s.node() {
                    self.0.insert(name.clone(), value.clone());
                }
                halide_ir::visit_stmt_children(self, s);
            }
        }
        let mut lets = Lets(HashMap::new());
        lets.visit_stmt(stmt);
        let mut lets = lets.0;
        for (dim, extent) in [("x", width), ("y", height)] {
            lets.insert(format!("{out}.{dim}.min"), Expr::int(0));
            lets.insert(format!("{out}.{dim}.extent"), Expr::int(extent));
        }
        let mut e = e.clone();
        while let Some(next) = Some(halide_ir::substitute_map(&e, &lets)).filter(|n| *n != e) {
            e = next;
        }
        halide_ir::simplify(&e)
            .as_const_int()
            .unwrap_or_else(|| panic!("{e} is not constant"))
    }

    /// The columns of `llf_remapped` (the full-resolution level of the
    /// remapped family) the lowered pipeline allocates at 256×192, and the
    /// columns its consumers require.
    fn remapped_columns(tuned: bool) -> i64 {
        let app = LocalLaplacianApp::new(4, 8, 1.0, 0.7);
        if tuned {
            app.schedule_good();
        }
        let module = halide_lower::lower(&app.pipeline()).unwrap();
        let (remapped, out) = (app.g_pyramid[0].name(), app.out.name());
        struct Size<'a>(&'a str, Option<Expr>);
        impl halide_ir::IrVisitor for Size<'_> {
            fn visit_stmt(&mut self, s: &halide_ir::Stmt) {
                if let halide_ir::StmtNode::Allocate { name, size, .. } = s.node() {
                    if name == self.0 {
                        self.1 = Some(size.clone());
                    }
                }
                halide_ir::visit_stmt_children(self, s);
            }
        }
        let mut size = Size(&remapped, None);
        halide_ir::IrVisitor::visit_stmt(&mut size, &module.stmt);
        let size = size.1.expect("the remapped family is allocated");
        let rows = Expr::var_i32(format!("{remapped}.y.extent"));
        let at = |e: &Expr| evaluate(&module.stmt, &out, e, 256, 192);
        at(&size) / at(&rows) / 8
    }

    #[test]
    fn tuned_full_resolution_level_is_at_most_one_vector_wider_than_required() {
        // Rounding every level up to whole vectors padded each level and
        // doubled the padding on the way down the pyramid: 496 columns of
        // `llf_remapped` for the ~300 the naive (exact) schedule computes.
        let required = remapped_columns(false);
        let tuned = remapped_columns(true);
        assert!(
            tuned <= required + crate::pyramid::level_lanes(0),
            "tuned allocates {tuned} columns where {required} are required"
        );
    }

    #[test]
    fn stage_count_grows_to_paper_scale() {
        let small = LocalLaplacianApp::new(3, 4, 1.0, 0.5);
        let paper = LocalLaplacianApp::new(8, 8, 1.0, 0.5);
        assert!(small.stage_count() >= 20);
        assert!(
            paper.stage_count() >= 60,
            "paper-scale pipeline has {} stages",
            paper.stage_count()
        );
    }
}
