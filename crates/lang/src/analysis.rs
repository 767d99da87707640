//! Static pipeline analysis: the numbers reported in Fig. 6 of the paper
//! (functions per pipeline, stencil count, graph structure).

use std::collections::{BTreeMap, BTreeSet};

use halide_ir::{CallType, Expr, ExprNode, IrVisitor};

use crate::pipeline::{definition_exprs, Pipeline};

/// Summary statistics of a pipeline's structure (cf. Fig. 6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineStats {
    /// Number of functions in the pipeline (including the output).
    pub functions: usize,
    /// Number of producer→consumer edges where the consumer reads the
    /// producer through a stencil (more than one distinct coordinate per
    /// point), i.e. where the locality/recomputation tradeoff arises.
    pub stencils: usize,
    /// Number of producer→consumer edges in the call graph.
    pub edges: usize,
    /// Number of functions with at least one update (reduction) definition.
    pub reductions: usize,
    /// Number of edges whose access pattern is data-dependent (a coordinate
    /// depends on loaded data rather than only on loop variables).
    pub data_dependent: usize,
    /// Length of the longest producer chain (graph depth).
    pub depth: usize,
}

impl PipelineStats {
    /// The qualitative label the paper uses for graph structure.
    pub fn structure(&self) -> &'static str {
        match self.functions {
            0..=3 => "simple",
            4..=15 => "moderate",
            16..=60 => "complex",
            _ => "very complex",
        }
    }
}

/// Distinct argument vectors used to call each producer within one expression.
fn calls_by_target(e: &Expr) -> BTreeMap<String, BTreeSet<String>> {
    struct Calls {
        found: BTreeMap<String, BTreeSet<String>>,
    }
    impl IrVisitor for Calls {
        fn visit_expr(&mut self, e: &Expr) {
            if let ExprNode::Call {
                name,
                call_type,
                args,
                ..
            } = e.node()
            {
                if matches!(call_type, CallType::Halide | CallType::Image) {
                    let key = args
                        .iter()
                        .map(|a| a.to_string())
                        .collect::<Vec<_>>()
                        .join(",");
                    self.found.entry(name.clone()).or_default().insert(key);
                }
            }
            halide_ir::visit_expr_children(self, e);
        }
    }
    let mut c = Calls {
        found: BTreeMap::new(),
    };
    c.visit_expr(e);
    c.found
}

/// True if any coordinate of any call in the expression itself contains a
/// call (a data-dependent gather, like the LUT and DDA stages of the local
/// Laplacian pipeline).
fn has_data_dependent_access(e: &Expr) -> bool {
    struct Finder {
        found: bool,
    }
    impl IrVisitor for Finder {
        fn visit_expr(&mut self, e: &Expr) {
            if self.found {
                return;
            }
            if let ExprNode::Call {
                args, call_type, ..
            } = e.node()
            {
                if matches!(call_type, CallType::Halide | CallType::Image) {
                    for a in args {
                        let inner = calls_by_target(a);
                        if !inner.is_empty() {
                            self.found = true;
                            return;
                        }
                    }
                }
            }
            halide_ir::visit_expr_children(self, e);
        }
    }
    let mut f = Finder { found: false };
    f.visit_expr(e);
    f.found
}

/// Computes [`PipelineStats`] for a pipeline.
pub fn analyze(p: &Pipeline) -> PipelineStats {
    let mut stencils = 0usize;
    let mut edges = 0usize;
    let mut reductions = 0usize;
    let mut data_dependent = 0usize;

    for f in p.funcs() {
        if !f.updates().is_empty() {
            reductions += 1;
        }
        // Merge distinct access patterns across the whole definition.
        let mut per_target: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut dd = false;
        for e in definition_exprs(f) {
            for (target, patterns) in calls_by_target(&e) {
                per_target.entry(target).or_default().extend(patterns);
            }
            dd = dd || has_data_dependent_access(&e);
        }
        per_target.remove(&f.name());
        edges += per_target.len();
        stencils += per_target.values().filter(|pats| pats.len() > 1).count();
        if dd {
            data_dependent += 1;
        }
    }

    // Longest path from any source to the output.
    let order = p.realization_order();
    let mut depth: BTreeMap<String, usize> = BTreeMap::new();
    for name in &order {
        let d = p
            .callees(name)
            .iter()
            .map(|c| depth.get(c).copied().unwrap_or(0))
            .max()
            .unwrap_or(0)
            + 1;
        depth.insert(name.clone(), d);
    }

    PipelineStats {
        functions: p.len(),
        stencils,
        edges,
        reductions,
        data_dependent,
        depth: depth.values().copied().max().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::Func;
    use crate::image::ImageParam;
    use crate::rdom::RDom;
    use crate::var::Var;
    use halide_ir::Type;

    #[test]
    fn blur_counts_two_stencils() {
        let input = ImageParam::new("analysis_in", Type::f32(), 2);
        let (x, y) = (Var::new("x"), Var::new("y"));
        let blurx = Func::new("analysis_blurx");
        blurx.define(
            &[x.clone(), y.clone()],
            input.at(vec![x.expr() - 1, y.expr()])
                + input.at(vec![x.expr(), y.expr()])
                + input.at(vec![x.expr() + 1, y.expr()]),
        );
        let out = Func::new("analysis_out");
        out.define(
            &[x.clone(), y.clone()],
            blurx.at(vec![x.expr(), y.expr() - 1])
                + blurx.at(vec![x.expr(), y.expr()])
                + blurx.at(vec![x.expr(), y.expr() + 1]),
        );
        let stats = analyze(&Pipeline::new(&out));
        assert_eq!(stats.functions, 2);
        assert_eq!(stats.stencils, 2); // in->blurx and blurx->out
        assert_eq!(stats.edges, 2);
        assert_eq!(stats.reductions, 0);
        assert_eq!(stats.depth, 2);
        assert_eq!(stats.structure(), "simple");
    }

    #[test]
    fn pointwise_edge_is_not_a_stencil() {
        let (x, y) = (Var::new("x"), Var::new("y"));
        let a = Func::new("analysis_point_a");
        a.define(&[x.clone(), y.clone()], Expr::f32(1.0));
        let b = Func::new("analysis_point_b");
        b.define(
            &[x.clone(), y.clone()],
            a.at(vec![x.expr(), y.expr()]) * 2.0f32,
        );
        let stats = analyze(&Pipeline::new(&b));
        assert_eq!(stats.functions, 2);
        assert_eq!(stats.edges, 1);
        assert_eq!(stats.stencils, 0);
    }

    #[test]
    fn reductions_and_data_dependence_detected() {
        let input = ImageParam::new("analysis_dd_in", Type::u8(), 2);
        let i = Var::new("i");
        let (x, y) = (Var::new("x"), Var::new("y"));
        let hist = Func::new("analysis_hist");
        hist.define(std::slice::from_ref(&i), Expr::int(0));
        let r = RDom::new(
            "r",
            vec![(Expr::int(0), Expr::int(16)), (Expr::int(0), Expr::int(16))],
        );
        hist.update(
            vec![input.at(vec![r.x().expr(), r.y().expr()]).cast(Type::i32())],
            hist.at(vec![input
                .at(vec![r.x().expr(), r.y().expr()])
                .cast(Type::i32())])
                + 1,
            Some(r),
        );
        let out = Func::new("analysis_dd_out");
        out.define(
            &[x.clone(), y.clone()],
            hist.at(vec![input.at(vec![x.expr(), y.expr()]).cast(Type::i32())]),
        );
        let stats = analyze(&Pipeline::new(&out));
        assert_eq!(stats.functions, 2);
        assert_eq!(stats.reductions, 1);
        assert!(stats.data_dependent >= 1);
    }
}
