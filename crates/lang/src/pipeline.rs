//! Pipelines: the call graph rooted at an output function.
//!
//! A [`Pipeline`] gathers every function reachable from the output, computes
//! the call graph and a realization order (producers before consumers), and
//! is the unit handed to the compiler and the autotuner.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use halide_ir::{CallType, Expr, ExprNode, IrVisitor};

use crate::func::Func;
use crate::registry;

/// Collects the names of Halide functions called from an expression.
pub fn called_funcs(e: &Expr) -> BTreeSet<String> {
    struct Calls {
        found: BTreeSet<String>,
    }
    impl IrVisitor for Calls {
        fn visit_expr(&mut self, e: &Expr) {
            if let ExprNode::Call {
                name, call_type, ..
            } = e.node()
            {
                if *call_type == CallType::Halide {
                    self.found.insert(name.clone());
                }
            }
            halide_ir::visit_expr_children(self, e);
        }
    }
    let mut c = Calls {
        found: BTreeSet::new(),
    };
    c.visit_expr(e);
    c.found
}

/// Collects the names of input images referenced from an expression.
pub fn called_images(e: &Expr) -> BTreeSet<String> {
    struct Calls {
        found: BTreeSet<String>,
    }
    impl IrVisitor for Calls {
        fn visit_expr(&mut self, e: &Expr) {
            if let ExprNode::Call {
                name, call_type, ..
            } = e.node()
            {
                if *call_type == CallType::Image {
                    self.found.insert(name.clone());
                }
            }
            halide_ir::visit_expr_children(self, e);
        }
    }
    let mut c = Calls {
        found: BTreeSet::new(),
    };
    c.visit_expr(e);
    c.found
}

/// Every expression making up a function's definition: the pure value, then
/// each update's coordinates and value.
pub fn definition_exprs(f: &Func) -> Vec<Expr> {
    let mut exprs = vec![f.value()];
    for u in f.updates() {
        exprs.extend(u.args.iter().cloned());
        exprs.push(u.value.clone());
    }
    exprs
}

/// A pipeline: the output function plus every producer reachable from it.
#[derive(Debug, Clone)]
pub struct Pipeline {
    output: Func,
    env: HashMap<String, Func>,
    /// caller -> set of direct callees
    calls: BTreeMap<String, BTreeSet<String>>,
}

impl Pipeline {
    /// Builds the pipeline rooted at `output` by walking the call graph.
    ///
    /// # Panics
    ///
    /// Panics if a called function has been dropped (no longer reachable
    /// through any live `Func` handle) or if the definitions form a cycle
    /// other than a reduction's self-reference.
    pub fn new(output: &Func) -> Self {
        let mut env: HashMap<String, Func> = HashMap::new();
        let mut calls: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut queue = VecDeque::new();
        env.insert(output.name(), output.clone());
        queue.push_back(output.clone());

        while let Some(f) = queue.pop_front() {
            let mut callees = BTreeSet::new();
            for e in definition_exprs(&f) {
                callees.extend(called_funcs(&e));
            }
            // Self-references (recursive reductions) are not graph edges.
            callees.remove(&f.name());
            for callee in &callees {
                if !env.contains_key(callee) {
                    let inner = registry::lookup(callee).unwrap_or_else(|| {
                        panic!(
                            "function {callee:?} called from {:?} is no longer alive",
                            f.name()
                        )
                    });
                    let func = Func::from_inner(inner);
                    env.insert(callee.clone(), func.clone());
                    queue.push_back(func);
                }
            }
            calls.insert(f.name(), callees);
        }

        let p = Pipeline {
            output: output.clone(),
            env,
            calls,
        };
        // Fail fast on cyclic definitions.
        let _ = p.realization_order();
        p
    }

    /// The output function.
    pub fn output(&self) -> &Func {
        &self.output
    }

    /// Looks up a member function by name.
    pub fn func(&self, name: &str) -> Option<&Func> {
        self.env.get(name)
    }

    /// All member functions (arbitrary order).
    pub fn funcs(&self) -> impl Iterator<Item = &Func> {
        self.env.values()
    }

    /// Number of functions in the pipeline.
    pub fn len(&self) -> usize {
        self.env.len()
    }

    /// True if the pipeline somehow has no functions (cannot happen via
    /// [`Pipeline::new`], provided for completeness).
    pub fn is_empty(&self) -> bool {
        self.env.is_empty()
    }

    /// Direct callees of `name`.
    pub fn callees(&self, name: &str) -> BTreeSet<String> {
        self.calls.get(name).cloned().unwrap_or_default()
    }

    /// Direct callers of `name`.
    pub fn callers(&self, name: &str) -> BTreeSet<String> {
        self.calls
            .iter()
            .filter(|(_, callees)| callees.contains(name))
            .map(|(caller, _)| caller.clone())
            .collect()
    }

    /// Names of all input images referenced anywhere in the pipeline.
    pub fn input_images(&self) -> BTreeSet<String> {
        let mut images = BTreeSet::new();
        for f in self.env.values() {
            for e in definition_exprs(f) {
                images.extend(called_images(&e));
            }
        }
        images
    }

    /// A realization order: every function appears after all of its
    /// producers; the output function is last.
    ///
    /// # Panics
    ///
    /// Panics if the call graph is cyclic (other than self-references, which
    /// reductions are allowed to have).
    pub fn realization_order(&self) -> Vec<String> {
        let mut order = Vec::new();
        let mut state: HashMap<String, u8> = HashMap::new(); // 0 unvisited, 1 visiting, 2 done
        let mut stack: Vec<(String, bool)> = vec![(self.output.name(), false)];
        while let Some((name, expanded)) = stack.pop() {
            if expanded {
                state.insert(name.clone(), 2);
                order.push(name);
                continue;
            }
            match state.get(&name).copied().unwrap_or(0) {
                2 => continue,
                1 => continue,
                _ => {}
            }
            state.insert(name.clone(), 1);
            stack.push((name.clone(), true));
            for callee in self.callees(&name) {
                match state.get(&callee).copied().unwrap_or(0) {
                    0 => stack.push((callee, false)),
                    1 => panic!("cyclic definition involving {callee:?}"),
                    _ => {}
                }
            }
        }
        order
    }

    /// Validates every function's schedule locally. The compiler performs the
    /// global checks (e.g. that a `compute_at` target loop exists).
    ///
    /// # Errors
    ///
    /// Returns the first schedule error found.
    pub fn validate_schedules(&self) -> halide_schedule::Result<()> {
        for name in self.realization_order() {
            let f = &self.env[&name];
            f.schedule()
                .validate()
                .map_err(|e| halide_schedule::ScheduleError::new(format!("{}: {e}", f.name())))?;
            for (i, u) in f.updates().iter().enumerate() {
                u.schedule.validate().map_err(|e| {
                    halide_schedule::ScheduleError::new(format!("{} update {i}: {e}", f.name()))
                })?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ImageParam;
    use crate::var::Var;
    use halide_ir::Type;

    fn two_stage() -> (Func, Func) {
        let input = ImageParam::new("pipe_test_in", Type::f32(), 2);
        let (x, y) = (Var::new("x"), Var::new("y"));
        let blurx = Func::new("pipe_test_blurx");
        blurx.define(
            &[x.clone(), y.clone()],
            input.at_clamped(vec![x.expr() - 1, y.expr()])
                + input.at_clamped(vec![x.expr(), y.expr()])
                + input.at_clamped(vec![x.expr() + 1, y.expr()]),
        );
        let out = Func::new("pipe_test_out");
        out.define(
            &[x.clone(), y.clone()],
            blurx.at(vec![x.expr(), y.expr() - 1])
                + blurx.at(vec![x.expr(), y.expr()])
                + blurx.at(vec![x.expr(), y.expr() + 1]),
        );
        (blurx, out)
    }

    #[test]
    fn discovers_call_graph() {
        let (blurx, out) = two_stage();
        let p = Pipeline::new(&out);
        assert_eq!(p.len(), 2);
        assert!(p.func(&blurx.name()).is_some());
        assert_eq!(p.callees(&out.name()), BTreeSet::from([blurx.name()]));
        assert_eq!(p.callers(&blurx.name()), BTreeSet::from([out.name()]));
        assert_eq!(
            p.input_images(),
            BTreeSet::from(["pipe_test_in".to_string()])
        );
    }

    #[test]
    fn realization_order_is_producers_first() {
        let (blurx, out) = two_stage();
        let p = Pipeline::new(&out);
        let order = p.realization_order();
        assert_eq!(order.len(), 2);
        assert_eq!(order[0], blurx.name());
        assert_eq!(order[1], out.name());
    }

    #[test]
    fn self_recursion_is_not_a_cycle() {
        let i = Var::new("i");
        let cdf = Func::new("pipe_test_cdf");
        cdf.define(&[i.clone()], Expr::int(0));
        let r = crate::rdom::RDom::over("r", 1, 255);
        cdf.update(
            vec![r.x().expr()],
            cdf.at(vec![r.x().expr() - 1]) + 1,
            Some(r),
        );
        let p = Pipeline::new(&cdf);
        assert_eq!(p.len(), 1);
        assert_eq!(p.realization_order(), vec![cdf.name()]);
    }

    #[test]
    fn diamond_graph_orders_once() {
        let (x, y) = (Var::new("x"), Var::new("y"));
        let base = Func::new("pipe_test_diamond_base");
        base.define(&[x.clone(), y.clone()], Expr::f32(1.0));
        let left = Func::new("pipe_test_diamond_l");
        left.define(
            &[x.clone(), y.clone()],
            base.at(vec![x.expr(), y.expr()]) * 2.0f32,
        );
        let right = Func::new("pipe_test_diamond_r");
        right.define(
            &[x.clone(), y.clone()],
            base.at(vec![x.expr(), y.expr()]) + 1.0f32,
        );
        let top = Func::new("pipe_test_diamond_top");
        top.define(
            &[x.clone(), y.clone()],
            left.at(vec![x.expr(), y.expr()]) + right.at(vec![x.expr(), y.expr()]),
        );
        let p = Pipeline::new(&top);
        assert_eq!(p.len(), 4);
        let order = p.realization_order();
        assert_eq!(order.len(), 4);
        let pos = |n: &str| order.iter().position(|o| o == n).unwrap();
        assert!(pos(&base.name()) < pos(&left.name()));
        assert!(pos(&base.name()) < pos(&right.name()));
        assert!(pos(&left.name()) < pos(&top.name()));
        assert!(pos(&right.name()) < pos(&top.name()));
    }

    #[test]
    fn schedule_validation_surface() {
        let (_blurx, out) = two_stage();
        let p = Pipeline::new(&out);
        assert!(p.validate_schedules().is_ok());
    }
}
