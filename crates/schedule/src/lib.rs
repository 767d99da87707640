//! # halide-schedule
//!
//! The schedule representation of the halide-rs reproduction (Sec. 3 of the
//! paper). A schedule answers, independently of the algorithm:
//!
//! * **domain order** — in what order is the required region of each function
//!   traversed? Dimensions can be split, reordered, and marked serial,
//!   parallel, vectorized, or unrolled.
//! * **call schedule** — at what loop level of its consumers is each function
//!   computed, and at what (equal or coarser) level is its storage allocated?
//!
//! The data structures here are deliberately plain: the DSL frontend
//! (`halide-lang`) builds them, the compiler (`halide-lower`) consumes them,
//! and the autotuner (`halide-autotune`) mutates them.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::collections::HashSet;
use std::fmt;

pub use halide_ir::ForKind;

/// Error produced when a schedule is malformed.
///
/// The autotuner depends on these being raised (rather than silently
/// accepted) so it can discard invalid genomes, mirroring the paper's
/// "reject any partially completed schedules that are invalid".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleError {
    message: String,
}

impl ScheduleError {
    /// Creates an error with the given description.
    pub fn new(message: impl Into<String>) -> Self {
        ScheduleError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid schedule: {}", self.message)
    }
}

impl std::error::Error for ScheduleError {}

/// Result alias for schedule operations.
pub type Result<T> = std::result::Result<T, ScheduleError>;

/// How a split handles the tail iterations when the dimension's extent is
/// not a multiple of the factor. The choice trades code size, redundant
/// recompute, and allocation padding against each other; all four lower to
/// loop nests with identical results over the required region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TailStrategy {
    /// The last tile is shifted inwards to overlap its predecessor so every
    /// tile is full-width and in bounds: `old = min + min(outer*f, e-f) +
    /// inner`. Recomputes up to `f-1` values. Requires `extent >= factor`
    /// (asserted at runtime for the output function). The historical
    /// default.
    #[default]
    ShiftInwards,
    /// The loop is partitioned into a main loop over the full tiles and a
    /// scalar epilogue loop over the runtime remainder. No recompute, no
    /// overrun; works for any extent, but the epilogue is not vectorized.
    GuardWithIf,
    /// Like [`TailStrategy::GuardWithIf`], but the tail is a single extra
    /// full-width iteration whose body is guarded per-lane: after
    /// vectorization the guard becomes a vector predicate and loads/stores
    /// in the tail are masked. No recompute; stays a bulk operation.
    Predicate,
    /// The traversed domain is rounded up to the next multiple of the
    /// factor with no guard at all. Bounds inference enlarges the
    /// producer's allocation to cover the overhang, so it is only legal on
    /// functions whose storage the compiler allocates — not on the output
    /// function, whose buffer is caller-allocated and exact.
    RoundUp,
}

impl fmt::Display for TailStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TailStrategy::ShiftInwards => write!(f, "shift_inwards"),
            TailStrategy::GuardWithIf => write!(f, "guard_with_if"),
            TailStrategy::Predicate => write!(f, "predicate"),
            TailStrategy::RoundUp => write!(f, "round_up"),
        }
    }
}

/// A dimension split: `old` is replaced by `outer * factor + inner`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Split {
    /// The dimension being split (it disappears from the loop nest).
    pub old: String,
    /// Name of the new outer dimension.
    pub outer: String,
    /// Name of the new inner dimension (iterates over `0..factor`).
    pub inner: String,
    /// The split factor. The traversed domain is rounded up to a multiple of
    /// this factor, as in the paper (Sec. 4.1).
    pub factor: i64,
    /// How tail iterations are handled when the factor does not divide the
    /// extent.
    pub tail: TailStrategy,
}

/// One loop dimension in a function's domain order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dim {
    /// Dimension (loop variable) name. For split dimensions this is the new
    /// outer/inner name.
    pub name: String,
    /// How the loop over this dimension is executed.
    pub kind: ForKind,
}

/// Where a function is computed or stored relative to its consumers
/// (the "call schedule" of Sec. 3.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoopLevel {
    /// Computed on demand at every use site — no loops, no storage
    /// (the "total fusion" extreme).
    Inline,
    /// Computed/stored at the very top of the pipeline, outside all loops
    /// (the "breadth-first" extreme).
    Root,
    /// Computed/stored at the start of each iteration of loop `var` of
    /// function `func` (somewhere in the middle of the choice space).
    At {
        /// The consumer function whose loop nest hosts this level.
        func: String,
        /// The loop variable (dimension name after splits) within that nest.
        var: String,
    },
}

impl LoopLevel {
    /// Convenience constructor for [`LoopLevel::At`].
    pub fn at(func: impl Into<String>, var: impl Into<String>) -> Self {
        LoopLevel::At {
            func: func.into(),
            var: var.into(),
        }
    }

    /// True for the inline level.
    pub fn is_inline(&self) -> bool {
        matches!(self, LoopLevel::Inline)
    }

    /// True for the root level.
    pub fn is_root(&self) -> bool {
        matches!(self, LoopLevel::Root)
    }
}

impl fmt::Display for LoopLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoopLevel::Inline => write!(f, "inline"),
            LoopLevel::Root => write!(f, "root"),
            LoopLevel::At { func, var } => write!(f, "at {func}.{var}"),
        }
    }
}

/// The complete schedule of one function: its domain order and call schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncSchedule {
    /// Applied splits, in application order.
    pub splits: Vec<Split>,
    /// Loop dimensions, ordered from **outermost to innermost** (the order the
    /// paper writes them in, e.g. `order(ty, tx, y, x)`).
    pub dims: Vec<Dim>,
    /// Where the function's values are computed.
    pub compute_level: LoopLevel,
    /// Where the function's storage lives. Must be at the same loop level as
    /// the compute level or a coarser (more outer) one.
    pub store_level: LoopLevel,
}

impl FuncSchedule {
    /// The default schedule for a function with the given pure argument names
    /// (given innermost-first, i.e. `x` then `y`, as in `f(x, y) = ...`):
    /// every dimension is a serial loop, the loop order is row-major
    /// (`y` outer, `x` inner), and the function is computed and stored at
    /// root — the breadth-first strategy.
    pub fn default_for_args(args: &[String]) -> Self {
        let dims = args
            .iter()
            .rev()
            .map(|a| Dim {
                name: a.clone(),
                kind: ForKind::Serial,
            })
            .collect();
        FuncSchedule {
            splits: Vec::new(),
            dims,
            compute_level: LoopLevel::Root,
            store_level: LoopLevel::Root,
        }
    }

    /// Position of a dimension in the loop order.
    pub fn dim_index(&self, name: &str) -> Option<usize> {
        self.dims.iter().position(|d| d.name == name)
    }

    /// True if the schedule currently has a dimension with this name.
    pub fn has_dim(&self, name: &str) -> bool {
        self.dim_index(name).is_some()
    }

    fn domain(&mut self) -> Domain<'_> {
        Domain {
            splits: &mut self.splits,
            dims: &mut self.dims,
        }
    }

    /// Splits dimension `old` into `outer` and `inner` with the given factor.
    ///
    /// # Errors
    ///
    /// Fails if `old` is not a current dimension, the factor is < 1, or the
    /// new names collide with existing dimensions.
    pub fn split(
        &mut self,
        old: &str,
        outer: impl Into<String>,
        inner: impl Into<String>,
        factor: i64,
    ) -> Result<()> {
        self.split_with_tail(old, outer, inner, factor, TailStrategy::default())
    }

    /// Like [`FuncSchedule::split`], but with an explicit [`TailStrategy`]
    /// governing the iterations past the last full tile. `GuardWithIf` and
    /// `Predicate` make the split legal on dimensions whose extent is
    /// smaller than (or simply not a multiple of) the factor; `RoundUp`
    /// additionally keeps the whole traversal full-width but is only legal
    /// on compiler-allocated (non-output) functions.
    ///
    /// # Errors
    ///
    /// Fails under the same conditions as [`FuncSchedule::split`].
    pub fn split_with_tail(
        &mut self,
        old: &str,
        outer: impl Into<String>,
        inner: impl Into<String>,
        factor: i64,
        tail: TailStrategy,
    ) -> Result<()> {
        self.domain()
            .split(old, outer.into(), inner.into(), factor, tail)
    }

    /// Reorders the listed dimensions. `order` is given **outermost first**
    /// and must mention a subset of the current dimensions; mentioned
    /// dimensions are permuted into the given relative order, unmentioned
    /// ones stay where they are.
    ///
    /// # Errors
    ///
    /// Fails if any name is unknown or appears twice.
    pub fn reorder(&mut self, order: &[&str]) -> Result<()> {
        self.domain().reorder(order)
    }

    fn set_kind(&mut self, name: &str, kind: ForKind) -> Result<()> {
        self.domain().set_kind(name, kind)
    }

    /// Marks a dimension parallel.
    ///
    /// # Errors
    ///
    /// Fails if the dimension does not exist.
    pub fn parallel(&mut self, name: &str) -> Result<()> {
        self.set_kind(name, ForKind::Parallel)
    }

    /// Marks a dimension serial (the default).
    ///
    /// # Errors
    ///
    /// Fails if the dimension does not exist.
    pub fn serial(&mut self, name: &str) -> Result<()> {
        self.set_kind(name, ForKind::Serial)
    }

    /// Marks a dimension vectorized. The dimension's extent must be constant
    /// by the time the vectorization pass runs; splitting by the vector width
    /// first is the usual way to guarantee that.
    ///
    /// # Errors
    ///
    /// Fails if the dimension does not exist.
    pub fn vectorize(&mut self, name: &str) -> Result<()> {
        self.set_kind(name, ForKind::Vectorized)
    }

    /// Marks a dimension unrolled.
    ///
    /// # Errors
    ///
    /// Fails if the dimension does not exist.
    pub fn unroll(&mut self, name: &str) -> Result<()> {
        self.set_kind(name, ForKind::Unrolled)
    }

    /// The canonical tiling helper: splits `x` and `y` by the given factors
    /// and reorders so the tile loops (`yo`, `xo`) are outermost and the
    /// within-tile loops (`yi`, `xi`) are innermost.
    ///
    /// # Errors
    ///
    /// Fails under the same conditions as [`FuncSchedule::split`] and
    /// [`FuncSchedule::reorder`].
    #[allow(clippy::too_many_arguments)]
    pub fn tile(
        &mut self,
        x: &str,
        y: &str,
        xo: &str,
        yo: &str,
        xi: &str,
        yi: &str,
        xfactor: i64,
        yfactor: i64,
    ) -> Result<()> {
        self.split(x, xo, xi, xfactor)?;
        self.split(y, yo, yi, yfactor)?;
        self.reorder(&[yo, xo, yi, xi])
    }

    /// Validates internal consistency of the schedule. The full validity
    /// check (does the compute-at loop exist in the consumer?) happens during
    /// lowering, where the whole pipeline is visible.
    ///
    /// # Errors
    ///
    /// Fails if dimension names are duplicated, storage is at a level finer
    /// than compute, or an inline function has a non-default domain order.
    pub fn validate(&self) -> Result<()> {
        let mut seen = HashSet::new();
        for d in &self.dims {
            if !seen.insert(d.name.clone()) {
                return Err(ScheduleError::new(format!(
                    "duplicate dimension name {:?}",
                    d.name
                )));
            }
        }
        // Storage must be at the compute level or coarser. We can check the
        // obvious violation locally: computing at root but storing at an
        // inner level.
        if self.compute_level.is_root() && matches!(self.store_level, LoopLevel::At { .. }) {
            return Err(ScheduleError::new(
                "storage level must be at least as coarse as the compute level",
            ));
        }
        if self.compute_level.is_inline() {
            if !self.store_level.is_inline() {
                return Err(ScheduleError::new(
                    "an inlined function has no storage; store level must also be inline",
                ));
            }
            if !self.splits.is_empty() {
                return Err(ScheduleError::new(
                    "an inlined function has no loops; domain scheduling has no effect",
                ));
            }
        }
        Ok(())
    }

    /// Human-readable one-line summary, useful in autotuner logs.
    pub fn describe(&self) -> String {
        let dims: Vec<String> = self
            .dims
            .iter()
            .map(|d| {
                let k = match d.kind {
                    ForKind::Serial => "",
                    ForKind::Parallel => "par ",
                    ForKind::Vectorized => "vec ",
                    ForKind::Unrolled => "unroll ",
                };
                format!("{k}{}", d.name)
            })
            .collect();
        let tails: Vec<String> = self
            .splits
            .iter()
            .filter(|s| s.tail != TailStrategy::ShiftInwards)
            .map(|s| format!("{}:{}", s.old, s.tail))
            .collect();
        let tails = if tails.is_empty() {
            String::new()
        } else {
            format!(" tail({})", tails.join(", "))
        };
        format!(
            "compute {} store {} order({}){tails}",
            self.compute_level,
            self.store_level,
            dims.join(", ")
        )
    }
}

impl Default for FuncSchedule {
    fn default() -> Self {
        FuncSchedule {
            splits: Vec::new(),
            dims: Vec::new(),
            compute_level: LoopLevel::Root,
            store_level: LoopLevel::Root,
        }
    }
}

/// The domain order of one definition — a function's pure definition or
/// one of its update stages: the splits applied to it and the resulting
/// loop dimensions. Both [`FuncSchedule`] and [`StageSchedule`] edit theirs
/// through this view, so the two kinds of stage accept the same verbs with
/// the same errors.
struct Domain<'a> {
    splits: &'a mut Vec<Split>,
    dims: &'a mut Vec<Dim>,
}

impl Domain<'_> {
    fn require_dim(&self, name: &str) -> Result<usize> {
        self.dims
            .iter()
            .position(|d| d.name == name)
            .ok_or_else(|| {
                ScheduleError::new(format!(
                    "dimension {name:?} not found; current dims are {:?}",
                    self.dims.iter().map(|d| &d.name).collect::<Vec<_>>()
                ))
            })
    }

    fn split(
        &mut self,
        old: &str,
        outer: String,
        inner: String,
        factor: i64,
        tail: TailStrategy,
    ) -> Result<()> {
        if factor < 1 {
            return Err(ScheduleError::new(format!(
                "split factor must be >= 1, got {factor}"
            )));
        }
        let idx = self.require_dim(old)?;
        for n in [&outer, &inner] {
            if n != old && self.dims.iter().any(|d| &d.name == n) {
                return Err(ScheduleError::new(format!(
                    "split name {n:?} collides with an existing dimension"
                )));
            }
        }
        if outer == inner {
            return Err(ScheduleError::new(
                "outer and inner split names must differ".to_string(),
            ));
        }
        let kind = self.dims[idx].kind;
        // The old dimension is replaced in place: outer takes its slot, inner
        // goes immediately inside (to its right in outermost-first order).
        self.dims[idx] = Dim {
            name: outer.clone(),
            kind,
        };
        self.dims.insert(
            idx + 1,
            Dim {
                name: inner.clone(),
                kind: ForKind::Serial,
            },
        );
        self.splits.push(Split {
            old: old.to_string(),
            outer,
            inner,
            factor,
            tail,
        });
        Ok(())
    }

    fn reorder(&mut self, order: &[&str]) -> Result<()> {
        let mut seen = HashSet::new();
        for name in order {
            self.require_dim(name)?;
            if !seen.insert(*name) {
                return Err(ScheduleError::new(format!(
                    "dimension {name:?} listed twice in reorder"
                )));
            }
        }
        let positions: Vec<usize> = self
            .dims
            .iter()
            .enumerate()
            .filter(|(_, d)| order.contains(&d.name.as_str()))
            .map(|(i, _)| i)
            .collect();
        let mut ordered: Vec<Dim> = Vec::with_capacity(order.len());
        for name in order {
            let idx = self.require_dim(name).expect("checked above");
            ordered.push(self.dims[idx].clone());
        }
        for (slot, dim) in positions.into_iter().zip(ordered) {
            self.dims[slot] = dim;
        }
        Ok(())
    }

    fn set_kind(&mut self, name: &str, kind: ForKind) -> Result<()> {
        let idx = self.require_dim(name)?;
        self.dims[idx].kind = kind;
        Ok(())
    }
}

/// A record that an update stage is the merge step of an `rfactor`: the
/// reduction variable `rvar` was lifted into the pure dimension `pure_var`
/// of the intermediate function `intm`. Lowering checks that the merge is
/// one it can reassociate exactly (integer `+`, `min` or `max`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RFactor {
    /// The factored reduction variable (an RVar, or the inner half of a
    /// split of one).
    pub rvar: String,
    /// The intermediate's new pure dimension.
    pub pure_var: String,
    /// The intermediate function's name.
    pub intm: String,
}

/// The domain order of one update stage: its splits and loop dimensions,
/// over the stage's pure variables and its reduction variables (`r.x`).
///
/// The default order loops the pure variables the update's coordinates use
/// outside its reduction variables, each group row-major (the last pure
/// argument and the last reduction dimension outermost), which is the
/// definition's lexicographic order. Which transformations keep the
/// update's result is decided by lowering, not here: a split, reorder or
/// loop kind is only recorded.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StageSchedule {
    /// Applied splits, in application order.
    pub splits: Vec<Split>,
    /// Loop dimensions, ordered from outermost to innermost.
    pub dims: Vec<Dim>,
    /// Set when this stage is the merge step of an `rfactor`.
    pub rfactor: Option<RFactor>,
}

impl StageSchedule {
    /// The default schedule of an update that loops over the pure variables
    /// `pure` and the reduction variables `rvars` (both given innermost
    /// first, in argument and domain order): every loop serial, pure loops
    /// outside reduction loops.
    pub fn default_for(pure: &[String], rvars: &[String]) -> Self {
        let dims = pure
            .iter()
            .rev()
            .chain(rvars.iter().rev())
            .map(|name| Dim {
                name: name.clone(),
                kind: ForKind::Serial,
            })
            .collect();
        StageSchedule {
            splits: Vec::new(),
            dims,
            rfactor: None,
        }
    }

    fn domain(&mut self) -> Domain<'_> {
        Domain {
            splits: &mut self.splits,
            dims: &mut self.dims,
        }
    }

    /// Position of a dimension in the loop order.
    pub fn dim_index(&self, name: &str) -> Option<usize> {
        self.dims.iter().position(|d| d.name == name)
    }

    /// Splits dimension `old` into `outer` and `inner` with the given tail
    /// strategy. Lowering accepts only `GuardWithIf` and `Predicate` on an
    /// update stage: the other two would apply the update twice to some
    /// points or write outside the function's region.
    ///
    /// # Errors
    ///
    /// Fails if `old` is not a current dimension, the factor is < 1, or the
    /// new names collide with existing dimensions.
    pub fn split_with_tail(
        &mut self,
        old: &str,
        outer: impl Into<String>,
        inner: impl Into<String>,
        factor: i64,
        tail: TailStrategy,
    ) -> Result<()> {
        self.domain()
            .split(old, outer.into(), inner.into(), factor, tail)
    }

    /// Reorders the listed dimensions, outermost first (see
    /// [`FuncSchedule::reorder`]).
    ///
    /// # Errors
    ///
    /// Fails if any name is unknown or appears twice.
    pub fn reorder(&mut self, order: &[&str]) -> Result<()> {
        self.domain().reorder(order)
    }

    /// Sets the loop kind of a dimension.
    ///
    /// # Errors
    ///
    /// Fails if the dimension does not exist.
    pub fn set_kind(&mut self, name: &str, kind: ForKind) -> Result<()> {
        self.domain().set_kind(name, kind)
    }

    /// Validates internal consistency: dimension names are unique.
    ///
    /// # Errors
    ///
    /// Fails if a dimension name repeats.
    pub fn validate(&self) -> Result<()> {
        let mut seen = HashSet::new();
        for d in &self.dims {
            if !seen.insert(d.name.as_str()) {
                return Err(ScheduleError::new(format!(
                    "duplicate dimension name {:?}",
                    d.name
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xy() -> FuncSchedule {
        FuncSchedule::default_for_args(&["x".to_string(), "y".to_string()])
    }

    #[test]
    fn default_is_breadth_first_row_major() {
        let s = xy();
        assert_eq!(s.dims[0].name, "y");
        assert_eq!(s.dims[1].name, "x");
        assert!(s.compute_level.is_root());
        assert!(s.store_level.is_root());
        assert!(s.validate().is_ok());
    }

    #[test]
    fn split_inserts_inner_after_outer() {
        let mut s = xy();
        s.split("x", "xo", "xi", 8).unwrap();
        let names: Vec<&str> = s.dims.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["y", "xo", "xi"]);
        assert_eq!(s.splits.len(), 1);
        assert_eq!(s.splits[0].factor, 8);
    }

    #[test]
    fn split_errors() {
        let mut s = xy();
        assert!(s.split("z", "zo", "zi", 4).is_err());
        assert!(s.split("x", "xo", "xo", 4).is_err());
        assert!(s.split("x", "y", "xi", 4).is_err());
        assert!(s.split("x", "xo", "xi", 0).is_err());
    }

    #[test]
    fn reorder_permutes_mentioned_dims() {
        let mut s = xy();
        s.reorder(&["x", "y"]).unwrap();
        let names: Vec<&str> = s.dims.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["x", "y"]);
        assert!(s.reorder(&["x", "x"]).is_err());
        assert!(s.reorder(&["nope"]).is_err());
    }

    #[test]
    fn tile_produces_expected_order() {
        let mut s = xy();
        s.tile("x", "y", "xo", "yo", "xi", "yi", 32, 32).unwrap();
        let names: Vec<&str> = s.dims.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["yo", "xo", "yi", "xi"]);
    }

    #[test]
    fn loop_kinds() {
        let mut s = xy();
        s.parallel("y").unwrap();
        s.vectorize("x").unwrap();
        assert_eq!(s.dims[0].kind, ForKind::Parallel);
        assert_eq!(s.dims[1].kind, ForKind::Vectorized);
        s.serial("y").unwrap();
        assert_eq!(s.dims[0].kind, ForKind::Serial);
        assert!(s.unroll("q").is_err());
    }

    #[test]
    fn store_coarser_than_compute() {
        let mut s = xy();
        s.compute_level = LoopLevel::Root;
        s.store_level = LoopLevel::at("out", "x");
        assert!(s.validate().is_err());

        s.compute_level = LoopLevel::at("out", "x");
        s.store_level = LoopLevel::Root;
        assert!(s.validate().is_ok());
    }

    #[test]
    fn inline_constraints() {
        let mut s = xy();
        s.compute_level = LoopLevel::Inline;
        s.store_level = LoopLevel::Inline;
        assert!(s.validate().is_ok());
        s.store_level = LoopLevel::Root;
        assert!(s.validate().is_err());
    }

    #[test]
    fn describe_mentions_levels_and_dims() {
        let mut s = xy();
        s.parallel("y").unwrap();
        let d = s.describe();
        assert!(d.contains("root"));
        assert!(d.contains("par y"));
    }

    #[test]
    fn split_with_tail_records_strategy() {
        let mut s = xy();
        s.split_with_tail("x", "xo", "xi", 8, TailStrategy::GuardWithIf)
            .unwrap();
        assert_eq!(s.splits[0].tail, TailStrategy::GuardWithIf);
        // Plain split defaults to shift-inwards (the historical behavior).
        s.split("y", "yo", "yi", 4).unwrap();
        assert_eq!(s.splits[1].tail, TailStrategy::ShiftInwards);
        let d = s.describe();
        assert!(d.contains("tail(x:guard_with_if)"), "{d}");
        assert!(!d.contains("y:"), "{d}");
    }

    #[test]
    fn stage_default_loops_pure_vars_outside_rvars() {
        let s = StageSchedule::default_for(
            &["x".to_string(), "y".to_string()],
            &["r.x".to_string(), "r.y".to_string()],
        );
        let names: Vec<&str> = s.dims.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["y", "x", "r.y", "r.x"]);
        let mut s = s;
        s.split_with_tail("r.x", "rxo", "rxi", 8, TailStrategy::GuardWithIf)
            .unwrap();
        s.set_kind("x", ForKind::Parallel).unwrap();
        assert_eq!(s.dim_index("rxi"), Some(4));
        assert!(s
            .split_with_tail("q", "a", "b", 2, TailStrategy::Predicate)
            .is_err());
        assert!(s.validate().is_ok());
    }

    #[test]
    fn duplicate_dims_rejected() {
        let s = FuncSchedule {
            dims: vec![
                Dim {
                    name: "x".into(),
                    kind: ForKind::Serial,
                },
                Dim {
                    name: "x".into(),
                    kind: ForKind::Serial,
                },
            ],
            ..Default::default()
        };
        assert!(s.validate().is_err());
    }
}
