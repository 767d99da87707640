//! Pipeline-level schedule legality: the predicate that decides whether a
//! fully-specified set of schedules can be lowered and executed.
//!
//! [`FuncSchedule::validate`] checks one function in isolation; real
//! validity is a *global* property — a `compute_at` must name a loop that
//! exists in its consumer and encloses every use, a vectorized loop must
//! end up with a constant extent after every split, an output split must
//! not exceed the realized extent. The compiler (`halide-lower`) enforces
//! its own rules while lowering, where the only answer is an error. This
//! module states a conservative subset of them *ahead of time* over a plain
//! description of the pipeline ([`PipelineInfo`]), so a schedule generator
//! can produce schedules that are valid by construction instead of lowering
//! candidates to see what sticks. Its only user is the fuzzer's generator
//! (`halide-fuzz`); lowering shares just the two width limits below.
//!
//! Everything the predicate accepts must lower and run, and the fuzzer
//! checks that direction; schedules it rejects may still be accepted by the
//! compiler (e.g. a producer whose consumers are enclosed by a shared
//! ancestor loop).

use std::collections::BTreeMap;

use crate::{ForKind, FuncSchedule, LoopLevel, Result, ScheduleError, TailStrategy};

/// Widest vector a `vectorize` may produce. The lowering pass
/// (`halide-lower`'s vectorizer) re-exports and enforces this same limit, so
/// the predicate and the compiler cannot drift apart.
pub const MAX_VECTOR_LANES: i64 = 4096;

// The engines carry a vector's lane count in a `u16`, which is the real
// ceiling on this limit.
const _: () = assert!(MAX_VECTOR_LANES <= u16::MAX as i64);

/// Deepest unroll the lowering pass accepts, shared the same way as
/// [`MAX_VECTOR_LANES`].
pub const MAX_UNROLL: i64 = 64;

/// One producer→consumer edge of the pipeline's call graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsumerEdge {
    /// Name of the consuming function.
    pub consumer: String,
    /// True when the producer is referenced **only** from the consumer's
    /// pure definition (not from any update stage). Compute levels inside a
    /// consumer's loop nest only enclose pure-definition call sites, so this
    /// bit gates `compute_at`.
    pub pure_only: bool,
}

/// Everything the legality predicate needs to know about one function.
#[derive(Debug, Clone)]
pub struct FuncInfo {
    /// The function's unique name.
    pub name: String,
    /// Pure argument names, innermost-first (as written: `x` then `y`).
    pub args: Vec<String>,
    /// Constant extent of each pure argument's realized region, when known.
    /// For the output function these are the requested output extents; for
    /// producers they are generally `None` (bounds are inferred
    /// symbolically), in which case extent-dependent checks are skipped —
    /// lowering pads producer allocations so split tails stay in bounds.
    pub known_extents: Vec<Option<i64>>,
    /// The function's schedule.
    pub schedule: FuncSchedule,
    /// True if the function has update (reduction) definitions.
    pub has_updates: bool,
    /// Direct consumers of this function.
    pub consumers: Vec<ConsumerEdge>,
}

/// A plain description of a pipeline: its functions, call graph, and output,
/// built by hand (as the fuzzer's generator does).
#[derive(Debug, Clone)]
pub struct PipelineInfo {
    /// Name of the output function.
    pub output: String,
    /// Every function, keyed by name.
    pub funcs: BTreeMap<String, FuncInfo>,
}

/// The extent of one final loop dimension, as the **lowered IR** will see
/// it. The distinction matters: the generator may know a dimension's extent
/// numerically (e.g. it chose the output size) while the compiler still
/// treats it as a runtime symbol — output extents are bound at realize time,
/// and producer regions are derived from them. Only split-*inner*
/// dimensions (and dims derived purely from them) carry literal-constant
/// extents in the IR, which is what vectorization and unrolling require.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DimExtent {
    /// A literal constant in the lowered IR: the dimension is the inner half
    /// of a split (extent = the factor), or the outer half of a split whose
    /// old dimension was itself `Const` (the ceil-division folds). Safe to
    /// vectorize or unroll.
    Const(i64),
    /// Symbolic in the lowered IR. The numeric value may still be known to
    /// the *generator* (output extents), which lets split factors be
    /// bounds-checked ahead of time.
    Symbolic(Option<i64>),
}

impl DimExtent {
    /// The numeric extent when known to the generator, whichever kind.
    pub fn known(self) -> Option<i64> {
        match self {
            DimExtent::Const(n) => Some(n),
            DimExtent::Symbolic(n) => n,
        }
    }

    /// True when the lowered IR extent is a provable constant — the
    /// precondition for vectorizing or unrolling the loop.
    pub fn is_lowering_const(self) -> bool {
        matches!(self, DimExtent::Const(_))
    }
}

/// Walks a schedule's splits, tracking the extent of every dimension — the
/// same bookkeeping the lowering pass performs — and returns the
/// [`DimExtent`] of each **final** loop dimension. Original arguments start
/// `Symbolic` even when their extent is numerically known: the compiler
/// binds `<func>.<dim>.extent` as a symbol (runtime-bound for the output),
/// so only split-derived constants survive into the IR.
///
/// # Errors
///
/// Fails if a split references a dimension that does not exist at its point
/// in the split chain, or if a split factor exceeds a known extent (the
/// compiler rejects that during lowering, and for output functions it
/// becomes a runtime assertion failure).
pub fn dim_extents(
    args: &[String],
    known_extents: &[Option<i64>],
    schedule: &FuncSchedule,
) -> Result<BTreeMap<String, DimExtent>> {
    let mut extents: BTreeMap<String, DimExtent> = args
        .iter()
        .cloned()
        .zip(known_extents.iter().map(|e| DimExtent::Symbolic(*e)))
        .collect();
    // Dims produced by a guard_with_if/predicate split: their loops are
    // duplicated into a main and a tail copy during lowering, so splitting
    // them again is rejected there — mirror that here.
    let mut partitioned: Vec<&str> = Vec::new();
    for split in &schedule.splits {
        if partitioned.contains(&split.old.as_str()) {
            return Err(ScheduleError::new(format!(
                "cannot split {:?}: it comes from a guard_with_if/predicate \
                 split, whose loops are partitioned into a main and a tail copy",
                split.old
            )));
        }
        let old = extents.remove(&split.old).ok_or_else(|| {
            ScheduleError::new(format!(
                "split of {:?} applies to no known dimension",
                split.old
            ))
        })?;
        if split.factor < 1 {
            return Err(ScheduleError::new(format!(
                "split of {:?} has factor {} < 1",
                split.old, split.factor
            )));
        }
        // Shift-inwards needs at least one full tile to shift into; the
        // tail-aware strategies partition or pad instead, so any extent is
        // fine for them.
        if split.tail == TailStrategy::ShiftInwards {
            if let Some(e) = old.known() {
                if e < split.factor {
                    return Err(ScheduleError::new(format!(
                        "split of {:?} by {} exceeds its constant extent {e} \
                         (use a tail strategy: guard_with_if, predicate, or round_up)",
                        split.old, split.factor
                    )));
                }
            }
        }
        let ceil = |e: i64| (e + split.factor - 1) / split.factor;
        let outer = match old {
            // The lowered outer extent is simplify(ceil(old/f)); it folds to
            // a literal exactly when the old extent was a literal.
            DimExtent::Const(e) => DimExtent::Const(ceil(e)),
            DimExtent::Symbolic(e) => DimExtent::Symbolic(e.map(ceil)),
        };
        extents.insert(split.outer.clone(), outer);
        extents.insert(split.inner.clone(), DimExtent::Const(split.factor));
        if matches!(
            split.tail,
            TailStrategy::GuardWithIf | TailStrategy::Predicate
        ) {
            partitioned.push(&split.outer);
            partitioned.push(&split.inner);
        }
    }
    Ok(extents)
}

/// Validates one function's schedule in depth: internal consistency
/// ([`FuncSchedule::validate`]), split/extent interaction, and the
/// constant-extent requirement of vectorized and unrolled loops.
///
/// # Errors
///
/// Fails on any violation, with the function named in the message.
pub fn validate_func(info: &FuncInfo) -> Result<()> {
    let fail = |msg: String| Err(ScheduleError::new(format!("{}: {msg}", info.name)));
    if info.args.len() != info.known_extents.len() {
        return fail(format!(
            "{} args but {} known extents",
            info.args.len(),
            info.known_extents.len()
        ));
    }
    info.schedule
        .validate()
        .map_err(|e| ScheduleError::new(format!("{}: {e}", info.name)))?;
    let extents = dim_extents(&info.args, &info.known_extents, &info.schedule)
        .map_err(|e| ScheduleError::new(format!("{}: {e}", info.name)))?;
    if info.schedule.compute_level.is_inline() {
        return Ok(()); // no loops; domain checks vacuous (validate() ruled out splits)
    }
    for dim in &info.schedule.dims {
        let Some(extent) = extents.get(&dim.name) else {
            return fail(format!(
                "dimension {:?} is neither an argument nor produced by a split",
                dim.name
            ));
        };
        match dim.kind {
            ForKind::Vectorized => match extent {
                DimExtent::Const(n) if (1..=MAX_VECTOR_LANES).contains(n) => {}
                DimExtent::Const(n) => {
                    return fail(format!(
                        "vectorized dimension {:?} has extent {n}, outside 1..={MAX_VECTOR_LANES}",
                        dim.name
                    ));
                }
                DimExtent::Symbolic(_) => {
                    return fail(format!(
                        "vectorized dimension {:?} has no constant extent in the lowered IR \
                         (extents are runtime-bound; split and vectorize the inner dimension)",
                        dim.name
                    ));
                }
            },
            ForKind::Unrolled => match extent {
                DimExtent::Const(n) if (1..=MAX_UNROLL).contains(n) => {}
                DimExtent::Const(n) => {
                    return fail(format!(
                        "unrolled dimension {:?} has extent {n}, outside 1..={MAX_UNROLL}",
                        dim.name
                    ));
                }
                DimExtent::Symbolic(_) => {
                    return fail(format!(
                        "unrolled dimension {:?} has no constant extent in the lowered IR \
                         (extents are runtime-bound; split and unroll the inner dimension)",
                        dim.name
                    ));
                }
            },
            _ => {}
        }
    }
    // Every dimension produced by the split chain must still be looped over
    // (a split's outer/inner names enter `dims` by construction through the
    // FuncSchedule API; a hand-built schedule could violate this).
    for name in extents.keys() {
        if !info.schedule.has_dim(name) {
            return fail(format!("dimension {name:?} has bounds but no loop"));
        }
    }
    // A partitioned split's tail copy covers the remainder by overriding
    // the inner loop (guard_with_if) or guarding the recombined variable
    // (predicate); both require the inner loop to stay nested inside the
    // partitioned outer loop — a reorder that hoists it outside is rejected
    // by lowering and so here too.
    for split in &info.schedule.splits {
        if !matches!(
            split.tail,
            TailStrategy::GuardWithIf | TailStrategy::Predicate
        ) {
            continue;
        }
        let (o, i) = (
            info.schedule.dim_index(&split.outer),
            info.schedule.dim_index(&split.inner),
        );
        if !matches!((o, i), (Some(o), Some(i)) if o < i) {
            return fail(format!(
                "{} split of {:?}: the inner loop {:?} must stay nested inside \
                 the outer loop {:?}; reordering it outside breaks the main/tail \
                 partition",
                split.tail, split.old, split.inner, split.outer
            ));
        }
        // A vectorized predicate tail masks every memory op under the guard
        // with a vector over the *inner* dim's lanes; a second vectorized
        // loop nested inside would give those ops a different lane count
        // than the mask. (Mirrors the lowering-time rejection.)
        if split.tail == TailStrategy::Predicate {
            let i = i.expect("checked above");
            let dims = &info.schedule.dims;
            if dims[i].kind == ForKind::Vectorized {
                if let Some(v) = dims[i + 1..].iter().find(|d| d.kind == ForKind::Vectorized) {
                    return fail(format!(
                        "predicate split of {:?}: its vectorized inner loop {:?} \
                         masks stores with {}-lane predicates, but the vectorized \
                         loop {:?} nested inside would give them a different lane \
                         count; vectorize one or the other",
                        split.old, split.inner, split.factor, v.name
                    ));
                }
            }
        }
    }
    Ok(())
}

impl PipelineInfo {
    fn func(&self, name: &str) -> Result<&FuncInfo> {
        self.funcs
            .get(name)
            .ok_or_else(|| ScheduleError::new(format!("unknown function {name:?}")))
    }

    /// The consumers a function's values ultimately flow to once inline
    /// functions are substituted away: an inline consumer is transparent —
    /// its call sites migrate into *its* consumers. Each returned edge's
    /// `pure_only` is the conjunction along the path (a call site that
    /// passes through an update stage anywhere is not enclosed by pure
    /// loops).
    pub fn effective_consumers(&self, name: &str) -> Result<Vec<ConsumerEdge>> {
        let mut out = Vec::new();
        // Inline chains are acyclic (the call graph is a DAG), so plain
        // recursion terminates; depth is bounded by pipeline depth.
        for edge in &self.func(name)?.consumers {
            let c = self.func(&edge.consumer)?;
            if c.schedule.compute_level.is_inline() {
                for inner in self.effective_consumers(&edge.consumer)? {
                    out.push(ConsumerEdge {
                        consumer: inner.consumer,
                        pure_only: edge.pure_only && inner.pure_only,
                    });
                }
            } else {
                out.push(edge.clone());
            }
        }
        Ok(out)
    }

    /// True when `producer` may legally be scheduled
    /// `compute_at(consumer, var)` under this pipeline's call graph — the
    /// conservative enclosure rule: every effective consumer is `consumer`
    /// itself, every call site is in its pure definition, `var` is a live
    /// loop dimension of `consumer`, and no vectorized/unrolled loop encloses
    /// it.
    pub fn compute_at_legal(&self, producer: &str, consumer: &str, var: &str) -> bool {
        self.check_compute_at(producer, consumer, var).is_ok()
    }

    fn check_compute_at(&self, producer: &str, consumer: &str, var: &str) -> Result<()> {
        let fail = |msg: String| {
            Err(ScheduleError::new(format!(
                "{producer} compute_at {consumer}.{var}: {msg}"
            )))
        };
        if producer == consumer {
            return fail("a function cannot be computed at its own loops".into());
        }
        let c = self.func(consumer)?;
        if c.schedule.compute_level.is_inline() {
            return fail("consumer is inlined and has no loops".into());
        }
        let Some(pos) = c.schedule.dim_index(var) else {
            return fail(format!(
                "{var:?} is not a loop dimension of {consumer} (split away or never existed?)"
            ));
        };
        // The injected realize/produce lands in the body of this loop; every
        // enclosing loop (and the loop itself) must still exist as a real
        // serial or parallel `for` once vectorization/unrolling runs.
        for dim in &c.schedule.dims[..=pos] {
            if !matches!(dim.kind, ForKind::Serial | ForKind::Parallel) {
                return fail(format!(
                    "loop {:?} enclosing the compute level is {:?}; producers cannot be \
                     realized inside vectorized or unrolled loops",
                    dim.name, dim.kind
                ));
            }
            // A guard_with_if/predicate split duplicates the partitioned
            // loop's body into a main and a tail copy; a compute level at or
            // inside that loop then names two places, and the injected
            // realization (placed at one) would not enclose the call sites
            // in the other.
            if let Some(s) = c.schedule.splits.iter().find(|s| {
                s.outer == dim.name
                    && matches!(s.tail, TailStrategy::GuardWithIf | TailStrategy::Predicate)
            }) {
                return fail(format!(
                    "loop {:?} enclosing the compute level is partitioned into a main \
                     and a tail copy by the {} split of {:?}; producers cannot be \
                     realized at or inside a partitioned loop",
                    dim.name, s.tail, s.old
                ));
            }
        }
        // Enclosure: the consumer's loop over `var` must contain every call
        // site. Conservatively: all effective consumers are `consumer`, via
        // pure-definition call sites only (update nests live outside the
        // pure loop nest).
        let effective = self.effective_consumers(producer)?;
        if effective.is_empty() {
            return fail("producer has no consumers".into());
        }
        for edge in &effective {
            if edge.consumer != consumer {
                return fail(format!(
                    "also consumed by {:?}, which {consumer}.{var} does not enclose",
                    edge.consumer
                ));
            }
            if !edge.pure_only {
                return fail(format!(
                    "called from an update stage of {consumer}, which the pure loop nest \
                     does not enclose"
                ));
            }
        }
        Ok(())
    }

    /// Validates the entire pipeline: every function locally
    /// ([`validate_func`]) plus the global rules — inline feasibility,
    /// `compute_at`/`store_at` targets and enclosure, and storage-coarser-
    /// than-compute across levels.
    ///
    /// # Errors
    ///
    /// Returns the first violation found, naming the function involved.
    pub fn validate(&self) -> Result<()> {
        let out = self.func(&self.output)?;
        if !out.schedule.compute_level.is_root() {
            return Err(ScheduleError::new(format!(
                "output function {:?} must be computed at root, not {}",
                self.output, out.schedule.compute_level
            )));
        }
        for (name, f) in &self.funcs {
            validate_func(f)?;
            let fail = |msg: String| Err(ScheduleError::new(format!("{name}: {msg}")));
            if name == &self.output {
                // RoundUp overruns the traversed domain past the required
                // region and relies on bounds inference padding the
                // allocation; the output buffer is caller-allocated and
                // exact, so the overhanging stores would land out of
                // bounds.
                if let Some(s) = f
                    .schedule
                    .splits
                    .iter()
                    .find(|s| s.tail == TailStrategy::RoundUp)
                {
                    return fail(format!(
                        "split of {:?} uses tail strategy round_up, which overruns the \
                         caller-allocated output buffer; use guard_with_if or predicate \
                         on the output function",
                        s.old
                    ));
                }
            }
            match &f.schedule.compute_level {
                LoopLevel::Inline => {
                    if name == &self.output {
                        return fail("the output function cannot be inlined".into());
                    }
                    if f.has_updates {
                        return fail("functions with update definitions cannot be inlined".into());
                    }
                }
                LoopLevel::Root => {}
                LoopLevel::At { func, var } => {
                    self.check_compute_at(name, func, var)?;
                    // A producer computed inside a consumer loop is realized
                    // over its per-iteration *footprint*, which can have a
                    // small constant extent (often 1). The compiler rejects
                    // any split whose factor overruns a constant region
                    // extent, and footprints are unknowable here without
                    // full bounds inference — so, conservatively, splits are
                    // only accepted on root-computed functions.
                    if !f.schedule.splits.is_empty() {
                        return fail(format!(
                            "computed at {func}.{var} with split dimensions; the region \
                             required at a compute level can have a constant per-iteration \
                             footprint smaller than a split factor, so splits are only \
                             legal on root-computed functions"
                        ));
                    }
                }
            }
            match (&f.schedule.compute_level, &f.schedule.store_level) {
                (_, LoopLevel::Root) | (_, LoopLevel::Inline) => {
                    // Root storage is always coarse enough; inline storage is
                    // only valid with inline compute, checked by validate().
                }
                (LoopLevel::At { func: cf, var: cv }, LoopLevel::At { func: sf, var: sv }) => {
                    if sf != cf {
                        return fail(format!(
                            "storage at {sf}.{sv} but computation at {cf}.{cv}: both levels \
                             must target the same consumer's loop nest"
                        ));
                    }
                    let c = self.func(cf)?;
                    let (Some(spos), Some(cpos)) =
                        (c.schedule.dim_index(sv), c.schedule.dim_index(cv))
                    else {
                        return fail(format!("store_at loop {sv:?} is not a dimension of {cf:?}"));
                    };
                    if spos > cpos {
                        return fail(format!(
                            "storage level {sf}.{sv} is finer than compute level {cf}.{cv}"
                        ));
                    }
                }
                (_, LoopLevel::At { func: sf, var: sv }) => {
                    return fail(format!(
                        "storage at {sf}.{sv} requires computation at a loop of {sf} too"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dim;

    fn xy_func(name: &str, extents: [Option<i64>; 2]) -> FuncInfo {
        FuncInfo {
            name: name.to_string(),
            args: vec!["x".to_string(), "y".to_string()],
            known_extents: extents.to_vec(),
            schedule: FuncSchedule::default_for_args(&["x".to_string(), "y".to_string()]),
            has_updates: false,
            consumers: Vec::new(),
        }
    }

    fn two_stage() -> PipelineInfo {
        let mut p = xy_func("p", [None, None]);
        p.consumers.push(ConsumerEdge {
            consumer: "out".to_string(),
            pure_only: true,
        });
        let out = xy_func("out", [Some(64), Some(48)]);
        PipelineInfo {
            output: "out".to_string(),
            funcs: BTreeMap::from([("p".to_string(), p), ("out".to_string(), out)]),
        }
    }

    #[test]
    fn default_schedules_are_legal() {
        assert!(two_stage().validate().is_ok());
    }

    #[test]
    fn dim_extents_track_splits() {
        let mut s = FuncSchedule::default_for_args(&["x".to_string(), "y".to_string()]);
        s.split("x", "xo", "xi", 8).unwrap();
        s.split("xo", "xoo", "xoi", 2).unwrap();
        let e = dim_extents(&["x".to_string(), "y".to_string()], &[Some(20), None], &s).unwrap();
        // Split inners carry literal factors into the IR; everything derived
        // from the original `x` stays symbolic, even though its value (20)
        // is known to the generator.
        assert_eq!(e["xi"], DimExtent::Const(8));
        assert_eq!(e["xoi"], DimExtent::Const(2));
        // ceil(20/8) = 3, then split by 2 -> outer ceil(3/2) = 2
        assert_eq!(e["xoo"], DimExtent::Symbolic(Some(2)));
        assert_eq!(e["y"], DimExtent::Symbolic(None));
        assert_eq!(e["xoo"].known(), Some(2));
        assert!(!e["xoo"].is_lowering_const());
    }

    #[test]
    fn re_split_inner_dims_stay_constant() {
        // xi has literal extent 8 in the IR; splitting it again keeps both
        // halves constant (the lowered ceil-division folds), so vectorizing
        // the re-split outer is legal.
        let mut s = FuncSchedule::default_for_args(&["x".to_string()]);
        s.split("x", "xo", "xi", 8).unwrap();
        s.split("xi", "xio", "xii", 2).unwrap();
        let e = dim_extents(&["x".to_string()], &[None], &s).unwrap();
        assert_eq!(e["xio"], DimExtent::Const(4));
        assert_eq!(e["xii"], DimExtent::Const(2));
        assert_eq!(e["xo"], DimExtent::Symbolic(None));
    }

    #[test]
    fn vectorize_known_output_extent_is_still_illegal() {
        // The generator knows the output is 64 wide, but the compiler binds
        // that extent at runtime — vectorizing the raw dimension (or the
        // outer half of a split of it) must be rejected even though the
        // numeric value is available. Minimized from fuzzer seed 1.
        let mut info = two_stage();
        let out = info.funcs.get_mut("out").unwrap();
        out.schedule.vectorize("x").unwrap();
        let err = info.validate().unwrap_err().to_string();
        assert!(
            err.contains("no constant extent in the lowered IR"),
            "{err}"
        );

        let mut info = two_stage();
        let out = info.funcs.get_mut("out").unwrap();
        out.schedule.split("x", "xo", "xi", 2).unwrap();
        out.schedule.vectorize("xo").unwrap();
        let err = info.validate().unwrap_err().to_string();
        assert!(
            err.contains("no constant extent in the lowered IR"),
            "{err}"
        );
    }

    #[test]
    fn split_beyond_known_extent_is_illegal() {
        let mut info = two_stage();
        let out = info.funcs.get_mut("out").unwrap();
        out.schedule.split("x", "xo", "xi", 128).unwrap();
        out.schedule.vectorize("xi").unwrap();
        let err = info.validate().unwrap_err().to_string();
        assert!(err.contains("exceeds its constant extent"), "{err}");
    }

    #[test]
    fn tail_strategies_relax_extent_checks() {
        // With a tail strategy, an output split larger than the known
        // extent is fine — the loop is partitioned or predicated.
        for tail in [TailStrategy::GuardWithIf, TailStrategy::Predicate] {
            let mut info = two_stage();
            let out = info.funcs.get_mut("out").unwrap();
            out.schedule
                .split_with_tail("x", "xo", "xi", 128, tail)
                .unwrap();
            assert!(info.validate().is_ok(), "{tail}");
        }
    }

    #[test]
    fn round_up_is_illegal_on_the_output() {
        let mut info = two_stage();
        let out = info.funcs.get_mut("out").unwrap();
        out.schedule
            .split_with_tail("x", "xo", "xi", 8, TailStrategy::RoundUp)
            .unwrap();
        let err = info.validate().unwrap_err().to_string();
        assert!(err.contains("round_up"), "{err}");
        assert!(err.contains("caller-allocated"), "{err}");

        // ...but fine on a producer, whose allocation the compiler pads.
        let mut info = two_stage();
        let p = info.funcs.get_mut("p").unwrap();
        p.schedule
            .split_with_tail("x", "xo", "xi", 8, TailStrategy::RoundUp)
            .unwrap();
        p.schedule.vectorize("xi").unwrap();
        assert!(info.validate().is_ok());
    }

    #[test]
    fn split_beyond_unknown_extent_is_legal() {
        // Producers have symbolic regions; lowering pads their allocations,
        // so a large split factor is fine there.
        let mut info = two_stage();
        let p = info.funcs.get_mut("p").unwrap();
        p.schedule.split("x", "xo", "xi", 128).unwrap();
        assert!(info.validate().is_ok());
    }

    #[test]
    fn vectorize_requires_constant_extent() {
        let mut info = two_stage();
        let p = info.funcs.get_mut("p").unwrap();
        p.schedule.vectorize("x").unwrap();
        let err = info.validate().unwrap_err().to_string();
        assert!(err.contains("no constant extent"), "{err}");

        // Splitting first makes it legal.
        let p = info.funcs.get_mut("p").unwrap();
        p.schedule.serial("x").unwrap();
        p.schedule.split("x", "xo", "xi", 8).unwrap();
        p.schedule.vectorize("xi").unwrap();
        assert!(info.validate().is_ok());
    }

    #[test]
    fn vectorize_lane_limit_is_enforced() {
        let mut info = two_stage();
        // Use the producer: its extent is symbolic, so the oversized split
        // itself is fine and the lane limit is what trips.
        let p = info.funcs.get_mut("p").unwrap();
        p.schedule
            .split("x", "xo", "xi", MAX_VECTOR_LANES + 1)
            .unwrap();
        p.schedule.vectorize("xi").unwrap();
        let err = info.validate().unwrap_err().to_string();
        assert!(err.contains("outside 1..="), "{err}");
    }

    #[test]
    fn unroll_requires_constant_extent_in_range() {
        let mut info = two_stage();
        let p = info.funcs.get_mut("p").unwrap();
        p.schedule.unroll("y").unwrap();
        assert!(info.validate().is_err());
        let p = info.funcs.get_mut("p").unwrap();
        p.schedule.serial("y").unwrap();
        p.schedule.split("y", "yo", "yi", 4).unwrap();
        p.schedule.unroll("yi").unwrap();
        assert!(info.validate().is_ok());
    }

    #[test]
    fn compute_at_happy_path_and_violations() {
        let mut info = two_stage();
        {
            let out = info.funcs.get_mut("out").unwrap();
            out.schedule.split("y", "yo", "yi", 8).unwrap();
        }
        assert!(info.compute_at_legal("p", "out", "yo"));
        assert!(info.compute_at_legal("p", "out", "x"));
        // Unknown/split-away dimension:
        assert!(!info.compute_at_legal("p", "out", "y"));
        assert!(!info.compute_at_legal("p", "out", "nope"));
        // Self-compute and unknown funcs:
        assert!(!info.compute_at_legal("p", "p", "x"));
        assert!(!info.compute_at_legal("out", "p", "x"));

        // Applying the legal one validates end to end.
        let p = info.funcs.get_mut("p").unwrap();
        p.schedule.compute_level = LoopLevel::at("out", "yo");
        p.schedule.store_level = LoopLevel::at("out", "yo");
        assert!(info.validate().is_ok());
    }

    #[test]
    fn compute_at_inside_vectorized_loop_is_illegal() {
        let mut info = two_stage();
        {
            let out = info.funcs.get_mut("out").unwrap();
            out.schedule.split("x", "xo", "xi", 8).unwrap();
            out.schedule.vectorize("xi").unwrap();
        }
        assert!(info.compute_at_legal("p", "out", "xo"));
        assert!(!info.compute_at_legal("p", "out", "xi"));
    }

    #[test]
    fn compute_at_update_call_sites_are_illegal() {
        let mut info = two_stage();
        info.funcs.get_mut("p").unwrap().consumers[0].pure_only = false;
        assert!(!info.compute_at_legal("p", "out", "x"));
    }

    #[test]
    fn compute_at_multiple_consumers_is_illegal() {
        let mut info = two_stage();
        let mid = {
            let mut m = xy_func("mid", [None, None]);
            m.consumers.push(ConsumerEdge {
                consumer: "out".to_string(),
                pure_only: true,
            });
            m
        };
        info.funcs.insert("mid".to_string(), mid);
        info.funcs
            .get_mut("p")
            .unwrap()
            .consumers
            .push(ConsumerEdge {
                consumer: "mid".to_string(),
                pure_only: true,
            });
        assert!(!info.compute_at_legal("p", "out", "x"));
        assert!(!info.compute_at_legal("p", "mid", "x"));
    }

    #[test]
    fn inline_consumers_are_transparent() {
        // p -> mid (inline) -> out: p's effective consumer is out.
        let mut info = two_stage();
        let mut mid = xy_func("mid", [None, None]);
        mid.schedule.compute_level = LoopLevel::Inline;
        mid.schedule.store_level = LoopLevel::Inline;
        mid.consumers.push(ConsumerEdge {
            consumer: "out".to_string(),
            pure_only: true,
        });
        info.funcs.insert("mid".to_string(), mid);
        info.funcs.get_mut("p").unwrap().consumers = vec![ConsumerEdge {
            consumer: "mid".to_string(),
            pure_only: true,
        }];
        let eff = info.effective_consumers("p").unwrap();
        assert_eq!(eff.len(), 1);
        assert_eq!(eff[0].consumer, "out");
        assert!(info.compute_at_legal("p", "out", "x"));
        assert!(!info.compute_at_legal("p", "mid", "x"));
    }

    #[test]
    fn inline_with_updates_is_illegal() {
        let mut info = two_stage();
        let p = info.funcs.get_mut("p").unwrap();
        p.has_updates = true;
        p.schedule.compute_level = LoopLevel::Inline;
        p.schedule.store_level = LoopLevel::Inline;
        let err = info.validate().unwrap_err().to_string();
        assert!(err.contains("cannot be inlined"), "{err}");
    }

    #[test]
    fn output_must_be_root() {
        let mut info = two_stage();
        let out = info.funcs.get_mut("out").unwrap();
        out.schedule.compute_level = LoopLevel::Inline;
        out.schedule.store_level = LoopLevel::Inline;
        assert!(info.validate().is_err());
    }

    #[test]
    fn store_at_must_be_coarser_and_same_consumer() {
        let mut info = two_stage();
        {
            let out = info.funcs.get_mut("out").unwrap();
            out.schedule.split("y", "yo", "yi", 8).unwrap();
        }
        let set = |info: &mut PipelineInfo, compute: LoopLevel, store: LoopLevel| {
            let p = info.funcs.get_mut("p").unwrap();
            p.schedule.compute_level = compute;
            p.schedule.store_level = store;
        };
        // store at the same level: fine
        set(
            &mut info,
            LoopLevel::at("out", "yi"),
            LoopLevel::at("out", "yi"),
        );
        assert!(info.validate().is_ok());
        // store coarser (outer loop): fine — the sliding-window shape
        set(
            &mut info,
            LoopLevel::at("out", "yi"),
            LoopLevel::at("out", "yo"),
        );
        assert!(info.validate().is_ok());
        set(&mut info, LoopLevel::at("out", "yi"), LoopLevel::Root);
        assert!(info.validate().is_ok());
        // store finer than compute: illegal
        set(
            &mut info,
            LoopLevel::at("out", "yo"),
            LoopLevel::at("out", "yi"),
        );
        assert!(info.validate().is_err());
        // storage in a different function's nest: illegal
        set(
            &mut info,
            LoopLevel::at("out", "yi"),
            LoopLevel::at("p", "x"),
        );
        assert!(info.validate().is_err());
    }

    #[test]
    fn hand_built_schedule_with_unbound_dim_is_rejected() {
        let mut info = two_stage();
        let p = info.funcs.get_mut("p").unwrap();
        p.schedule.dims.push(Dim {
            name: "ghost".to_string(),
            kind: ForKind::Serial,
        });
        let err = info.validate().unwrap_err().to_string();
        assert!(
            err.contains("neither an argument nor produced by a split"),
            "{err}"
        );
    }
}
