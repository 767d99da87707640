//! The fuzzer's grammar: a [`FuzzCase`] is a plain-data description of a
//! multi-stage image pipeline (the algorithm) plus a list of scheduling
//! directives per stage (the schedule). Cases are pure data — no IR, no
//! `Func` handles — so they can be serialized into the regression corpus,
//! shrunk structurally, and rebuilt into live pipelines on demand
//! (see [`crate::build`]).
//!
//! Generation is seeded and deterministic: the same seed always yields the
//! same case. Schedules are **valid by construction**: every candidate
//! directive is committed only if the whole case is still admitted by
//! [`build::admit`] — that is, only if it still lowers. The compiler is the
//! one judge of a schedule; the generator keeps no rules of its own.

use halide_schedule::TailStrategy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::build;

/// Where a stage reads its data from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The pipeline's input image (reads are clamped to its bounds).
    Input,
    /// An earlier stage, by index.
    Stage(usize),
}

/// A point-wise operation applied to one source value. Constants are kept
/// as small integers so corpus files round-trip exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointOp {
    /// `src + k`
    AddC(i32),
    /// `src * k`
    MulC(i32),
    /// `select(src > k, src * 2, src + 1)` — exercises compare + select.
    Threshold(i32),
    /// `min(max(src, -k), k)` — exercises min/max chains.
    ClampC(i32),
    /// `abs(src - k)`
    AbsDiff(i32),
}

/// How a two-source stage combines its operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CombineOp {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// `min(a, b)`
    Min,
    /// `max(a, b)`
    Max,
}

/// One stage's algorithm. Every stage is a 2-D `f32` function over `(x, y)`.
#[derive(Debug, Clone, PartialEq)]
pub enum StageOp {
    /// A point-wise map over one source.
    Point {
        /// The value read at `(x, y)`.
        src: Source,
        /// The operation applied to it.
        op: PointOp,
    },
    /// A small stencil: `sum(w * src(x+dx, y+dy)) / div`.
    Stencil {
        /// The source the taps read from.
        src: Source,
        /// `(dx, dy, weight)` taps.
        taps: Vec<(i64, i64, i32)>,
        /// Integer divisor applied to the weighted sum (>= 1).
        div: i32,
    },
    /// A point-wise combination of two sources.
    Combine {
        /// Left operand source.
        a: Source,
        /// Right operand source.
        b: Source,
        /// The combining operation.
        op: CombineOp,
    },
    /// A windowed box reduction over an `rx × ry` RDom:
    /// `f(x,y) = 0; f(x,y) += src(x + r.x, y + r.y)`.
    /// The source is read from the update stage, so it can never be
    /// `compute_at` this stage (lowering rejects it).
    Reduce {
        /// The source the window reads.
        src: Source,
        /// Window width (>= 1).
        rx: i64,
        /// Window height (>= 1).
        ry: i64,
    },
    /// A cumulative scan along x over `extent` steps:
    /// `f(x,y) = src(x,y); f(r+1,y) += f(r,y)`. Self-referential update;
    /// the source is read only from the pure definition.
    Scan {
        /// The source of the initial values.
        src: Source,
        /// Number of scan steps (the RDom extent, >= 1).
        extent: i64,
    },
}

impl StageOp {
    /// The sources this op reads (deduplicated order preserved).
    pub fn sources(&self) -> Vec<Source> {
        match self {
            StageOp::Point { src, .. }
            | StageOp::Stencil { src, .. }
            | StageOp::Reduce { src, .. }
            | StageOp::Scan { src, .. } => vec![*src],
            StageOp::Combine { a, b, .. } => {
                if a == b {
                    vec![*a]
                } else {
                    vec![*a, *b]
                }
            }
        }
    }

    /// True for ops defined with an update stage (reductions/scans).
    pub fn has_updates(&self) -> bool {
        matches!(self, StageOp::Reduce { .. } | StageOp::Scan { .. })
    }

    /// A short tag for stats histograms.
    pub fn tag(&self) -> &'static str {
        match self {
            StageOp::Point { .. } => "point",
            StageOp::Stencil { .. } => "stencil",
            StageOp::Combine { .. } => "combine",
            StageOp::Reduce { .. } => "reduce",
            StageOp::Scan { .. } => "scan",
        }
    }
}

/// One scheduling directive, applied in order to a stage's schedule.
/// Split names are derived (`{dim}_o` / `{dim}_i`), so a directive list is
/// self-contained.
#[derive(Debug, Clone, PartialEq)]
pub enum Directive {
    /// Split `dim` into `{dim}_o` (outer) and `{dim}_i` (inner).
    Split {
        /// The dimension to split (must exist at this point in the list).
        dim: String,
        /// The split factor.
        factor: i64,
        /// How the split covers an extent the factor does not divide.
        tail: TailStrategy,
    },
    /// Reorder (a subset of) the dims, outermost first.
    Reorder(Vec<String>),
    /// Mark a dim parallel.
    Parallel(String),
    /// Mark a dim vectorized.
    Vectorize(String),
    /// Mark a dim unrolled.
    Unroll(String),
    /// Compute this stage at loop `dim` of `consumer` (a stage index).
    ComputeAt {
        /// The consumer stage's index.
        consumer: usize,
        /// The loop dimension of the consumer to compute at.
        dim: String,
    },
    /// Inline this stage into its consumers.
    ComputeInline,
    /// Hoist storage to root while keeping the compute level (sliding
    /// window). Only meaningful after a `ComputeAt`.
    StoreRoot,
    /// A `Split`, `Parallel` or `Vectorize` of the stage's update
    /// definition (reduce/scan stages only), over its pure `x`/`y` and its
    /// reduction variables `r{i}.x`/`r{i}.y`.
    Update(Box<Directive>),
}

impl Directive {
    /// A short tag for stats histograms.
    pub fn tag(&self) -> &'static str {
        match self {
            Directive::Split { .. } => "split",
            Directive::Reorder(_) => "reorder",
            Directive::Parallel(_) => "parallel",
            Directive::Vectorize(_) => "vectorize",
            Directive::Unroll(_) => "unroll",
            Directive::ComputeAt { .. } => "compute_at",
            Directive::ComputeInline => "compute_inline",
            Directive::StoreRoot => "store_root",
            Directive::Update(d) => match **d {
                Directive::Split { .. } => "update_split",
                Directive::Parallel(_) => "update_parallel",
                Directive::Vectorize(_) => "update_vectorize",
                _ => "update",
            },
        }
    }
}

/// One pipeline stage: its algorithm and its schedule directives.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// What the stage computes.
    pub op: StageOp,
    /// How it is scheduled (applied in order).
    pub directives: Vec<Directive>,
}

/// A complete, self-contained fuzz case. The last stage is the output.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzCase {
    /// The seed that generated this case (0 for hand-written/shrunk cases).
    pub seed: u64,
    /// Output width (innermost extent).
    pub width: i64,
    /// Output height.
    pub height: i64,
    /// Worker threads to realize with.
    pub threads: usize,
    /// The stages, producers-first; `stages.last()` is the output.
    pub stages: Vec<Stage>,
}

/// Extents the fuzzer draws output sizes from: deliberately heavy on odd,
/// prime, and sub-vector sizes so split/vectorize tail paths are the common
/// case, not the exception.
pub const EXTENT_CHOICES: [i64; 14] = [1, 2, 3, 4, 5, 7, 8, 9, 13, 16, 17, 24, 31, 33];

/// Split factors the generator proposes (admission filters per-case).
const FACTOR_CHOICES: [i64; 8] = [2, 3, 4, 5, 8, 16, 32, 64];

fn pick<T: Copy>(rng: &mut StdRng, xs: &[T]) -> T {
    xs[rng.gen_range(0..xs.len())]
}

fn gen_source(rng: &mut StdRng, stage: usize) -> Source {
    if stage == 0 || rng.gen_bool(0.3) {
        Source::Input
    } else {
        Source::Stage(rng.gen_range(0..stage))
    }
}

fn gen_point_op(rng: &mut StdRng) -> PointOp {
    let k = rng.gen_range(-4i32..5);
    match rng.gen_range(0u8..5) {
        0 => PointOp::AddC(k),
        1 => PointOp::MulC(k),
        2 => PointOp::Threshold(k),
        3 => PointOp::ClampC(k.abs() + 1),
        _ => PointOp::AbsDiff(k),
    }
}

fn gen_stage_op(rng: &mut StdRng, stage: usize, is_output: bool, width: i64) -> StageOp {
    // Update-stage ops only at the output: a producer's realized region is
    // inferred from its consumers' *reads*, so update writes at fixed
    // coordinates can only be guaranteed in bounds for the output, whose
    // region is exactly the requested extents ([`crate::build`] enforces
    // this invariant too).
    let roll = if is_output {
        rng.gen_range(0u8..10)
    } else {
        rng.gen_range(0u8..9)
    };
    match roll {
        0..=3 => StageOp::Point {
            src: gen_source(rng, stage),
            op: gen_point_op(rng),
        },
        4..=6 => {
            let n = rng.gen_range(2usize..5);
            let taps = (0..n)
                .map(|_| {
                    (
                        rng.gen_range(-2i64..3),
                        rng.gen_range(-2i64..3),
                        rng.gen_range(-3i32..4),
                    )
                })
                .collect();
            StageOp::Stencil {
                src: gen_source(rng, stage),
                taps,
                div: rng.gen_range(1i32..5),
            }
        }
        7..=8 => StageOp::Combine {
            a: gen_source(rng, stage),
            b: gen_source(rng, stage),
            op: match rng.gen_range(0u8..5) {
                0 => CombineOp::Add,
                1 => CombineOp::Sub,
                2 => CombineOp::Mul,
                3 => CombineOp::Min,
                _ => CombineOp::Max,
            },
        },
        _ => {
            if width >= 2 && rng.gen_bool(0.4) {
                StageOp::Scan {
                    src: gen_source(rng, stage),
                    extent: rng.gen_range(1i64..width.min(9)),
                }
            } else {
                StageOp::Reduce {
                    src: gen_source(rng, stage),
                    rx: rng.gen_range(1i64..4),
                    ry: rng.gen_range(1i64..4),
                }
            }
        }
    }
}

/// Drops stages unreachable from the output and remaps stage indices in
/// sources and `ComputeAt` directives. Directives referencing a dropped
/// consumer are removed.
pub fn prune_unreachable(case: &mut FuzzCase) {
    let n = case.stages.len();
    if n == 0 {
        return;
    }
    let mut reachable = vec![false; n];
    let mut stack = vec![n - 1];
    while let Some(i) = stack.pop() {
        if std::mem::replace(&mut reachable[i], true) {
            continue;
        }
        for s in case.stages[i].op.sources() {
            if let Source::Stage(j) = s {
                stack.push(j);
            }
        }
    }
    if reachable.iter().all(|r| *r) {
        return;
    }
    let mut remap = vec![usize::MAX; n];
    let mut next = 0usize;
    for (i, r) in reachable.iter().enumerate() {
        if *r {
            remap[i] = next;
            next += 1;
        }
    }
    let remap_src = |s: &mut Source| {
        if let Source::Stage(j) = s {
            *j = remap[*j];
        }
    };
    let mut stages = Vec::with_capacity(next);
    for (i, mut stage) in std::mem::take(&mut case.stages).into_iter().enumerate() {
        if !reachable[i] {
            continue;
        }
        match &mut stage.op {
            StageOp::Point { src, .. }
            | StageOp::Stencil { src, .. }
            | StageOp::Reduce { src, .. }
            | StageOp::Scan { src, .. } => remap_src(src),
            StageOp::Combine { a, b, .. } => {
                remap_src(a);
                remap_src(b);
            }
        }
        stage.directives.retain_mut(|d| {
            if let Directive::ComputeAt { consumer, .. } = d {
                if !reachable[*consumer] {
                    return false;
                }
                *consumer = remap[*consumer];
            }
            true
        });
        stages.push(stage);
    }
    case.stages = stages;
}

/// Tentatively appends `directive` to stage `stage`, keeping it only if the
/// whole case is still admitted (it lowers). Returns whether it was kept.
fn try_directive(case: &mut FuzzCase, stage: usize, directive: Directive) -> bool {
    case.stages[stage].directives.push(directive);
    if build::admit(case).is_ok() {
        true
    } else {
        case.stages[stage].directives.pop();
        false
    }
}

/// Current loop dims of a stage under its directives so far (for picking
/// directive targets). Falls back to the default dims if the directive list
/// is somehow inapplicable (admission makes that unreachable).
fn current_dims(case: &FuzzCase, stage: usize) -> Vec<String> {
    build::stage_schedules(case)
        .ok()
        .and_then(|s| s.into_iter().nth(stage))
        .map(|s| s.dims.iter().map(|d| d.name.clone()).collect())
        .unwrap_or_else(|| vec!["y".to_string(), "x".to_string()])
}

fn gen_directives(rng: &mut StdRng, case: &mut FuzzCase, stage: usize) {
    // Domain-order directives.
    let n_domain = rng.gen_range(0usize..4);
    for _ in 0..n_domain {
        let dims = current_dims(case, stage);
        let dim = dims[rng.gen_range(0..dims.len())].clone();
        let d = match rng.gen_range(0u8..6) {
            0..=1 => {
                let inner = format!("{dim}_i");
                // Extents are odd-biased, so most splits do not divide; half
                // of them draw an explicit tail strategy and exercise the
                // partitioned/predicated lowering paths (lowering rejects
                // round_up on the output and re-splits of partitioned dims).
                let tail = match rng.gen_range(0u8..6) {
                    0..=2 => TailStrategy::ShiftInwards,
                    3 => TailStrategy::GuardWithIf,
                    4 => TailStrategy::Predicate,
                    _ => TailStrategy::RoundUp,
                };
                let split = Directive::Split {
                    dim,
                    factor: pick(rng, &FACTOR_CHOICES),
                    tail,
                };
                // Only split-inner dims have lowering-constant extents, so a
                // fresh split is the one reliable chance to vectorize or
                // unroll — take it often, while it is the innermost loop.
                if try_directive(case, stage, split) && rng.gen_bool(0.5) {
                    let d = if rng.gen_bool(0.7) {
                        Directive::Vectorize(inner)
                    } else {
                        Directive::Unroll(inner)
                    };
                    try_directive(case, stage, d);
                }
                continue;
            }
            2 => {
                if dims.len() < 2 {
                    continue;
                }
                let mut order = dims.clone();
                let i = rng.gen_range(0..order.len());
                let j = rng.gen_range(0..order.len());
                order.swap(i, j);
                Directive::Reorder(order)
            }
            3 => Directive::Parallel(dim),
            4 => Directive::Vectorize(dim),
            _ => Directive::Unroll(dim),
        };
        try_directive(case, stage, d);
    }
    if case.stages[stage].op.has_updates() {
        gen_update_directives(rng, case, stage);
    }
    // Call-schedule directive (non-output stages only; the output must stay
    // at root).
    let is_output = stage + 1 == case.stages.len();
    if !is_output {
        let roll: f64 = rng.gen_range(0.0..1.0);
        if roll < 0.2 {
            try_directive(case, stage, Directive::ComputeInline);
        } else if roll < 0.55 {
            // Pick a random later stage and one of its current dims.
            let consumer = rng.gen_range(stage + 1..case.stages.len());
            let dims = current_dims(case, consumer);
            let dim = dims[rng.gen_range(0..dims.len())].clone();
            if try_directive(case, stage, Directive::ComputeAt { consumer, dim })
                && rng.gen_bool(0.3)
            {
                try_directive(case, stage, Directive::StoreRoot);
            }
        }
    }
}

/// Update-stage directives for a reduce/scan stage: parallelize or
/// vectorize a pure loop of its update (lowering admits it only where the
/// update's points are independent, and a vector only over a constant
/// extent, so mostly the inner half of a fresh guarded split), or split a
/// reduction variable, whose tail is then guarded.
fn gen_update_directives(rng: &mut StdRng, case: &mut FuzzCase, stage: usize) {
    for _ in 0..rng.gen_range(0usize..4) {
        let dims = build::update_dims(case, stage);
        let (rvars, pure): (Vec<String>, Vec<String>) =
            dims.into_iter().partition(|d| d.starts_with('r'));
        let update = |d| Directive::Update(Box::new(d));
        match rng.gen_range(0u8..4) {
            0 if !pure.is_empty() => {
                let dim = pure[rng.gen_range(0..pure.len())].clone();
                let inner = format!("{dim}_i");
                let tail = if rng.gen_bool(0.5) {
                    TailStrategy::GuardWithIf
                } else {
                    TailStrategy::Predicate
                };
                let split = update(Directive::Split {
                    dim,
                    factor: pick(rng, &FACTOR_CHOICES),
                    tail,
                });
                if try_directive(case, stage, split) && rng.gen_bool(0.7) {
                    try_directive(case, stage, update(Directive::Vectorize(inner)));
                }
            }
            1 if !pure.is_empty() => {
                let dim = pure[rng.gen_range(0..pure.len())].clone();
                try_directive(case, stage, update(Directive::Parallel(dim)));
            }
            2 if !pure.is_empty() => {
                let dim = pure[rng.gen_range(0..pure.len())].clone();
                try_directive(case, stage, update(Directive::Vectorize(dim)));
            }
            3 if !rvars.is_empty() => {
                let split = update(Directive::Split {
                    dim: rvars[rng.gen_range(0..rvars.len())].clone(),
                    factor: pick(rng, &FACTOR_CHOICES[..4]),
                    tail: TailStrategy::GuardWithIf,
                });
                try_directive(case, stage, split);
            }
            _ => {}
        }
    }
}

/// Generates the case for `seed`: a random DAG of 1–5 stages over odd-biased
/// extents, then (consumers first, so `ComputeAt` targets see final loop
/// nests) a random legal directive list per stage. The result is always
/// admitted by [`build::admit`].
pub fn generate(seed: u64) -> FuzzCase {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
    let width = pick(&mut rng, &EXTENT_CHOICES);
    let height = pick(&mut rng, &EXTENT_CHOICES);
    let n_stages = rng.gen_range(1usize..6);
    let mut case = FuzzCase {
        seed,
        width,
        height,
        threads: rng.gen_range(1usize..4),
        stages: (0..n_stages)
            .map(|i| Stage {
                op: gen_stage_op(&mut rng, i, i + 1 == n_stages, width),
                directives: Vec::new(),
            })
            .collect(),
    };
    prune_unreachable(&mut case);
    for stage in (0..case.stages.len()).rev() {
        gen_directives(&mut rng, &mut case, stage);
    }
    debug_assert!(build::admit(&case).is_ok());
    case
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 42, 1234] {
            assert_eq!(generate(seed), generate(seed));
        }
    }

    #[test]
    fn generated_cases_are_valid_by_construction() {
        for seed in 0..200u64 {
            let case = generate(seed);
            assert!(!case.stages.is_empty());
            build::admit(&case)
                .unwrap_or_else(|e| panic!("seed {seed} generated an inadmissible case: {e}"));
        }
    }

    #[test]
    fn generation_covers_the_grammar() {
        use std::collections::BTreeSet;
        let mut ops = BTreeSet::new();
        let mut dirs = BTreeSet::new();
        for seed in 0..300u64 {
            let case = generate(seed);
            for s in &case.stages {
                ops.insert(s.op.tag());
                for d in &s.directives {
                    dirs.insert(d.tag());
                }
            }
        }
        for op in ["point", "stencil", "combine", "reduce", "scan"] {
            assert!(ops.contains(op), "no generated case used op {op:?}");
        }
        for d in [
            "split",
            "reorder",
            "parallel",
            "vectorize",
            "unroll",
            "compute_at",
            "compute_inline",
            "update_split",
            "update_parallel",
            "update_vectorize",
        ] {
            assert!(dirs.contains(d), "no generated case used directive {d:?}");
        }
    }

    #[test]
    fn prune_drops_dead_stages_and_remaps() {
        let mut case = FuzzCase {
            seed: 0,
            width: 8,
            height: 8,
            threads: 1,
            stages: vec![
                Stage {
                    op: StageOp::Point {
                        src: Source::Input,
                        op: PointOp::AddC(1),
                    },
                    directives: vec![],
                },
                // dead
                Stage {
                    op: StageOp::Point {
                        src: Source::Stage(0),
                        op: PointOp::MulC(2),
                    },
                    directives: vec![],
                },
                Stage {
                    op: StageOp::Point {
                        src: Source::Stage(0),
                        op: PointOp::AddC(3),
                    },
                    directives: vec![Directive::ComputeAt {
                        consumer: 1,
                        dim: "y".to_string(),
                    }],
                },
            ],
        };
        prune_unreachable(&mut case);
        assert_eq!(case.stages.len(), 2);
        assert_eq!(
            case.stages[1].op,
            StageOp::Point {
                src: Source::Stage(0),
                op: PointOp::AddC(3),
            }
        );
        // The ComputeAt referenced the dropped stage and is gone.
        assert!(case.stages[1].directives.is_empty());
    }
}
