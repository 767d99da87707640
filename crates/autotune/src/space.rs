//! The schedule search space (Sec. 5): random schedule generation, the
//! "reasonable schedule" seeding heuristics, and an estimate of the size of
//! the space (the paper estimates ≥ 10^720 schedules for local Laplacian).

use std::collections::BTreeMap;

use halide_lang::Pipeline;
use halide_schedule::{FuncSchedule, LoopLevel};
use rand::rngs::StdRng;
use rand::Rng;

/// A candidate schedule for a whole pipeline: one [`FuncSchedule`] per
/// function, keyed by function name.
pub type Genome = BTreeMap<String, FuncSchedule>;

/// Block/split sizes the tuner samples from (small powers of two, as in the
/// paper).
pub const FACTORS: [i64; 6] = [2, 4, 8, 16, 32, 64];

/// Vector widths the tuner samples from.
pub const VECTOR_WIDTHS: [i64; 3] = [4, 8, 16];

/// Extracts the current (default or user-set) schedules of a pipeline.
pub fn current_genome(pipeline: &Pipeline) -> Genome {
    pipeline.funcs().map(|f| (f.name(), f.schedule())).collect()
}

/// Applies a genome to the pipeline's functions.
pub fn apply_genome(pipeline: &Pipeline, genome: &Genome) {
    for f in pipeline.funcs() {
        if let Some(s) = genome.get(&f.name()) {
            f.set_schedule(s.clone());
        }
    }
}

/// The breadth-first genome: every function computed and stored at root with
/// default loop order (the paper's always-valid starting point).
pub fn breadth_first_genome(pipeline: &Pipeline) -> Genome {
    pipeline
        .funcs()
        .map(|f| (f.name(), FuncSchedule::default_for_args(&f.args())))
        .collect()
}

fn pick<T: Copy>(rng: &mut StdRng, options: &[T]) -> T {
    options[rng.gen_range(0..options.len())]
}

/// "Fully parallelized and tiled" (pattern 2 of the paper's templates):
/// tiled over x/y, vectorized within the tile's inner x, parallel over the
/// outer y tile dimension.
pub fn fully_parallel_tiled(args: &[String], rng: &mut StdRng) -> FuncSchedule {
    let mut s = FuncSchedule::default_for_args(args);
    if args.len() >= 2 {
        let tx = pick(rng, &FACTORS[2..]);
        let ty = pick(rng, &FACTORS[1..4]);
        let x = &args[0];
        let y = &args[1];
        if s.tile(x, y, "xo", "yo", "xi", "yi", tx, ty).is_ok() {
            let _ = s.parallel("yo");
            let vw = pick(rng, &VECTOR_WIDTHS);
            if vw < tx && s.split("xi", "xio", "xii", vw).is_ok() {
                let _ = s.vectorize("xii");
            }
        }
    } else {
        let _ = s.parallel(&args[0]);
    }
    s
}

/// "Parallelized over y and vectorized over x" (pattern 3 of the templates).
pub fn parallel_y_vector_x(args: &[String], rng: &mut StdRng) -> FuncSchedule {
    let mut s = FuncSchedule::default_for_args(args);
    if args.len() >= 2 {
        let _ = s.parallel(&args[1]);
    }
    let vw = pick(rng, &VECTOR_WIDTHS);
    if s.split(&args[0], "xo", "xi", vw).is_ok() {
        let _ = s.vectorize("xi");
    }
    s
}

/// Generates a random schedule for one function, possibly placing its
/// computation inside one of its consumers.
pub fn random_schedule(
    pipeline: &Pipeline,
    func: &str,
    is_output: bool,
    rng: &mut StdRng,
) -> FuncSchedule {
    let f = pipeline
        .func(func)
        .expect("function belongs to the pipeline");
    let args = f.args();
    let has_updates = !f.updates().is_empty();

    // The tiled template is drawn with twice the weight of the others.
    let mut s = match rng.gen_range(0..4) {
        0 => FuncSchedule::default_for_args(&args),
        2 => parallel_y_vector_x(&args, rng),
        _ => fully_parallel_tiled(&args, rng),
    };

    if !is_output {
        // Call schedule: inline, root, or computed inside a consumer.
        let choice = rng.gen_range(0..4);
        if choice == 0 && !has_updates {
            s = FuncSchedule::default_for_args(&args);
            s.compute_level = LoopLevel::Inline;
            s.store_level = LoopLevel::Inline;
        } else if choice == 1 {
            let callers: Vec<String> = pipeline.callers(func).into_iter().collect();
            if let Some(caller) = callers.first() {
                let caller_dims: Vec<String> = pipeline
                    .func(caller)
                    .map(|c| c.schedule().dims.iter().map(|d| d.name.clone()).collect())
                    .unwrap_or_default();
                if !caller_dims.is_empty() {
                    let var = caller_dims[rng.gen_range(0..caller_dims.len())].clone();
                    s.compute_level = LoopLevel::at(caller.clone(), var.clone());
                    s.store_level = if rng.gen_bool(0.3) {
                        LoopLevel::Root
                    } else {
                        LoopLevel::at(caller.clone(), var)
                    };
                }
            }
        }
        // choice 2/3: leave at root.
    }
    s
}

/// A random genome: each function scheduled independently (used both for the
/// random-individual fraction of each generation and as a mutation).
pub fn random_genome(pipeline: &Pipeline, rng: &mut StdRng) -> Genome {
    let output = pipeline.output().name();
    pipeline
        .funcs()
        .map(|f| {
            let name = f.name();
            let s = random_schedule(pipeline, &name, name == output, rng);
            (name, s)
        })
        .collect()
}

/// The seeding heuristic: one weighted coin per genome, then every function
/// scheduled fully-parallel-tiled or parallel-y/vector-x by that coin. Every
/// function is computed and stored at root; nothing is inlined.
pub fn reasonable_genome(pipeline: &Pipeline, rng: &mut StdRng) -> Genome {
    let weight: f64 = rng.gen_range(0.0..1.0);
    pipeline
        .funcs()
        .map(|f| {
            let args = f.args();
            let s = if rng.gen_bool(weight.clamp(0.05, 0.95)) {
                fully_parallel_tiled(&args, rng)
            } else {
                parallel_y_vector_x(&args, rng)
            };
            (f.name(), s)
        })
        .collect()
}

/// A (conservative) estimate of the log10 size of the schedule space for a
/// pipeline, following the paper's counting argument (three tilings per
/// function times all store/compute granularities).
pub fn search_space_log10(pipeline: &Pipeline) -> f64 {
    let n = pipeline.len() as f64;
    // per function: ~3 tilings x (n+2) compute levels x (n+2) store levels
    let per_func = 3.0 * (n + 2.0) * (n + 2.0);
    n * per_func.log10()
}

#[cfg(test)]
mod tests {
    use super::*;
    use halide_ir::Type;
    use halide_lang::{Func, ImageParam, Var};
    use rand::SeedableRng;

    fn small_pipeline() -> Pipeline {
        let input = ImageParam::new("space_in", Type::f32(), 2);
        let (x, y) = (Var::new("x"), Var::new("y"));
        let a = Func::new("space_a");
        a.define(
            &[x.clone(), y.clone()],
            input.at_clamped(vec![x.expr(), y.expr()]) * 2.0f32,
        );
        let b = Func::new("space_b");
        b.define(
            &[x.clone(), y.clone()],
            a.at(vec![x.expr() - 1, y.expr()]) + a.at(vec![x.expr() + 1, y.expr()]),
        );
        Pipeline::new(&b)
    }

    #[test]
    fn genomes_cover_every_function_and_validate() {
        let p = small_pipeline();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let g = random_genome(&p, &mut rng);
            assert_eq!(g.len(), p.len());
            for s in g.values() {
                // local validity always holds; global validity is checked by lowering
                s.validate().unwrap();
            }
        }
        let seeded = reasonable_genome(&p, &mut rng);
        assert_eq!(seeded.len(), 2);
        let bf = breadth_first_genome(&p);
        assert!(bf.values().all(|s| s.compute_level.is_root()));
    }

    #[test]
    fn apply_and_read_back() {
        let p = small_pipeline();
        let mut rng = StdRng::seed_from_u64(7);
        let g = random_genome(&p, &mut rng);
        apply_genome(&p, &g);
        let back = current_genome(&p);
        assert_eq!(g, back);
    }

    #[test]
    fn space_estimate_grows_with_pipeline_size() {
        let p = small_pipeline();
        let small = search_space_log10(&p);
        assert!(small > 1.0);
        // The paper's local Laplacian estimate is astronomically larger; we
        // just require monotonic growth here (the bench binary prints the
        // actual number for the 99-stage pipeline).
        assert!(small < 1000.0);
    }

    #[test]
    fn templates_produce_expected_loop_kinds() {
        let mut rng = StdRng::seed_from_u64(3);
        let args = vec!["x".to_string(), "y".to_string()];
        let t = fully_parallel_tiled(&args, &mut rng);
        assert!(t
            .dims
            .iter()
            .any(|d| d.kind == halide_schedule::ForKind::Parallel));
        let v = parallel_y_vector_x(&args, &mut rng);
        assert!(v.validate().is_ok());
        assert!(v
            .dims
            .iter()
            .any(|d| d.kind == halide_schedule::ForKind::Vectorized));
    }
}
