//! # halide-autotune
//!
//! The stochastic schedule autotuner of Sec. 5 of the paper: a genetic
//! algorithm over whole-pipeline schedules, with elitism, tournament
//! selection, two-point crossover across functions, the paper's mutation
//! rules (randomize constants, replace, copy, add/remove/replace a domain
//! transformation, a loop-fusion rule, and template schedules), rejection of
//! invalid schedules, and verification of candidates against a reference
//! output.
//!
//! The caller supplies an *evaluator* that compiles and runs a scheduled
//! pipeline and reports its runtime (or `None` when the candidate is invalid
//! or produces wrong output); the tuner is agnostic to how pipelines are
//! executed.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod space;

use std::time::Duration;

use halide_lang::Pipeline;
use halide_schedule::LoopLevel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub use space::{
    apply_genome, breadth_first_genome, current_genome, random_genome, reasonable_genome,
    search_space_log10, Genome,
};

/// Configuration of the genetic search.
#[derive(Debug, Clone)]
pub struct TuneOptions {
    /// Individuals per generation (the paper uses 128).
    pub population: usize,
    /// Number of generations to run.
    pub generations: usize,
    /// How many of the best individuals survive unchanged.
    pub elitism: usize,
    /// Fraction of each new generation produced by crossover.
    pub crossover_fraction: f64,
    /// Fraction of each new generation produced by mutation.
    pub mutation_fraction: f64,
    /// RNG seed, for reproducible searches.
    pub seed: u64,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions {
            population: 32,
            generations: 10,
            elitism: 4,
            crossover_fraction: 0.4,
            mutation_fraction: 0.4,
            seed: 0x9e3779b9,
        }
    }
}

/// One entry of the convergence history.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenerationStat {
    /// Generation index (0 = initial population).
    pub generation: usize,
    /// Best runtime seen so far.
    pub best: Duration,
    /// Number of invalid/incorrect candidates rejected so far.
    pub rejected: usize,
    /// Number of candidates evaluated so far.
    pub evaluated: usize,
}

/// The outcome of a tuning run.
#[derive(Debug, Clone)]
pub struct TuneResult {
    /// The best schedule found.
    pub best: Genome,
    /// Its measured runtime.
    pub best_time: Duration,
    /// Convergence history, one entry per generation.
    pub history: Vec<GenerationStat>,
    /// Total candidates evaluated.
    pub evaluated: usize,
    /// Total candidates rejected (invalid schedule, failed run, or wrong output).
    pub rejected: usize,
}

/// The genetic-algorithm autotuner.
pub struct Autotuner {
    options: TuneOptions,
}

impl Autotuner {
    /// Creates a tuner with the given options.
    pub fn new(options: TuneOptions) -> Self {
        Autotuner { options }
    }

    /// Runs the search. `evaluate` is called with the pipeline after a
    /// candidate genome has been applied; it must compile, run, verify, and
    /// return the runtime, or `None` to reject the candidate.
    pub fn tune(
        &self,
        pipeline: &Pipeline,
        mut evaluate: impl FnMut(&Pipeline) -> Option<Duration>,
    ) -> TuneResult {
        let mut rng = StdRng::seed_from_u64(self.options.seed);
        let opts = &self.options;
        let mut evaluated = 0usize;
        let mut rejected = 0usize;

        let score = |genome: &Genome,
                     evaluated: &mut usize,
                     rejected: &mut usize,
                     evaluate: &mut dyn FnMut(&Pipeline) -> Option<Duration>|
         -> Option<Duration> {
            apply_genome(pipeline, genome);
            *evaluated += 1;
            match evaluate(pipeline) {
                Some(t) => Some(t),
                None => {
                    *rejected += 1;
                    None
                }
            }
        };

        // ---- initial population -------------------------------------------
        let mut population: Vec<(Genome, Duration)> = Vec::new();
        let breadth_first = breadth_first_genome(pipeline);
        if let Some(t) = score(&breadth_first, &mut evaluated, &mut rejected, &mut evaluate) {
            population.push((breadth_first, t));
        }
        let mut attempts = 0;
        while population.len() < opts.population && attempts < opts.population * 10 {
            attempts += 1;
            let genome = if rng.gen_bool(0.5) {
                reasonable_genome(pipeline, &mut rng)
            } else {
                random_genome(pipeline, &mut rng)
            };
            if let Some(t) = score(&genome, &mut evaluated, &mut rejected, &mut evaluate) {
                population.push((genome, t));
            }
        }
        assert!(
            !population.is_empty(),
            "the autotuner could not find any valid schedule (is the evaluator rejecting everything?)"
        );
        population.sort_by_key(|(_, t)| *t);

        let mut history = vec![GenerationStat {
            generation: 0,
            best: population[0].1,
            rejected,
            evaluated,
        }];

        // ---- generations ---------------------------------------------------
        for generation in 1..=opts.generations {
            let mut next: Vec<(Genome, Duration)> = Vec::new();
            // Elitism.
            next.extend(population.iter().take(opts.elitism).cloned());

            let mut guard = 0usize;
            while next.len() < opts.population && guard < opts.population * 20 {
                guard += 1;
                let roll: f64 = rng.gen();
                let candidate = if roll < opts.crossover_fraction && population.len() >= 2 {
                    let a = tournament(&population, &mut rng);
                    let b = tournament(&population, &mut rng);
                    crossover(&population[a].0, &population[b].0, &mut rng)
                } else if roll < opts.crossover_fraction + opts.mutation_fraction {
                    let a = tournament(&population, &mut rng);
                    self.mutate(pipeline, &population[a].0, &mut rng)
                } else if rng.gen_bool(0.5) {
                    reasonable_genome(pipeline, &mut rng)
                } else {
                    random_genome(pipeline, &mut rng)
                };
                if let Some(t) = score(&candidate, &mut evaluated, &mut rejected, &mut evaluate) {
                    next.push((candidate, t));
                }
            }
            if !next.is_empty() {
                population = next;
                population.sort_by_key(|(_, t)| *t);
            }
            history.push(GenerationStat {
                generation,
                best: population[0].1,
                rejected,
                evaluated,
            });
        }

        let (best, best_time) = population.swap_remove(0);
        apply_genome(pipeline, &best);
        TuneResult {
            best,
            best_time,
            history,
            evaluated,
            rejected,
        }
    }

    /// Applies one of the paper's mutation rules to a genome.
    fn mutate(&self, pipeline: &Pipeline, genome: &Genome, rng: &mut StdRng) -> Genome {
        let mut out = genome.clone();
        let names: Vec<String> = out.keys().cloned().collect();
        if names.is_empty() {
            return out;
        }
        let target = names[rng.gen_range(0..names.len())].clone();
        let output = pipeline.output().name();
        let is_output = target == output;
        let func = pipeline.func(&target).expect("genome matches pipeline");
        let args = func.args();

        match rng.gen_range(0..8) {
            // 1. randomize constants: re-roll every split factor
            0 => {
                if let Some(s) = out.get_mut(&target) {
                    let rebuilt = rebuild_with_new_factors(&args, s, rng);
                    *s = rebuilt;
                }
            }
            // 2. replace with a freshly random schedule
            1 => {
                let s = space::random_schedule(pipeline, &target, is_output, rng);
                out.insert(target, s);
            }
            // 3. copy another function's schedule
            2 => {
                let other = names[rng.gen_range(0..names.len())].clone();
                if other != target {
                    if let Some(s) = out.get(&other).cloned() {
                        // keep the call schedule legal for the output
                        let mut s = s;
                        if is_output {
                            s.compute_level = LoopLevel::Root;
                            s.store_level = LoopLevel::Root;
                        }
                        // only adopt it if the dimensions line up
                        let other_args =
                            pipeline.func(&other).map(|f| f.args()).unwrap_or_default();
                        if other_args == args {
                            out.insert(target, s);
                        }
                    }
                }
            }
            // 4.-6. add / remove / replace one domain transformation
            3 | 4 | 5 => {
                if let Some(s) = out.get_mut(&target) {
                    tweak_domain(&args, s, rng);
                }
            }
            // 7. the loop-fusion rule: fully tile this function and pull one
            //    of its producers to compute inside the tile
            6 => {
                let tiled = space::fully_parallel_tiled(&args, rng);
                out.insert(target.clone(), tiled);
                for callee in pipeline.callees(&target) {
                    if rng.gen_bool(0.5) {
                        if let Some(s) = out.get_mut(&callee) {
                            s.compute_level = LoopLevel::at(target.clone(), "xo");
                            s.store_level = LoopLevel::at(target.clone(), "xo");
                        }
                    }
                }
            }
            // 8. template schedules
            _ => {
                let s = match rng.gen_range(0..3) {
                    0 => space::parallel_y_vector_x(&args, rng),
                    1 => space::fully_parallel_tiled(&args, rng),
                    _ => halide_schedule::FuncSchedule::default_for_args(&args),
                };
                let mut s = s;
                if !is_output && rng.gen_bool(0.2) && func.updates().is_empty() {
                    s.compute_level = LoopLevel::Inline;
                    s.store_level = LoopLevel::Inline;
                    s = halide_schedule::FuncSchedule {
                        compute_level: LoopLevel::Inline,
                        store_level: LoopLevel::Inline,
                        ..halide_schedule::FuncSchedule::default_for_args(&args)
                    };
                }
                out.insert(target, s);
            }
        }
        out
    }
}

fn tournament(population: &[(Genome, Duration)], rng: &mut StdRng) -> usize {
    let a = rng.gen_range(0..population.len());
    let b = rng.gen_range(0..population.len());
    if population[a].1 <= population[b].1 {
        a
    } else {
        b
    }
}

/// Two-point crossover over the (sorted) list of function names.
fn crossover(a: &Genome, b: &Genome, rng: &mut StdRng) -> Genome {
    let names: Vec<&String> = a.keys().collect();
    if names.len() < 2 {
        return a.clone();
    }
    let mut p1 = rng.gen_range(0..names.len());
    let mut p2 = rng.gen_range(0..names.len());
    if p1 > p2 {
        std::mem::swap(&mut p1, &mut p2);
    }
    let mut out = a.clone();
    for (i, name) in names.iter().enumerate() {
        if i >= p1 && i < p2 {
            if let Some(s) = b.get(*name) {
                out.insert((*name).clone(), s.clone());
            }
        }
    }
    out
}

/// Re-rolls the constants of a schedule by rebuilding it with fresh factors
/// (schedules are small, so rebuilding is simpler than editing in place).
fn rebuild_with_new_factors(
    args: &[String],
    old: &halide_schedule::FuncSchedule,
    rng: &mut StdRng,
) -> halide_schedule::FuncSchedule {
    let mut s = if old.splits.is_empty() {
        old.clone()
    } else {
        space::fully_parallel_tiled(args, rng)
    };
    s.compute_level = old.compute_level.clone();
    s.store_level = old.store_level.clone();
    s
}

/// Adds, removes, or replaces one domain transformation.
fn tweak_domain(args: &[String], s: &mut halide_schedule::FuncSchedule, rng: &mut StdRng) {
    match rng.gen_range(0..3) {
        // add a split+vectorize of the innermost dimension
        0 => {
            let inner = s.dims.last().map(|d| d.name.clone());
            if let Some(inner) = inner {
                let w = space::VECTOR_WIDTHS[rng.gen_range(0..space::VECTOR_WIDTHS.len())];
                let outer_name = format!("{inner}_o");
                let inner_name = format!("{inner}_i");
                if s.split(&inner, &outer_name, &inner_name, w).is_ok() {
                    let _ = s.vectorize(&inner_name);
                }
            }
        }
        // remove all transformations (back to the default domain order)
        1 => {
            let mut fresh = halide_schedule::FuncSchedule::default_for_args(args);
            fresh.compute_level = s.compute_level.clone();
            fresh.store_level = s.store_level.clone();
            *s = fresh;
        }
        // toggle parallelism of the outermost loop
        _ => {
            if let Some(d) = s.dims.first().cloned() {
                let _ = if d.kind == halide_schedule::ForKind::Parallel {
                    s.serial(&d.name)
                } else {
                    s.parallel(&d.name)
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halide_ir::Type;
    use halide_lang::{Func, ImageParam, Var};

    fn blur_pipeline() -> (Pipeline, String) {
        let input = ImageParam::new("tune_in", Type::f32(), 2);
        let (x, y) = (Var::new("x"), Var::new("y"));
        let bx = Func::new("tune_blurx");
        bx.define(
            &[x.clone(), y.clone()],
            (input.at_clamped(vec![x.expr() - 1, y.expr()])
                + input.at_clamped(vec![x.expr(), y.expr()])
                + input.at_clamped(vec![x.expr() + 1, y.expr()]))
                / 3.0f32,
        );
        let out = Func::new("tune_out");
        out.define(
            &[x.clone(), y.clone()],
            (bx.at(vec![x.expr(), y.expr() - 1])
                + bx.at(vec![x.expr(), y.expr()])
                + bx.at(vec![x.expr(), y.expr() + 1]))
                / 3.0f32,
        );
        (Pipeline::new(&out), "tune_in".to_string())
    }

    fn evaluator(input_name: String) -> impl FnMut(&Pipeline) -> Option<Duration> {
        use halide_exec::Realizer;
        use halide_runtime::Buffer;
        let input = Buffer::from_fn_2d(halide_ir::ScalarType::Float(32), 64, 64, |x, y| {
            (x * 3 + y) as f64 * 0.01
        });
        let reference = std::cell::RefCell::new(None::<Buffer>);
        move |p: &Pipeline| {
            let module = halide_lower::lower(p).ok()?;
            let result = Realizer::new(&module)
                .input(input_name.clone(), input.clone())
                .threads(2)
                .instrument(false)
                .realize(&[64, 64])
                .ok()?;
            let mut cached = reference.borrow_mut();
            match cached.as_ref() {
                None => *cached = Some(result.output),
                Some(r) => {
                    if r.max_abs_diff(&result.output) > 1e-4 {
                        return None; // wrong output: reject
                    }
                }
            }
            Some(result.wall_time)
        }
    }

    #[test]
    fn tuning_blur_returns_a_valid_improving_schedule() {
        let (pipeline, input_name) = blur_pipeline();
        let tuner = Autotuner::new(TuneOptions {
            population: 8,
            generations: 3,
            elitism: 2,
            seed: 42,
            ..Default::default()
        });
        let result = tuner.tune(&pipeline, evaluator(input_name));
        assert_eq!(result.best.len(), 2);
        assert!(result.evaluated >= 8);
        assert_eq!(result.history.len(), 4);
        // best time never gets worse across generations
        for w in result.history.windows(2) {
            assert!(w[1].best <= w[0].best);
        }
        // the winning genome must still lower successfully
        apply_genome(&pipeline, &result.best);
        assert!(halide_lower::lower(&pipeline).is_ok());
    }

    #[test]
    fn crossover_and_mutation_preserve_genome_shape() {
        let (pipeline, _) = blur_pipeline();
        let mut rng = StdRng::seed_from_u64(9);
        let a = random_genome(&pipeline, &mut rng);
        let b = random_genome(&pipeline, &mut rng);
        let c = crossover(&a, &b, &mut rng);
        assert_eq!(c.len(), a.len());
        let tuner = Autotuner::new(TuneOptions::default());
        let m = tuner.mutate(&pipeline, &a, &mut rng);
        assert_eq!(m.len(), a.len());
    }

    #[test]
    fn rejection_is_counted() {
        let (pipeline, _) = blur_pipeline();
        let tuner = Autotuner::new(TuneOptions {
            population: 4,
            generations: 1,
            elitism: 1,
            seed: 7,
            ..Default::default()
        });
        // Reject every other candidate.
        let mut flip = false;
        let result = tuner.tune(&pipeline, move |_p| {
            flip = !flip;
            if flip {
                Some(Duration::from_millis(10))
            } else {
                None
            }
        });
        assert!(result.rejected > 0);
        assert!(result.evaluated > result.rejected);
    }
}
