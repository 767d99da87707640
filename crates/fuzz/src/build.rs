//! Turning a plain-data [`FuzzCase`] into things that run, and deciding
//! which cases the fuzzer runs at all.
//!
//! [`admit`] is the one admission check, shared by generation, shrinking
//! and replay: a structural check of the case, one rule about the request
//! ([`check_request`]), then `halide_lower::lower` itself. The fuzzer keeps
//! no copy of the compiler's schedule rules — a schedule is legal exactly
//! when it lowers, so the generator explores every schedule users can write.
//!
//! Everything here is deterministic in the case.

use halide_ir::{Expr, ForKind, Type};
use halide_lang::{Func, ImageParam, Pipeline, RDom, Var};
use halide_lower::Module;
use halide_schedule::{
    FuncSchedule, LoopLevel, Result, ScheduleError, StageSchedule, TailStrategy,
};

use crate::grammar::{CombineOp, Directive, FuzzCase, PointOp, Source, StageOp};

/// The name of stage `i`'s `Func`.
pub fn stage_name(i: usize) -> String {
    format!("fz{i}")
}

/// Name of the input image bound at realization time.
pub const INPUT_NAME: &str = "fuzz_in";

/// Applies a stage's directive list to a schedule. The generator's view of
/// a stage's loops ([`stage_schedules`]) and the built pipeline both apply
/// directives through this one function.
///
/// # Errors
///
/// Fails if a directive is inapplicable (unknown dim, bad reorder, ...).
pub fn apply_directives(schedule: &mut FuncSchedule, directives: &[Directive]) -> Result<()> {
    for d in directives {
        match d {
            Directive::Split { dim, factor, tail } => {
                schedule.split_with_tail(
                    dim,
                    format!("{dim}_o"),
                    format!("{dim}_i"),
                    *factor,
                    *tail,
                )?;
            }
            Directive::Reorder(dims) => {
                let refs: Vec<&str> = dims.iter().map(String::as_str).collect();
                schedule.reorder(&refs)?;
            }
            Directive::Parallel(dim) => schedule.parallel(dim)?,
            Directive::Vectorize(dim) => schedule.vectorize(dim)?,
            Directive::Unroll(dim) => schedule.unroll(dim)?,
            Directive::ComputeAt { consumer, dim } => {
                let level = LoopLevel::at(stage_name(*consumer), dim.clone());
                schedule.compute_level = level.clone();
                // Mirror `Func::compute_at`: storage follows unless a coarser
                // level was already requested.
                if schedule.store_level.is_root() || schedule.store_level.is_inline() {
                    schedule.store_level = level;
                }
            }
            Directive::ComputeInline => {
                schedule.compute_level = LoopLevel::Inline;
                schedule.store_level = LoopLevel::Inline;
            }
            Directive::StoreRoot => schedule.store_level = LoopLevel::Root,
            Directive::Update(_) => {}
        }
    }
    Ok(())
}

/// The schedule of every stage after applying its directives.
///
/// # Errors
///
/// Fails on the first inapplicable directive.
pub fn stage_schedules(case: &FuzzCase) -> Result<Vec<FuncSchedule>> {
    case.stages
        .iter()
        .enumerate()
        .map(|(i, stage)| {
            let mut s = FuncSchedule::default_for_args(&["x".to_string(), "y".to_string()]);
            apply_directives(&mut s, &stage.directives)
                .map_err(|e| ScheduleError::new(format!("stage {i}: {e}")))?;
            Ok(s)
        })
        .collect()
}

/// The default schedule of stage `stage`'s update definition, as
/// [`build_pipeline`] defines it, or `None` for a stage without one.
fn default_update_schedule(case: &FuzzCase, stage: usize) -> Option<StageSchedule> {
    let r = format!("r{stage}");
    let (pure, rvars) = match case.stages[stage].op {
        StageOp::Reduce { .. } => (vec!["x", "y"], vec![format!("{r}.x"), format!("{r}.y")]),
        StageOp::Scan { .. } => (vec!["y"], vec![format!("{r}.x")]),
        _ => return None,
    };
    let pure: Vec<String> = pure.into_iter().map(String::from).collect();
    Some(StageSchedule::default_for(&pure, &rvars))
}

/// Applies a stage's `Update` directives to its update's schedule.
///
/// # Errors
///
/// Fails if a directive is inapplicable, or the stage has no update.
fn apply_update_directives(
    schedule: Option<&mut StageSchedule>,
    directives: &[Directive],
) -> Result<()> {
    let mut updates = directives.iter().filter_map(|d| match d {
        Directive::Update(d) => Some(&**d),
        _ => None,
    });
    let Some(schedule) = schedule else {
        return match updates.next() {
            Some(_) => Err(ScheduleError::new("the stage has no update definition")),
            None => Ok(()),
        };
    };
    for d in updates {
        match d {
            Directive::Split { dim, factor, tail } => schedule.split_with_tail(
                dim,
                format!("{dim}_o"),
                format!("{dim}_i"),
                *factor,
                *tail,
            )?,
            Directive::Parallel(dim) => schedule.set_kind(dim, ForKind::Parallel)?,
            Directive::Vectorize(dim) => schedule.set_kind(dim, ForKind::Vectorized)?,
            other => {
                return Err(ScheduleError::new(format!(
                    "{} is not an update-stage directive",
                    other.tag()
                )))
            }
        }
    }
    Ok(())
}

/// The current loop dims of stage `stage`'s update definition under its
/// `Update` directives so far (empty for a stage without one).
pub fn update_dims(case: &FuzzCase, stage: usize) -> Vec<String> {
    let mut schedule = default_update_schedule(case, stage);
    match apply_update_directives(schedule.as_mut(), &case.stages[stage].directives) {
        Ok(()) => schedule
            .map(|s| s.dims.into_iter().map(|d| d.name).collect())
            .unwrap_or_default(),
        Err(_) => Vec::new(),
    }
}

/// Structural sanity of a case, independent of scheduling: extents and
/// thread counts positive, sources acyclic (index < stage), op parameters
/// in range, and update-stage ops only at the output (their fixed-coordinate
/// writes are only guaranteed in bounds there — producer regions are sized
/// by consumer *reads*).
fn validate_structure(case: &FuzzCase) -> Result<()> {
    let fail = |msg: String| Err(ScheduleError::new(msg));
    if case.stages.is_empty() {
        return fail("case has no stages".into());
    }
    if case.width < 1 || case.height < 1 {
        return fail(format!(
            "extents {}x{} must be >= 1",
            case.width, case.height
        ));
    }
    if case.threads < 1 {
        return fail("threads must be >= 1".into());
    }
    let n = case.stages.len();
    for (i, stage) in case.stages.iter().enumerate() {
        let fail = |msg: String| Err(ScheduleError::new(format!("stage {i}: {msg}")));
        for src in stage.op.sources() {
            if let Source::Stage(j) = src {
                if j >= i {
                    return fail(format!("source stage {j} is not earlier than {i}"));
                }
            }
        }
        if stage.op.has_updates() && i + 1 != n {
            return fail("reduce/scan stages are only allowed as the output".into());
        }
        match &stage.op {
            StageOp::Stencil { taps, div, .. } => {
                if taps.is_empty() {
                    return fail("stencil has no taps".into());
                }
                if *div < 1 {
                    return fail(format!("stencil divisor {div} must be >= 1"));
                }
            }
            StageOp::Reduce { rx, ry, .. } if *rx < 1 || *ry < 1 => {
                return fail(format!("reduce window {rx}x{ry} must be >= 1"));
            }
            StageOp::Scan { extent, .. } if *extent < 1 || *extent >= case.width => {
                return fail(format!(
                    "scan extent {extent} must be in [1, width) = [1, {})",
                    case.width
                ));
            }
            _ => {}
        }
    }
    Ok(())
}

/// The one rule the fuzzer states for itself. It is about the request, not
/// the schedule: a shift-inwards split of an output argument may not be
/// wider than the extent the case realizes. Lowering accepts any factor
/// there — the output's extent is only known when it is realized — and
/// guards it with a run-time assertion; a case that trips that assertion
/// tests nothing.
///
/// # Errors
///
/// Names the split that does not fit.
pub fn check_request(case: &FuzzCase) -> Result<()> {
    let Some(output) = case.stages.last() else {
        return Ok(());
    };
    for d in &output.directives {
        if let Directive::Split {
            dim,
            factor,
            tail: TailStrategy::ShiftInwards,
        } = d
        {
            let extent = match dim.as_str() {
                "x" => case.width,
                "y" => case.height,
                _ => continue,
            };
            if *factor > extent {
                return Err(ScheduleError::new(format!(
                    "the output's split of {dim:?} by {factor} is wider than the requested \
                     extent {extent}"
                )));
            }
        }
    }
    Ok(())
}

/// Admits a case: the structural check, [`check_request`], then lowering,
/// which alone decides whether the schedule is legal. Each call builds the
/// case's `Func`s anew; they are freed with the returned module, so
/// admitting many schedules does not accumulate memory.
///
/// # Errors
///
/// The first failure, prefixed with the step that rejected the case.
pub fn admit(case: &FuzzCase) -> std::result::Result<Module, String> {
    let pipeline = build_pipeline(case).map_err(|e| format!("build: {e}"))?;
    check_request(case).map_err(|e| format!("request: {e}"))?;
    halide_lower::lower(&pipeline).map_err(|e| format!("lower: {e}"))
}

fn point_expr(s: Expr, op: PointOp) -> Expr {
    match op {
        PointOp::AddC(k) => s + k as f32,
        PointOp::MulC(k) => s * k as f32,
        PointOp::Threshold(k) => Expr::select(
            Expr::gt(s.clone(), Expr::f32(k as f32)),
            s.clone() * 2.0f32,
            s + 1.0f32,
        ),
        PointOp::ClampC(k) => Expr::min(Expr::max(s, Expr::f32(-(k as f32))), Expr::f32(k as f32)),
        PointOp::AbsDiff(k) => (s - k as f32).abs(),
    }
}

/// Builds the case into real `Func`s with its schedules applied. Only the
/// structure is checked here; whether the schedule lowers is [`admit`]'s
/// question.
///
/// # Errors
///
/// Fails on a structural problem or an inapplicable directive.
pub fn build_pipeline(case: &FuzzCase) -> Result<Pipeline> {
    validate_structure(case)?;
    let input = ImageParam::new(INPUT_NAME, Type::f32(), 2);
    let (x, y) = (Var::new("x"), Var::new("y"));
    let funcs: Vec<Func> = (0..case.stages.len())
        .map(|i| Func::new(stage_name(i)))
        .collect();
    let read = |src: Source, cx: Expr, cy: Expr| -> Expr {
        match src {
            Source::Input => input.at_clamped(vec![cx, cy]),
            Source::Stage(j) => funcs[j].at(vec![cx, cy]),
        }
    };
    for (i, stage) in case.stages.iter().enumerate() {
        let f = &funcs[i];
        let args = [x.clone(), y.clone()];
        match &stage.op {
            StageOp::Point { src, op } => {
                f.define(&args, point_expr(read(*src, x.expr(), y.expr()), *op));
            }
            StageOp::Stencil { src, taps, div } => {
                let mut sum: Option<Expr> = None;
                for (dx, dy, w) in taps {
                    let term = read(
                        *src,
                        x.expr() + Expr::int(*dx as i32),
                        y.expr() + Expr::int(*dy as i32),
                    ) * (*w as f32);
                    sum = Some(match sum {
                        None => term,
                        Some(acc) => acc + term,
                    });
                }
                f.define(&args, sum.expect("checked: taps non-empty") / (*div as f32));
            }
            StageOp::Combine { a, b, op } => {
                let ea = read(*a, x.expr(), y.expr());
                let eb = read(*b, x.expr(), y.expr());
                let v = match op {
                    CombineOp::Add => ea + eb,
                    CombineOp::Sub => ea - eb,
                    CombineOp::Mul => ea * eb,
                    CombineOp::Min => Expr::min(ea, eb),
                    CombineOp::Max => Expr::max(ea, eb),
                };
                f.define(&args, v);
            }
            StageOp::Reduce { src, rx, ry } => {
                f.define(&args, Expr::f32(0.0));
                let r = RDom::new(
                    format!("r{i}"),
                    vec![
                        (Expr::int(0), Expr::int(*rx as i32)),
                        (Expr::int(0), Expr::int(*ry as i32)),
                    ],
                );
                f.update(
                    vec![x.expr(), y.expr()],
                    f.at(vec![x.expr(), y.expr()])
                        + read(*src, x.expr() + r.x().expr(), y.expr() + r.y().expr()),
                    Some(r),
                );
            }
            StageOp::Scan { src, extent } => {
                f.define(&args, read(*src, x.expr(), y.expr()));
                let r = RDom::over(format!("r{i}"), 0, *extent as i32);
                f.update(
                    vec![r.x().expr() + 1, y.expr()],
                    f.at(vec![r.x().expr() + 1, y.expr()]) + f.at(vec![r.x().expr(), y.expr()]),
                    Some(r),
                );
            }
        }
    }
    for (i, (f, stage)) in funcs.iter().zip(&case.stages).enumerate() {
        let in_stage = |e: ScheduleError| ScheduleError::new(format!("stage {i}: {e}"));
        let mut s = f.schedule();
        apply_directives(&mut s, &stage.directives).map_err(in_stage)?;
        f.set_schedule(s);
        let mut update = stage.op.has_updates().then(|| f.update_stage(0).schedule());
        apply_update_directives(update.as_mut(), &stage.directives).map_err(in_stage)?;
        if let Some(update) = update {
            f.update_stage(0).set_schedule(update);
        }
    }
    Ok(Pipeline::new(funcs.last().expect("checked: non-empty")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::Stage;

    fn point_case() -> FuzzCase {
        FuzzCase {
            seed: 0,
            width: 8,
            height: 6,
            threads: 1,
            stages: vec![
                Stage {
                    op: StageOp::Point {
                        src: Source::Input,
                        op: PointOp::MulC(2),
                    },
                    directives: vec![],
                },
                Stage {
                    op: StageOp::Point {
                        src: Source::Stage(0),
                        op: PointOp::AddC(1),
                    },
                    directives: vec![Directive::Split {
                        dim: "x".to_string(),
                        factor: 4,
                        tail: Default::default(),
                    }],
                },
            ],
        }
    }

    #[test]
    fn valid_case_builds_and_lowers() {
        let case = point_case();
        assert_eq!(build_pipeline(&case).unwrap().len(), 2);
        admit(&case).expect("an admitted case is a lowered case");
    }

    #[test]
    fn structural_violations_are_rejected() {
        let rejected = |c: &FuzzCase| admit(c).unwrap_err().starts_with("build: ");
        let mut c = point_case();
        c.width = 0;
        assert!(rejected(&c));

        let mut c = point_case();
        c.stages[0].op = StageOp::Point {
            src: Source::Stage(0),
            op: PointOp::AddC(1),
        };
        assert!(rejected(&c));

        // interior reduce
        let mut c = point_case();
        c.stages[0].op = StageOp::Reduce {
            src: Source::Input,
            rx: 2,
            ry: 2,
        };
        assert!(rejected(&c));

        // scan writes past the output width
        let mut c = point_case();
        c.stages[1].op = StageOp::Scan {
            src: Source::Stage(0),
            extent: 8,
        };
        assert!(rejected(&c));
    }

    /// Admission rejects what lowering rejects, and one thing more: the
    /// request rule. Each schedule rule's own test lives with lowering.
    #[test]
    fn illegal_schedules_are_rejected_by_the_shared_predicate() {
        // Vectorize of a symbolic-extent dim.
        let mut c = point_case();
        c.stages[0]
            .directives
            .push(Directive::Vectorize("x".to_string()));
        assert!(admit(&c).unwrap_err().starts_with("lower: "));

        // A shift-inwards split wider than the requested output extent:
        // lowering would accept it behind a run-time assertion.
        let mut c = point_case();
        let split = |factor, tail| Directive::Split {
            dim: "x".to_string(),
            factor,
            tail,
        };
        c.stages[1].directives = vec![split(16, TailStrategy::ShiftInwards)];
        assert!(admit(&c).unwrap_err().starts_with("request: "));
        // As wide as the request, or with a tail strategy, it fits.
        c.stages[1].directives = vec![split(8, TailStrategy::ShiftInwards)];
        assert!(admit(&c).is_ok());
        c.stages[1].directives = vec![split(16, TailStrategy::GuardWithIf)];
        assert!(admit(&c).is_ok());

        // compute_at into a reduce's window (update-stage call site).
        let mut c = point_case();
        c.stages[1].op = StageOp::Reduce {
            src: Source::Stage(0),
            rx: 2,
            ry: 2,
        };
        c.stages[1].directives.clear();
        c.stages[0].directives = vec![Directive::ComputeAt {
            consumer: 1,
            dim: "y".to_string(),
        }];
        assert!(admit(&c).unwrap_err().starts_with("lower: "));
        c.stages[0].directives.clear();
        assert!(admit(&c).is_ok());
    }

    #[test]
    fn built_schedules_match_validated_schedules() {
        let mut case = point_case();
        // The producer is split and computed at a consumer loop, whose
        // stage index must map to the consumer's Func name.
        case.stages[0].directives = vec![
            Directive::Split {
                dim: "x".to_string(),
                factor: 2,
                tail: TailStrategy::RoundUp,
            },
            Directive::ComputeAt {
                consumer: 1,
                dim: "y".to_string(),
            },
        ];
        case.stages[1].directives = vec![
            Directive::Split {
                dim: "x".to_string(),
                factor: 4,
                tail: Default::default(),
            },
            Directive::Vectorize("x_i".to_string()),
        ];
        assert!(admit(&case).is_ok());
        let canonical = stage_schedules(&case).unwrap();
        let pipeline = build_pipeline(&case).unwrap();
        for (i, want) in canonical.iter().enumerate() {
            let got = pipeline.func(&stage_name(i)).unwrap().schedule();
            assert_eq!(got.dims, want.dims);
            assert_eq!(got.splits, want.splits);
            assert_eq!(got.compute_level, want.compute_level);
            assert_eq!(got.store_level, want.store_level);
        }
    }
}
