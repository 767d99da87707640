//! Shrinking a failing case to a minimal reproduction.
//!
//! Greedy delta-debugging to a fixpoint: repeatedly propose a structurally
//! smaller candidate (drop a stage, strip a directive, simplify an op,
//! halve the extents, drop threads) and keep it if it is still an
//! *admissible* case ([`build::admit`]: it lowers) that still *fails*. Any
//! failure counts — shrinking may walk from one symptom of a bug to
//! another, and the minimal case is what gets checked into the corpus
//! either way.

use crate::build;
use crate::grammar::{Directive, FuzzCase, PointOp, Source, StageOp};
use crate::run;

/// Does `case` still reproduce *a* failure (and remain admissible)?
fn still_fails(case: &FuzzCase) -> bool {
    build::admit(case).is_ok_and(|module| run::run_case_lowered(case, &module).is_err())
}

fn remap_source(s: &mut Source, dropped: usize, replacement: Source) {
    if let Source::Stage(j) = s {
        if *j == dropped {
            *s = replacement;
        } else if *j > dropped {
            *s = Source::Stage(*j - 1);
        }
    }
}

/// Removes stage `k`, rewiring its consumers to its own first source and
/// shifting later indices down. `ComputeAt` directives pointing at the
/// dropped stage are removed; those pointing past it are remapped.
fn drop_stage(case: &FuzzCase, k: usize) -> FuzzCase {
    let replacement = case.stages[k].op.sources()[0];
    let mut out = case.clone();
    out.stages.remove(k);
    for stage in &mut out.stages {
        match &mut stage.op {
            StageOp::Point { src, .. }
            | StageOp::Stencil { src, .. }
            | StageOp::Reduce { src, .. }
            | StageOp::Scan { src, .. } => remap_source(src, k, replacement),
            StageOp::Combine { a, b, .. } => {
                remap_source(a, k, replacement);
                remap_source(b, k, replacement);
            }
        }
        stage.directives.retain_mut(|d| {
            if let Directive::ComputeAt { consumer, .. } = d {
                if *consumer == k {
                    return false;
                }
                if *consumer > k {
                    *consumer -= 1;
                }
            }
            true
        });
    }
    out
}

/// Structurally smaller candidates, most aggressive first. Inadmissible
/// candidates are filtered by the caller via [`still_fails`].
fn candidates(case: &FuzzCase) -> Vec<FuzzCase> {
    let mut out = Vec::new();
    let n = case.stages.len();

    // Drop interior stages (the output stays the output).
    for k in 0..n.saturating_sub(1) {
        out.push(drop_stage(case, k));
    }
    // Truncate the output: promote its predecessor, pruning what dies. The
    // promoted output may carry a now-forbidden call schedule; reset it.
    if n >= 2 {
        let mut c = case.clone();
        c.stages.pop();
        if let Some(last) = c.stages.last_mut() {
            last.directives.retain(|d| {
                !matches!(
                    d,
                    Directive::ComputeAt { .. } | Directive::ComputeInline | Directive::StoreRoot
                )
            });
        }
        crate::grammar::prune_unreachable(&mut c);
        out.push(c);
    }

    // Strip directives: whole lists first, then one at a time.
    for (i, stage) in case.stages.iter().enumerate() {
        if stage.directives.is_empty() {
            continue;
        }
        let mut c = case.clone();
        c.stages[i].directives.clear();
        out.push(c);
        for d in 0..stage.directives.len() {
            let mut c = case.clone();
            c.stages[i].directives.remove(d);
            out.push(c);
        }
    }

    // Simplify tail strategies back to the default: a failure that survives
    // this did not need the partitioned/predicated lowering path.
    for (i, stage) in case.stages.iter().enumerate() {
        for (d, dir) in stage.directives.iter().enumerate() {
            if let Directive::Split { tail, .. } = dir {
                if *tail != Default::default() {
                    let mut c = case.clone();
                    if let Directive::Split { tail, .. } = &mut c.stages[i].directives[d] {
                        *tail = Default::default();
                    }
                    out.push(c);
                }
            }
        }
    }

    // Simplify ops: stencil taps one at a time, then whole ops to the
    // identity point op over their first source.
    for (i, stage) in case.stages.iter().enumerate() {
        if let StageOp::Stencil { taps, .. } = &stage.op {
            if taps.len() > 1 {
                for t in 0..taps.len() {
                    let mut c = case.clone();
                    if let StageOp::Stencil { taps, .. } = &mut c.stages[i].op {
                        taps.remove(t);
                    }
                    out.push(c);
                }
            }
        }
        let identity = StageOp::Point {
            src: stage.op.sources()[0],
            op: PointOp::AddC(0),
        };
        if stage.op != identity {
            let mut c = case.clone();
            c.stages[i].op = identity;
            c.stages[i]
                .directives
                .retain(|d| !matches!(d, Directive::Update(_)));
            out.push(c);
        }
    }

    // Halve extents and drop threads.
    if case.width > 1 {
        let mut c = case.clone();
        c.width = (case.width + 1) / 2;
        out.push(c);
    }
    if case.height > 1 {
        let mut c = case.clone();
        c.height = (case.height + 1) / 2;
        out.push(c);
    }
    if case.threads > 1 {
        let mut c = case.clone();
        c.threads = 1;
        out.push(c);
    }
    out
}

/// Shrinks a failing case greedily to a fixpoint (bounded by `max_steps`
/// accepted shrinks as a runaway guard). The input must fail; the result
/// still fails and no candidate of it does.
pub fn shrink(case: &FuzzCase) -> FuzzCase {
    debug_assert!(still_fails(case), "shrink called on a passing case");
    let mut cur = case.clone();
    let max_steps = 200;
    for _ in 0..max_steps {
        let Some(next) = candidates(&cur).into_iter().find(still_fails) else {
            break;
        };
        cur = next;
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::Stage;

    fn point(src: Source, k: i32) -> Stage {
        Stage {
            op: StageOp::Point {
                src,
                op: PointOp::AddC(k),
            },
            directives: vec![],
        }
    }

    #[test]
    fn drop_stage_rewires_and_remaps() {
        let case = FuzzCase {
            seed: 0,
            width: 8,
            height: 8,
            threads: 1,
            stages: vec![
                point(Source::Input, 1),
                point(Source::Stage(0), 2),
                Stage {
                    op: StageOp::Combine {
                        a: Source::Stage(0),
                        b: Source::Stage(1),
                        op: crate::grammar::CombineOp::Add,
                    },
                    directives: vec![],
                },
            ],
        };
        let dropped = drop_stage(&case, 1);
        assert_eq!(dropped.stages.len(), 2);
        // Stage 1's consumers now read its source, stage 0.
        assert_eq!(
            dropped.stages[1].op,
            StageOp::Combine {
                a: Source::Stage(0),
                b: Source::Stage(0),
                op: crate::grammar::CombineOp::Add,
            }
        );
        assert!(build::admit(&dropped).is_ok());
    }

    #[test]
    fn candidates_are_mostly_legal() {
        // Shrink steps should usually remain admissible — a smoke check
        // that candidate construction is not generating garbage.
        for seed in 0..30u64 {
            let case = crate::grammar::generate(seed);
            let cands = candidates(&case);
            assert!(!cands.is_empty() || case.stages.len() == 1);
            let legal = cands.iter().filter(|c| build::admit(c).is_ok()).count();
            assert!(
                legal * 2 >= cands.len(),
                "seed {seed}: only {legal}/{} candidates legal",
                cands.len()
            );
        }
    }
}
