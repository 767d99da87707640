//! A program lowers to the same text however many programs were built
//! before it: a `Func` keeps the name it is given, so lowered names do not
//! depend on what else the process has built.

use halide_pipelines::apps::{AppKind, ScheduleChoice};

const W: i64 = 64;
const H: i64 = 48;

fn lowered(app: AppKind, schedule: ScheduleChoice) -> String {
    app.build(W, H, schedule)
        .unwrap_or_else(|e| panic!("{} {schedule:?}: lowering failed: {e}", app.name()))
        .module
        .pretty()
}

#[test]
fn lowered_text_does_not_depend_on_earlier_builds() {
    let programs: Vec<(AppKind, ScheduleChoice)> = AppKind::ALL
        .into_iter()
        .flat_map(|app| [(app, ScheduleChoice::Naive), (app, ScheduleChoice::Tuned)])
        .collect();
    let first: Vec<String> = programs.iter().map(|&(a, s)| lowered(a, s)).collect();
    for _ in 0..3 {
        for &(app, schedule) in &programs {
            lowered(app, schedule);
        }
    }
    for ((app, schedule), want) in programs.into_iter().zip(first) {
        assert_eq!(
            lowered(app, schedule),
            want,
            "{} {schedule:?} lowers differently after other builds",
            app.name()
        );
    }
}
