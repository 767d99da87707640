//! Quickstart: define the two-stage blur of Sec. 3.1, try three schedules,
//! and print how the choice of schedule changes the work performed and the
//! runtime without changing the result.
use halide::pipelines::blur::{make_input, reference, BlurApp, BlurSchedule};

fn main() {
    let input = make_input(256, 192);
    let expected = reference(&input);
    println!("two-stage 3x3 blur on a 256x192 image\n");
    for schedule in [
        BlurSchedule::BreadthFirst,
        BlurSchedule::FullFusion,
        BlurSchedule::ParallelTiledVector,
    ] {
        let app = BlurApp::new();
        schedule.apply(&app);
        let module = halide::lower(&app.pipeline()).expect("schedule lowers");
        let result = halide::Realizer::new(&module)
            .input(app.input.name(), input.clone())
            .threads(4)
            .realize(&[256, 192])
            .expect("schedule runs");
        assert!(
            result.output.max_abs_diff(&expected) < 1e-4,
            "results never change"
        );
        println!(
            "{:<28} {:>8.2} ms   {:>12} arith ops   peak live {:>9} B",
            schedule.label(),
            result.wall_time.as_secs_f64() * 1e3,
            result.counters.arith_ops,
            result.counters.peak_bytes_live
        );
    }
    println!("\nEvery schedule computed exactly the same image — only performance changed.");
}
