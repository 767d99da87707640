//! Run the local Laplacian filter (the 99-stage pipeline of Fig. 1) and show
//! how pipeline size and schedule interact.
use halide::lang::analyze;
use halide::pipelines::local_laplacian::{make_input, LocalLaplacianApp};

fn main() {
    let input = make_input(128, 128);
    let app = LocalLaplacianApp::new(4, 8, 1.5, 0.6);
    let stats = analyze(&app.pipeline());
    println!(
        "local Laplacian: {} functions, {} stencil edges, depth {}, structure {}",
        stats.functions,
        stats.stencils,
        stats.depth,
        stats.structure()
    );

    app.schedule_good();
    let module = halide::lower(&app.pipeline()).expect("lowers");
    let result = halide::Realizer::new(&module)
        .input(app.input.name(), input)
        .threads(4)
        .realize(&[128, 128])
        .expect("runs");
    println!(
        "enhanced a 128x128 image in {:.1} ms ({} allocations, peak live {} B)",
        result.wall_time.as_secs_f64() * 1e3,
        result.counters.allocations,
        result.counters.peak_bytes_live
    );
}
