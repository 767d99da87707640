//! Histogram equalization (the reduction example of Sec. 2): a scatter
//! reduction, a recursive scan, and a data-dependent gather.
use halide::pipelines::histogram::{make_input, reference, HistogramApp};

fn main() {
    let (w, h) = (320, 240);
    let input = make_input(w, h);
    let app = HistogramApp::new(w as i32, h as i32);
    app.schedule_good();
    let module = halide::lower(&app.pipeline()).expect("lowers");
    let result = halide::Realizer::new(&module)
        .input(app.input.name(), input.clone())
        .threads(4)
        .realize(&[w, h])
        .expect("runs");
    let expected = reference(&input);
    assert_eq!(result.output.max_abs_diff(&expected), 0.0);

    let range = |b: &halide::runtime::Buffer| {
        let v = b.to_f64_vec();
        let min = v.iter().cloned().fold(f64::MAX, f64::min);
        let max = v.iter().cloned().fold(f64::MIN, f64::max);
        (min, max)
    };
    println!("input  intensity range: {:?}", range(&input));
    println!("output intensity range: {:?}", range(&result.output));
    println!(
        "ran in {:.2} ms ({} arithmetic ops)",
        result.wall_time.as_secs_f64() * 1e3,
        result.counters.arith_ops
    );
}
