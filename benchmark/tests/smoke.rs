//! Runs every workload in `--smoke` mode (64×32 images, one round) and pins
//! what `BENCHMARK.json` promises: the binary emits exactly the workload and
//! metric names the file lists, with the same units and bounds, so the two
//! cannot drift; and the counts that must repeat exactly do repeat.

use std::collections::{BTreeMap, BTreeSet};

use halide_benchmark::json::Json;
use halide_benchmark::{run_workload, spec, Outcome, RunConfig};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn smoke(workload: &str, trace: bool, seed: u64) -> Outcome {
    let cfg = RunConfig {
        workload: workload.to_string(),
        seed,
        seconds: 1.0,
        trace,
        smoke: true,
    };
    let outcome = run_workload(&cfg).unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert!(outcome.correct(), "{workload}: {:?}", outcome.failures);
    assert!(outcome.attempted >= 1);
    outcome
}

/// `name -> (unit, better, bound)` of one metric list in `BENCHMARK.json`.
fn declared(file: &Json, list: &str) -> BTreeMap<String, (String, String, Option<f64>)> {
    file.get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                let v = m.get(k).and_then(Json::as_str);
                v.unwrap_or_else(|| panic!("{list}: no {k}")).to_string()
            };
            let bound = m.get("bound").and_then(Json::as_f64);
            (field("name"), (field("unit"), field("better"), bound))
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn emitted_names_units_and_bounds_equal_benchmark_json() {
    let file = benchmark_json();
    let end_to_end = declared(&file, "end_to_end");
    let per_layer = declared(&file, "per_layer");

    // The file and the binary's own tables agree.
    for m in spec::END_TO_END {
        let declared = end_to_end.get(m.name).cloned();
        let ours = (m.unit.to_string(), m.better.to_string(), Some(m.bound));
        assert_eq!(declared, Some(ours), "{}", m.name);
    }
    for l in spec::per_layer() {
        let declared = per_layer.get(&l.name).cloned();
        let ours = (l.unit.to_string(), l.better.to_string(), None);
        assert_eq!(declared, Some(ours), "{}", l.name);
    }
    assert_eq!(
        file.get("run_seconds").and_then(Json::as_f64),
        Some(spec::RUN_SECONDS)
    );
    let workloads = file
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads");
    let field = |w: &'_ Json, k: &str| w.get(k).and_then(Json::as_str).map(str::to_string);
    let listed: Vec<(String, String)> = workloads
        .iter()
        .map(|w| {
            (
                field(w, "name").expect("name"),
                field(w, "why").expect("why"),
            )
        })
        .collect();
    let ours = spec::WORKLOADS.map(|(name, why)| (name.to_string(), why.to_string()));
    assert_eq!(listed, ours);
    let mut names = end_to_end.keys().chain(per_layer.keys());
    assert!(names.all(|n| well_formed(n)));
    assert!(listed.iter().all(|(name, _)| well_formed(name)));
    assert_eq!(
        file.get("paths").and_then(Json::as_arr).map(<[Json]>::len),
        Some(1)
    );

    // And what each pass of each workload actually emits is exactly that.
    for (workload, _) in &listed {
        let emitted =
            |trace| -> BTreeSet<String> { smoke(workload, trace, 1).metrics.into_keys().collect() };
        assert_eq!(
            emitted(false),
            end_to_end.keys().cloned().collect(),
            "{workload} end-to-end"
        );
        assert_eq!(
            emitted(true),
            per_layer.keys().cloned().collect(),
            "{workload} per-layer"
        );
    }
}

#[test]
fn end_to_end_values_are_positive_and_the_result_line_has_exactly_four_keys() {
    for (workload, _) in spec::WORKLOADS {
        let outcome = smoke(workload, false, 3);
        for (name, value) in &outcome.metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{workload} {name} = {value}"
            );
        }
        let line = Json::parse(&outcome.result_line(false).compact()).unwrap();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    }
}

#[test]
fn exact_counts_and_attempted_repeat_for_one_seed() {
    for (workload, _) in spec::WORKLOADS {
        let (a, b) = (smoke(workload, true, 7), smoke(workload, true, 7));
        assert_eq!(a.attempted, b.attempted, "{workload}");
        assert_eq!(a.exact_counts, b.exact_counts, "{workload}");
        assert!(!a.exact_counts.is_empty(), "{workload}");
        // The traced pass recorded spans and they cover the timed section.
        assert!(!a.spans.is_empty(), "{workload}");
        assert!(
            a.metrics["trace.span_coverage"] > 0.5,
            "{workload}: {}",
            a.metrics["trace.span_coverage"]
        );
    }
    // The layers a workload exercises report real counts.
    let compile = smoke("compile_cold", true, 7);
    for name in [
        "lower.stmt_nodes",
        "exec.pir_insts_before",
        "exec.pir_insts_after",
        "lang.funcs",
    ] {
        assert!(compile.exact_counts[name] > 0.0, "{name}");
    }
    assert!(smoke("realize_naive", true, 7).exact_counts["exec.ops.blur"] > 0.0);
}
