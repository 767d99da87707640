//! The benchmark's names: workloads, end-to-end metrics with their bounds,
//! per-layer metrics. `BENCHMARK.json` at the repository root lists the same
//! names; `tests/smoke.rs` fails when the two drift.

use halide_pipelines::AppKind;

/// A workload and the reason it exists.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "realize_tuned",
        "pre-compiled tuned schedules realized warm on T threads: exec vector/masked paths (and the runtime thread pool where T > 1) do the work, compile is paid in set-up only",
    ),
    (
        "realize_naive",
        "same engine, all-root serial schedules on 1 thread: scalar ops and whole-image intermediates, no parallel loop, so vector or pool changes must not move it",
    ),
    (
        "compile_cold",
        "sweeps of construct, schedule, lower, compile over 6 apps x naive/tuned: lower and the PIR optimizer do the work, the machine only runs the small oracle realizes",
    ),
    (
        "serve_warm",
        "closed loop of T clients on a pre-warmed PipelineServer, exact 4:3:1 blur:histogram:camera-pipe mix: cache-hit, pooled-buffer, admission fast path",
    ),
    (
        "serve_churn",
        "same server with an 8-entry cache and 24 program keys under Zipf(1) popularity: misses pay lower and compile and evict beside the hits (and coalesce where T > 1)",
    ),
];

/// An end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name (final; later issues cite it).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// Every end-to-end metric, reported on every workload (the driver wants
/// every listed metric from every run). The issue's eighth, `failed_share`,
/// is carried by the result line's `attempted` and `failed` (and printed by
/// `run`): a metric listed here must never be 0.
///
/// The timing bounds are 0.25, the widest the driver allows; the issue
/// proposed 0.10–0.15. On the shared 2-vCPU box this was written on, two
/// sets of ten runs of one commit differed by 0.01–0.14 (interquartile range
/// ÷ median) over the gated cells, and the driver refuses a benchmark whose
/// spread exceeds its own bound: a tighter bound would be a promise that box
/// keeps on a good day only. The README gives the measurements.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "mpix_per_s",
        unit: "Mpix/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "compile_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_rps",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p95_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.1,
    },
];

/// Apps the realize workloads run (bilateral grid is compile-only: a tuned
/// realize costs several times the others' and would halve the rounds).
pub const REALIZE_APPS: [AppKind; 5] = [
    AppKind::Blur,
    AppKind::Histogram,
    AppKind::CameraPipe,
    AppKind::Interpolate,
    AppKind::LocalLaplacian,
];

/// Apps the serve workloads request.
pub const SERVE_APPS: [AppKind; 3] = [AppKind::Blur, AppKind::Histogram, AppKind::CameraPipe];

/// The optimizer's passes, in pipeline order (`exec.opt_changes.<pass>`).
pub const OPT_PASSES: [&str; 7] = [
    "const-fold",
    "simplify",
    "strength-reduce",
    "cse",
    "licm",
    "copy-prop",
    "dce",
];

/// A per-layer metric. The crate name before the first dot is the layer.
#[derive(Debug, Clone)]
pub struct Layer {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

/// Every per-layer metric. Each traced run reports all of them; one whose
/// layer the workload does not exercise reads 0.
pub fn per_layer() -> Vec<Layer> {
    let mut out = Vec::new();
    let mut add = |name: String, unit: &'static str, better: &'static str| {
        out.push(Layer { name, unit, better });
    };
    let per_app = |prefix: &str, apps: &[AppKind]| -> Vec<String> {
        apps.iter()
            .map(|a| format!("{prefix}.{}", a.slug()))
            .collect()
    };

    add("lang.build_ms".into(), "ms", "lower");
    add("lang.funcs".into(), "count", "lower");
    add("schedule.apply_ms".into(), "ms", "lower");

    add("lower.lower_ms".into(), "ms", "lower");
    for name in per_app("lower.lower_ms", &AppKind::ALL) {
        add(name, "ms", "lower");
    }
    add("lower.stmt_nodes".into(), "count", "lower");
    add("lower.us_per_stmt_node".into(), "us", "lower");

    add("exec.compile_ms".into(), "ms", "lower");
    add("exec.opt_pass_ms".into(), "ms", "lower");
    add("exec.linearize_emit_ms".into(), "ms", "lower");
    add("exec.pir_insts_before".into(), "count", "lower");
    add("exec.pir_insts_after".into(), "count", "lower");
    add("exec.opt_iterations".into(), "count", "lower");
    for pass in OPT_PASSES {
        add(format!("exec.opt_changes.{pass}"), "count", "higher");
    }
    add("exec.compile_us_per_pir_inst".into(), "us", "lower");

    for (prefix, unit, better) in [
        ("exec.realize_ms", "ms", "lower"),
        ("exec.ns_per_pixel", "ns", "lower"),
        ("exec.ops_per_pixel", "count", "lower"),
        ("exec.ns_per_op", "ns", "lower"),
        ("exec.dense_load_share", "share", "higher"),
        ("exec.top_func_share", "share", "lower"),
    ] {
        for name in per_app(prefix, &REALIZE_APPS) {
            add(name, unit, better);
        }
    }
    add("exec.realize_overhead_us".into(), "us", "lower");
    add("exec.x_over_ref.blur".into(), "ratio", "lower");
    add("exec.x_over_ref.histogram".into(), "ratio", "lower");

    for (prefix, unit) in [
        ("runtime.peak_bytes_live", "bytes"),
        ("runtime.allocations", "count"),
        ("runtime.parallel_tasks", "count"),
    ] {
        for name in per_app(prefix, &REALIZE_APPS) {
            add(name, unit, "lower");
        }
    }
    add("runtime.parallel_speedup".into(), "ratio", "higher");
    add("runtime.pool_hit_rate".into(), "share", "higher");

    add("pipelines.ref_ms.blur".into(), "ms", "lower");
    add("pipelines.ref_ms.histogram".into(), "ms", "lower");

    add("serve.call_overhead_us".into(), "us", "lower");
    for name in per_app("serve.latency_ms", &SERVE_APPS) {
        add(name, "ms", "lower");
    }
    for (name, unit, better) in [
        ("serve.latency_p99_ms", "ms", "lower"),
        ("serve.hit_latency_ms", "ms", "lower"),
        ("serve.miss_latency_ms", "ms", "lower"),
        ("serve.cold_compile_ms", "ms", "lower"),
        ("serve.cache_hit_rate", "share", "higher"),
        ("serve.evictions", "count", "lower"),
        ("serve.coalesced_share", "share", "higher"),
        ("serve.rejected", "count", "lower"),
        ("serve.shed", "count", "lower"),
        ("serve.raw_rps", "1/s", "higher"),
        ("serve.efficiency_vs_raw", "ratio", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.instrument_overhead_ratio", "ratio", "lower"),
        ("trace.profile_overhead_ratio", "ratio", "lower"),
        ("trace.profile_attributed_share", "share", "higher"),
        ("trace.span_coverage", "share", "higher"),
    ] {
        add(name.into(), unit, better);
    }
    out
}

/// `(name, unit)` of every metric one pass reports: the per-layer metrics
/// for the traced pass, the end-to-end metrics otherwise.
pub fn units(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        per_layer().into_iter().map(|l| (l.name, l.unit)).collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .collect()
    }
}

/// `run_seconds` of `BENCHMARK.json`: the default `--seconds`.
pub const RUN_SECONDS: f64 = 16.0;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_well_formed_and_within_the_contract_limits() {
        let layers = per_layer();
        assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|(n, _)| n.to_string())
            .chain(END_TO_END.iter().map(|m| m.name.to_string()))
            .chain(layers.iter().map(|l| l.name.clone()));
        for name in names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(seen.insert(name.clone()), "{name} is used twice");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(WORKLOADS
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
    }
}
