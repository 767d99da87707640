//! `serve_demo` — drive the compile-once / realize-many pipeline server
//! with a mixed multi-app request stream from several client threads.
//!
//! ```text
//! cargo run --release --example serve_demo
//! cargo run --release --example serve_demo -- --clients 8 --rounds 40
//! ```
//!
//! The demo warms the program cache for three apps (blur, histogram
//! equalization, bilateral grid), then lets N client threads hammer the
//! server round-robin and prints what a service dashboard would show:
//! request count, latency percentiles, throughput, cold compiles, cache
//! residency, and buffer-pool hit rate — plus, with request tracing on
//! for the whole run, a per-request span summary (where does a request's
//! time actually go between queueing, compiling, realizing, and
//! responding) and the three hottest Funcs of one profiled realization.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use halide::pipelines::{AppKind, ScheduleChoice};
use halide::serve::{PipelineServer, Request, ServeConfig};
use halide::Realizer;

fn arg(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let clients = arg("--clients", 4);
    let rounds = arg("--rounds", 25);
    let (w, h) = (192, 128);
    let apps = [AppKind::Blur, AppKind::Histogram, AppKind::BilateralGrid];

    // Trace every request of the run; the lifecycle summary below is
    // aggregated from the recorded spans.
    halide::trace::set_enabled(true);

    let server = PipelineServer::new(ServeConfig {
        max_in_flight: clients.max(1),
        queue_capacity: 4 * clients.max(1),
        ..ServeConfig::default()
    });

    println!("warming {} programs at {w}x{h}...", apps.len());
    for app in apps {
        let cold = server
            .warm(app, ScheduleChoice::Tuned, w, h)
            .expect("demo apps compile")
            .expect("cache starts cold");
        println!(
            "  {:<20} compiled in {:>8.1} ms",
            app.name(),
            cold.as_secs_f64() * 1e3
        );
    }

    let inputs: Vec<Arc<_>> = apps.iter().map(|a| Arc::new(a.make_input(w, h))).collect();
    println!("\nserving {clients} clients x {rounds} rounds of mixed traffic...");
    let start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let (server, inputs) = (&server, &inputs);
            scope.spawn(move || {
                for r in 0..rounds {
                    let i = (c + r) % apps.len();
                    let req = Request::new(apps[i], ScheduleChoice::Tuned, Arc::clone(&inputs[i]));
                    let resp = server.call(&req).expect("warm requests succeed");
                    assert!(resp.cold_compile.is_none(), "cache was warmed");
                    // Dropping resp returns the output buffer to the pool.
                }
            });
        }
    });
    let wall = start.elapsed();

    let stats = server.stats();
    let rps = stats.requests as f64 / wall.as_secs_f64();
    println!("\n== dashboard ==");
    println!("requests        {:>10}", stats.requests);
    println!("rejected        {:>10}", stats.rejected);
    println!("shed (deadline) {:>10}", stats.shed);
    println!("coalesced       {:>10}", stats.coalesced);
    println!("realizations    {:>10}", stats.realizations);
    println!("slots           {:>10}", clients.max(1));
    println!("throughput      {rps:>10.1} req/s");
    println!("latency p50     {:>10.2} ms", stats.latency.p50_ms);
    println!("latency p95     {:>10.2} ms", stats.latency.p95_ms);
    println!("latency p99     {:>10.2} ms", stats.latency.p99_ms);
    println!("cold compiles   {:>10}", stats.cold_compiles);
    println!("cached programs {:>10}", stats.cached_programs);
    println!("evicted programs{:>10}", stats.evicted_programs);
    println!(
        "pool hit rate   {:>9.1}%  ({} hits / {} misses, {} idle bytes)",
        100.0 * stats.pool.hit_rate(),
        stats.pool.hits,
        stats.pool.misses,
        stats.pool.idle_bytes
    );

    assert_eq!(stats.requests, (clients * rounds) as u64);
    assert!(
        stats.pool.hit_rate() > 0.5,
        "steady-state traffic should be pool hits"
    );

    // Per-request span summary: every request recorded a span tree
    // (queued -> compile -> realize -> respond under a "request"
    // umbrella); aggregate each phase across the run.
    let events = halide::trace::global().events();
    let mut phases: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new(); // count, total ns, max ns
    for e in &events {
        if e.pid != halide::trace::PID_SERVE {
            continue;
        }
        let name: &str = match e.name.as_str() {
            "queued" => "queued",
            "compile" => "compile",
            "realize" => "realize",
            "respond" => "respond",
            "coalesced-wait" => "coalesced-wait",
            "request" => "request (total)",
            _ => continue,
        };
        let entry = phases.entry(name).or_default();
        entry.0 += 1;
        entry.1 += e.dur_ns;
        entry.2 = entry.2.max(e.dur_ns);
    }
    println!(
        "\n== request lifecycle (from {} trace events) ==",
        events.len()
    );
    for (name, (count, total_ns, max_ns)) in &phases {
        println!(
            "{name:<16} x{count:<6} mean {:>8.3} ms  max {:>8.3} ms",
            *total_ns as f64 / *count as f64 / 1e6,
            *max_ns as f64 / 1e6
        );
    }
    assert!(
        phases.contains_key("request (total)"),
        "traced requests record an umbrella span"
    );

    // Hottest Funcs: one directly-profiled realization of the deepest demo
    // app (the sampling profiler attributes wall time to produce nests).
    let app = AppKind::BilateralGrid;
    let built = app
        .build(w, h, ScheduleChoice::Tuned)
        .expect("demo app lowers");
    let realizer = Realizer::new(&built.module)
        .input(built.input_name.clone(), app.make_input(w, h))
        .profile(true);
    for _ in 0..10 {
        realizer
            .realize(&app.output_extents(w, h))
            .expect("profiled realize");
    }
    let report = realizer.profile_report().expect("profiling was enabled");
    println!(
        "\n== top 3 hottest Funcs, {} profiled ({} samples) ==",
        app.name(),
        report.total_samples
    );
    for f in report.top(3) {
        println!(
            "{:<24} {:>5.1}%  {:>8.3} ms est  x{} calls  peak {} bytes",
            f.name,
            100.0 * f.time_frac,
            f.est_time.as_secs_f64() * 1e3,
            f.invocations,
            f.peak_alloc_bytes
        );
    }
}
