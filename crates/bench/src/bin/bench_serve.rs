//! Serving benchmark: drives the compile-once / realize-many server past
//! saturation and at production-size requests, and emits `BENCH_serve.json`
//! — the serving artifact checked into the repository root.
//!
//! ```text
//! cargo run --release -p halide-bench --bin bench_serve -- --quick
//! cargo run --release -p halide-bench --bin bench_serve -- --full --out BENCH_serve.json
//! ```
//!
//! Warm and cold latency, throughput against raw threads, cache and pool
//! hit rates are the repository benchmark's (`benchmark/`, workloads
//! `serve_warm` and `serve_churn`); this emitter keeps only what that
//! benchmark leaves out.
//!
//! The **overload scenario** (always measured, `overload` section of the
//! artifact) drives the server past saturation and gates the degradation
//! mode rather than the happy path:
//!
//! * **capacity** — warm requests/sec with exactly `slots` concurrent
//!   clients (offered load = capacity, nothing queues past the slots) — the
//!   baseline the goodput gate compares to;
//! * **shed** — 4x as many clients as slots over a short queue, a slice of
//!   them on tight deadlines; every request must terminate with `Ok`,
//!   `Overloaded`, or `DeadlineExceeded` (never hang), both degradation
//!   paths must fire, and **goodput** (Ok/sec) must stay >= 50% of measured
//!   capacity;
//! * **priority** — a high-priority stream (larger request shape, so its
//!   own service dominates any residual it queue-jumps behind) is measured
//!   alone at capacity and then again while normal clients flood and
//!   overflow the queue; its flooded p99 must stay within 2x its
//!   uncontended p99;
//! * **coalesce** — a paused-server batch of identical requests must
//!   compile once, realize once, and fan out to every client.
//!
//! `--full` additionally measures the **full-resolution tier**: warm-path
//! latency per app at 1920x1080 (best of two requests after priming, one
//! thread per request), the `full_res` section of the artifact.
//!
//! `--trace out.json` turns request-lifecycle tracing on for the whole
//! run and writes the global sink's chrome://tracing export afterwards —
//! queued/compile/realize/respond span trees for every request of every
//! phase above (ring-buffered: a long run keeps the most recent spans).
//! The export is syntax-validated and must contain serve-lane spans
//! before it is written.

use std::sync::Arc;
use std::time::Instant;

use halide_bench::{Args, CliSpec};
use halide_pipelines::{AppKind, ScheduleChoice};
use halide_serve::{PipelineServer, Priority, Request, ServeConfig, ServeError};
use halide_trace::JsonValue;

/// The apps of the full-resolution tier: two light pipelines and two deep
/// ones.
const APPS: [AppKind; 4] = [
    AppKind::Blur,
    AppKind::Histogram,
    AppKind::CameraPipe,
    AppKind::BilateralGrid,
];

/// The `--full` tier's request size.
const FULL_RES_SIZE: (i64, i64) = (1920, 1080);

/// Everything one run measures: what `BENCH_serve.json` records and the
/// gates read.
struct Report {
    /// `(app, width, height, best warm ms)` per app of the full-resolution tier.
    full_res: Vec<(&'static str, i64, i64, f64)>,
    overload: OverloadReport,
}

const SPEC: CliSpec = CliSpec {
    usage: "bench_serve [--quick|--full] [--out FILE] [--trace FILE]",
    subcommands: &[],
    switches: &[],
    valued: &["--out", "--trace"],
};

fn main() {
    let args = Args::from_env(&SPEC);
    let trace_out = args.value("--trace");
    if trace_out.is_some() {
        // The whole run is traced — the gates below then also prove that
        // serving with tracing on still clears them.
        halide_trace::set_enabled(true);
    }

    let report = measure(args.full().then_some(FULL_RES_SIZE));

    let out_path = args.value("--out").unwrap_or("BENCH_serve.json");
    let mut json = String::new();
    report.to_json().write_pretty(&mut json);
    std::fs::write(out_path, &json).expect("writing the benchmark artifact");
    println!("wrote {out_path}");

    report.check_gates(args.full());

    if let Some(path) = trace_out {
        let json = halide_trace::export_json();
        halide_trace::validate_json_syntax(&json).expect("exported trace is well-formed JSON");
        let events = halide_trace::global().events();
        assert!(
            events.iter().any(|e| e.pid == halide_trace::PID_SERVE),
            "a traced serving run must record request-lifecycle spans"
        );
        std::fs::write(path, &json).expect("writing the trace export");
        println!("wrote {path} ({} events)", events.len());
    }
}

/// Runs the full-resolution tier (when `full_res_size` is given) and the
/// overload scenario.
fn measure(full_res_size: Option<(i64, i64)>) -> Report {
    // Production-size requests through the warm path: cached program,
    // pooled buffers, one thread per request. Best of two measured
    // requests after one priming call — at 2MPix a single request runs
    // long enough that scheduling noise is immaterial.
    let mut full_res = Vec::new();
    if let Some((w, h)) = full_res_size {
        for app in APPS {
            let srv = PipelineServer::new(ServeConfig::default());
            let input = Arc::new(app.make_input(w, h));
            let req = Request::new(app, ScheduleChoice::Tuned, Arc::clone(&input));
            srv.call(&req).expect("full-resolution warm-up request");
            let mut best = f64::MAX;
            for _ in 0..2 {
                let resp = srv.call(&req).expect("full-resolution warm request");
                assert!(resp.cold_compile.is_none());
                best = best.min(resp.latency.as_secs_f64() * 1e3);
            }
            eprintln!("{:<20} warm {w}x{h} {best:>10.2}ms", app.name());
            full_res.push((app.name(), w, h, best));
        }
    }

    Report {
        full_res,
        overload: run_overload_scenario(),
    }
}

impl Report {
    /// The `BENCH_serve.json` document.
    fn to_json(&self) -> JsonValue {
        let ms = |x: f64| JsonValue::rounded(x, 3);
        let rps = |x: f64| JsonValue::rounded(x, 1);
        let ratio = |x: f64| JsonValue::rounded(x, 2);
        let full_res: Vec<JsonValue> = self
            .full_res
            .iter()
            .map(|&(app, w, h, warm_ms)| {
                JsonValue::object([
                    ("app", JsonValue::from(app)),
                    ("width", w.into()),
                    ("height", h.into()),
                    ("warm_ms", ms(warm_ms)),
                ])
            })
            .collect();
        let o = &self.overload;
        let overload = JsonValue::object([
            ("slots", JsonValue::from(o.slots)),
            ("queue_capacity", o.queue_capacity.into()),
            ("capacity_rps", rps(o.capacity_rps)),
            ("capacity_p99_ms", ms(o.capacity_p99_ms)),
            ("offered_clients", o.offered_clients.into()),
            ("ok", o.ok.into()),
            ("rejected", o.rejected.into()),
            ("shed", o.shed.into()),
            ("goodput_rps", rps(o.goodput_rps)),
            ("goodput_ratio", JsonValue::rounded(o.goodput_ratio, 3)),
            ("high_unc_p99_ms", ms(o.high_unc_p99_ms)),
            ("high_priority_p99_ms", ms(o.high_p99_ms)),
            ("high_p99_over_unc", ratio(o.high_p99_over_unc)),
            ("coalesce_clients", o.coalesce_clients.into()),
            ("coalesce_realizations", o.coalesce_realizations.into()),
            ("coalesce_cold_compiles", o.coalesce_cold_compiles.into()),
            ("coalesce_fanout", o.coalesce_fanout.into()),
        ]);
        JsonValue::object([
            (
                "config",
                JsonValue::object([
                    (
                        "threads_per_request",
                        JsonValue::from(ServeConfig::default().threads_per_request),
                    ),
                    ("cores", halide_runtime::num_threads_default().into()),
                ]),
            ),
            ("full_res", full_res.into()),
            ("overload", overload),
        ])
    }

    /// The serving gates (see the module docs); panics on the first one
    /// that does not hold.
    fn check_gates(&self, full_tier: bool) {
        let Report { full_res, overload } = self;
        if full_tier {
            assert!(
                full_res.len() == APPS.len(),
                "--full must measure every served app at 1080p"
            );
        }
        println!(
            "overload goodput: {:.0} req/s = {:.0}% of the {:.0} req/s capacity \
             (rejected {}, shed {})",
            overload.goodput_rps,
            100.0 * overload.goodput_ratio,
            overload.capacity_rps,
            overload.rejected,
            overload.shed
        );
        // Shedding must not destroy throughput. The bound sits below the
        // noise: on a 2-vCPU box the ratio measured 0.60-0.97 over 13 runs,
        // so a tighter bound gates the scheduler, not the server.
        assert!(
            overload.goodput_ratio >= 0.50,
            "shed-mode goodput must stay at >= 50% of measured capacity \
             (shedding protects throughput, it must not destroy it), got {:.0}%",
            100.0 * overload.goodput_ratio
        );
        println!(
            "overload high-priority p99: {:.3}ms = {:.2}x its uncontended p99 ({:.3}ms)",
            overload.high_p99_ms, overload.high_p99_over_unc, overload.high_unc_p99_ms
        );
        assert!(
            overload.high_p99_over_unc <= 2.0,
            "queue-jumping high-priority p99 must stay within 2x its uncontended \
             warm p99 even while normal traffic floods and sheds, got {:.2}x",
            overload.high_p99_over_unc
        );
        assert!(
            overload.rejected > 0 && overload.shed > 0,
            "the shed phase must actually exercise both degradation paths \
             (rejected {}, shed {})",
            overload.rejected,
            overload.shed
        );
        assert!(
            overload.coalesce_realizations == 1 && overload.coalesce_cold_compiles == 1,
            "a coalesced batch must compile once and realize once, got {} compiles / {} realizations",
            overload.coalesce_cold_compiles,
            overload.coalesce_realizations
        );
        assert_eq!(
            overload.coalesce_fanout,
            (overload.coalesce_clients - 1) as u64,
            "every non-leader in the coalesced batch must be served by fan-out"
        );
    }
}

/// Everything the overload scenario measures (see the module docs).
struct OverloadReport {
    slots: usize,
    queue_capacity: usize,
    capacity_rps: f64,
    capacity_p99_ms: f64,
    offered_clients: usize,
    ok: u64,
    rejected: u64,
    shed: u64,
    goodput_rps: f64,
    goodput_ratio: f64,
    /// p99 of the high-priority request shape with offered load == slots
    /// and no competing class — the baseline the shed-mode gate divides by.
    high_unc_p99_ms: f64,
    /// p99 of the same high-priority stream while normal traffic floods
    /// (and overflows) the queue.
    high_p99_ms: f64,
    high_p99_over_unc: f64,
    coalesce_clients: usize,
    coalesce_realizations: u64,
    coalesce_cold_compiles: u64,
    coalesce_fanout: u64,
}

/// Nearest-rank p99 of an unsorted latency sample, in ms.
fn p99_ms(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    if samples.is_empty() {
        return 0.0;
    }
    let rank = ((0.99 * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Drives the degradation mode end to end: capacity baseline, shed-mode
/// goodput, high-priority latency under queue-jump, coalescing fan-out.
///
/// High-priority requests use a larger shape than the normal churn: the
/// latency-sensitive class queue-jumps, so its wait is bounded by the
/// residual of one small in-service request — small relative to its own
/// service — which is what keeps its p99 near the uncontended baseline
/// while the normal class sheds.
fn run_overload_scenario() -> OverloadReport {
    use std::time::Duration;

    const SLOTS: usize = 2;
    const QUEUE: usize = 4;
    const APP: AppKind = AppKind::Blur;
    /// The normal (background churn) request shape.
    const NORMAL_SIZE: (i64, i64) = (64, 32);
    /// The high-priority request shape (~24x the pixels: its own service
    /// dominates both any normal request's residual it queue-jumps behind
    /// and the scheduler timeslice noise of a busy single-core machine).
    const HIGH_SIZE: (i64, i64) = (256, 192);

    let overload_server = || {
        let srv = PipelineServer::new(ServeConfig {
            max_in_flight: SLOTS,
            queue_capacity: QUEUE,
            threads_per_request: 1,
            ..ServeConfig::default()
        });
        srv.warm(APP, ScheduleChoice::Tuned, NORMAL_SIZE.0, NORMAL_SIZE.1)
            .expect("warms normal shape");
        srv.warm(APP, ScheduleChoice::Tuned, HIGH_SIZE.0, HIGH_SIZE.1)
            .expect("warms high shape");
        srv
    };
    // Distinct input Arcs per client throughout: identical pixels, but no
    // coalescing (the flight key includes input identity), so every request
    // is a real realization — these phases measure scheduling, not fan-out.
    let make_input = |size: (i64, i64)| Arc::new(APP.make_input(size.0, size.1));

    // ---- capacity: offered load == slots, nothing sheds ------------------
    let srv = overload_server();
    const CAPACITY_PER_CLIENT: usize = 200;
    let capacity_inputs: Vec<_> = (0..SLOTS).map(|_| make_input(NORMAL_SIZE)).collect();
    for input in &capacity_inputs {
        srv.call(&Request::new(APP, ScheduleChoice::Tuned, Arc::clone(input)))
            .expect("prime");
    }
    srv.reset_latencies();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for input in &capacity_inputs {
            let srv = &srv;
            scope.spawn(move || {
                let req = Request::new(APP, ScheduleChoice::Tuned, Arc::clone(input));
                for _ in 0..CAPACITY_PER_CLIENT {
                    srv.call(&req).expect("at-capacity request");
                }
            });
        }
    });
    let capacity_rps = (SLOTS * CAPACITY_PER_CLIENT) as f64 / start.elapsed().as_secs_f64();
    let capacity_p99_ms = srv.stats().latency.p99_ms.max(0.05);

    // ---- shed mode: 4x the clients, short queue, some tight deadlines ----
    let srv = overload_server();
    let offered_clients = 4 * SLOTS;
    const SHED_PER_CLIENT: usize = 250;
    let start = Instant::now();
    let (ok, rejected, shed) = std::thread::scope(|scope| {
        let mut clients = Vec::new();
        for c in 0..offered_clients {
            let srv = &srv;
            clients.push(scope.spawn(move || {
                let input = Arc::new(APP.make_input(NORMAL_SIZE.0, NORMAL_SIZE.1));
                let (mut ok, mut rejected, mut shed) = (0u64, 0u64, 0u64);
                for i in 0..SHED_PER_CLIENT {
                    let mut req = Request::new(APP, ScheduleChoice::Tuned, Arc::clone(&input));
                    // Every 4th request carries a tight deadline, so the
                    // deadline-shed path runs alongside queue rejection.
                    if (c + i) % 4 == 0 {
                        req = req.deadline(Duration::from_micros(500));
                    }
                    match srv.call(&req) {
                        Ok(_) => ok += 1,
                        Err(ServeError::Overloaded { .. }) => rejected += 1,
                        Err(ServeError::DeadlineExceeded { .. }) => shed += 1,
                        Err(other) => panic!("unexpected shed-mode error: {other}"),
                    }
                }
                (ok, rejected, shed)
            }));
        }
        let (mut ok, mut rejected, mut shed) = (0u64, 0u64, 0u64);
        for t in clients {
            let (o, r, s) = t.join().expect("shed client");
            ok += o;
            rejected += r;
            shed += s;
        }
        (ok, rejected, shed)
    });
    let elapsed = start.elapsed().as_secs_f64();
    let goodput_rps = ok as f64 / elapsed;
    let goodput_ratio = goodput_rps / capacity_rps;
    let stats = srv.stats();
    assert_eq!(
        stats.requests, ok,
        "server agrees with the clients on goodput"
    );
    assert_eq!(stats.rejected, rejected);
    assert_eq!(stats.shed, shed);

    // ---- high-priority latency: baseline, then under normal-class flood --
    const HIGH_PER_CLIENT: usize = 120;
    let high_clients = SLOTS;
    let run_high_clients = |srv: &PipelineServer| -> Vec<f64> {
        std::thread::scope(|scope| {
            let mut highs = Vec::new();
            for _ in 0..high_clients {
                highs.push(scope.spawn(move || {
                    let input = Arc::new(APP.make_input(HIGH_SIZE.0, HIGH_SIZE.1));
                    let req =
                        Request::new(APP, ScheduleChoice::Tuned, input).priority(Priority::High);
                    let mut lat_ms = Vec::with_capacity(HIGH_PER_CLIENT);
                    for _ in 0..HIGH_PER_CLIENT {
                        let resp = srv.call(&req).expect("high-priority request");
                        lat_ms.push(resp.latency.as_secs_f64() * 1e3);
                    }
                    lat_ms
                }));
            }
            highs
                .into_iter()
                .flat_map(|t| t.join().expect("high client"))
                .collect()
        })
    };

    // Baseline: the high class alone at offered == slots.
    let srv = overload_server();
    let mut unc_lat = run_high_clients(&srv);
    let high_unc_p99 = p99_ms(&mut unc_lat).max(0.05);

    // Flooded: the same high stream while more normal clients than the
    // slots and queue can hold hammer admission with no deadline — the
    // queue stays full, normal arrivals shed, and the high class must keep
    // jumping past the backlog.
    let srv = overload_server();
    let flood_stop = std::sync::atomic::AtomicBool::new(false);
    let mut flood_lat = std::thread::scope(|scope| {
        for _ in 0..(SLOTS + QUEUE + 2) {
            let (srv, flood_stop) = (&srv, &flood_stop);
            scope.spawn(move || {
                let input = Arc::new(APP.make_input(NORMAL_SIZE.0, NORMAL_SIZE.1));
                let req = Request::new(APP, ScheduleChoice::Tuned, input);
                while !flood_stop.load(std::sync::atomic::Ordering::Relaxed) {
                    // Both outcomes are fine; the flood only exists to keep
                    // the queue full under the high-priority stream. Rejected
                    // clients back off briefly, as a real client would —
                    // hot-spinning on Overloaded would measure CPU starvation
                    // of the workers, not queue-jump latency.
                    if srv.call(&req).is_err() {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            });
        }
        let lat = run_high_clients(&srv);
        flood_stop.store(true, std::sync::atomic::Ordering::Relaxed);
        lat
    });
    let high_p99 = p99_ms(&mut flood_lat);
    let high_p99_over_unc = high_p99 / high_unc_p99;
    assert!(
        srv.stats().rejected > 0,
        "the flood must actually overflow the queue for the high-priority \
         gate to mean anything"
    );

    // ---- coalesce: identical batch realizes once -------------------------
    let srv = Arc::new(overload_server());
    const COALESCE_CLIENTS: usize = 8;
    // A shape neither phase warmed, so the batch's single compile is visible.
    let input = Arc::new(APP.make_input(96, 48));
    let pre = srv.stats();
    srv.pause();
    let clients: Vec<_> = (0..COALESCE_CLIENTS)
        .map(|_| {
            let srv = Arc::clone(&srv);
            let req = Request::new(APP, ScheduleChoice::Tuned, Arc::clone(&input));
            std::thread::spawn(move || srv.call(&req).expect("coalesced request"))
        })
        .collect();
    while srv.queued() != 1 || srv.coalesce_waiting() != (COALESCE_CLIENTS - 1) as u64 {
        std::thread::yield_now();
    }
    srv.resume();
    let batch: Vec<_> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    let reference = batch[0].output.to_f64_vec();
    for resp in &batch {
        assert_eq!(resp.output.to_f64_vec(), reference, "fan-out diverged");
    }
    let cstats = srv.stats();
    let coalesce_realizations = cstats.realizations - pre.realizations;
    let coalesce_cold_compiles = cstats.cold_compiles - pre.cold_compiles;
    let coalesce_fanout = cstats.coalesced - pre.coalesced;

    let report = OverloadReport {
        slots: SLOTS,
        queue_capacity: QUEUE,
        capacity_rps,
        capacity_p99_ms,
        offered_clients,
        ok,
        rejected,
        shed,
        goodput_rps,
        goodput_ratio,
        high_unc_p99_ms: high_unc_p99,
        high_p99_ms: high_p99,
        high_p99_over_unc,
        coalesce_clients: COALESCE_CLIENTS,
        coalesce_realizations,
        coalesce_cold_compiles,
        coalesce_fanout,
    };
    eprintln!(
        "overload: capacity {:.0} req/s (p99 {:.3}ms) | shed-mode goodput {:.0} req/s \
         ({:.0}% of capacity; ok {} rejected {} shed {}) | high-prio p99 {:.3}ms \
         vs uncontended {:.3}ms ({:.2}x) | coalesce {} clients -> {} realization(s)",
        report.capacity_rps,
        report.capacity_p99_ms,
        report.goodput_rps,
        100.0 * report.goodput_ratio,
        report.ok,
        report.rejected,
        report.shed,
        report.high_p99_ms,
        report.high_unc_p99_ms,
        report.high_p99_over_unc,
        report.coalesce_clients,
        report.coalesce_realizations,
    );
    report
}

#[cfg(test)]
#[path = "../artifact_layout.rs"]
mod artifact_layout;

#[cfg(test)]
mod tests {
    use super::*;

    /// The overload scenario plus a thumbnail-size full-resolution tier:
    /// what it writes parses back to the same document and has the
    /// sections, in order and with the same keys, of the checked-in
    /// `BENCH_serve.json`.
    #[test]
    fn artifact_round_trips_and_matches_the_checked_in_layout() {
        let doc = measure(Some((64, 32))).to_json();
        let checked_in = include_str!("../../../../BENCH_serve.json");
        artifact_layout::assert_matches_checked_in(&doc, checked_in);
    }
}
