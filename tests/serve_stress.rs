//! Concurrency stress tests for the serving layer: many threads realizing
//! one shared compiled program into pooled buffers must produce exactly the
//! image a single-threaded run produces — sharing and pooling are
//! performance mechanisms, never observable in the results.

use std::sync::Arc;

use halide::exec::Realizer;
use halide::pipelines::{AppKind, ScheduleChoice};
use halide::runtime::BufferPool;
use halide::serve::{PipelineServer, Request, ServeConfig};

const THREADS: usize = 8;
const ROUNDS: usize = 6;

/// Eight threads share one `Arc<Program>` and one `BufferPool`, each
/// realizing repeatedly into pooled output buffers; every single output must
/// be bit-identical to a single-threaded reference realization into a fresh
/// buffer.
#[test]
fn shared_program_pooled_buffers_are_bit_identical_across_threads() {
    let app = AppKind::Blur;
    let (w, h) = (128, 96);
    let built = app.build(w, h, ScheduleChoice::Tuned).unwrap();
    let input = Arc::new(app.make_input(w, h));
    let extents = app.output_extents(w, h);

    // Single-threaded reference: its own compile, a fresh output buffer.
    let reference = Realizer::new(&built.module)
        .input_shared(built.input_name.clone(), Arc::clone(&input))
        .threads(1)
        .instrument(false)
        .realize(&extents)
        .unwrap()
        .output
        .to_f64_vec();

    // One program, compiled once, shared by every thread.
    let owner = Realizer::new(&built.module);
    let program = owner.program().unwrap();
    let pool = Arc::new(BufferPool::default());
    let output_ty = built.module.output.ty.scalar();

    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let program = Arc::clone(&program);
            let pool = Arc::clone(&pool);
            let input = Arc::clone(&input);
            let (module, input_name, extents, reference) =
                (&built.module, &built.input_name, &extents, &reference);
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    let out = pool.acquire(output_ty, extents).detach();
                    let realization = Realizer::with_program(module, Arc::clone(&program))
                        .input_shared(input_name.clone(), Arc::clone(&input))
                        .threads(1)
                        .instrument(false)
                        .buffer_pool(Arc::clone(&pool))
                        .realize_into(out)
                        .unwrap();
                    assert_eq!(
                        &realization.output.to_f64_vec(),
                        reference,
                        "round {round}: pooled, program-sharing realization diverged"
                    );
                    pool.release(realization.output);
                }
            });
        }
    });

    // Steady state: after the first wave of allocations, outputs and scratch
    // recycle; with 8 threads × 6 rounds the pool must be mostly hits.
    let stats = pool.stats();
    assert!(
        stats.hits + stats.misses >= (THREADS * ROUNDS) as u64,
        "expected at least one acquisition per realization, saw {stats:?}"
    );
    assert!(
        stats.hit_rate() > 0.5,
        "pool should serve the steady state, got {:?}",
        stats
    );
}

/// The same property end to end through the `PipelineServer`: a mixed
/// multi-app request stream from eight client threads, every response
/// bit-identical to the app's single-threaded direct realization.
#[test]
fn server_under_concurrent_mixed_load_matches_direct_runs() {
    let apps = [AppKind::Blur, AppKind::Histogram, AppKind::BilateralGrid];
    let (w, h) = (96, 64);

    // Direct single-threaded references, one per app.
    let references: Vec<Vec<f64>> = apps
        .iter()
        .map(|app| {
            let built = app.build(w, h, ScheduleChoice::Tuned).unwrap();
            Realizer::new(&built.module)
                .input(built.input_name.clone(), app.make_input(w, h))
                .threads(1)
                .instrument(false)
                .realize(&app.output_extents(w, h))
                .unwrap()
                .output
                .to_f64_vec()
        })
        .collect();

    let server = PipelineServer::new(ServeConfig {
        max_in_flight: 4,
        queue_capacity: 64,
        ..ServeConfig::default()
    });
    let inputs: Vec<Arc<_>> = apps.iter().map(|a| Arc::new(a.make_input(w, h))).collect();
    // Pre-compile so no two threads race the same cold key (a race would
    // compile twice and keep one — correct, but the counts below are exact
    // only on a warm cache, which is also the steady state being modeled).
    for app in apps {
        assert!(server
            .warm(app, ScheduleChoice::Tuned, w, h)
            .unwrap()
            .is_some());
    }

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (server, apps, inputs, references) = (&server, &apps, &inputs, &references);
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    // Each thread walks the apps in a different order.
                    let i = (t + round) % apps.len();
                    let req = Request::new(apps[i], ScheduleChoice::Tuned, Arc::clone(&inputs[i]));
                    let resp = server.call(&req).unwrap();
                    assert_eq!(
                        resp.output.to_f64_vec(),
                        references[i],
                        "thread {t} round {round}: served {} diverged",
                        apps[i].name()
                    );
                }
            });
        }
    });

    let stats = server.stats();
    assert_eq!(stats.requests, (THREADS * ROUNDS) as u64);
    assert_eq!(stats.rejected, 0);
    // Three apps at one shape each: exactly three compiles ever happen.
    assert_eq!(stats.cold_compiles, 3);
    assert_eq!(stats.cached_programs, 3);
    assert!(
        stats.pool.hit_rate() > 0.5,
        "pool hit rate {:?} too low under steady mixed load",
        stats.pool
    );
    assert_eq!(stats.latency.count, (THREADS * ROUNDS) as u64);
    assert!(stats.latency.p50_ms <= stats.latency.p99_ms);
}

/// Coalescing correctness under real concurrency: many threads submit the
/// *same* request (same app, schedule, shape, and input `Arc`) through a
/// paused server, so the whole batch piles up and is provably coalesced —
/// exactly one compile and one realization serve every thread, and each
/// response is bit-identical to a direct single-threaded realization.
#[test]
fn coalesced_batch_is_bit_identical_and_realizes_once() {
    let app = AppKind::Blur;
    let (w, h) = (128, 96);
    let built = app.build(w, h, ScheduleChoice::Tuned).unwrap();
    let input = Arc::new(app.make_input(w, h));
    let reference = Realizer::new(&built.module)
        .input_shared(built.input_name.clone(), Arc::clone(&input))
        .threads(1)
        .instrument(false)
        .realize(&app.output_extents(w, h))
        .unwrap()
        .output
        .to_f64_vec();

    let server = Arc::new(PipelineServer::new(ServeConfig {
        max_in_flight: 4,
        queue_capacity: 64,
        ..ServeConfig::default()
    }));

    const BATCHES: usize = 3;
    for batch in 0..BATCHES {
        // Hold admission shut while every client enqueues: one leader waits
        // for a slot, the rest attach to its flight.
        server.pause();
        let clients: Vec<_> = (0..THREADS)
            .map(|_| {
                let server = Arc::clone(&server);
                let req = Request::new(app, ScheduleChoice::Tuned, Arc::clone(&input));
                std::thread::spawn(move || server.call(&req).unwrap())
            })
            .collect();
        while server.queued() != 1 || server.coalesce_waiting() != (THREADS - 1) as u64 {
            std::thread::yield_now();
        }
        server.resume();

        let responses: Vec<_> = clients.into_iter().map(|c| c.join().unwrap()).collect();
        for (i, resp) in responses.iter().enumerate() {
            assert_eq!(
                resp.output.to_f64_vec(),
                reference,
                "batch {batch} client {i}: coalesced output diverged from direct realization"
            );
        }
        let stats = server.stats();
        assert_eq!(
            stats.realizations,
            (batch + 1) as u64,
            "batch {batch}: each coalesced batch must realize exactly once"
        );
        assert_eq!(stats.cold_compiles, 1, "only the first batch compiles");
        assert_eq!(
            stats.coalesced,
            ((batch + 1) * (THREADS - 1)) as u64,
            "batch {batch}: every non-leader must be served by fan-out"
        );
    }
    let stats = server.stats();
    assert_eq!(stats.requests, (BATCHES * THREADS) as u64);
    assert_eq!(stats.rejected + stats.shed, 0);
}

/// Churn matrix: a tiny two-entry program cache forced to evict by a
/// three-app request mix, a one-slot server with a short queue shedding
/// load, and tight deadlines expiring queued work — all at once, from eight
/// threads. Every request must terminate (no hangs) with `Ok`,
/// `Overloaded`, or `DeadlineExceeded`; successful outputs stay
/// bit-identical to direct realizations even when their program was evicted
/// and recompiled mid-stream.
#[test]
fn eviction_and_shedding_churn_never_corrupts_results() {
    use halide::serve::ServeError;
    use std::time::Duration;

    let apps = [AppKind::Blur, AppKind::Histogram, AppKind::BilateralGrid];
    let (w, h) = (96, 64);
    let references: Vec<Vec<f64>> = apps
        .iter()
        .map(|app| {
            let built = app.build(w, h, ScheduleChoice::Tuned).unwrap();
            Realizer::new(&built.module)
                .input(built.input_name.clone(), app.make_input(w, h))
                .threads(1)
                .instrument(false)
                .realize(&app.output_extents(w, h))
                .unwrap()
                .output
                .to_f64_vec()
        })
        .collect();

    let server = PipelineServer::new(ServeConfig {
        max_in_flight: 1,
        queue_capacity: 2,
        cache_max_entries: 2, // three hot apps: guaranteed eviction churn
        ..ServeConfig::default()
    });
    let inputs: Vec<Arc<_>> = apps.iter().map(|a| Arc::new(a.make_input(w, h))).collect();

    let (mut ok, mut overloaded, mut shed) = (0u64, 0u64, 0u64);
    std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for t in 0..THREADS {
            let (server, apps, inputs, references) = (&server, &apps, &inputs, &references);
            workers.push(scope.spawn(move || {
                let (mut ok, mut overloaded, mut shed) = (0u64, 0u64, 0u64);
                for round in 0..ROUNDS {
                    let i = (t + round) % apps.len();
                    // Every request carries a 5 s budget; a sprinkle of
                    // effectively-instant deadlines exercises shedding
                    // alongside real traffic.
                    let budget = if (t + round) % 7 == 0 {
                        Duration::ZERO
                    } else {
                        Duration::from_secs(5)
                    };
                    let req = Request::new(apps[i], ScheduleChoice::Tuned, Arc::clone(&inputs[i]))
                        .deadline(budget);
                    match server.call(&req) {
                        Ok(resp) => {
                            ok += 1;
                            assert_eq!(
                                resp.output.to_f64_vec(),
                                references[i],
                                "thread {t} round {round}: output diverged under churn"
                            );
                        }
                        Err(ServeError::Overloaded { .. }) => overloaded += 1,
                        Err(ServeError::DeadlineExceeded { .. }) => shed += 1,
                        Err(other) => panic!("unexpected serve error under churn: {other}"),
                    }
                }
                (ok, overloaded, shed)
            }));
        }
        for worker in workers {
            let (o, v, s) = worker.join().unwrap();
            ok += o;
            overloaded += v;
            shed += s;
        }
    });

    let stats = server.stats();
    assert_eq!(ok + overloaded + shed, (THREADS * ROUNDS) as u64);
    assert_eq!(stats.requests, ok);
    assert_eq!(stats.rejected, overloaded);
    assert!(
        stats.shed >= shed,
        "every local shed is counted by the server"
    );
    assert!(ok > 0, "some requests must get through the churn");
    assert!(
        stats.cached_programs <= 2,
        "cache budget violated: {} resident",
        stats.cached_programs
    );
    // Three hot apps through two slots: evictions (and hence recompiles)
    // must actually have happened for this test to mean anything.
    assert!(
        stats.evicted_programs > 0,
        "expected cache churn, saw none (cold={}, evicted={})",
        stats.cold_compiles,
        stats.evicted_programs
    );
    assert!(
        stats.cold_compiles > 3,
        "evicted programs recompile on reuse"
    );
}
