//! `serve_warm` and `serve_churn`: a closed loop of `T` clients on one
//! `PipelineServer` (`max_in_flight = T`, one thread per request). A closed
//! loop because the server's callers block on `call`: each client sends its
//! next request only when the previous one returns, so a slower server
//! receives less load and nothing queues past the slots.
//!
//! Warm: three resident programs, hit rate 1.0 by construction — per-request
//! server overhead and `exec` move it, cache and compile changes must not.
//! Churn: 24 program keys through an 8-entry cache under Zipf(1)
//! popularity, so misses (lower + compile + evict) run beside hits, and
//! identical concurrent requests coalesce wherever there is more than one
//! client (the traced pass's [`coalescing_probe`] sends from every CPU).
//!
//! The seed shuffles the *order* of requests only. Every round holds the
//! same multiset of requests (exact 4:3:1 counts; Zipf shares rounded by
//! largest remainder) and the popularity rank of each key is fixed, because
//! the benchmark is accepted only if ten different seeds agree to a third of
//! each bound — and which camera-pipe width a seed made popular would move
//! throughput by more than that.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use halide_pipelines::{AppKind, ScheduleChoice};
use halide_runtime::Buffer;
use halide_serve::{PipelineServer, Request, ServeConfig, ServerStats};

use crate::oracle::{self, ORACLE_SIZE};
use crate::programs::{self, Built, BACKEND, OPT_LEVEL};
use crate::rng::Rng;
use crate::spans::Recorder;
use crate::spec::SERVE_APPS;
use crate::stats::{median, percentile};
use crate::{env, run_segments, EndToEndSamples, Outcome, RunConfig, Timed};

/// Which of the two serve workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavour {
    /// Everything resident.
    Warm,
    /// More keys than cache entries.
    Churn,
}

/// One program key a client may request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Key {
    app: AppKind,
    size: (i64, i64),
}

#[derive(Clone)]
struct Plan {
    keys: Vec<Key>,
    /// Requests per key per round; sums to the round length.
    counts: Vec<usize>,
    warmup_requests: usize,
    cache_max_entries: usize,
    /// Clients send the same `Arc` for a key, so identical concurrent
    /// requests can coalesce (churn); otherwise each client owns its inputs
    /// and every request is realized (warm).
    shared_inputs: bool,
    clients: usize,
}

/// Splits `total` requests over `weights` by largest remainder, so the
/// counts are exact, sum to `total`, and do not depend on the seed.
fn apportion(weights: &[f64], total: usize) -> Vec<usize> {
    let sum: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..weights.len()).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = total - counts.iter().sum::<usize>();
    for &i in by_remainder.iter().take(short) {
        counts[i] += 1;
    }
    counts
}

fn plan(cfg: &RunConfig, flavour: Flavour) -> Plan {
    let clients = env::load_threads();
    match flavour {
        // 96×64: large enough that a request is realize-dominated (2–17 ms),
        // small enough that 208 requests make a ~1 s round at T = 1 and leave
        // 10 samples beyond p95. 4:3:1 keeps the camera pipe at an eighth of
        // the requests, so p95 sits inside its latency mode rather than on
        // the edge of it.
        Flavour::Warm => {
            let size = if cfg.smoke { ORACLE_SIZE } else { (96, 64) };
            Plan {
                keys: SERVE_APPS.iter().map(|&app| Key { app, size }).collect(),
                counts: apportion(&[4.0, 3.0, 1.0], if cfg.smoke { 16 } else { 208 }),
                warmup_requests: if cfg.smoke { 8 } else { 32 },
                cache_max_entries: usize::MAX,
                shared_inputs: false,
                clients,
            }
        }
        // Popularity rank r is app r mod 3 at width 64 + 8·(r div 3): the
        // apps interleave, so each holds a fixed share of the Zipf mass.
        Flavour::Churn => {
            let (w0, h, n) = if cfg.smoke {
                (64, 32, 12)
            } else {
                (64, 48, 24)
            };
            let keys: Vec<Key> = (0..n)
                .map(|r| Key {
                    app: SERVE_APPS[r % 3],
                    size: (w0 + 8 * (r / 3) as i64, h),
                })
                .collect();
            let zipf: Vec<f64> = (0..n).map(|r| 1.0 / (r + 1) as f64).collect();
            Plan {
                keys,
                // 200 requests: a ~1.1 s round at T = 1, 10 samples beyond p95.
                counts: apportion(&zipf, if cfg.smoke { 36 } else { 200 }),
                warmup_requests: if cfg.smoke { 12 } else { 60 },
                cache_max_entries: if cfg.smoke { 4 } else { 8 },
                shared_inputs: true,
                clients,
            }
        }
    }
}

/// A request sequence: every key `counts[key]` times, in an order drawn from
/// `rng`. A pure function of the counts and the generator state.
fn sequence(counts: &[usize], rng: &mut Rng) -> Vec<usize> {
    let mut seq: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(key, &n)| std::iter::repeat_n(key, n))
        .collect();
    rng.shuffle(&mut seq);
    seq
}

fn new_server(plan: &Plan) -> PipelineServer {
    PipelineServer::new(ServeConfig {
        max_in_flight: plan.clients,
        queue_capacity: 4 * plan.clients,
        threads_per_request: 1,
        backend: BACKEND,
        opt: OPT_LEVEL,
        cache_max_entries: plan.cache_max_entries,
        ..ServeConfig::default()
    })
}

/// `inputs[client][key]`; with shared inputs every client row holds the
/// same `Arc`s.
fn make_inputs(plan: &Plan) -> Vec<Vec<Arc<Buffer>>> {
    let fresh = || -> Vec<Arc<Buffer>> {
        plan.keys
            .iter()
            .map(|k| Arc::new(k.app.make_input(k.size.0, k.size.1)))
            .collect()
    };
    if plan.shared_inputs {
        vec![fresh(); plan.clients]
    } else {
        (0..plan.clients).map(|_| fresh()).collect()
    }
}

/// One successful response.
#[derive(Debug, Clone, Copy)]
struct Served {
    key: usize,
    /// Wall time around `call`, ms — what the client saw.
    latency_ms: f64,
    /// `Response::latency`, ms — what the server recorded.
    server_ms: f64,
    cold_compile_ms: Option<f64>,
    coalesced: bool,
}

struct Round {
    wall: Duration,
    served: Vec<Served>,
    attempted: u64,
    failures: Vec<String>,
}

/// Runs `seq` through the server from `plan.clients` closed-loop clients
/// that pull the next request from one shared cursor (so a client that drew
/// cheap requests simply sends more of them).
fn run_round(
    plan: &Plan,
    server: &PipelineServer,
    inputs: &[Vec<Arc<Buffer>>],
    baselines: &[u64],
    seq: &[usize],
    rec: &Recorder,
    op_base: u64,
) -> Round {
    let cursor = AtomicUsize::new(0);
    let gate = Barrier::new(plan.clients + 1);
    let results: Mutex<(Vec<Served>, Vec<String>)> = Mutex::new((Vec::new(), Vec::new()));
    let mut start = Instant::now();
    std::thread::scope(|scope| {
        for client_inputs in inputs {
            scope.spawn(|| {
                let (mut served, mut failures) = (Vec::new(), Vec::new());
                gate.wait();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&key) = seq.get(i) else { break };
                    let op = op_base + i as u64;
                    let k = plan.keys[key];
                    let req = Request::new(
                        k.app,
                        ScheduleChoice::Tuned,
                        Arc::clone(&client_inputs[key]),
                    );
                    let (result, latency) = rec.span("serve.call", op, || server.call(&req));
                    match result {
                        Ok(resp) => {
                            let (same, _) = rec.span("oracle.check", op, || {
                                oracle::checksum(&resp.output) == baselines[key]
                            });
                            if same {
                                served.push(Served {
                                    key,
                                    latency_ms: latency.as_secs_f64() * 1e3,
                                    server_ms: resp.latency.as_secs_f64() * 1e3,
                                    cold_compile_ms: resp
                                        .cold_compile
                                        .map(|d| d.as_secs_f64() * 1e3),
                                    coalesced: resp.coalesced,
                                });
                            } else {
                                failures.push(format!(
                                    "{} {:?}: wrong pixels",
                                    k.app.slug(),
                                    k.size
                                ));
                            }
                        }
                        // An error, `Overloaded` and `DeadlineExceeded` all
                        // count as failed: the workload is sized so that
                        // none occurs.
                        Err(e) => failures.push(format!("{} {:?}: {e}", k.app.slug(), k.size)),
                    }
                }
                let mut all = results.lock().expect("a client panicked");
                all.0.extend(served);
                all.1.extend(failures);
            });
        }
        gate.wait();
        start = Instant::now();
        // Leaving the scope joins every client.
    });
    let wall = start.elapsed();
    let (served, failures) = results.into_inner().expect("a client panicked");
    Round {
        wall,
        served,
        attempted: seq.len() as u64,
        failures,
    }
}

struct Ready {
    server: PipelineServer,
    inputs: Vec<Vec<Arc<Buffer>>>,
}

/// Compiles every key once through `PipelineServer::warm` and returns the
/// summed lower + compile time the server reports.
fn warm_all(plan: &Plan, server: &PipelineServer) -> Result<Duration, String> {
    let mut compile = Duration::ZERO;
    // Least popular first, so the popular keys are the ones left resident.
    for k in plan.keys.iter().rev() {
        let cold = server
            .warm(k.app, ScheduleChoice::Tuned, k.size.0, k.size.1)
            .map_err(|e| format!("warming {} {:?}: {e}", k.app.slug(), k.size))?;
        compile += cold.unwrap_or_default();
    }
    Ok(compile)
}

/// One full set-up: start a server, compile every key once (`warm`), make
/// the inputs, and run the warm-up requests so pools and (for churn) the
/// cache are in steady state. Returns the summed compile time too.
fn set_up(
    plan: &Plan,
    baselines: &[u64],
    rng: &mut Rng,
    out: &mut Outcome,
) -> Result<(Ready, Duration, Duration), String> {
    let start = Instant::now();
    let server = new_server(plan);
    let compile = warm_all(plan, &server)?;
    let inputs = make_inputs(plan);
    // The warm-up holds the round's mix too, so set-up costs the same under
    // every seed.
    let weights: Vec<f64> = plan.counts.iter().map(|&n| n as f64).collect();
    let seq = sequence(&apportion(&weights, plan.warmup_requests), rng);
    let warmup = run_round(plan, &server, &inputs, baselines, &seq, &Recorder::new(), 0);
    for f in warmup.failures {
        out.fail(format!("warm-up: {f}"));
    }
    Ok((Ready { server, inputs }, start.elapsed(), compile))
}

/// Bare programs for every key (built as the server builds them) and the
/// checksum each key's responses must have. Blur and histogram baselines
/// are checked against the hand-written reference at the requested size;
/// every app is checked against the interpreter at [`ORACLE_SIZE`] *through
/// a server*, so the served path itself faces the independent oracle.
fn baselines(
    plan: &Plan,
    rec: &Recorder,
    out: &mut Outcome,
) -> Result<(Vec<Built>, Vec<u64>), String> {
    let quiet = Recorder::new();
    let mut bare = Vec::new();
    let mut sums = Vec::new();
    for k in &plan.keys {
        let built = programs::build(&quiet, 0, k.app, ScheduleChoice::Tuned, k.size.0, k.size.1)?;
        let input = Arc::new(k.app.make_input(k.size.0, k.size.1));
        let (first, _) = built.realize(&quiet, 0, &input, 1)?;
        rec.span("oracle.check", 0, || {
            if let Some(expected) = oracle::hand_written_reference(k.app, &input) {
                if let Err(e) = oracle::check(&first.output, &expected) {
                    out.fail(format!(
                        "{} {:?} vs hand-written reference: {e}",
                        k.app.slug(),
                        k.size
                    ));
                }
            }
        });
        sums.push(oracle::checksum(&first.output));
        bare.push(built);
    }
    let (w, h) = ORACLE_SIZE;
    let server = new_server(plan);
    for app in SERVE_APPS {
        let req = Request::new(app, ScheduleChoice::Tuned, Arc::new(app.make_input(w, h)));
        let verdict = server
            .call(&req)
            .map_err(|e| e.to_string())
            .and_then(|resp| {
                oracle::check(&resp.output, &oracle::interpreter_reference(app, w, h)?)
            });
        if let Err(e) = verdict {
            out.fail(format!(
                "{} served at {w}x{h} vs interpreter: {e}",
                app.slug()
            ));
        }
    }
    Ok((bare, sums))
}

/// What set-up and rounds both mutate.
struct Ctx {
    samples: EndToEndSamples,
    rng: Rng,
}

/// Runs the workload.
///
/// # Errors
///
/// A key failed to compile during set-up.
pub fn run(cfg: &RunConfig, flavour: Flavour) -> Result<Outcome, String> {
    let plan = plan(cfg, flavour);
    let rec = Recorder::new();
    rec.set_on(cfg.trace);
    let mut out = Outcome::default();
    let mut ctx = Ctx {
        samples: EndToEndSamples::default(),
        rng: Rng::new(cfg.seed, 3),
    };

    let (bare, sums) = baselines(&plan, &rec, &mut out)?;
    let timed = run_segments(
        cfg,
        &rec,
        &mut out,
        &mut ctx,
        |ctx, _, out| {
            let (ready, wall, compile) = set_up(&plan, &sums, &mut ctx.rng, out)?;
            ctx.samples.setup_s.push(wall.as_secs_f64());
            ctx.samples.compile_ms.push(compile.as_secs_f64() * 1e3);
            let stats_before = ready.server.stats();
            Ok((ready, stats_before))
        },
        |ctx, (ready, _), index, out| {
            let seq = sequence(&plan.counts, &mut ctx.rng);
            let op_base = (index as u64 + 1) * 1_000_000;
            let round = run_round(
                &plan,
                &ready.server,
                &ready.inputs,
                &sums,
                &seq,
                &rec,
                op_base,
            );
            out.attempted += round.attempted;
            out.failed += round.failures.len() as u64;
            for f in &round.failures {
                out.fail(f.clone());
            }
            round
        },
    )?;
    let mut samples = ctx.samples;
    out.exact_counts.insert(
        "ops_per_round".into(),
        plan.counts.iter().sum::<usize>() as f64,
    );
    if !cfg.smoke {
        check_invariants(flavour, &timed, &mut out);
    }

    if cfg.trace {
        // The traced pass has one segment, so the statistics taken after its
        // set-up and now bracket all of its timed rounds.
        let (Ready { server, .. }, stats_before) = &timed.setup;
        let stats_after = server.stats();
        let mut layers = per_layer(
            &plan,
            (&bare, &sums),
            &timed,
            (stats_before, &stats_after),
            &mut ctx.rng,
            &mut out,
        );
        let coverage = timed.span_coverage(&rec, plan.clients);
        layers.insert("trace.span_coverage".into(), coverage);
        out.set_per_layer(layers);
        out.spans = rec.spans();
        return Ok(out);
    }

    for round in &timed.rounds {
        let round = &round.result;
        let wall = round.wall.as_secs_f64();
        let latencies: Vec<f64> = round.served.iter().map(|s| s.latency_ms).collect();
        let pixels: f64 = round.served.iter().map(|s| pixels(&plan.keys[s.key])).sum();
        samples.mpix_per_s.push(pixels / 1e6 / wall);
        samples.push_round(&latencies, wall);
    }
    out.set_end_to_end(&samples);
    Ok(out)
}

fn pixels(k: &Key) -> f64 {
    (k.size.0 * k.size.1) as f64
}

/// `T` bare threads realizing the shared compiled programs over one round's
/// sequence: no server, no admission, no pool, no compile — what the
/// hardware gives independent workers. Returns realizations/s and the
/// per-key realize latencies (ms).
fn raw_round(plan: &Plan, bare: &[Built], seq: &[usize]) -> (f64, BTreeMap<usize, Vec<f64>>) {
    let inputs = make_inputs(plan);
    let cursor = AtomicUsize::new(0);
    let latencies: Mutex<BTreeMap<usize, Vec<f64>>> = Mutex::new(BTreeMap::new());
    let quiet = Recorder::new();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client_inputs in &inputs {
            scope.spawn(|| {
                let mut mine: Vec<(usize, f64)> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&key) = seq.get(i) else { break };
                    if let Ok((r, d)) = bare[key].realize(&quiet, 0, &client_inputs[key], 1) {
                        std::hint::black_box(r);
                        mine.push((key, d.as_secs_f64() * 1e3));
                    }
                }
                let mut all = latencies.lock().expect("a raw worker panicked");
                for (key, ms) in mine {
                    all.entry(key).or_default().push(ms);
                }
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let latencies = latencies.into_inner().expect("a raw worker panicked");
    let done: usize = latencies.values().map(Vec::len).sum();
    (done as f64 / wall, latencies)
}

fn per_layer(
    plan: &Plan,
    (bare, sums): (&[Built], &[u64]),
    timed: &Timed<(Ready, ServerStats), Round>,
    (before, after): (&ServerStats, &ServerStats),
    rng: &mut Rng,
    out: &mut Outcome,
) -> BTreeMap<String, f64> {
    let rounds = &timed.rounds;
    let served: Vec<Served> = rounds
        .iter()
        .flat_map(|r| r.result.served.iter().copied())
        .collect();
    let med = |pick: &dyn Fn(&Served) -> Option<f64>| {
        median(&served.iter().filter_map(pick).collect::<Vec<_>>())
    };
    let mut m = BTreeMap::new();

    for app in SERVE_APPS {
        m.insert(
            format!("serve.latency_ms.{}", app.slug()),
            med(&|s| (plan.keys[s.key].app == app).then_some(s.latency_ms)),
        );
    }
    let all: Vec<f64> = served.iter().map(|s| s.latency_ms).collect();
    m.insert("serve.latency_p99_ms".into(), percentile(&all, 0.99));
    m.insert(
        "serve.hit_latency_ms".into(),
        med(&|s| (s.cold_compile_ms.is_none() && !s.coalesced).then_some(s.latency_ms)),
    );
    m.insert(
        "serve.miss_latency_ms".into(),
        med(&|s| s.cold_compile_ms.map(|_| s.latency_ms)),
    );
    m.insert("serve.cold_compile_ms".into(), med(&|s| s.cold_compile_ms));
    m.insert("serve.cache_hit_rate".into(), cache_hit_rate(&served));
    m.insert(
        "serve.coalesced_share".into(),
        coalescing_probe(plan, sums, rng, out),
    );
    m.insert(
        "serve.evictions".into(),
        (after.evicted_programs - before.evicted_programs) as f64,
    );
    m.insert(
        "serve.rejected".into(),
        (after.rejected - before.rejected) as f64,
    );
    m.insert("serve.shed".into(), (after.shed - before.shed) as f64);
    let (hits, misses) = (
        after.pool.hits - before.pool.hits,
        after.pool.misses - before.pool.misses,
    );
    m.insert(
        "runtime.pool_hit_rate".into(),
        hits as f64 / (hits + misses).max(1) as f64,
    );

    let rps = median(
        &rounds
            .iter()
            .map(|r| r.result.served.len() as f64 / r.result.wall.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    let (raw_rps, raw_latencies) = raw_round(plan, bare, &sequence(&plan.counts, rng));
    m.insert("serve.raw_rps".into(), raw_rps);
    m.insert("serve.efficiency_vs_raw".into(), rps / raw_rps);
    // Key 0 is the most popular blur shape in both workloads: the server's
    // own latency for its cache hits minus the bare realize of the same
    // program is what admission, lookup, pooling and bookkeeping cost.
    let served_blur = med(&|s| {
        (s.key == 0 && s.cold_compile_ms.is_none() && !s.coalesced).then_some(s.server_ms)
    });
    let raw_blur = median(raw_latencies.get(&0).map_or(&[][..], Vec::as_slice));
    m.insert(
        "serve.call_overhead_us".into(),
        (served_blur - raw_blur) * 1e3,
    );
    m.insert(
        "trace.overhead_ratio".into(),
        timed.overhead_ratio(|r| r.wall.as_secs_f64()),
    );
    m
}

/// The share of responses that were coalesced when every CPU sends one
/// round's requests (`P` clients, `P` slots, a fresh server) — only where
/// clients share input `Arc`s (churn) and there is a second client to
/// coalesce with; 0 otherwise. The coalesced outputs face the same checksum
/// oracle as every other response.
fn coalescing_probe(plan: &Plan, sums: &[u64], rng: &mut Rng, out: &mut Outcome) -> f64 {
    let wide = Plan {
        clients: env::probe_threads(),
        ..plan.clone()
    };
    if !wide.shared_inputs || wide.clients < 2 {
        return 0.0;
    }
    let server = new_server(&wide);
    if let Err(e) = warm_all(&wide, &server) {
        out.fail(format!("coalescing probe: {e}"));
        return 0.0;
    }
    let seq = sequence(&wide.counts, rng);
    let quiet = Recorder::new();
    let round = run_round(&wide, &server, &make_inputs(&wide), sums, &seq, &quiet, 0);
    for f in round.failures {
        out.fail(format!("coalescing probe: {f}"));
    }
    let coalesced = round.served.iter().filter(|s| s.coalesced).count();
    coalesced as f64 / round.served.len() as f64
}

/// Share of responses that found their program resident.
fn cache_hit_rate(served: &[Served]) -> f64 {
    let hits = served.iter().filter(|s| s.cold_compile_ms.is_none());
    hits.count() as f64 / served.len() as f64
}

/// The workload-design invariants, checked on every run of either pass:
/// `serve_warm` never compiles in its timed section; `serve_churn` misses
/// between 30 % and 80 % of the time and evicts. A workload that stops
/// stressing the layer it exists for has failed.
fn check_invariants(
    flavour: Flavour,
    timed: &Timed<(Ready, ServerStats), Round>,
    out: &mut Outcome,
) {
    let served: Vec<Served> = timed
        .rounds
        .iter()
        .flat_map(|r| r.result.served.iter().copied())
        .collect();
    let hit_rate = cache_hit_rate(&served);
    // The last segment's server: every segment runs the same requests.
    let (Ready { server, .. }, before) = &timed.setup;
    let evictions = server.stats().evicted_programs - before.evicted_programs;
    let broken = match flavour {
        Flavour::Warm => hit_rate != 1.0,
        Flavour::Churn => !(0.2..=0.7).contains(&hit_rate) || evictions == 0,
    };
    if broken {
        out.fail(format!(
            "design invariant: {flavour:?} saw cache_hit_rate {hit_rate:.3} and {evictions} evictions in the timed section"
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seed: u64) -> RunConfig {
        RunConfig {
            workload: "serve_churn".into(),
            seed,
            seconds: 1.0,
            trace: false,
            smoke: false,
        }
    }

    #[test]
    fn apportion_is_exact_and_proportional() {
        assert_eq!(apportion(&[4.0, 3.0, 1.0], 208), vec![104, 78, 26]);
        let zipf: Vec<f64> = (0..24).map(|r| 1.0 / (r + 1) as f64).collect();
        let counts = apportion(&zipf, 200);
        assert_eq!(counts.iter().sum::<usize>(), 200);
        assert!(
            counts.windows(2).all(|w| w[0] >= w[1]),
            "popularity follows rank: {counts:?}"
        );
        assert!(counts[23] >= 1, "every key is requested every round");
    }

    #[test]
    fn one_seed_gives_one_request_sequence_and_every_seed_the_same_multiset() {
        for flavour in [Flavour::Warm, Flavour::Churn] {
            let plan = plan(&cfg(1), flavour);
            let draw = |seed| {
                let mut rng = Rng::new(seed, 3);
                (
                    sequence(&plan.counts, &mut rng),
                    sequence(&plan.counts, &mut rng),
                )
            };
            let (a1, a2) = draw(1);
            assert_eq!((a1.clone(), a2.clone()), draw(1), "same seed, same bytes");
            assert_ne!(a1, a2, "rounds differ in order");
            let (b1, _) = draw(2);
            assert_ne!(a1, b1, "seeds differ in order");
            let sorted = |mut v: Vec<usize>| {
                v.sort_unstable();
                v
            };
            assert_eq!(sorted(a1), sorted(b1), "but never in content");
        }
    }
}
