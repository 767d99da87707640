//! AIMD adaptive concurrency: discover how many requests may run at once
//! from observed latency, instead of trusting a hand-picked `max_in_flight`.
//!
//! The controller is the serving analogue of TCP congestion control (and of
//! vector's adaptive-request-concurrency design): the right slot width for a
//! host is whatever the hardware sustains *today*, under *this* traffic —
//! a fixed number is wrong on every other machine and after every deploy.
//! Completed requests feed their latency into a decision **window**; when
//! the window closes the controller compares the window's p95 against an
//! EWMA baseline of healthy windows:
//!
//! * p95 within 1.5× the baseline **and** the limit was actually saturated
//!   → additive increase (`limit + 1`): there may be spare capacity, probe
//!   for it;
//! * p95 beyond 1.5× the baseline → multiplicative decrease
//!   (`limit × 0.75`): latency says the host is past its knee, back off
//!   fast;
//! * otherwise hold.
//!
//! The baseline only absorbs healthy windows, so a congested burst cannot
//! teach the controller that slow is normal. All time comes from the
//! caller-supplied [`Clock`](crate::Clock) reading, so the whole
//! increase/backoff trajectory is unit-testable with scripted latencies and
//! a virtual clock — no sleeps, no load generators.

use std::sync::Mutex;
use std::time::Duration;

use crate::metrics::percentile;

/// EWMA weight of a new healthy window's p95 in the baseline.
const SMOOTHING: f64 = 0.3;
/// Tolerated ratio of a window's p95 over the baseline before the
/// controller treats the host as congested.
const HEADROOM: f64 = 1.5;
/// Multiplicative decrease factor applied on congestion.
const BACKOFF: f64 = 0.75;

/// Tuning for the [`AimdController`].
#[derive(Debug, Clone)]
pub struct AimdConfig {
    /// Floor the limit never decreases below.
    pub min_in_flight: usize,
    /// Limit the controller starts from (clamped into `min..=max`).
    pub initial_in_flight: usize,
    /// Length of one decision window.
    pub window: Duration,
}

impl Default for AimdConfig {
    /// Start at 1 in flight and decide every 100 ms.
    fn default() -> Self {
        AimdConfig {
            min_in_flight: 1,
            initial_in_flight: 1,
            window: Duration::from_millis(100),
        }
    }
}

/// What a closed window decided — returned by [`AimdController::observe`]
/// so the caller can re-dispatch admission when the limit moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AimdDecision {
    /// The limit grew by one (probing for spare capacity).
    Increased(usize),
    /// The limit shrank multiplicatively (latency past the knee).
    Backoff(usize),
    /// The window closed without moving the limit.
    Held(usize),
}

impl AimdDecision {
    /// The limit in force after the decision.
    pub fn limit(&self) -> usize {
        match *self {
            AimdDecision::Increased(l) | AimdDecision::Backoff(l) | AimdDecision::Held(l) => l,
        }
    }
}

/// Samples kept per window; beyond this the window keeps its earliest
/// samples (a full window is statistically settled long before this).
const MAX_WINDOW_SAMPLES: usize = 4096;

#[derive(Debug)]
struct AimdState {
    limit: usize,
    window_start: Duration,
    samples_ms: Vec<f64>,
    /// Whether any completion in this window ran with the limit saturated —
    /// only a saturated window argues for *more* concurrency.
    saturated: bool,
    /// EWMA of healthy windows' p95, in milliseconds.
    baseline_ms: Option<f64>,
}

/// The additive-increase / multiplicative-decrease concurrency controller.
#[derive(Debug)]
pub struct AimdController {
    cfg: AimdConfig,
    max: usize,
    state: Mutex<AimdState>,
}

impl AimdController {
    /// A controller bounded by `max` slots, with its first window starting
    /// at `now`.
    pub fn new(cfg: AimdConfig, max: usize, now: Duration) -> Self {
        let lo = cfg.min_in_flight.clamp(1, max.max(1));
        let initial = cfg.initial_in_flight.clamp(lo, max.max(1));
        AimdController {
            state: Mutex::new(AimdState {
                limit: initial,
                window_start: now,
                samples_ms: Vec::new(),
                saturated: false,
                baseline_ms: None,
            }),
            max: max.max(1),
            cfg,
        }
    }

    /// The concurrency limit currently in force.
    pub fn limit(&self) -> usize {
        self.state.lock().unwrap().limit
    }

    /// The learned baseline p95 in milliseconds, once one window has closed.
    pub fn baseline_ms(&self) -> Option<f64> {
        self.state.lock().unwrap().baseline_ms
    }

    /// Feeds one completed request's latency. `saturated` says whether the
    /// request ran while admission was at the limit (only then can a healthy
    /// window justify growing it). Returns a decision when this observation
    /// closed a window.
    pub fn observe(
        &self,
        latency: Duration,
        saturated: bool,
        now: Duration,
    ) -> Option<AimdDecision> {
        let mut st = self.state.lock().unwrap();
        if st.samples_ms.len() < MAX_WINDOW_SAMPLES {
            st.samples_ms.push(latency.as_secs_f64() * 1e3);
        }
        st.saturated |= saturated;
        if now.saturating_sub(st.window_start) < self.cfg.window {
            return None;
        }

        // Window closes: decide against the baseline.
        let mut window = std::mem::take(&mut st.samples_ms);
        window.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let p95 = percentile(&window, 0.95);
        let saturated = std::mem::take(&mut st.saturated);
        st.window_start = now;

        let decision = match st.baseline_ms {
            Some(baseline) if p95 > baseline * HEADROOM => {
                // Congested: multiplicative decrease, baseline unchanged —
                // a slow window must not become the new normal.
                let floor = self.cfg.min_in_flight.max(1);
                st.limit = (((st.limit as f64) * BACKOFF).floor() as usize).clamp(floor, self.max);
                AimdDecision::Backoff(st.limit)
            }
            _ => {
                // Healthy: fold into the baseline, probe upward only if the
                // window actually ran against the limit.
                st.baseline_ms = Some(match st.baseline_ms {
                    Some(b) => SMOOTHING * p95 + (1.0 - SMOOTHING) * b,
                    None => p95,
                });
                if saturated && st.limit < self.max {
                    st.limit += 1;
                    AimdDecision::Increased(st.limit)
                } else {
                    AimdDecision::Held(st.limit)
                }
            }
        };
        Some(decision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    fn controller(max: usize) -> AimdController {
        AimdController::new(
            AimdConfig {
                initial_in_flight: 2,
                window: Duration::from_millis(100),
                ..AimdConfig::default()
            },
            max,
            Duration::ZERO,
        )
    }

    /// Pushes `n` scripted latencies into the current window and closes it
    /// by stamping the final observation past the window end.
    fn run_window(
        ctrl: &AimdController,
        lat_ms: u32,
        saturated: bool,
        window_end: Duration,
    ) -> AimdDecision {
        for _ in 0..9 {
            assert_eq!(
                ctrl.observe(lat_ms * MS, saturated, window_end - MS),
                None,
                "window must not close early"
            );
        }
        ctrl.observe(lat_ms * MS, saturated, window_end)
            .expect("window closes on the boundary observation")
    }

    /// The canonical trajectory, driven entirely by scripted latencies and
    /// virtual timestamps: flat latency under saturation climbs additively,
    /// a latency spike backs off multiplicatively, recovery climbs again.
    #[test]
    fn increase_backoff_increase_cycle() {
        let ctrl = controller(8);
        assert_eq!(ctrl.limit(), 2);

        // Window 1: healthy + saturated, but no baseline yet — the first
        // window only seeds the baseline (and may already probe upward).
        let d = run_window(&ctrl, 10, true, 100 * MS);
        assert_eq!(d, AimdDecision::Increased(3));
        assert_eq!(ctrl.baseline_ms(), Some(10.0));

        // Windows 2-3: flat 10 ms under saturation — additive increase.
        assert_eq!(
            run_window(&ctrl, 10, true, 200 * MS),
            AimdDecision::Increased(4)
        );
        assert_eq!(
            run_window(&ctrl, 10, true, 300 * MS),
            AimdDecision::Increased(5)
        );

        // Window 4: p95 spikes to 30 ms (> 1.5 × baseline 10 ms) —
        // multiplicative decrease: floor(5 × 0.75) = 3.
        assert_eq!(
            run_window(&ctrl, 30, true, 400 * MS),
            AimdDecision::Backoff(3)
        );
        // The congested window must NOT have polluted the baseline.
        assert_eq!(ctrl.baseline_ms(), Some(10.0));

        // Window 5: back to 10 ms — climbs again.
        assert_eq!(
            run_window(&ctrl, 10, true, 500 * MS),
            AimdDecision::Increased(4)
        );
    }

    /// Unsaturated healthy windows hold: spare limit is never grown
    /// speculatively when nothing is queueing against it.
    #[test]
    fn no_increase_without_saturation() {
        let ctrl = controller(8);
        run_window(&ctrl, 10, true, 100 * MS); // seed baseline, limit 3
        assert_eq!(
            run_window(&ctrl, 10, false, 200 * MS),
            AimdDecision::Held(3)
        );
        assert_eq!(ctrl.limit(), 3);
    }

    /// The limit respects both bounds: it never probes past `max` and never
    /// backs off below `min_in_flight`.
    #[test]
    fn limit_respects_bounds() {
        let ctrl = AimdController::new(
            AimdConfig {
                min_in_flight: 2,
                initial_in_flight: 3,
                window: Duration::from_millis(100),
            },
            3,
            Duration::ZERO,
        );
        assert_eq!(run_window(&ctrl, 10, true, 100 * MS), AimdDecision::Held(3));
        // Repeated congestion pins at the floor, not below.
        assert_eq!(
            run_window(&ctrl, 100, true, 200 * MS),
            AimdDecision::Backoff(2)
        );
        assert_eq!(
            run_window(&ctrl, 100, true, 300 * MS),
            AimdDecision::Backoff(2)
        );
        assert_eq!(ctrl.limit(), 2);
    }

    /// An empty window (no completions) closes without deciding anything —
    /// the next completion after a quiet period must not divide by zero.
    #[test]
    fn quiet_period_then_one_completion() {
        let ctrl = controller(8);
        // A single completion stamped far past several windows: closes the
        // current window with exactly that one sample.
        let d = ctrl
            .observe(10 * MS, true, Duration::from_millis(700))
            .expect("closes the long-stale window");
        assert_eq!(d, AimdDecision::Increased(3));
    }
}
