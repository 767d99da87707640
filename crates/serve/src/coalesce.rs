//! Request coalescing. Concurrent requests for the same `(app, schedule,
//! shape, parameter values, input image)` share one realization. The first
//! becomes the flight's *leader* and runs the pipeline; the rest are
//! *followers* that wait on the flight and copy the leader's output,
//! bit-identical to realizing themselves.
//!
//! The leader's duty to publish is a drop guard, [`Leader`]: it publishes
//! exactly once, through [`Leader::finish`] or — when the leader returns
//! early or unwinds without finishing — from `Drop`, as a
//! [`ServeError::Exec`] naming the abandoned flight. No follower waits on a
//! flight nobody will publish.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

use halide_pipelines::{AppKind, ScheduleChoice};
use halide_runtime::{Buffer, BufferPool, CounterSnapshot, PooledBuffer};

use crate::clock::{deadline_passed, Clock};
use crate::server::Request;
use crate::unpoison;
use crate::{ServeError, ServeResult};

/// Everything that must match for two requests to share one realization:
/// the program selector, the output shape, the exact parameter *values*
/// (bit patterns — unlike the program cache, values change the pixels), and
/// the identity of the input image. Identity is the `Arc` pointer: two
/// uploads with equal pixels in different allocations do not coalesce,
/// which keeps the check O(1) and can never false-positive.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct FlightKey {
    app: AppKind,
    schedule: ScheduleChoice,
    shape: (i64, i64),
    input_ptr: usize,
    params: Vec<(String, u8, u64)>,
}

impl FlightKey {
    pub(crate) fn of(req: &Request, shape: (i64, i64)) -> FlightKey {
        let mut params: Vec<(String, u8, u64)> = req
            .params
            .iter()
            .map(|(name, v)| {
                let (tag, bits) = v.value_bits();
                (name.clone(), tag, bits)
            })
            .collect();
        params.sort();
        FlightKey {
            app: req.app,
            schedule: req.schedule,
            shape,
            input_ptr: Arc::as_ptr(&req.input) as usize,
            params,
        }
    }
}

/// A leader's realization, as its own response will carry it.
#[derive(Debug)]
pub(crate) struct Realized {
    pub(crate) output: PooledBuffer,
    pub(crate) counters: CounterSnapshot,
    /// The lower + compile time the leader paid, if its lookup was cold.
    pub(crate) cold_compile: Option<Duration>,
}

/// What a leader publishes for its followers to fan out.
#[derive(Debug, Clone)]
pub(crate) struct Shared {
    /// The one realization's output. Followers copy from it; when the last
    /// holder drops its `Arc`, the allocation returns to the buffer pool.
    pub(crate) output: Arc<PooledBuffer>,
    pub(crate) counters: CounterSnapshot,
}

/// One in-progress realization that identical requests attach to.
#[derive(Debug)]
pub(crate) struct Flight {
    result: OnceLock<ServeResult<Shared>>,
    /// Followers that joined before the leader concluded — final once the
    /// flight leaves the hub map.
    followers: AtomicU64,
    /// Keeps the input image alive while the flight is joinable, so the
    /// pointer in [`FlightKey`] cannot be recycled onto a different image.
    _input: Arc<Buffer>,
}

/// A request's part in its flight.
pub(crate) enum Role<'a> {
    /// Realize, then publish through the guard.
    Leader(Leader<'a>),
    /// Wait for the leader's result with [`CoalesceHub::follow`].
    Follower(Arc<Flight>),
}

/// The coalescing hub: in-flight realizations keyed by [`FlightKey`].
#[derive(Debug)]
pub(crate) struct CoalesceHub {
    /// Locked through `unpoison`: a leader's guard must be able to publish
    /// while its thread unwinds.
    flights: Mutex<HashMap<FlightKey, Arc<Flight>>>,
    cv: Arc<Condvar>,
    /// Followers currently parked on a flight (gauge, for tests and drains).
    waiting: AtomicU64,
    clock: Clock,
    /// Where a leader with followers draws the copy it keeps for itself.
    pool: Arc<BufferPool>,
}

impl CoalesceHub {
    pub(crate) fn new(clock: Clock, pool: Arc<BufferPool>) -> Self {
        let cv = Arc::new(Condvar::new());
        clock.register_waker(&cv);
        CoalesceHub {
            flights: Mutex::new(HashMap::new()),
            cv,
            waiting: AtomicU64::new(0),
            clock,
            pool,
        }
    }

    /// Attaches to the in-progress flight for `key`, or registers a new one
    /// with the caller as leader.
    pub(crate) fn join_or_lead(&self, key: FlightKey, input: &Arc<Buffer>) -> Role<'_> {
        let mut flights = unpoison(self.flights.lock());
        if let Some(flight) = flights.get(&key) {
            flight.followers.fetch_add(1, Ordering::Relaxed);
            return Role::Follower(Arc::clone(flight));
        }
        let flight = Arc::new(Flight {
            result: OnceLock::new(),
            followers: AtomicU64::new(0),
            _input: Arc::clone(input),
        });
        flights.insert(key.clone(), Arc::clone(&flight));
        Role::Leader(Leader {
            hub: self,
            key,
            flight,
            finished: false,
        })
    }

    /// Waits until `flight`'s leader publishes and returns what it
    /// published — or [`ServeError::DeadlineExceeded`], counting the wait
    /// from `submitted`, once `deadline` passes first.
    pub(crate) fn follow(
        &self,
        flight: &Flight,
        submitted: Duration,
        deadline: Option<Duration>,
    ) -> ServeResult<Shared> {
        self.waiting.fetch_add(1, Ordering::Relaxed);
        let mut flights = unpoison(self.flights.lock());
        let result = loop {
            if let Some(result) = flight.result.get() {
                break result.clone();
            }
            let now = self.clock.now();
            if deadline_passed(deadline, now) {
                break Err(ServeError::DeadlineExceeded {
                    waited: now.saturating_sub(submitted),
                });
            }
            flights = self.clock.wait(&self.cv, flights, deadline);
        };
        drop(flights);
        self.waiting.fetch_sub(1, Ordering::Relaxed);
        result
    }

    /// Followers currently parked on a flight.
    pub(crate) fn waiting(&self) -> u64 {
        self.waiting.load(Ordering::Relaxed)
    }

    /// Removes `key`'s flight from the hub and returns its follower count,
    /// final from here on: nothing joins a flight that has left the map.
    fn conclude(&self, key: &FlightKey, flight: &Flight) -> u64 {
        unpoison(self.flights.lock()).remove(key);
        flight.followers.load(Ordering::Relaxed)
    }

    /// Publishes a concluded flight's result and wakes its followers. The
    /// hub lock is taken so the store is ordered against every follower's
    /// check-then-wait.
    fn publish(&self, flight: &Flight, result: ServeResult<Shared>) {
        let _flights = unpoison(self.flights.lock());
        let _ = flight.result.set(result);
        self.cv.notify_all();
    }
}

/// The leader's duty to its flight: conclude it and publish exactly once.
/// [`Leader::finish`] does both with the realization's result; dropping the
/// guard unfinished does both with an error, so an early return or a panic
/// between leading and publishing cannot strand the followers.
pub(crate) struct Leader<'a> {
    hub: &'a CoalesceHub,
    key: FlightKey,
    flight: Arc<Flight>,
    finished: bool,
}

impl Leader<'_> {
    /// Concludes the flight and publishes `result` to its followers,
    /// returning the leader's own share: the realization itself when nobody
    /// joined (no copy), otherwise a pooled copy of the published output.
    pub(crate) fn finish(mut self, result: ServeResult<Realized>) -> ServeResult<Realized> {
        self.finished = true;
        if self.hub.conclude(&self.key, &self.flight) == 0 {
            return result;
        }
        match result {
            Ok(Realized {
                output,
                counters,
                cold_compile,
            }) => {
                let output = Arc::new(output);
                let shared = Shared {
                    output: Arc::clone(&output),
                    counters,
                };
                self.hub.publish(&self.flight, Ok(shared));
                Ok(Realized {
                    output: self.hub.pool.acquire_copy_of(&output),
                    counters,
                    cold_compile,
                })
            }
            Err(e) => {
                self.hub.publish(&self.flight, Err(e.clone()));
                Err(e)
            }
        }
    }
}

impl Drop for Leader<'_> {
    fn drop(&mut self) {
        if self.finished {
            return;
        }
        self.hub.conclude(&self.key, &self.flight);
        let FlightKey {
            app,
            schedule,
            shape: (w, h),
            ..
        } = &self.key;
        let message = format!(
            "the leader of the {} {schedule:?} {w}x{h} flight abandoned it before publishing",
            app.name()
        );
        self.hub
            .publish(&self.flight, Err(ServeError::Exec(message)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A leader that drops its guard without finishing — an early return or
    /// an unwinding panic between leading and publishing — still publishes:
    /// the follower that joined its flight gets a typed error instead of
    /// waiting forever, and the flight leaves the hub.
    #[test]
    fn abandoned_leader_fails_its_followers() {
        let hub = CoalesceHub::new(Clock::manual(), Arc::new(BufferPool::default()));
        let input = Arc::new(AppKind::Blur.make_input(64, 32));
        let req = Request::new(AppKind::Blur, ScheduleChoice::Tuned, input);
        let key = FlightKey::of(&req, (64, 32));
        let Role::Leader(leader) = hub.join_or_lead(key.clone(), &req.input) else {
            panic!("the first arrival leads");
        };
        let Role::Follower(flight) = hub.join_or_lead(key.clone(), &req.input) else {
            panic!("an identical arrival follows");
        };
        drop(leader);
        match hub.follow(&flight, Duration::ZERO, None) {
            Err(ServeError::Exec(msg)) => assert!(msg.contains("abandoned"), "got: {msg}"),
            other => panic!("expected an Exec error, got {other:?}"),
        }
        assert_eq!(hub.waiting(), 0);
        assert!(
            matches!(hub.join_or_lead(key, &req.input), Role::Leader(_)),
            "the abandoned flight left the hub"
        );
    }
}
