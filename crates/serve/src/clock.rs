//! The injectable time source every serving control loop reads.
//!
//! Deadlines, queue waits and request latencies are *time-dependent*. If
//! they read `Instant::now()` directly, their tests degrade to
//! sleep-and-hope; instead every component takes a [`Clock`] and asks it for
//! [`Clock::now`]. Production servers use [`Clock::system`] (a monotonic
//! reading against a fixed epoch); tests use [`Clock::manual`], a virtual
//! clock that only moves when the test calls [`Clock::advance`] — so a
//! queued request can be expired without a single real millisecond passing.
//!
//! Blocking waits go through the crate-internal `Clock::wait`: under the
//! system clock it is a plain `Condvar::wait_timeout` against the deadline;
//! under a virtual clock it parks unconditionally and relies on
//! [`Clock::advance`] notifying every condvar registered via the internal
//! `Clock::register_waker` — waiters re-check their
//! deadline predicate on wake, so time moving is the only wake source a test
//! needs to drive.

use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::time::{Duration, Instant};

use crate::unpoison;

/// A cloneable handle on a time source: either the real monotonic clock or a
/// shared virtual clock tests advance by hand. Clones observe the same time.
#[derive(Debug, Clone)]
pub struct Clock {
    inner: ClockInner,
}

#[derive(Debug, Clone)]
enum ClockInner {
    /// The monotonic system clock, read as elapsed time since this handle's
    /// creation epoch.
    System(Instant),
    /// A hand-driven clock shared by every clone of the handle.
    Manual(Arc<VirtualClock>),
}

/// The shared state behind a manual [`Clock`]: the current virtual time and
/// the condvars to poke whenever it moves.
#[derive(Debug, Default)]
struct VirtualClock {
    now: Mutex<Duration>,
    wakers: Mutex<Vec<Weak<Condvar>>>,
}

impl Default for Clock {
    fn default() -> Self {
        Clock::system()
    }
}

impl Clock {
    /// The production clock: monotonic elapsed time since creation.
    pub fn system() -> Self {
        Clock {
            inner: ClockInner::System(Instant::now()),
        }
    }

    /// A virtual clock starting at zero that moves only via
    /// [`Clock::advance`]. Clone the handle into the server's config and
    /// keep one in the test to drive time.
    pub fn manual() -> Self {
        Clock {
            inner: ClockInner::Manual(Arc::new(VirtualClock::default())),
        }
    }

    /// True for a [`Clock::manual`] clock.
    pub fn is_manual(&self) -> bool {
        matches!(self.inner, ClockInner::Manual(_))
    }

    /// Time elapsed since this clock's epoch.
    pub fn now(&self) -> Duration {
        match &self.inner {
            ClockInner::System(epoch) => epoch.elapsed(),
            ClockInner::Manual(v) => *unpoison(v.now.lock()),
        }
    }

    /// Moves a manual clock forward by `delta` and wakes every registered
    /// waiter so it re-checks its deadline predicate.
    ///
    /// # Panics
    ///
    /// Panics on a system clock — real time cannot be steered.
    pub fn advance(&self, delta: Duration) {
        match &self.inner {
            ClockInner::System(_) => panic!("Clock::advance on the system clock"),
            ClockInner::Manual(v) => {
                {
                    let mut now = unpoison(v.now.lock());
                    *now += delta;
                }
                // Wake everything parked on a registered condvar; dead
                // registrations are pruned as we go.
                unpoison(v.wakers.lock()).retain(|w| match w.upgrade() {
                    Some(cv) => {
                        cv.notify_all();
                        true
                    }
                    None => false,
                });
            }
        }
    }

    /// Registers a condvar to be notified by [`Clock::advance`]. A no-op on
    /// the system clock, where `wait` carries its own timeout.
    pub(crate) fn register_waker(&self, cv: &Arc<Condvar>) {
        if let ClockInner::Manual(v) = &self.inner {
            unpoison(v.wakers.lock()).push(Arc::downgrade(cv));
        }
    }

    /// Blocks on `cv` until notified or (system clock only) until `deadline`
    /// — an absolute time on this clock — passes. Callers loop over a
    /// predicate exactly as with a bare condvar; under a manual clock the
    /// wake arrives from [`Clock::advance`] instead of a timeout.
    pub(crate) fn wait<'a, T>(
        &self,
        cv: &Condvar,
        guard: MutexGuard<'a, T>,
        deadline: Option<Duration>,
    ) -> MutexGuard<'a, T> {
        match (&self.inner, deadline) {
            (ClockInner::System(_), Some(deadline)) => {
                let remaining = deadline.saturating_sub(self.now());
                unpoison(cv.wait_timeout(guard, remaining)).0
            }
            _ => unpoison(cv.wait(guard)),
        }
    }
}

/// True once `now` has reached an (optional) absolute deadline.
pub(crate) fn deadline_passed(deadline: Option<Duration>, now: Duration) -> bool {
    deadline.is_some_and(|d| now >= d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_only_moves_when_advanced() {
        let clock = Clock::manual();
        assert!(clock.is_manual());
        assert_eq!(clock.now(), Duration::ZERO);
        clock.advance(Duration::from_millis(250));
        assert_eq!(clock.now(), Duration::from_millis(250));
        // Clones share the same timeline.
        let other = clock.clone();
        other.advance(Duration::from_millis(250));
        assert_eq!(clock.now(), Duration::from_millis(500));
    }

    #[test]
    fn system_clock_is_monotone() {
        let clock = Clock::system();
        assert!(!clock.is_manual());
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
    }

    #[test]
    fn deadline_predicate() {
        let ms = Duration::from_millis;
        assert!(!deadline_passed(None, ms(1_000_000)));
        assert!(!deadline_passed(Some(ms(10)), ms(9)));
        assert!(deadline_passed(Some(ms(10)), ms(10)));
        assert!(deadline_passed(Some(ms(10)), ms(11)));
    }

    /// `advance` must wake a thread parked through `Clock::wait` so it can
    /// observe its expired deadline — the mechanism every deterministic
    /// deadline test in this crate rests on.
    #[test]
    fn advance_wakes_registered_waiters() {
        let clock = Clock::manual();
        let lock = Arc::new(Mutex::new(()));
        let cv = Arc::new(Condvar::new());
        clock.register_waker(&cv);

        let deadline = Some(Duration::from_millis(5));
        let waiter = {
            let (clock, lock, cv) = (clock.clone(), Arc::clone(&lock), Arc::clone(&cv));
            std::thread::spawn(move || {
                let mut guard = lock.lock().unwrap();
                while !deadline_passed(deadline, clock.now()) {
                    guard = clock.wait(&cv, guard, deadline);
                }
                clock.now()
            })
        };
        // Let the waiter reach the wait; the lock being free is the signal.
        loop {
            let parked = lock.try_lock().is_ok();
            if parked {
                break;
            }
            std::thread::yield_now();
        }
        clock.advance(Duration::from_millis(6));
        let woke_at = waiter.join().unwrap();
        assert_eq!(woke_at, Duration::from_millis(6));
    }

    /// A wait that reacquires a mutex poisoned by a panicking holder
    /// returns the guard instead of panicking.
    #[test]
    fn wait_survives_a_poisoned_mutex() {
        let clock = Clock::manual();
        let lock = Arc::new(Mutex::new(()));
        let cv = Arc::new(Condvar::new());
        clock.register_waker(&cv);
        let holder = Arc::clone(&lock);
        std::thread::spawn(move || {
            let _guard = holder.lock().unwrap();
            panic!("poisons the lock");
        })
        .join()
        .unwrap_err();
        let waiter = {
            let (clock, lock, cv) = (clock.clone(), Arc::clone(&lock), Arc::clone(&cv));
            std::thread::spawn(move || drop(clock.wait(&cv, unpoison(lock.lock()), None)))
        };
        // Advancing notifies the condvar; repeat until the waiter has parked
        // and woken.
        while !waiter.is_finished() {
            clock.advance(Duration::from_millis(1));
            std::thread::yield_now();
        }
        waiter.join().expect("wait returned instead of panicking");
    }
}
