//! Bounded admission: a fixed set of execution slots behind a bounded wait
//! queue with two priority classes and per-request deadlines.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::clock::{deadline_passed, Clock};
use crate::unpoison;

/// Scheduling class of a request: [`Priority::High`] waiters take any freed
/// slot before [`Priority::Normal`] waiters, regardless of arrival order
/// (queue-jump); within a class, arrival order wins.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Best-effort traffic (the default).
    #[default]
    Normal,
    /// Latency-sensitive traffic: jumps the admission queue.
    High,
}

/// Why [`Admission::acquire`] refused.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum AdmitError {
    /// The wait queue was full.
    Full,
    /// The request's deadline passed before a slot was granted.
    Expired,
}

#[derive(Debug)]
struct Waiter {
    ticket: u64,
    priority: Priority,
    deadline: Option<Duration>,
}

#[derive(Debug)]
struct AdmissionState {
    free_slots: Vec<usize>,
    waiters: Vec<Waiter>,
    /// Slots granted by `dispatch` but not yet collected by their waiter.
    grants: HashMap<u64, usize>,
    next_ticket: u64,
    /// While paused, nothing dispatches — the drain/quiesce seam.
    paused: bool,
}

/// Bounded admission: a fixed set of execution slots plus a bounded wait
/// queue with priorities and deadlines.
///
/// `acquire` blocks while every slot is busy and the queue has room, fails
/// fast once the queue is full, and sheds itself the moment its deadline
/// passes. Freed capacity is *dispatched*: the grant goes to the best
/// waiter (highest priority, then earliest ticket) that has not expired, so
/// high-priority traffic jumps the queue and expired work never reaches a
/// slot.
#[derive(Debug)]
pub(crate) struct Admission {
    state: Mutex<AdmissionState>,
    /// Single condvar for every admission wake (grant, release, resume,
    /// and virtual-clock advance via the registered waker).
    cv: Arc<Condvar>,
    queue_capacity: usize,
    clock: Clock,
}

impl Admission {
    pub(crate) fn new(slots: usize, queue_capacity: usize, clock: Clock) -> Self {
        let cv = Arc::new(Condvar::new());
        clock.register_waker(&cv);
        Admission {
            state: Mutex::new(AdmissionState {
                free_slots: (0..slots).collect(),
                waiters: Vec::new(),
                grants: HashMap::new(),
                next_ticket: 0,
                paused: false,
            }),
            cv,
            queue_capacity,
            clock,
        }
    }

    /// Hands free slots to the best eligible waiters: highest priority
    /// first, earliest ticket within a priority, expired waiters skipped
    /// (they wake and shed themselves).
    fn dispatch(&self, st: &mut AdmissionState) {
        let now = self.clock.now();
        let mut granted = false;
        while !st.paused && !st.free_slots.is_empty() {
            let best = st
                .waiters
                .iter()
                .enumerate()
                .filter(|(_, w)| !deadline_passed(w.deadline, now))
                .max_by_key(|(_, w)| (w.priority, std::cmp::Reverse(w.ticket)))
                .map(|(i, _)| i);
            let Some(i) = best else { break };
            let Some(slot) = st.free_slots.pop() else {
                break;
            };
            let w = st.waiters.remove(i);
            st.grants.insert(w.ticket, slot);
            granted = true;
        }
        if granted {
            self.cv.notify_all();
        }
    }

    /// Blocks until an execution slot is granted. [`AdmitError::Full`] when
    /// the wait queue has no room, [`AdmitError::Expired`] when `deadline`
    /// (absolute, on the admission clock) passes first.
    pub(crate) fn acquire(
        &self,
        priority: Priority,
        deadline: Option<Duration>,
    ) -> Result<usize, AdmitError> {
        let mut st = unpoison(self.state.lock());
        if deadline_passed(deadline, self.clock.now()) {
            return Err(AdmitError::Expired);
        }
        // Reject only arrivals that can neither run now nor queue: admission
        // with a free slot (and no waiter this request would have to get
        // behind) bypasses the queue-capacity check. Queue room is counted
        // per class — an arrival only competes with same-or-higher-priority
        // waiters — so a backlog of normal traffic cannot lock
        // high-priority requests out of the queue they are meant to jump.
        let runnable_now = !st.paused
            && !st.free_slots.is_empty()
            && !st.waiters.iter().any(|w| w.priority >= priority);
        let competing = st.waiters.iter().filter(|w| w.priority >= priority).count();
        if !runnable_now && competing >= self.queue_capacity {
            return Err(AdmitError::Full);
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.waiters.push(Waiter {
            ticket,
            priority,
            deadline,
        });
        self.dispatch(&mut st);
        loop {
            if let Some(slot) = st.grants.remove(&ticket) {
                if deadline_passed(deadline, self.clock.now()) {
                    // Expired between grant and wake: hand the slot straight
                    // to the next waiter instead of running doomed work.
                    st.free_slots.push(slot);
                    self.dispatch(&mut st);
                    return Err(AdmitError::Expired);
                }
                return Ok(slot);
            }
            if deadline_passed(deadline, self.clock.now()) {
                st.waiters.retain(|w| w.ticket != ticket);
                return Err(AdmitError::Expired);
            }
            st = self.clock.wait(&self.cv, st, deadline);
        }
    }

    /// Returns a slot and re-dispatches it.
    pub(crate) fn release(&self, slot: usize) {
        let mut st = unpoison(self.state.lock());
        st.free_slots.push(slot);
        self.dispatch(&mut st);
    }

    /// Wraps a granted slot so that every exit path returns it.
    pub(crate) fn guard(&self, slot: usize) -> SlotGuard<'_> {
        SlotGuard {
            admission: self,
            slot,
        }
    }

    pub(crate) fn queued(&self) -> usize {
        unpoison(self.state.lock()).waiters.len()
    }

    pub(crate) fn pause(&self) {
        unpoison(self.state.lock()).paused = true;
    }

    pub(crate) fn resume(&self) {
        let mut st = unpoison(self.state.lock());
        st.paused = false;
        self.dispatch(&mut st);
    }
}

/// Returns the admission slot on every exit path of a realization.
pub(crate) struct SlotGuard<'a> {
    admission: &'a Admission,
    slot: usize,
}

impl SlotGuard<'_> {
    /// The slot this guard holds.
    pub(crate) fn slot(&self) -> usize {
        self.slot
    }
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        self.admission.release(self.slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// High-priority waiters take freed slots before earlier-arrived normal
    /// waiters; within a class, arrival order wins.
    #[test]
    fn high_priority_jumps_the_queue() {
        let clock = Clock::manual();
        let admission = Arc::new(Admission::new(1, 8, clock.clone()));
        let slot = admission.acquire(Priority::Normal, None).unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));

        let spawn_waiter = |priority: Priority, tag: &'static str| {
            let admission = Arc::clone(&admission);
            let order = Arc::clone(&order);
            std::thread::spawn(move || {
                let slot = admission.acquire(priority, None).unwrap();
                order.lock().unwrap().push(tag);
                admission.release(slot);
            })
        };
        // Normal queues first…
        let normal = spawn_waiter(Priority::Normal, "normal");
        while admission.queued() != 1 {
            std::thread::yield_now();
        }
        // …then two high-priority arrivals.
        let high_a = spawn_waiter(Priority::High, "high-a");
        while admission.queued() != 2 {
            std::thread::yield_now();
        }
        let high_b = spawn_waiter(Priority::High, "high-b");
        while admission.queued() != 3 {
            std::thread::yield_now();
        }

        admission.release(slot);
        for t in [high_a, high_b, normal] {
            t.join().unwrap();
        }
        assert_eq!(
            *order.lock().unwrap(),
            vec!["high-a", "high-b", "normal"],
            "queue-jump order"
        );
    }

    /// An expired waiter is skipped at dispatch even if it has not woken
    /// yet: the grant goes straight to a live waiter.
    #[test]
    fn dispatch_skips_expired_waiters() {
        let clock = Clock::manual();
        let admission = Arc::new(Admission::new(1, 8, clock.clone()));
        let slot = admission.acquire(Priority::Normal, None).unwrap();

        let doomed = {
            let admission = Arc::clone(&admission);
            std::thread::spawn(move || {
                admission.acquire(Priority::High, Some(Duration::from_millis(5)))
            })
        };
        while admission.queued() != 1 {
            std::thread::yield_now();
        }
        let live = {
            let admission = Arc::clone(&admission);
            std::thread::spawn(move || admission.acquire(Priority::Normal, None))
        };
        while admission.queued() != 2 {
            std::thread::yield_now();
        }

        clock.advance(Duration::from_millis(6));
        // The doomed waiter sheds itself on the advance wake.
        assert_eq!(doomed.join().unwrap(), Err(AdmitError::Expired));
        // The freed slot must reach the live normal waiter, not the expired
        // high-priority one.
        admission.release(slot);
        let granted = live.join().unwrap().expect("live waiter runs");
        admission.release(granted);
        assert_eq!(admission.state.lock().unwrap().free_slots.len(), 1);
    }

    /// Two slots admit two requests at once; a third waits and is granted
    /// exactly when one of them is released.
    #[test]
    fn third_request_waits_for_one_of_two_slots() {
        let admission = Arc::new(Admission::new(2, 8, Clock::manual()));
        let first = admission.acquire(Priority::Normal, None).unwrap();
        let second = admission.acquire(Priority::Normal, None).unwrap();
        let third = {
            let admission = Arc::clone(&admission);
            std::thread::spawn(move || admission.acquire(Priority::Normal, None))
        };
        while admission.queued() != 1 {
            std::thread::yield_now();
        }
        assert!(!third.is_finished(), "both slots are held");
        admission.release(first);
        let granted = third.join().unwrap().expect("granted on release");
        assert_eq!(granted, first, "the freed slot");
        admission.release(granted);
        admission.release(second);
    }

    /// A panic while holding the state lock poisons it; later acquires and
    /// releases still go through.
    #[test]
    fn admission_survives_a_poisoned_lock() {
        let admission = Arc::new(Admission::new(1, 8, Clock::manual()));
        let holder = Arc::clone(&admission);
        std::thread::spawn(move || {
            let _st = holder.state.lock().unwrap();
            panic!("poisons the admission lock");
        })
        .join()
        .unwrap_err();
        assert!(admission.state.is_poisoned());
        let slot = admission.acquire(Priority::Normal, None).unwrap();
        admission.release(slot);
        assert_eq!(admission.acquire(Priority::Normal, None), Ok(slot));
    }
}
