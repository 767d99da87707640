//! Model-based property tests for [`halide_serve::CostLru`], the cost-aware
//! (GreedyDual) eviction policy behind the program cache.
//!
//! A reference model mirrors the documented contract exactly — integer
//! credits `L + cost_ns`, refresh on hit, eviction of the minimum
//! `(credit, seq)` entry until the entry budget holds, and
//! `L := max(L, victim.credit)` on every eviction — and a random script of
//! lookups and insertions checks the real cache against it after every
//! step: resident key set and all four counters. The style
//! follows `crates/runtime/tests/bufpool_props.rs`.

use std::collections::HashMap;
use std::time::Duration;

use halide_serve::CostLru;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One resident entry in the reference model.
#[derive(Debug, Clone)]
struct ModelSlot {
    value: u64,
    cost_ns: u128,
    credit: u128,
    seq: u64,
}

/// The reference GreedyDual cache: a plain map plus the credit clock.
struct Model {
    map: HashMap<u32, ModelSlot>,
    l_clock: u128,
    next_seq: u64,
    max_entries: usize,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
}

impl Model {
    fn new(max_entries: usize) -> Self {
        Model {
            map: HashMap::new(),
            l_clock: 0,
            next_seq: 0,
            max_entries: max_entries.max(1),
            hits: 0,
            misses: 0,
            insertions: 0,
            evictions: 0,
        }
    }

    fn get(&mut self, key: u32) -> Option<u64> {
        match self.map.get_mut(&key) {
            Some(slot) => {
                slot.credit = self.l_clock + slot.cost_ns;
                slot.seq = self.next_seq;
                self.next_seq += 1;
                self.hits += 1;
                Some(slot.value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn insert_or_get(&mut self, key: u32, value: u64, cost_ns: u64) -> (u64, bool) {
        if let Some(slot) = self.map.get_mut(&key) {
            slot.credit = self.l_clock + slot.cost_ns;
            slot.seq = self.next_seq;
            self.next_seq += 1;
            self.hits += 1;
            return (slot.value, false);
        }
        self.map.insert(
            key,
            ModelSlot {
                value,
                cost_ns: cost_ns as u128,
                credit: self.l_clock + cost_ns as u128,
                seq: self.next_seq,
            },
        );
        self.next_seq += 1;
        self.insertions += 1;
        while self.map.len() > self.max_entries {
            let victim = *self
                .map
                .iter()
                .min_by_key(|(_, s)| (s.credit, s.seq))
                .map(|(k, _)| k)
                .expect("non-empty while over budget");
            let slot = self.map.remove(&victim).expect("victim resident");
            self.l_clock = self.l_clock.max(slot.credit);
            self.evictions += 1;
        }
        (value, true)
    }
}

fn check(lru: &CostLru<u32, u64>, model: &Model, step: usize) {
    assert_eq!(lru.len(), model.map.len(), "len diverges at step {step}");
    let s = lru.stats();
    assert_eq!(s.hits, model.hits, "hits diverge at step {step}");
    assert_eq!(s.misses, model.misses, "misses diverge at step {step}");
    assert_eq!(
        s.insertions, model.insertions,
        "insertions diverge at step {step}"
    );
    assert_eq!(
        s.evictions, model.evictions,
        "evictions diverge at step {step}"
    );
    let mut resident = lru.resident_keys();
    resident.sort_unstable();
    let mut expected: Vec<u32> = model.map.keys().copied().collect();
    expected.sort_unstable();
    assert_eq!(resident, expected, "resident set diverges at step {step}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random get/insert scripts over a small hot key space: the cache
    /// tracks the reference model exactly — same residents, same evictions
    /// in the same order (observable through `L` inflation), same
    /// counters — for every tight entry budget.
    #[test]
    fn cost_lru_matches_the_reference_model(
        seed in 0u64..1_000_000,
        max_entries in 1usize..12,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let lru: CostLru<u32, u64> = CostLru::new(max_entries);
        let mut model = Model::new(max_entries);

        for step in 0..300 {
            // A deliberately small key space so gets hit often and racing
            // re-insertions of a resident key (the compile-convergence path)
            // actually occur.
            let key = rng.gen_range(0u32..16);
            if rng.gen_bool(0.4) {
                let got = lru.get(&key);
                let want = model.get(key);
                prop_assert_eq!(got, want, "get({}) diverges at step {}", key, step);
            } else {
                // Skewed costs: a few keys are 100x more expensive to
                // "compile", which is what separates GreedyDual from LRU.
                let cost_ns = if key < 4 { 100_000 } else { 1_000 } * (1 + key as u64 % 3);
                let value = u64::from(key) * 1_000 + step as u64;
                let (got, inserted) = lru.insert_or_get(key, value, Duration::from_nanos(cost_ns));
                let (want, model_inserted) = model.insert_or_get(key, value, cost_ns);
                prop_assert_eq!(got, want, "resident value diverges at step {}", step);
                prop_assert_eq!(inserted, model_inserted, "insert outcome diverges at step {}", step);
            }
            check(&lru, &model, step);
        }
    }

    /// With every cost equal the policy must be indistinguishable from
    /// plain LRU: the reference model's credit order reduces to recency
    /// order, and the cache follows it.
    #[test]
    fn equal_costs_are_exact_lru(
        seed in 0u64..1_000_000,
        max_entries in 1usize..8,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let lru: CostLru<u32, u64> = CostLru::new(max_entries);
        let mut model = Model::new(max_entries);
        for step in 0..200 {
            let key = rng.gen_range(0u32..12);
            if rng.gen_bool(0.5) {
                prop_assert_eq!(lru.get(&key), model.get(key));
            } else {
                let (got, _) = lru.insert_or_get(key, step, Duration::from_nanos(10));
                let (want, _) = model.insert_or_get(key, step, 10);
                prop_assert_eq!(got, want);
            }
            check(&lru, &model, step as usize);
        }
    }
}
