//! The compiled-program cache: the compile-once half of the server.
//!
//! Keyed by everything that changes the generated code — the app, its
//! schedule variant, the execution backend, the output shape (several apps
//! bake the image size into the algorithm), and the scalar-parameter
//! signature — and holding `Arc`s so any number of request threads realize
//! one shared [`Program`] without recompiling or cloning it.
//!
//! Residency is bounded: entries live in a [`CostLru`], a cost-aware LRU
//! (the GreedyDual policy) with configurable entry and byte budgets. Each
//! entry's cost is its measured lower+compile time, so under pressure the
//! cache sheds a stale thumbnail blur (recompiles in a millisecond) long
//! before it sheds the camera pipe (tens of milliseconds) — eviction
//! minimizes expected recompile cost, not just maximizes recency.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use halide_exec::{Backend, OptLevel, Program, Realizer};
use halide_ir::ScalarType;
use halide_lower::Module;
use halide_pipelines::{AppKind, ScheduleChoice};

use crate::{ServeError, ServeResult};

/// A scalar parameter value a request binds, hashable so it can participate
/// in the cache key (floats are compared by bit pattern).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamValue {
    /// A 32-bit float parameter.
    F32(f32),
    /// A 32-bit integer parameter.
    I32(i32),
}

impl ParamValue {
    /// The type tag used by [`ProgramKey`]'s parameter *signature*. Only
    /// the name and type participate in the key — compiled programs bind
    /// parameter values into free registers at realize time, so two
    /// requests differing only in a value share one program.
    fn type_tag(&self) -> u8 {
        match self {
            ParamValue::F32(_) => 0,
            ParamValue::I32(_) => 1,
        }
    }

    /// The value as stable bits, for identity comparisons (request
    /// coalescing keys — where, unlike the program cache, the *value*
    /// matters because it changes the pixels).
    pub(crate) fn value_bits(&self) -> (u8, u64) {
        match self {
            ParamValue::F32(v) => (0, v.to_bits() as u64),
            ParamValue::I32(v) => (1, *v as u32 as u64),
        }
    }

    /// Binds this value onto a realizer under `name`.
    pub(crate) fn bind<'m>(&self, realizer: Realizer<'m>, name: &str) -> Realizer<'m> {
        match self {
            ParamValue::F32(v) => realizer.param_f32(name, *v),
            ParamValue::I32(v) => realizer.param_i32(name, *v),
        }
    }
}

/// Everything that selects one compiled program.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProgramKey {
    /// Which application.
    pub app: AppKind,
    /// Which schedule variant.
    pub schedule: ScheduleChoice,
    /// Which execution engine the program targets.
    pub backend: Backend,
    /// Optimizer level the program is compiled at. Part of the key because
    /// an `OptLevel::None` program and an `OptLevel::Default` program are
    /// different artifacts (different instruction counts, same results).
    pub opt: OptLevel,
    /// Output width and height (the shape axis of compile-once).
    pub shape: (i64, i64),
    /// Scalar-parameter *signature*: (name, type tag), sorted by name.
    /// Values are deliberately absent — they bind into free registers at
    /// realize time, so a varying knob must not fragment the cache into
    /// one recompile per value.
    params: Vec<(String, u8)>,
}

impl ProgramKey {
    /// Builds a key; the parameter list is normalized (sorted by name) so
    /// binding order does not fragment the cache.
    pub fn new(
        app: AppKind,
        schedule: ScheduleChoice,
        backend: Backend,
        opt: OptLevel,
        shape: (i64, i64),
        params: &[(String, ParamValue)],
    ) -> Self {
        let mut params: Vec<(String, u8)> = params
            .iter()
            .map(|(name, v)| (name.clone(), v.type_tag()))
            .collect();
        params.sort();
        params.dedup();
        ProgramKey {
            app,
            schedule,
            backend,
            opt,
            shape,
            params,
        }
    }
}

/// One cache entry: a lowered module, its (optionally pre-compiled) program,
/// and the metadata needed to realize it.
#[derive(Debug)]
pub struct CompiledApp {
    /// The lowered module (kept alive for the realizers that borrow it).
    pub module: Module,
    /// The shared register-machine program (`None` when the entry targets
    /// the interpreting backend, which walks the module directly).
    pub program: Option<Arc<Program>>,
    /// Name the request's input image binds under.
    pub input_name: String,
    /// Output extents for this entry's shape.
    pub output_extents: Vec<i64>,
    /// Output element type (what the pooled output buffer is acquired as).
    pub output_ty: ScalarType,
    /// Wall-clock cost of lowering + compiling this entry (the cold-path
    /// latency the cache exists to amortize — and the entry's eviction
    /// cost: cheap-to-rebuild entries are shed first).
    pub compile_time: Duration,
}

/// Estimated resident bytes of a cache entry, for the byte budget. A model,
/// not an exact measurement: compiled instructions dominate, the lowered
/// module and metadata ride along as a constant.
fn approx_entry_bytes(entry: &CompiledApp) -> u64 {
    const BASE: u64 = 16 * 1024;
    const BYTES_PER_INST: u64 = 128;
    match &entry.program {
        Some(p) => BASE + p.opt_report().after_insts as u64 * BYTES_PER_INST,
        None => BASE,
    }
}

// ---------------------------------------------------------------------------
// CostLru: the generic cost-aware eviction core
// ---------------------------------------------------------------------------

/// Counters a [`CostLru`] keeps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostLruStats {
    /// Lookups that found a resident entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted to satisfy a budget.
    pub evictions: u64,
}

#[derive(Debug)]
struct CostLruSlot<V> {
    value: V,
    /// Rebuild cost in nanoseconds — fixed at first insertion.
    cost_ns: u128,
    bytes: u64,
    /// GreedyDual credit: the global clock at last touch plus the cost.
    credit: u128,
    /// Touch sequence, the deterministic tie-break (pure LRU among equal
    /// credits).
    seq: u64,
}

#[derive(Debug)]
struct CostLruState<K, V> {
    map: HashMap<K, CostLruSlot<V>>,
    /// GreedyDual's inflation clock `L`: the credit of the last eviction.
    /// New and re-touched entries earn `L + cost`, so surviving an eviction
    /// wave is worth exactly one rebuild cost of extra tenure.
    l_clock: u128,
    next_seq: u64,
    bytes: u64,
    stats: CostLruStats,
}

/// A cost-aware LRU (the **GreedyDual** policy) with entry and byte budgets.
///
/// Every entry carries a *cost* (here: its compile time) and earns a credit
/// of `L + cost` on insertion and on every hit, where `L` is a global clock
/// that jumps to the credit of each evicted entry. Eviction always removes
/// the minimum-credit entry — the one whose loss costs least, soonest
/// forgotten. With equal costs the policy degenerates to exact LRU; with
/// unequal costs an expensive entry survives `cost / cheap_cost` waves of
/// cheap traffic before it is reconsidered. Integer arithmetic throughout,
/// so the model-based property test (`tests/eviction_props.rs`) can predict
/// every eviction exactly.
#[derive(Debug)]
pub struct CostLru<K, V> {
    state: Mutex<CostLruState<K, V>>,
    max_entries: usize,
    max_bytes: u64,
}

impl<K: Eq + Hash + Clone, V: Clone> CostLru<K, V> {
    /// A cache bounded by `max_entries` resident entries and `max_bytes`
    /// total accounted bytes (either may be `usize::MAX` / `u64::MAX` for
    /// unbounded).
    pub fn new(max_entries: usize, max_bytes: u64) -> Self {
        CostLru {
            state: Mutex::new(CostLruState {
                map: HashMap::new(),
                l_clock: 0,
                next_seq: 0,
                bytes: 0,
                stats: CostLruStats::default(),
            }),
            max_entries: max_entries.max(1),
            max_bytes,
        }
    }

    /// Looks up `key`; a hit refreshes the entry's credit (it earns
    /// `L + cost` again) and returns a clone of the value.
    pub fn get(&self, key: &K) -> Option<V> {
        let mut st = self.state.lock().unwrap();
        let l_clock = st.l_clock;
        let seq = st.next_seq;
        let hit = st.map.get_mut(key).map(|slot| {
            slot.credit = l_clock + slot.cost_ns;
            slot.seq = seq;
            slot.value.clone()
        });
        match hit {
            Some(value) => {
                st.next_seq += 1;
                st.stats.hits += 1;
                Some(value)
            }
            None => {
                st.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts `value` under `key` unless the key is already resident, in
    /// which case the existing value is refreshed and returned instead (the
    /// racing-compile convergence rule: first insert wins). Returns the
    /// resident value and whether this call inserted it. Inserting evicts
    /// minimum-credit entries until both budgets hold.
    pub fn insert_or_get(&self, key: K, value: V, cost: Duration, bytes: u64) -> (V, bool) {
        let mut st = self.state.lock().unwrap();
        let l_clock = st.l_clock;
        let seq = st.next_seq;
        let resident = st.map.get_mut(&key).map(|slot| {
            slot.credit = l_clock + slot.cost_ns;
            slot.seq = seq;
            slot.value.clone()
        });
        if let Some(value) = resident {
            st.next_seq += 1;
            st.stats.hits += 1;
            return (value, false);
        }
        let cost_ns = cost.as_nanos();
        st.map.insert(
            key,
            CostLruSlot {
                value: value.clone(),
                cost_ns,
                bytes,
                credit: l_clock + cost_ns,
                seq,
            },
        );
        st.next_seq += 1;
        st.bytes += bytes;
        st.stats.insertions += 1;
        while st.map.len() > self.max_entries || st.bytes > self.max_bytes {
            let victim = st
                .map
                .iter()
                .min_by_key(|(_, s)| (s.credit, s.seq))
                .map(|(k, _)| k.clone())
                .expect("non-empty while over budget");
            let slot = st.map.remove(&victim).expect("victim is resident");
            st.bytes -= slot.bytes;
            st.l_clock = st.l_clock.max(slot.credit);
            st.stats.evictions += 1;
        }
        (value, true)
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().map.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Accounted bytes currently resident.
    pub fn bytes(&self) -> u64 {
        self.state.lock().unwrap().bytes
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CostLruStats {
        self.state.lock().unwrap().stats
    }

    /// Whether `key` is resident, without refreshing its credit (for tests
    /// and introspection — a probe must not look like traffic).
    pub fn contains(&self, key: &K) -> bool {
        self.state.lock().unwrap().map.contains_key(key)
    }

    /// Every resident key, in no particular order.
    pub fn resident_keys(&self) -> Vec<K> {
        self.state.lock().unwrap().map.keys().cloned().collect()
    }

    /// Every resident `(key, value, cost)` triple, in no particular order,
    /// without refreshing any entry's credit (introspection, not traffic).
    pub fn resident_entries(&self) -> Vec<(K, V, Duration)> {
        self.state
            .lock()
            .unwrap()
            .map
            .iter()
            .map(|(k, slot)| {
                (
                    k.clone(),
                    slot.value.clone(),
                    Duration::from_nanos(slot.cost_ns.min(u64::MAX as u128) as u64),
                )
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// ProgramCache: CostLru over compiled programs
// ---------------------------------------------------------------------------

/// The shared program cache: a [`CostLru`] of [`CompiledApp`]s costed by
/// compile time, plus the compile-on-miss path.
#[derive(Debug)]
pub struct ProgramCache {
    entries: CostLru<ProgramKey, Arc<CompiledApp>>,
    cold_compiles: AtomicU64,
}

impl Default for ProgramCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ProgramCache {
    /// An unbounded cache: nothing is ever evicted.
    pub fn new() -> Self {
        Self::with_budget(usize::MAX, u64::MAX)
    }

    /// A cache bounded to `max_entries` programs and `max_bytes` estimated
    /// resident bytes; over budget, minimum-credit entries (cheap to
    /// recompile, longest untouched) are evicted.
    pub fn with_budget(max_entries: usize, max_bytes: u64) -> Self {
        ProgramCache {
            entries: CostLru::new(max_entries, max_bytes),
            cold_compiles: AtomicU64::new(0),
        }
    }

    /// Looks up the program for `key`, lowering and compiling it on a miss.
    /// Returns the entry plus whether *this call* paid the compile (the
    /// request's cold/warm bit).
    ///
    /// Compilation runs outside the cache lock, so a cold entry never stalls
    /// warm requests for other entries; two threads racing on the same cold
    /// key may both compile, and the first insert wins.
    ///
    /// # Errors
    ///
    /// Propagates lowering and program-compilation failures.
    pub fn get_or_compile(&self, key: &ProgramKey) -> ServeResult<(Arc<CompiledApp>, bool)> {
        if let Some(entry) = self.entries.get(key) {
            return Ok((entry, false));
        }

        let start = Instant::now();
        // One umbrella span per artifact build; the lowering phases and the
        // PIR pass pipeline emit their own nested spans under it, so a trace
        // ties every compile-side span to the ProgramKey that caused it.
        let _span = halide_trace::span("cache/compile-miss", "compile")
            .arg("app", key.app.name())
            .arg("schedule", format!("{:?}", key.schedule))
            .arg("shape", format!("{}x{}", key.shape.0, key.shape.1))
            .arg("opt", key.opt.name());
        let built = key
            .app
            .build(key.shape.0, key.shape.1, key.schedule)
            .map_err(|e| ServeError::Compile(e.to_string()))?;
        let program = match key.backend {
            Backend::Compiled => Some(
                Program::compile_with(&built.module, key.opt)
                    .map(Arc::new)
                    .map_err(|e| ServeError::Compile(e.to_string()))?,
            ),
            Backend::Interp => None,
        };
        let entry = Arc::new(CompiledApp {
            output_ty: built.module.output.ty.scalar(),
            output_extents: key.app.output_extents(key.shape.0, key.shape.1),
            input_name: built.input_name,
            program,
            module: built.module,
            compile_time: start.elapsed(),
        });
        self.cold_compiles.fetch_add(1, Ordering::Relaxed);

        // A racing compile may have inserted first; `insert_or_get` keeps
        // the existing Arc so every thread converges on one program.
        let bytes = approx_entry_bytes(&entry);
        let cost = entry.compile_time;
        let (entry, _inserted) = self.entries.insert_or_get(key.clone(), entry, cost, bytes);
        Ok((entry, true))
    }

    /// Number of entries resident.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// How many times a request paid a lower + compile.
    pub fn cold_compiles(&self) -> u64 {
        self.cold_compiles.load(Ordering::Relaxed)
    }

    /// How many entries have been evicted to satisfy the budget.
    pub fn evictions(&self) -> u64 {
        self.entries.stats().evictions
    }

    /// Estimated resident bytes.
    pub fn bytes(&self) -> u64 {
        self.entries.bytes()
    }

    /// The build cost of every resident artifact, keyed by [`ProgramKey`] —
    /// what each cached program cost to lower + compile, i.e. what evicting
    /// it would make the next cold request pay. Does not count as traffic.
    pub fn compile_costs(&self) -> Vec<(ProgramKey, Duration)> {
        self.entries
            .resident_entries()
            .into_iter()
            .map(|(k, _, cost)| (k, cost))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_normalize_parameter_order() {
        let p1 = vec![
            ("b".to_string(), ParamValue::F32(1.5)),
            ("a".to_string(), ParamValue::I32(3)),
        ];
        let p2 = vec![
            ("a".to_string(), ParamValue::I32(3)),
            ("b".to_string(), ParamValue::F32(1.5)),
        ];
        let k1 = ProgramKey::new(
            AppKind::Blur,
            ScheduleChoice::Tuned,
            Backend::Compiled,
            OptLevel::Default,
            (64, 64),
            &p1,
        );
        let k2 = ProgramKey::new(
            AppKind::Blur,
            ScheduleChoice::Tuned,
            Backend::Compiled,
            OptLevel::Default,
            (64, 64),
            &p2,
        );
        assert_eq!(k1, k2);
        // A different *value* of the same knob shares the program — values
        // bind at realize time, only the signature is part of the key.
        let k3 = ProgramKey::new(
            AppKind::Blur,
            ScheduleChoice::Tuned,
            Backend::Compiled,
            OptLevel::Default,
            (64, 64),
            &[
                ("a".to_string(), ParamValue::I32(99)),
                ("b".to_string(), ParamValue::F32(-7.25)),
            ],
        );
        assert_eq!(k1, k3);
        // A different signature (extra name) is a different program.
        let k4 = ProgramKey::new(
            AppKind::Blur,
            ScheduleChoice::Tuned,
            Backend::Compiled,
            OptLevel::Default,
            (64, 64),
            &[("c".to_string(), ParamValue::F32(2.5))],
        );
        assert_ne!(k1, k4);
    }

    #[test]
    fn cache_compiles_once_per_key() {
        let cache = ProgramCache::new();
        let key = ProgramKey::new(
            AppKind::Blur,
            ScheduleChoice::Tuned,
            Backend::Compiled,
            OptLevel::Default,
            (32, 32),
            &[],
        );
        let (a, cold_a) = cache.get_or_compile(&key).unwrap();
        let (b, cold_b) = cache.get_or_compile(&key).unwrap();
        assert!(cold_a);
        assert!(!cold_b);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(a.program.is_some());
        assert_eq!(a.output_extents, vec![32, 32]);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.cold_compiles(), 1);

        // A different shape is a different program.
        let key2 = ProgramKey::new(
            AppKind::Blur,
            ScheduleChoice::Tuned,
            Backend::Compiled,
            OptLevel::Default,
            (64, 32),
            &[],
        );
        let (_, cold) = cache.get_or_compile(&key2).unwrap();
        assert!(cold);
        assert_eq!(cache.len(), 2);

        // The interpreting backend caches the module without a program.
        let key3 = ProgramKey::new(
            AppKind::Blur,
            ScheduleChoice::Tuned,
            Backend::Interp,
            OptLevel::Default,
            (32, 32),
            &[],
        );
        let (c, _) = cache.get_or_compile(&key3).unwrap();
        assert!(c.program.is_none());

        // A different optimizer level is a different program: the None-level
        // entry compiles separately and reports no eliminated instructions.
        let key4 = ProgramKey::new(
            AppKind::Blur,
            ScheduleChoice::Tuned,
            Backend::Compiled,
            OptLevel::None,
            (32, 32),
            &[],
        );
        assert_ne!(key, key4);
        let (d, cold) = cache.get_or_compile(&key4).unwrap();
        assert!(cold);
        let report = d.program.as_ref().unwrap().opt_report();
        assert_eq!(report.level, OptLevel::None);
        assert_eq!(report.before_insts, report.after_insts);
    }

    const NS: Duration = Duration::from_nanos(1);

    /// With equal costs the policy is exact LRU: the longest-untouched
    /// entry goes first, and a hit is a reprieve.
    #[test]
    fn equal_costs_degenerate_to_lru() {
        let lru: CostLru<&str, u32> = CostLru::new(2, u64::MAX);
        lru.insert_or_get("a", 1, 10 * NS, 1);
        lru.insert_or_get("b", 2, 10 * NS, 1);
        assert_eq!(lru.get(&"a"), Some(1)); // touch a: b is now the victim
        lru.insert_or_get("c", 3, 10 * NS, 1);
        assert!(lru.contains(&"a"));
        assert!(!lru.contains(&"b"));
        assert!(lru.contains(&"c"));
        assert_eq!(lru.stats().evictions, 1);
    }

    /// Cost-aware: a cheap entry is evicted before an older expensive one —
    /// the whole point of keying eviction on compile time × recency.
    #[test]
    fn expensive_entries_outlive_cheap_recent_ones() {
        let lru: CostLru<&str, u32> = CostLru::new(2, u64::MAX);
        lru.insert_or_get("camera", 1, 1000 * NS, 1); // expensive, older
        lru.insert_or_get("blur", 2, 10 * NS, 1); // cheap, newer
        lru.insert_or_get("hist", 3, 10 * NS, 1);
        // blur (credit 10) loses to camera (credit 1000) despite camera
        // being the older, least-recently-inserted entry.
        assert!(lru.contains(&"camera"));
        assert!(!lru.contains(&"blur"));
        // But sustained cheap traffic eventually pages even camera out: every
        // eviction raises the clock L to the victim's credit, so after enough
        // moderate-cost waves (L: 10 -> 410 -> 810 -> 1000) new arrivals out-
        // credit camera and it becomes the minimum.
        for (i, k) in ["u", "v", "w", "x", "y", "z"].iter().enumerate() {
            lru.insert_or_get(*k, 10 + i as u32, 400 * NS, 1);
        }
        assert!(!lru.contains(&"camera"));
    }

    /// The byte budget evicts independently of the entry budget.
    #[test]
    fn byte_budget_evicts() {
        let lru: CostLru<&str, u32> = CostLru::new(usize::MAX, 100);
        lru.insert_or_get("a", 1, 10 * NS, 60);
        lru.insert_or_get("b", 2, 10 * NS, 60); // 120 > 100: evicts a
        assert_eq!(lru.bytes(), 60);
        assert!(!lru.contains(&"a"));
        assert!(lru.contains(&"b"));
    }

    /// A bounded ProgramCache evicts and recompiles transparently: the
    /// evicted key is simply cold again, and the entry count never exceeds
    /// the budget.
    #[test]
    fn program_cache_eviction_recompiles_transparently() {
        let cache = ProgramCache::with_budget(2, u64::MAX);
        let key = |w: i64| {
            ProgramKey::new(
                AppKind::Blur,
                ScheduleChoice::Tuned,
                Backend::Compiled,
                OptLevel::Default,
                (w, 32),
                &[],
            )
        };
        cache.get_or_compile(&key(32)).unwrap();
        cache.get_or_compile(&key(48)).unwrap();
        cache.get_or_compile(&key(64)).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.bytes() > 0);
        // Whichever shape was evicted comes back cold but correct.
        let (entry, _) = cache.get_or_compile(&key(32)).unwrap();
        assert_eq!(entry.output_extents, vec![32, 32]);
        assert!(cache.len() <= 2);
    }
}
