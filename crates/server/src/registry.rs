//! The engine registry: named resident engines with byte-budget LRU cache
//! eviction.
//!
//! One [`Engine`] is resident per loaded dataset, under a client-chosen
//! name.  All engines share one LRU clock (see [`Engine::set_clock`]), so
//! "least recently used" is a total order across datasets, and the
//! registry's byte budget bounds the **sum** of every engine's cached rule
//! sets, p-value tables and permutation nulls.  Eviction never changes
//! answers — an evicted artifact is recomputed, bit-identically, by the next
//! query that needs it — it only trades memory for recompute time.
//!
//! The datasets themselves are not evictable: a registered engine keeps its
//! records resident until the name is replaced by a new `load`.  The budget
//! governs the *derived* caches, which dominate memory on real workloads
//! (forests, tables and nulls grow with the mining configuration, not the
//! input size).
//!
//! ```
//! use sigrule::engine::Query;
//! use sigrule::RuleMiningConfig;
//! use sigrule_server::EngineRegistry;
//! # use sigrule_synth::{SyntheticGenerator, SyntheticParams};
//!
//! # let params = SyntheticParams::default().with_records(200).with_attributes(6);
//! # let (dataset, _) = SyntheticGenerator::new(params).unwrap().generate(1);
//! let registry = EngineRegistry::with_budget(Some(64 * 1024));
//! let engine = registry.insert("trial-a", sigrule::Engine::new(dataset));
//! engine.query(&Query::new(RuleMiningConfig::new(20))).unwrap();
//! registry.enforce_budget();
//! assert!(registry.resident_bytes() <= 64 * 1024);
//! ```

use sigrule::engine::EngineStats;
use sigrule::Engine;
use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};

/// Named, concurrently shared engines plus the eviction policy over their
/// caches.  All methods take `&self`; the registry is designed to sit behind
/// an `Arc` and be hit from many connection threads at once.
#[derive(Debug)]
pub struct EngineRegistry {
    /// The name → engine map.  Lock acquisitions recover from poisoning
    /// (`unwrap_or_else(|e| e.into_inner())`): the map holds only `Arc`s, so
    /// no panic can leave it mid-mutation, and a server thread dying must
    /// not take every other connection's registry access down with it.
    engines: Mutex<HashMap<String, Arc<Engine>>>,
    /// One LRU clock shared by every registered engine.
    clock: Arc<AtomicU64>,
    /// Byte budget over the engines' resident caches; `None` = unbounded.
    budget_bytes: Option<usize>,
}

/// A point-in-time view of one registered engine, for `registry_stats`.
#[derive(Debug, Clone)]
pub struct RegistrySnapshot {
    /// The dataset's registry name.
    pub name: String,
    /// The engine (share of the registry's `Arc`).
    pub engine: Arc<Engine>,
    /// The engine's cache statistics at snapshot time.
    pub stats: EngineStats,
}

impl Default for EngineRegistry {
    fn default() -> Self {
        EngineRegistry::with_budget(None)
    }
}

impl EngineRegistry {
    /// An unbounded registry (no cache eviction).
    pub fn new() -> Self {
        EngineRegistry::default()
    }

    /// A registry whose resident cache bytes are bounded by `budget_bytes`
    /// (`None` = unbounded).  The bound is enforced by
    /// [`enforce_budget`](EngineRegistry::enforce_budget), which the serve
    /// layer calls after every cache-filling request.
    pub fn with_budget(budget_bytes: Option<usize>) -> Self {
        EngineRegistry {
            engines: Mutex::new(HashMap::new()),
            clock: Arc::new(AtomicU64::new(0)),
            budget_bytes,
        }
    }

    /// The configured byte budget (`None` = unbounded).
    pub fn budget_bytes(&self) -> Option<usize> {
        self.budget_bytes
    }

    /// Registers `engine` under `name`, pointing it at the registry's shared
    /// LRU clock and labeling its metrics/log events with the name, and
    /// returns the shared handle.  An engine already registered under the
    /// name is replaced (its in-flight queries finish on their own `Arc`).
    pub fn insert(&self, name: &str, mut engine: Engine) -> Arc<Engine> {
        engine.set_clock(self.clock.clone());
        engine.set_label(name);
        let engine = Arc::new(engine);
        self.engines
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(name.to_string(), engine.clone());
        engine
    }

    /// The engine registered under `name`, if any.
    pub fn get(&self, name: &str) -> Option<Arc<Engine>> {
        self.engines
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .cloned()
    }

    /// The registered dataset names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .engines
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Number of registered datasets.
    pub fn len(&self) -> usize {
        self.engines.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when no dataset is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A sorted point-in-time snapshot of every registered engine and its
    /// cache statistics.
    pub fn snapshot(&self) -> Vec<RegistrySnapshot> {
        let engines: Vec<(String, Arc<Engine>)> = self
            .engines
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, engine)| (name.clone(), engine.clone()))
            .collect();
        let mut snaps: Vec<RegistrySnapshot> = engines
            .into_iter()
            .map(|(name, engine)| {
                let stats = engine.stats();
                RegistrySnapshot {
                    name,
                    engine,
                    stats,
                }
            })
            .collect();
        snaps.sort_by(|a, b| a.name.cmp(&b.name));
        snaps
    }

    /// Total approximate resident cache bytes across every registered
    /// engine — the quantity the budget bounds.
    pub fn resident_bytes(&self) -> usize {
        self.snapshot()
            .iter()
            .map(|s| s.stats.resident_bytes())
            .sum()
    }

    /// Cache entries evicted so far by the registered engines: the sum of
    /// their `evicted_rule_sets` and `evicted_nulls` counts (an engine
    /// replaced by a reload takes its evictions with it).
    pub fn evictions(&self) -> u64 {
        self.snapshot()
            .iter()
            .map(|s| s.stats.evicted_rule_sets + s.stats.evicted_nulls)
            .sum()
    }

    /// Evicts globally least-recently-used cache entries until the resident
    /// bytes fit the budget (no-op without one).  Returns the number of
    /// entries evicted.  Called by the serve layer after every
    /// cache-filling request; concurrent queries can refill while this
    /// runs, so the budget is a request-boundary bound, not an instantaneous
    /// invariant.
    pub fn enforce_budget(&self) -> usize {
        let Some(budget) = self.budget_bytes else {
            return 0;
        };
        let engines: Vec<Arc<Engine>> = self
            .engines
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .cloned()
            .collect();
        let mut evicted = 0usize;
        while self.total_bytes(&engines) > budget {
            // The engine holding the globally LRU entry gives one entry up;
            // ties and races are benign (any victim frees memory).
            let victim = engines
                .iter()
                .filter_map(|e| e.lru_stamp().map(|stamp| (stamp, e)))
                .min_by_key(|&(stamp, _)| stamp);
            let Some((_, engine)) = victim else {
                break; // nothing evictable left; datasets alone exceed nothing
            };
            if engine.evict_lru().is_none() {
                break;
            }
            evicted += 1;
        }
        if evicted > 0 {
            sigrule_obs::log::debug(
                "sigrule::registry",
                "budget enforced",
                &[
                    ("evicted", (evicted as u64).into()),
                    ("budget_bytes", (budget as u64).into()),
                    ("resident_bytes", (self.total_bytes(&engines) as u64).into()),
                ],
            );
        }
        evicted
    }

    fn total_bytes(&self, engines: &[Arc<Engine>]) -> usize {
        engines.iter().map(|e| e.cache_bytes()).sum()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use sigrule::engine::Query;
    use sigrule::CorrectionApproach;
    use sigrule::{ErrorMetric, RuleMiningConfig};
    use sigrule_data::Dataset;
    use sigrule_synth::{SyntheticGenerator, SyntheticParams};

    fn synth(seed: u64) -> Dataset {
        let params = SyntheticParams::default()
            .with_records(300)
            .with_attributes(8)
            .with_rules(1)
            .with_coverage(80, 80)
            .with_confidence(0.9, 0.9);
        SyntheticGenerator::new(params).unwrap().generate(seed).0
    }

    fn perm_query(min_sup: usize) -> Query {
        Query::new(RuleMiningConfig::new(min_sup))
            .with_correction(CorrectionApproach::Permutation, ErrorMetric::Fwer)
            .with_permutations(40)
            .with_seed(11)
    }

    #[test]
    fn named_engines_are_isolated_and_listed() {
        let registry = EngineRegistry::new();
        assert!(registry.is_empty());
        let a = registry.insert("a", Engine::new(synth(1)));
        let b = registry.insert("b", Engine::new(synth(2)));
        assert_eq!(registry.names(), vec!["a", "b"]);
        a.query(&perm_query(30)).unwrap();
        assert_eq!(registry.get("a").unwrap().stats().queries, 1);
        assert_eq!(registry.get("b").unwrap().stats().queries, 0);
        assert!(registry.get("c").is_none());
        // Replacing a name swaps the engine; the old handle stays usable.
        let a2 = registry.insert("a", Engine::new(synth(3)));
        assert_eq!(a2.stats().queries, 0);
        assert_eq!(a.stats().queries, 1);
        drop(b);
    }

    #[test]
    fn budget_eviction_keeps_resident_bytes_bounded_and_answers_identical() {
        // Warm both datasets unbounded first, to learn the full size.
        let unbounded = EngineRegistry::new();
        let a = unbounded.insert("a", Engine::new(synth(4)));
        let b = unbounded.insert("b", Engine::new(synth(5)));
        let ref_a = a.query(&perm_query(30)).unwrap();
        let ref_b = b.query(&perm_query(30)).unwrap();
        let full = unbounded.resident_bytes();
        assert!(full > 0);

        // A budget well under one warm dataset forces eviction on every
        // switch; answers must not change.
        let budget = full / 4;
        let registry = EngineRegistry::with_budget(Some(budget));
        let a = registry.insert("a", Engine::new(synth(4)));
        let b = registry.insert("b", Engine::new(synth(5)));
        let mut enforced = 0;
        for round in 0..3 {
            let got_a = a.query(&perm_query(30)).unwrap();
            enforced += registry.enforce_budget();
            assert!(
                registry.resident_bytes() <= budget,
                "round {round}: {} > {budget}",
                registry.resident_bytes()
            );
            assert_eq!(got_a.result, ref_a.result, "round {round}");
            let got_b = b.query(&perm_query(30)).unwrap();
            enforced += registry.enforce_budget();
            assert!(registry.resident_bytes() <= budget);
            assert_eq!(got_b.result, ref_b.result, "round {round}");
        }
        assert!(registry.evictions() > 0);
        // The engines' eviction counters account for every entry the
        // budget enforcement reported evicting.
        assert_eq!(enforced as u64, registry.evictions());
    }

    #[test]
    fn evicted_holdout_split_is_recounted_and_recomputed_bit_identically() {
        let holdout = Query::new(RuleMiningConfig::new(30))
            .with_correction(CorrectionApproach::Holdout, ErrorMetric::Fdr)
            .with_seed(5);
        let registry = EngineRegistry::with_budget(Some(0));
        let engine = registry.insert("a", Engine::new(synth(6)));
        let first = engine.query(&holdout).unwrap();
        let stats = engine.stats();
        assert!(stats.holdout_bytes > 0);
        assert_eq!(
            registry.resident_bytes(),
            stats.rule_set_bytes + stats.table_bytes + stats.null_bytes + stats.holdout_bytes
        );

        // A zero budget evicts the rule set, and its holdout split with it.
        assert!(registry.enforce_budget() > 0);
        assert_eq!(registry.resident_bytes(), 0);
        assert_eq!(engine.stats().holdout_bytes, 0);

        let again = engine.query(&holdout).unwrap();
        let stats = engine.stats();
        assert_eq!((stats.holdout_hits, stats.holdout_misses), (0, 2));
        assert_eq!(again.result, first.result);
    }

    #[test]
    fn unbounded_registry_never_evicts() {
        let registry = EngineRegistry::new();
        let a = registry.insert("a", Engine::new(synth(6)));
        a.query(&perm_query(30)).unwrap();
        assert_eq!(registry.enforce_budget(), 0);
        assert_eq!(registry.evictions(), 0);
        assert!(registry.resident_bytes() > 0);
    }
}
