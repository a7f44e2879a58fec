//! Miner configuration, the common result type and the miner trait.

use sigrule_data::{Dataset, Pattern};

/// Configuration shared by all frequent pattern miners.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinerConfig {
    /// Minimum support threshold (`min_sup` in the paper): a pattern is
    /// frequent when at least this many records contain it.
    pub min_sup: usize,
    /// Optional cap on pattern length; `None` mines unbounded lengths.
    pub max_length: Option<usize>,
}

impl MinerConfig {
    /// Creates a configuration with the given minimum support and no length
    /// cap.
    pub fn new(min_sup: usize) -> Self {
        MinerConfig {
            min_sup,
            max_length: None,
        }
    }

    /// Sets a maximum pattern length.
    pub fn with_max_length(mut self, max_length: usize) -> Self {
        self.max_length = Some(max_length);
        self
    }

    /// The effective minimum support: at least 1, since a support-0 pattern
    /// never appears in the data at all.
    pub fn effective_min_sup(&self) -> usize {
        self.min_sup.max(1)
    }

    /// True when `len` exceeds the configured maximum length.
    pub fn exceeds_max_length(&self, len: usize) -> bool {
        self.max_length.is_some_and(|m| len > m)
    }
}

/// A frequent pattern together with its support.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrequentPattern {
    /// The pattern (non-empty).
    pub pattern: Pattern,
    /// Its support in the mined dataset.
    pub support: usize,
}

impl FrequentPattern {
    /// Creates a frequent pattern record.
    pub fn new(pattern: Pattern, support: usize) -> Self {
        FrequentPattern { pattern, support }
    }
}

/// Common interface of the frequent pattern miners.
pub trait FrequentPatternMiner {
    /// Mines all frequent patterns (of length ≥ 1) from the dataset.
    ///
    /// Implementations must return every pattern with support at least
    /// `config.min_sup` (subject to `config.max_length`), each exactly once,
    /// in an unspecified order.
    fn mine(&self, dataset: &Dataset, config: &MinerConfig) -> Vec<FrequentPattern>;

    /// Human-readable name for reports and benchmarks.
    fn name(&self) -> &'static str;
}

/// The available miner implementations, for configuration surfaces that pick
/// one by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MinerKind {
    /// Level-wise Apriori.
    Apriori,
    /// Vertical Eclat/dEclat (the default; the frequent pattern miner that
    /// produces a [`PatternForest`](crate::forest::PatternForest)).
    Eclat,
}

impl MinerKind {
    /// Mines with the selected algorithm.
    pub fn mine(&self, dataset: &Dataset, config: &MinerConfig) -> Vec<FrequentPattern> {
        match self {
            MinerKind::Apriori => crate::apriori::AprioriMiner.mine(dataset, config),
            MinerKind::Eclat => crate::eclat::EclatMiner::default().mine(dataset, config),
        }
    }

    /// All miner kinds (used by the cross-validation tests and the
    /// miner-comparison benchmark).
    pub fn all() -> [MinerKind; 2] {
        [MinerKind::Apriori, MinerKind::Eclat]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            MinerKind::Apriori => "apriori",
            MinerKind::Eclat => "eclat",
        }
    }
}

/// Normalises a miner result into a canonical, comparable form: sorted by
/// pattern items.  Used by tests that compare different miners.
pub fn canonicalize(mut patterns: Vec<FrequentPattern>) -> Vec<FrequentPattern> {
    patterns.sort_by(|a, b| a.pattern.items().cmp(b.pattern.items()));
    patterns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builders() {
        let c = MinerConfig::new(10).with_max_length(3);
        assert_eq!(c.min_sup, 10);
        assert_eq!(c.max_length, Some(3));
        assert!(c.exceeds_max_length(4));
        assert!(!c.exceeds_max_length(3));
        assert_eq!(MinerConfig::new(0).effective_min_sup(), 1);
    }

    #[test]
    fn canonicalize_sorts_by_pattern() {
        let a = FrequentPattern::new(Pattern::from_items([3]), 5);
        let b = FrequentPattern::new(Pattern::from_items([1, 2]), 4);
        let out = canonicalize(vec![a.clone(), b.clone()]);
        assert_eq!(out, vec![b, a]);
    }

    #[test]
    fn miner_kind_names() {
        assert_eq!(MinerKind::Apriori.name(), "apriori");
        assert_eq!(MinerKind::Eclat.name(), "eclat");
        assert_eq!(MinerKind::all().len(), 2);
    }
}
