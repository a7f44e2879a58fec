//! Configuration of the rule-mining step.

use serde::{Deserialize, Serialize};

/// Configuration of the class association rule mining step (§3 of the paper).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuleMiningConfig {
    /// Minimum support threshold (`min_sup`): minimum coverage a rule's
    /// left-hand side must reach.
    pub min_sup: usize,
    /// Minimum confidence threshold (`min_conf`).  The paper sets it to 0 in
    /// all experiments (the p-value machinery does the filtering); a non-zero
    /// value expresses *domain* significance and is applied after mining.
    pub min_conf: f64,
    /// Optional cap on the length of rule left-hand sides.
    pub max_length: Option<usize>,
    /// Use only closed frequent patterns as rule left-hand sides (§3).
    /// Defaults to `true`, matching the paper.
    pub closed_only: bool,
    /// Store pattern covers with the Diffsets optimisation (§4.2.2).  Only
    /// affects the cost of the permutation approach, never the mined rules.
    pub use_diffsets: bool,
}

impl RuleMiningConfig {
    /// Creates a configuration with the paper's defaults: the given minimum
    /// support, `min_conf = 0`, closed patterns only, Diffsets on.
    pub fn new(min_sup: usize) -> Self {
        RuleMiningConfig {
            min_sup,
            min_conf: 0.0,
            max_length: None,
            closed_only: true,
            use_diffsets: true,
        }
    }

    /// Sets the minimum confidence threshold.
    pub fn with_min_conf(mut self, min_conf: f64) -> Self {
        self.min_conf = min_conf;
        self
    }

    /// Caps the rule length.
    pub fn with_max_length(mut self, max_length: usize) -> Self {
        self.max_length = Some(max_length);
        self
    }

    /// Chooses between closed-pattern and all-frequent-pattern rule LHS.
    pub fn with_closed_only(mut self, closed_only: bool) -> Self {
        self.closed_only = closed_only;
        self
    }

    /// Enables or disables the Diffsets storage optimisation.
    pub fn with_diffsets(mut self, use_diffsets: bool) -> Self {
        self.use_diffsets = use_diffsets;
        self
    }

    /// Checks the thresholds: `min_sup` at least 1, `min_conf` a number in
    /// [0, 1], and a `max_length` cap of at least 1.  Every front end (the
    /// CLI, served `mine`/`correct`/`perm_shard` requests, engine queries)
    /// rejects a configuration that fails this before mining.
    pub fn validate(&self) -> Result<(), String> {
        if self.min_sup == 0 {
            return Err("\"min_sup\" must be at least 1".to_string());
        }
        if !(0.0..=1.0).contains(&self.min_conf) {
            return Err(format!(
                "\"min_conf\" must be a number in [0, 1], got {}",
                self.min_conf
            ));
        }
        if self.max_length == Some(0) {
            return Err("\"max_length\" must be at least 1".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = RuleMiningConfig::new(150);
        assert_eq!(c.min_sup, 150);
        assert_eq!(c.min_conf, 0.0);
        assert_eq!(c.max_length, None);
        assert!(c.closed_only);
        assert!(c.use_diffsets);
    }

    #[test]
    fn builders() {
        let c = RuleMiningConfig::new(10)
            .with_min_conf(0.7)
            .with_max_length(4)
            .with_closed_only(false)
            .with_diffsets(false);
        assert!((c.min_conf - 0.7).abs() < 1e-12);
        assert_eq!(c.max_length, Some(4));
        assert!(!c.closed_only);
        assert!(!c.use_diffsets);
    }

    #[test]
    fn validate_rejects_out_of_range_thresholds() {
        assert!(RuleMiningConfig::new(1).validate().is_ok());
        let ok = RuleMiningConfig::new(5)
            .with_min_conf(1.0)
            .with_max_length(1);
        assert!(ok.validate().is_ok());
        let bad = [
            (RuleMiningConfig::new(0), "min_sup"),
            (RuleMiningConfig::new(5).with_min_conf(1.5), "min_conf"),
            (RuleMiningConfig::new(5).with_min_conf(-3.0), "min_conf"),
            (RuleMiningConfig::new(5).with_min_conf(f64::NAN), "min_conf"),
            (RuleMiningConfig::new(5).with_max_length(0), "max_length"),
        ];
        for (config, field) in bad {
            let err = config.validate().unwrap_err();
            assert!(err.contains(field), "{config:?}: {err}");
        }
    }
}
