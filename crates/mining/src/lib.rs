//! Frequent and closed pattern mining.
//!
//! The paper (§3) maps every attribute/value pair to an item and runs an
//! existing frequent pattern miner; the correction machinery is agnostic to
//! which one.  This crate provides two interchangeable frequent pattern
//! miners, a direct closed-pattern miner, and the pattern-forest
//! representation the permutation engine needs:
//!
//! * [`apriori`] — the classic level-wise algorithm (Agrawal et al.), used as
//!   a baseline and as an independent oracle in the cross-validation tests;
//! * [`eclat`] — a vertical depth-first miner over the set-enumeration tree
//!   (Rymon) that produces a [`PatternForest`] with
//!   parent links and Diffset-encoded covers (Zaki & Gouda), exactly the
//!   structure §4.2.1–4.2.2 of the paper requires;
//! * [`closed`] — closed patterns (Pasquier et al.), since the paper
//!   generates one rule per *closed* frequent pattern to avoid testing
//!   duplicated hypotheses: an LCM miner (Uno, Kiyomi & Arimura) that mines
//!   the closed-only forest directly, and closed-pattern identification on a
//!   mined list.
//!
//! # Example: mine frequent patterns
//!
//! ```
//! use sigrule_data::{Dataset, Record, Schema};
//! use sigrule_mining::{EclatMiner, FrequentPatternMiner, MinerConfig};
//!
//! // Two binary attributes, two classes, four records.
//! let schema = Schema::synthetic(&[2, 2], 2).unwrap();
//! let records = vec![
//!     Record::new(vec![0, 2], 0),
//!     Record::new(vec![0, 2], 0),
//!     Record::new(vec![0, 3], 1),
//!     Record::new(vec![1, 3], 1),
//! ];
//! let dataset = Dataset::new(schema, records).unwrap();
//!
//! let patterns = EclatMiner::default().mine(&dataset, &MinerConfig::new(2));
//! // item 0 appears in three records ...
//! assert!(patterns.iter().any(|p| p.pattern.items() == [0] && p.support == 3));
//! // ... and co-occurs with item 2 twice.
//! assert!(patterns.iter().any(|p| p.pattern.items() == [0, 2] && p.support == 2));
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod apriori;
pub mod closed;
pub mod eclat;
pub mod forest;
pub mod miner;

pub use apriori::AprioriMiner;
pub use closed::{closed_flags, mine_closed_forest, ClosedSplit, ClosedSubtree};
pub use eclat::EclatMiner;
pub use forest::{PatternForest, PatternNode, SupportBackend, SupportPlan};
pub use miner::{FrequentPattern, FrequentPatternMiner, MinerConfig, MinerKind};
