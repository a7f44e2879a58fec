//! Dataset substrate for class association rule mining.
//!
//! The paper mines *class association rules* over generic itemsets (§2.1):
//! every record is a set of items plus a class label, and a *pattern* is a
//! set of items.  This crate owns the [`ItemSpace`] — the single internal
//! universe of item ids every other crate speaks — and the two record models
//! that compile into it: attribute-valued rows (one `attribute=value` item
//! per column, via a [`Schema`]) and market-basket transactions (free-form
//! token sets).  It provides:
//!
//! * the item universe with per-item provenance ([`itemspace`]),
//! * the schema / item / record / dataset types ([`schema`], [`item`],
//!   [`record`], [`dataset`]),
//! * the vertical representation used by the miners and by the permutation
//!   engine — tid-sets and the Diffsets encoding of Zaki & Gouda ([`vertical`]),
//! * supervised (Fayyad–Irani MDL) and unsupervised discretization for
//!   continuous attributes ([`discretize`]) — the paper used MLC++ for this,
//! * loaders for labelled CSV/TSV rows *and* basket transaction files
//!   ([`loader`]),
//! * deterministic emulators of the four UCI datasets used in the paper's
//!   evaluation ([`uci`]) — adult, german, hypo and mushroom — which stand in
//!   for the real files in this reproduction (see DESIGN.md for the
//!   substitution rationale).
//!
//! # Example: load a labelled CSV
//!
//! ```
//! use sigrule_data::loader::{load_csv_str, LoadOptions};
//!
//! let csv = "\
//! age,color,outcome
//! 23,red,yes
//! 31,blue,no
//! 45,red,yes
//! 52,blue,no
//! ";
//! let dataset = load_csv_str(csv, &LoadOptions::default()).unwrap();
//! assert_eq!(dataset.n_records(), 4);
//! assert_eq!(dataset.schema().unwrap().n_attributes(), 2);       // age, color
//! assert_eq!(dataset.item_space().classes(), &["yes".to_string(), "no".to_string()]);
//! // the numeric column was discretized, the categorical one interned
//! assert_eq!(dataset.schema().unwrap().attributes()[1].name, "color");
//! ```
//!
//! # Example: load market-basket transactions
//!
//! ```
//! use sigrule_data::loader::{load_baskets_str, BasketOptions};
//!
//! let baskets = "\
//! milk bread label:weekday
//! milk beer label:weekend
//! bread eggs milk label:weekday
//! ";
//! let load = load_baskets_str(baskets, &BasketOptions::default()).unwrap();
//! let dataset = &load.dataset;
//! assert_eq!(dataset.n_records(), 3);
//! assert!(dataset.item_space().is_basket());
//! assert_eq!(dataset.item_space().describe_item(0), "milk");
//! assert_eq!(dataset.item_support(0), 3);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod dataset;
pub mod discretize;
pub mod error;
pub mod item;
pub mod itemspace;
pub mod kernel;
pub mod loader;
pub mod record;
pub mod schema;
pub mod shared;
pub mod uci;
pub mod vertical;

pub use dataset::{ClassCounts, Dataset};
pub use error::DataError;
pub use item::{ClassId, Item, ItemId, Pattern};
pub use itemspace::{ItemDef, ItemProvenance, ItemSpace};
pub use kernel::{KernelCounters, KernelKind};
pub use loader::InputFormat;
pub use record::Record;
pub use schema::{Attribute, Schema};
pub use shared::SharedDataset;
pub use vertical::{Bitmap, ClassBitmaps, Cover, TidSet, VerticalDataset};
