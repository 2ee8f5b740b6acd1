//! # classic-kb
//!
//! The assertional component (ABox) of the CLASSIC reproduction: the
//! knowledge base of individuals, incremental assertions under the
//! open-world assumption, active propagation of deductive consequences,
//! recognition/realization, forward-chaining rules, and integrity checking
//! with atomic (accept-or-reject) updates — paper §3 and §5.
//!
//! The main entry point is [`Kb`]; see the crate-level examples in the
//! repository's `examples/` directory, which walk through the paper's
//! Rocky/RICH-KID and crime-database scenarios.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod aspect;
pub mod bulk;
mod cow;
pub mod deps;
pub mod explain;
pub mod individual;
pub mod kb;
mod propagate;

pub use aspect::ConceptPlacement;
pub use bulk::{BulkRejection, BulkReport, BulkRow, DEFAULT_BULK_CHUNK};
pub use deps::{DependencyJournal, RetractReport, Support, SupportKind};
pub use explain::{Explanation, Requirement};
pub use individual::{IndId, Individual};
pub use kb::{nearest_match, AssertReport, Kb, KbStats, Rule, Sharing};
