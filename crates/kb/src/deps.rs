//! Persistent dependency records for retraction (§3.2's deferred
//! "destructive update" surface).
//!
//! The transaction [`Journal`](crate::kb) makes one update atomic; the
//! [`DependencyJournal`] makes updates *reversible across transactions*:
//! every time propagation changes an individual's derived normal form it
//! records a [`Support`] — which individual contributed the information
//! and through which mechanism (a told assertion, an `ALL` restriction
//! pushed onto a filler, a `SAME-AS` co-reference, or a rule firing).
//!
//! Retraction then inverts the derivation: the individuals whose derived
//! state may rest on a retracted fact are exactly the *forward closure*
//! of the retraction seed under the support graph (follow supports whose
//! `source` is affected to their `target`s). Those individuals are reset
//! to their surviving told facts and re-propagated to a new fixed point;
//! everything outside the closure is untouched, which is what makes
//! incremental retraction cheaper than a rebuild (experiment E10).
//!
//! The records are deliberately *coarse* (per individual-pair-mechanism,
//! not per derived fact), and they are recorded whenever the mechanism
//! *applies* — an `ALL` restriction over a filler edge, a rule firing —
//! whether or not the conjunction changed anything. That makes the
//! support set a function of the fixed point rather than of arrival
//! order, which is what lets provenance survive retraction exactly: the
//! journal after a retraction equals the journal of a rebuild from the
//! surviving told facts (the `provenance_after_retraction_…` oracle in
//! `tests/retract.rs`). Coarseness makes the reset a superset of the
//! strictly necessary one — sound, since re-derivation from told facts
//! is confluent — while keeping the journal small and maintenance O(1)
//! per propagation step. It is also why the propagation worklist may
//! deduplicate an epoch's pending ids (see `propagate.rs`): how often an
//! individual is processed does not change which supports it records.

use crate::cow::CowVec;
use crate::individual::IndId;
use classic_core::symbol::RoleId;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// How a piece of derived information reached an individual.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SupportKind {
    /// A told assertion on the individual itself.
    Told {
        /// Position in `told` at recording time (indices shift on
        /// retraction, so this is informational, not used for
        /// addressing).
        index: usize,
    },
    /// An `(ALL role C)` restriction on `source` pushed `C` onto this
    /// filler.
    All {
        /// The role the restriction was attached to.
        role: RoleId,
    },
    /// A `SAME-AS` co-reference on `source` derived a filler here.
    Coref {
        /// The final role of the resolved chain.
        role: RoleId,
    },
    /// A rule fired on the individual (source == target).
    Rule {
        /// The rule's stable index in [`crate::Kb::rules`].
        index: usize,
    },
}

/// One dependency record: `target`'s derived state partly rests on
/// information held by `source`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Support {
    /// The individual whose derived state was changed.
    pub target: IndId,
    /// The individual whose information caused the change.
    pub source: IndId,
    /// The mechanism that carried it.
    pub kind: SupportKind,
}

/// The persistent support graph, keyed by target. Committed supports only;
/// in-flight supports live on the transaction journal until commit.
///
/// Both tables are dense, copy-on-write per-individual vectors (one entry
/// per individual in the arena), so a KB clone shares them entry by
/// entry and a later commit copies only the entries it changes.
#[derive(Debug, Default, Clone)]
pub struct DependencyJournal {
    records: CowVec<BTreeSet<Support>>,
    /// Maintained source→target edge refcounts (distinct supports per
    /// pair), so [`Self::affected_from`] walks only the closure instead
    /// of scanning the whole journal. Self-edges are not indexed: they
    /// never grow the closure.
    by_source: CowVec<BTreeMap<IndId, u32>>,
}

impl DependencyJournal {
    /// Insert one record (idempotent). Re-recording a known support —
    /// the common case, since supports are recorded whenever their
    /// mechanism applies — reads only, so it leaves shared entries
    /// shared.
    pub(crate) fn insert(&mut self, s: Support) {
        let t = s.target.index();
        if self.records[t].contains(&s) {
            return;
        }
        self.records[t].insert(s);
        if s.source != s.target {
            *self.by_source[s.source.index()]
                .entry(s.target)
                .or_insert(0) += 1;
        }
    }

    /// Absorb a transaction's recorded supports on commit.
    pub(crate) fn absorb(&mut self, supports: impl IntoIterator<Item = Support>) {
        for s in supports {
            self.insert(s);
        }
    }

    /// The committed supports of one individual (why it is what it is).
    pub fn supports_of(&self, target: IndId) -> impl Iterator<Item = &Support> {
        self.records.get(target.index()).into_iter().flatten()
    }

    /// Total number of committed support records (diagnostics/E10).
    pub fn len(&self) -> usize {
        self.records.iter().map(BTreeSet::len).sum()
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.iter().all(BTreeSet::is_empty)
    }

    /// Forward dependency closure: every individual whose derived state
    /// may (transitively) rest on information held by one of `seeds`.
    /// Always includes the seeds themselves.
    ///
    /// Walks the maintained source→targets index, so the cost is
    /// O(edges inside the closure), not O(journal) — this is what keeps
    /// incremental re-analysis proportional to the dirty cone.
    pub fn affected_from(&self, seeds: &BTreeSet<IndId>) -> BTreeSet<IndId> {
        let mut closed: BTreeSet<IndId> = seeds.clone();
        let mut work: VecDeque<IndId> = seeds.iter().copied().collect();
        while let Some(id) = work.pop_front() {
            if let Some(targets) = self.by_source.get(id.index()) {
                for &t in targets.keys() {
                    if closed.insert(t) {
                        work.push_back(t);
                    }
                }
            }
        }
        closed
    }

    /// Remove and return every record whose *target* is in `set` (those
    /// individuals are about to be re-derived from scratch, so their old
    /// provenance is void). Returned records go on the transaction journal
    /// so a failed retraction can restore them.
    pub(crate) fn remove_targets(&mut self, set: &BTreeSet<IndId>) -> Vec<Support> {
        let mut removed = Vec::new();
        for id in set {
            if !self.records[id.index()].is_empty() {
                removed.extend(std::mem::take(&mut self.records[id.index()]));
            }
        }
        for s in &removed {
            if s.source == s.target {
                continue;
            }
            let targets = &mut self.by_source[s.source.index()];
            if let Some(count) = targets.get_mut(&s.target) {
                *count -= 1;
                if *count == 0 {
                    targets.remove(&s.target);
                }
            }
        }
        removed
    }

    /// Add the (empty) entries of a newly created individual.
    pub(crate) fn push_individual(&mut self) {
        self.records.push(BTreeSet::new());
        self.by_source.push(BTreeMap::new());
    }

    /// Drop the entries of individuals at `len` and above (creations a
    /// rollback undid; they hold no committed records).
    pub(crate) fn truncate(&mut self, len: usize) {
        self.records.truncate(len);
        self.by_source.truncate(len);
    }

    /// How many per-individual entries are not shared with `other`.
    pub(crate) fn unshared_with(&self, other: &DependencyJournal) -> usize {
        self.records.unshared_with(&other.records) + self.by_source.unshared_with(&other.by_source)
    }
}

/// Per-retraction report: what one accepted retraction cost (E10's
/// incremental-vs-rebuild metric).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RetractReport {
    /// Individuals whose derived state was reset and re-derived.
    pub reset: u64,
    /// Individuals re-enqueued for propagation (reset plus their
    /// transitive reverse-filler hosts).
    pub requeued: u64,
    /// Worklist steps the re-propagation took.
    pub steps: u64,
    /// Individuals whose recognized concepts changed.
    pub reclassified: u64,
}
