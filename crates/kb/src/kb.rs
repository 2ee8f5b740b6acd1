//! The CLASSIC knowledge base: schema + taxonomy + individuals + rules.
//!
//! [`Kb`] is the paper's "database": it exposes the operator vocabulary of
//! §3 — `define-role`, `define-attribute`, `define-concept` (DDL, freely
//! interleaved with everything else), `create-ind` and `assert-ind` (DML
//! under the open-world assumption), `assert-rule` (limited forward
//! chaining), and the introspection/query surface consumed by
//! `classic-query`.
//!
//! Every update is atomic: "updates … are either accepted or rejected
//! because of constraint violations" (§3.1). A rejected `assert-ind` (or
//! `assert-rule`) rolls back every propagated consequence via an internal
//! journal of first-touch snapshots.
//!
//! The logical state is copy-on-write (see the `CowVec` in `cow.rs`):
//! cloning a `Kb` shares every individual record, extension set,
//! dependency entry and the schema/taxonomy/rule tables with the
//! original, and each side copies an entry only when it first writes it.

use crate::cow::{CowVec, IdSet};
use crate::deps::{DependencyJournal, RetractReport, Support, SupportKind};
use crate::individual::{IndId, Individual};
use crate::propagate::Propagation;
use classic_core::desc::{Concept, IndRef};
use classic_core::error::{ClassicError, Result};
use classic_core::normal::{conjoin_expression, NormalForm};
use classic_core::schema::{Schema, SchemaCow, TestArg};
use classic_core::symbol::{ConceptName, IndName, RoleId, TestId};
use classic_core::taxonomy::{NodeId, Taxonomy};
use classic_obs::{FlightRecorder, Histogram, Registry};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

/// A forward-chaining rule: "if an individual is a `<concept1>` then it is
/// also a `<concept2>`" (§3.3). Rules are "triggers activated only when a new
/// individual is found of which the antecedent concept description holds" —
/// *not* part of the antecedent's definition.
#[derive(Debug, Clone)]
pub struct Rule {
    /// The named concept the rule is attached to.
    pub antecedent: ConceptName,
    /// The taxonomy node the antecedent classifies at.
    pub node: NodeId,
    /// The consequent description, conjoined onto every recognized
    /// instance.
    pub consequent: Concept,
    /// Whether the rule has been retracted. Retired rules stay in the
    /// vector so the `usize` indices stored in `fired_rules` and
    /// `rules_by_node` remain stable; every consumer must filter them
    /// (use [`Kb::active_rules`]).
    pub retired: bool,
}

/// A monotone instrumentation counter. Atomic (relaxed) so parallel query
/// workers can record statistics through a shared `&Kb` without losing
/// updates. Since the observability migration this is the
/// [`classic_obs`] counter: bumps are suppressed at
/// [`classic_obs::ObsLevel::Off`], and clones *share* the underlying
/// atomic (the handle names one series, not a value).
pub use classic_obs::Counter;

/// Cumulative instrumentation counters (experiments E3/E4/E6).
///
/// Since the observability migration each field is a handle onto a
/// [`classic_obs`] registry series: [`Kb::new`] registers them in the
/// KB's own [`Registry`] so the `(obs-stats)` and `--metrics`
/// expositions read the same atomics the engine bumps.
/// `KbStats::default()` yields detached stand-ins (tests, ad-hoc use).
///
/// Kernel-level counters (interning, subsumption memo hit/miss, closure
/// rebuilds) live with the taxonomy's kernel; snapshot them via
/// [`Kb::kernel_stats`].
#[derive(Debug, Clone)]
pub struct KbStats {
    /// Top-level `assert-ind` calls accepted.
    pub assertions: Counter,
    /// Worklist items processed by the propagation engine.
    pub propagation_steps: Counter,
    /// Descriptions pushed onto fillers by `ALL` restrictions.
    pub fills_propagations: Counter,
    /// Fillers derived through `SAME-AS` co-reference.
    pub coref_propagations: Counter,
    /// Rule firings (each rule at most once per individual).
    pub rules_fired: Counter,
    /// Individual (re-)realizations performed.
    pub realizations: Counter,
    /// Node-level instance tests performed during realization/queries.
    pub instance_tests: Counter,
}

impl Default for KbStats {
    fn default() -> Self {
        KbStats {
            assertions: Counter::detached("classic_assertions_total"),
            propagation_steps: Counter::detached("classic_propagation_steps_total"),
            fills_propagations: Counter::detached("classic_fills_propagations_total"),
            coref_propagations: Counter::detached("classic_coref_propagations_total"),
            rules_fired: Counter::detached("classic_rules_fired_total"),
            realizations: Counter::detached("classic_realizations_total"),
            instance_tests: Counter::detached("classic_instance_tests_total"),
        }
    }
}

impl KbStats {
    /// Register the ABox series in `registry`. Panics on a name collision
    /// — a registry hosts exactly one `Kb`.
    pub(crate) fn register(registry: &Registry) -> KbStats {
        let c = |name: &str, help: &str| {
            registry
                .counter(name, help)
                .expect("kb metric registration")
        };
        KbStats {
            assertions: c(
                "classic_assertions_total",
                "top-level assert-ind calls accepted",
            ),
            propagation_steps: c(
                "classic_propagation_steps_total",
                "worklist items processed by the propagation engine",
            ),
            fills_propagations: c(
                "classic_fills_propagations_total",
                "descriptions pushed onto fillers by ALL restrictions",
            ),
            coref_propagations: c(
                "classic_coref_propagations_total",
                "fillers derived through SAME-AS co-reference",
            ),
            rules_fired: c("classic_rules_fired_total", "forward-chaining rule firings"),
            realizations: c(
                "classic_realizations_total",
                "individual (re-)realizations performed",
            ),
            instance_tests: c(
                "classic_instance_tests_total",
                "node-level instance tests during realization/queries",
            ),
        }
    }
}

/// Per-assertion report: what one accepted update caused (E6's
/// derived-facts-per-asserted-fact metric).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct AssertReport {
    /// Worklist steps the propagation took.
    pub steps: u64,
    /// `ALL` restrictions propagated onto fillers.
    pub fills_propagated: u64,
    /// Role fillers derived via `SAME-AS`.
    pub corefs_derived: u64,
    /// Rules fired.
    pub rules_fired: u64,
    /// Individuals whose recognized concepts changed.
    pub reclassified: u64,
    /// Individuals created implicitly by being referenced.
    pub inds_created: u64,
}

/// Rollback journal for one update transaction.
#[derive(Default)]
pub(crate) struct Journal {
    /// First-touch versions of modified individuals: the shared record
    /// itself (a pointer copy). Holding it makes the first write to the
    /// individual copy it, so the saved version stays intact.
    touched: HashMap<IndId, Arc<Individual>>,
    /// Individuals created during the transaction (in creation order —
    /// they occupy the arena tail).
    created: Vec<IndId>,
    /// Reverse-filler edges added during the transaction.
    reverse_added: Vec<(IndId, IndId)>,
    /// Dependency records earned during the transaction; absorbed into
    /// [`Kb::deps`] on commit, dropped on rollback.
    pub(crate) supports: Vec<Support>,
    /// Committed dependency records removed during a retraction;
    /// restored on rollback.
    pub(crate) supports_removed: Vec<Support>,
    /// Reverse-filler edges removed during a retraction; restored on
    /// rollback.
    pub(crate) reverse_removed: Vec<(IndId, IndId)>,
}

impl Journal {
    pub(crate) fn touch(&mut self, kb: &Kb, id: IndId) {
        if !self.touched.contains_key(&id) && !self.created.contains(&id) {
            self.touched
                .insert(id, Arc::clone(kb.inds.shared(id.index())));
        }
    }

    pub(crate) fn push_reverse(&mut self, filler: IndId, host: IndId) {
        self.reverse_added.push((filler, host));
    }

    pub(crate) fn note_support(&mut self, s: Support) {
        self.supports.push(s);
    }

    /// How many individuals this transaction created (bulk loads report
    /// it without exposing the journal's internals).
    pub(crate) fn created_count(&self) -> usize {
        self.created.len()
    }
}

/// The CLASSIC knowledge base.
///
/// ```
/// use classic_core::desc::Concept;
/// use classic_kb::Kb;
///
/// let mut kb = Kb::new();
/// kb.define_role("friend")?;
/// kb.define_concept("POPULAR", Concept::primitive(Concept::thing(), "popular"))?;
/// let friend = kb.schema().symbols.find_role("friend").unwrap();
/// // Rule: anyone with ≥3 friends is POPULAR.
/// kb.define_concept("GREGARIOUS", Concept::AtLeast(3, friend))?;
/// kb.assert_rule(
///     "GREGARIOUS",
///     Concept::Name(kb.schema().symbols.find_concept("POPULAR").unwrap()),
/// )?;
/// kb.create_ind("Rocky")?;
/// kb.assert_ind("Rocky", &Concept::AtLeast(3, friend))?;
/// // The rule fired: Rocky is now recognized as POPULAR.
/// let popular = kb.schema().symbols.find_concept("POPULAR").unwrap();
/// let rocky = kb.ind_id(kb.schema().symbols.find_individual("Rocky").unwrap())?;
/// assert!(kb.instances_of(popular)?.contains(&rocky));
/// # Ok::<(), classic_core::ClassicError>(())
/// ```
#[derive(Debug)]
pub struct Kb {
    /// Written (and, if a clone shares it, copied) only to define or
    /// intern something new.
    pub(crate) schema: Arc<Schema>,
    /// Written only by `define-concept`. Its subsumption kernel is
    /// interior-mutable and stays shared between clones: the memo holds
    /// pure facts about interned normal forms, true in every clone.
    pub(crate) taxonomy: Arc<Taxonomy>,
    pub(crate) inds: CowVec<Individual>,
    pub(crate) by_name: Arc<HashMap<IndName, IndId>>,
    /// Direct extensions: for each taxonomy node, the individuals whose
    /// *most specific* concepts include it. Instances of a node = direct
    /// extensions of the node and all its descendants.
    pub(crate) extensions: CowVec<IdSet>,
    pub(crate) rules: Arc<Vec<Rule>>,
    pub(crate) rules_by_node: Arc<HashMap<NodeId, Vec<usize>>>,
    /// filler → individuals having it as a role filler (the reclassification
    /// cascade of §5 walks this); one entry per individual.
    pub(crate) reverse_fillers: CowVec<BTreeSet<IndId>>,
    /// Committed dependency records: why each individual's derived state
    /// is what it is. Consulted by retraction and `explain_provenance`.
    pub(crate) deps: DependencyJournal,
    /// Cumulative instrumentation counters.
    pub stats: KbStats,
    /// This KB's metric registry. Every series the engine bumps
    /// (`stats`, the kernel counters, per-op duration histograms, and
    /// anything a wrapper such as `DurableKb` registers) lives here; the
    /// registry is also enrolled in the process-global roll-up that
    /// `--metrics` dumps.
    pub(crate) obs: Arc<Registry>,
    /// Ring buffer of recent and slowest operation traces, populated
    /// only at [`classic_obs::ObsLevel::Full`].
    pub(crate) recorder: Arc<FlightRecorder>,
    /// Duration histograms for the top-level operations (Full only).
    assert_ns: Histogram,
    retract_ns: Histogram,
    pub(crate) propagate_ns: Histogram,
}

impl Default for Kb {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for Kb {
    /// Cut a copy-on-write clone. The logical state (schema, taxonomy,
    /// individuals, extensions, rules, reverse-filler and dependency
    /// tables) is *shared*, not copied: the clone costs one pointer copy
    /// per 64-entry chunk of each table (see `cow.rs`), and
    /// afterwards each side copies an entry only on its first write to
    /// it — a later `assert-ind` on the original pays O(entries it
    /// dirties), and the clone never sees it. Dropping a clone frees only
    /// what it no longer shares.
    ///
    /// The observability handles are shared too: the metric registry,
    /// flight recorder, and duration histograms are `Arc`'d, so a clone's
    /// operations keep counting against the original KB's series. This is
    /// exactly what a server read snapshot wants — queries against the
    /// snapshot show up in the tenant's metrics — and it avoids enrolling
    /// throwaway registries in the process-global roll-up for every
    /// snapshot taken.
    ///
    /// Two caches stay interior-mutable while shared, and both remain
    /// sound. The taxonomy's subsumption kernel memoizes pure facts about
    /// interned normal forms. An individual's `test_hits` caches only
    /// *positive* `TEST` outcomes; a shared record is identical in both
    /// KBs, so a hit recorded through either holds for both; and
    /// retraction, the one operation that can shrink a description,
    /// clears the cache on the writer's private copy of the record (the
    /// first write unshares it), never on the copy a clone still holds.
    fn clone(&self) -> Kb {
        Kb {
            schema: Arc::clone(&self.schema),
            taxonomy: Arc::clone(&self.taxonomy),
            inds: self.inds.clone(),
            by_name: Arc::clone(&self.by_name),
            extensions: self.extensions.clone(),
            rules: Arc::clone(&self.rules),
            rules_by_node: Arc::clone(&self.rules_by_node),
            reverse_fillers: self.reverse_fillers.clone(),
            deps: self.deps.clone(),
            stats: self.stats.clone(),
            obs: Arc::clone(&self.obs),
            recorder: Arc::clone(&self.recorder),
            assert_ns: self.assert_ns.clone(),
            retract_ns: self.retract_ns.clone(),
            propagate_ns: self.propagate_ns.clone(),
        }
    }
}

impl Kb {
    /// An empty knowledge base (schema, taxonomy and data all empty).
    ///
    /// Each `Kb` owns a fresh metric [`Registry`] and a
    /// [`FlightRecorder`]; see [`Kb::metrics`] and
    /// [`Kb::flight_recorder`].
    pub fn new() -> Kb {
        let obs = Registry::new();
        // Enrolled in the process-global roll-up so `--trace-out` dumps
        // can collect traces from every KB in the process.
        let recorder = FlightRecorder::new_shared();
        let taxonomy = Taxonomy::with_obs(&obs, Arc::clone(&recorder));
        let stats = KbStats::register(&obs);
        let dh = |name: &str, help: &str| {
            obs.duration_histogram(name, help)
                .expect("kb metric registration")
        };
        let assert_ns = dh("classic_assert_ns", "assert-ind wall time (ns)");
        let retract_ns = dh(
            "classic_retract_ns",
            "retract-ind/retract-rule wall time (ns)",
        );
        let propagate_ns = dh(
            "classic_propagate_fixpoint_ns",
            "propagation fixpoint wall time (ns)",
        );
        let mut extensions = CowVec::default();
        for _ in 0..taxonomy.len() {
            extensions.push(IdSet::default());
        }
        Kb {
            schema: Arc::new(Schema::new()),
            taxonomy: Arc::new(taxonomy),
            inds: CowVec::default(),
            by_name: Arc::new(HashMap::new()),
            extensions,
            rules: Arc::new(Vec::new()),
            rules_by_node: Arc::new(HashMap::new()),
            reverse_fillers: CowVec::default(),
            deps: DependencyJournal::default(),
            stats,
            obs,
            recorder,
            assert_ns,
            retract_ns,
            propagate_ns,
        }
    }

    // ---- accessors -------------------------------------------------------

    /// The schema (roles, named concepts, primitives, tests).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Mutable schema access (interning names for ad-hoc expressions).
    /// Copies the schema first if a clone still shares it; to resolve an
    /// expression, pass the `Kb` itself as the [`SchemaCow`], which
    /// writes only for a name the KB has never seen.
    pub fn schema_mut(&mut self) -> &mut Schema {
        Arc::make_mut(&mut self.schema)
    }

    /// The IS-A hierarchy over the defined concepts.
    pub fn taxonomy(&self) -> &Taxonomy {
        &self.taxonomy
    }

    /// Snapshot of the subsumption kernel's counters (normal-form
    /// interning, memo hit/miss, closure rebuilds). Complements the ABox
    /// counters in [`Kb::stats`]; experiment E9 reports both.
    pub fn kernel_stats(&self) -> classic_core::KernelStats {
        self.taxonomy.kernel_stats()
    }

    /// This KB's metric registry: every series the engine bumps
    /// (assertions, propagation, subsumption kernel, durations).
    /// Snapshot or render it directly, or register additional series
    /// (the durable store does) so one exposition covers the whole
    /// stack.
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.obs
    }

    /// The flight recorder holding the N most recent and slowest
    /// operation traces. Only populated at
    /// [`classic_obs::ObsLevel::Full`]; empty (but valid) otherwise.
    pub fn flight_recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// The individual stored at `id`.
    pub fn ind(&self, id: IndId) -> &Individual {
        &self.inds[id.index()]
    }

    /// Number of CLASSIC individuals in the database.
    pub fn ind_count(&self) -> usize {
        self.inds.len()
    }

    /// Every individual handle, in creation order.
    pub fn ind_ids(&self) -> impl Iterator<Item = IndId> {
        (0..self.inds.len()).map(IndId::from_index)
    }

    /// Resolve a created individual by name.
    pub fn ind_id(&self, name: IndName) -> Result<IndId> {
        self.by_name
            .get(&name)
            .copied()
            .ok_or(ClassicError::UnknownIndividual(name))
    }

    /// The forward-chaining rules, in assertion order. Includes retired
    /// (retracted) rules so indices stay stable; see [`Kb::active_rules`].
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// The live (non-retired) rules, with their stable indices.
    pub fn active_rules(&self) -> impl Iterator<Item = (usize, &Rule)> {
        self.rules.iter().enumerate().filter(|(_, r)| !r.retired)
    }

    /// The committed dependency records (why each individual's derived
    /// state is what it is); consulted by retraction and explanation.
    pub fn deps(&self) -> &DependencyJournal {
        &self.deps
    }

    /// Normalize an ad-hoc concept expression against this KB's schema
    /// (written only to register a primitive atom it has never seen).
    pub fn normalize(&mut self, c: &Concept) -> Result<NormalForm> {
        classic_core::normal::normalize(c, &mut self.schema)
    }

    // ---- DDL --------------------------------------------------------------

    /// `define-role[name]` (§3.1).
    pub fn define_role(&mut self, name: &str) -> Result<RoleId> {
        self.schema_mut().define_role(name)
    }

    /// Declare a single-valued role, usable in `SAME-AS` chains.
    pub fn define_attribute(&mut self, name: &str) -> Result<RoleId> {
        self.schema_mut().define_attribute(name)
    }

    /// Register a host-language `TEST` function (§2.1.4).
    pub fn register_test<F>(&mut self, name: &str, f: F) -> TestId
    where
        F: Fn(&TestArg<'_>) -> bool + Send + Sync + 'static,
    {
        self.schema_mut().register_test(name, f)
    }

    /// `define-concept[name, expr]` (§3.1): normalize, store, classify into
    /// the taxonomy, and *recognize* any existing individuals that already
    /// satisfy the new definition — the schema can grow "any time it seems
    /// useful" and the data immediately reflects it.
    pub fn define_concept(&mut self, name: &str, told: Concept) -> Result<ConceptName> {
        let cname = self.schema_mut().define_concept(name, told)?;
        let nf = self.schema.concept_nf(cname)?.clone();
        let (node, _) = Arc::make_mut(&mut self.taxonomy).insert(cname, nf);
        while self.extensions.len() < self.taxonomy.len() {
            self.extensions.push(IdSet::default());
        }
        // Candidates for recognition: individuals already recognized under
        // every parent of the new node (any instance of the new concept
        // must be). For a fresh node under TOP that is every individual.
        let parents: Vec<NodeId> = self.taxonomy.node(node).parents.iter().copied().collect();
        let mut candidates: Option<BTreeSet<IndId>> = None;
        for p in parents {
            let inst = self.instances_of_node(p);
            candidates = Some(match candidates {
                None => inst,
                Some(c) => c.intersection(&inst).copied().collect(),
            });
        }
        let candidates = match candidates {
            Some(c) => c,
            None => self.ind_ids().collect(),
        };
        for id in candidates {
            self.realize(id);
        }
        Ok(cname)
    }

    // ---- individuals -------------------------------------------------------

    /// `create-ind[name]` (§3.2): "creates an individual … about whom
    /// nothing is known (except that it is a THING)". Establishes identity
    /// independent of properties.
    pub fn create_ind(&mut self, name: &str) -> Result<IndId> {
        let iname = self.schema.individual(name);
        if self.by_name.contains_key(&iname) {
            return Err(ClassicError::IndividualExists(iname));
        }
        Ok(self.create_ind_unchecked(iname))
    }

    pub(crate) fn create_ind_unchecked(&mut self, iname: IndName) -> IndId {
        let id = IndId::from_index(self.inds.len());
        self.inds.push(Individual::new(iname));
        self.reverse_fillers.push(BTreeSet::new());
        self.deps.push_individual();
        Arc::make_mut(&mut self.by_name).insert(iname, id);
        self.realize(id);
        id
    }

    /// Get the individual named `name`, creating it if referenced for the
    /// first time (the paper's examples assert facts about `Volvo-17`
    /// without a prior `create-ind`).
    pub(crate) fn ensure_ind(&mut self, iname: IndName, journal: &mut Journal) -> IndId {
        match self.by_name.get(&iname) {
            Some(&id) => id,
            None => {
                let id = self.create_ind_unchecked(iname);
                journal.created.push(id);
                id
            }
        }
    }

    /// `assert-ind[name, desc]` (§3.2): incrementally add (possibly
    /// partial) information. Accepted atomically or rejected with a rolled
    /// back state and the clash that caused the rejection (§3.4).
    ///
    /// Recognition is automatic (§3.3): asserting the parts of a defined
    /// concept makes the individual an instance of it.
    ///
    /// ```
    /// use classic_core::Concept;
    /// use classic_kb::Kb;
    ///
    /// let mut kb = Kb::new();
    /// let enrolled = kb.define_role("enrolled-at")?;
    /// kb.define_concept("PERSON", Concept::primitive(Concept::thing(), "person"))?;
    /// let person = kb.schema().symbols.find_concept("PERSON").unwrap();
    /// kb.define_concept(
    ///     "STUDENT",
    ///     Concept::and([Concept::Name(person), Concept::AtLeast(1, enrolled)]),
    /// )?;
    /// let student = kb.schema().symbols.find_concept("STUDENT").unwrap();
    ///
    /// let rocky = kb.create_ind("Rocky")?;
    /// kb.assert_ind("Rocky", &Concept::Name(person))?;
    /// assert!(!kb.is_instance_of(rocky, student)?);
    /// kb.assert_ind("Rocky", &Concept::AtLeast(1, enrolled))?;
    /// assert!(kb.is_instance_of(rocky, student)?); // recognized, not asserted
    /// # Ok::<(), classic_core::ClassicError>(())
    /// ```
    pub fn assert_ind(&mut self, name: &str, desc: &Concept) -> Result<AssertReport> {
        let iname = self.schema.individual(name);
        let id = self.ind_id(iname)?;
        self.assert_ind_by_id(id, desc)
    }

    /// `assert-ind` addressed by handle.
    pub fn assert_ind_by_id(&mut self, id: IndId, desc: &Concept) -> Result<AssertReport> {
        let _span = classic_obs::span_timed(&self.recorder, "kb.assert", &self.assert_ns);
        let mut journal = Journal::default();
        match self.assert_txn(id, desc, &mut journal) {
            Ok(mut report) => {
                report.inds_created = journal.created.len() as u64;
                self.stats.assertions.bump();
                self.deps.absorb(journal.supports);
                Ok(report)
            }
            Err(e) => {
                self.rollback(journal);
                Err(e)
            }
        }
    }

    pub(crate) fn assert_txn(
        &mut self,
        id: IndId,
        desc: &Concept,
        journal: &mut Journal,
    ) -> Result<AssertReport> {
        journal.touch(self, id);
        // Auto-create any individuals the description references, so
        // FILLS/ONE-OF targets exist (paper examples rely on this).
        self.ensure_referenced_inds(desc, journal);
        let told_index = self.inds[id.index()].told.len();
        self.inds[id.index()].told.push(desc.clone());
        journal.note_support(Support {
            target: id,
            source: id,
            kind: SupportKind::Told { index: told_index },
        });
        // Conjoin the asserted expression *contextually* (CLOSE applies to
        // the currently known fillers — §3.2).
        let mut derived = std::mem::take(&mut self.inds[id.index()].derived);
        let res = conjoin_expression(desc, &mut self.schema, &mut derived);
        self.inds[id.index()].derived = derived;
        res?;
        let mut report = AssertReport::default();
        let mut work = vec![id];
        Propagation::run(self, &mut work, journal, &mut report)?;
        Ok(report)
    }

    fn ensure_referenced_inds(&mut self, desc: &Concept, journal: &mut Journal) {
        match desc {
            Concept::OneOf(inds) | Concept::Fills(_, inds) => {
                for i in inds {
                    if let IndRef::Classic(n) = i {
                        self.ensure_ind(*n, journal);
                    }
                }
            }
            Concept::All(_, inner) => self.ensure_referenced_inds(inner, journal),
            Concept::And(parts) => {
                for p in parts {
                    self.ensure_referenced_inds(p, journal);
                }
            }
            Concept::Primitive { parent, .. } | Concept::DisjointPrimitive { parent, .. } => {
                self.ensure_referenced_inds(parent, journal)
            }
            _ => {}
        }
    }

    /// Hypothetical assertion: would `desc` be accepted, and what would it
    /// derive? The update is run through the full propagation engine and
    /// then rolled back unconditionally, leaving the database untouched
    /// either way.
    ///
    /// This is the question every configuration session asks ("can this
    /// part still be added?") and the natural complement of the paper's
    /// accept-or-reject update model: the same journal that makes rejected
    /// updates atomic (§3.4) makes accepted ones reversible for free.
    pub fn what_if(&mut self, name: &str, desc: &Concept) -> Result<AssertReport> {
        let iname = self.schema.individual(name);
        let id = self.ind_id(iname)?;
        let mut journal = Journal::default();
        let result = self.assert_txn(id, desc, &mut journal);
        self.rollback(journal);
        result
    }

    /// `retract-ind[name, desc]`: remove a previously *told* description
    /// and re-derive every affected individual from its surviving told
    /// facts — the destructive update the paper defers ("we … are now
    /// implementing … and will report on this at a future date", §3.2).
    ///
    /// `desc` must syntactically match a told assertion on the individual
    /// (most recent match is removed); derived information cannot be
    /// retracted directly, only by removing the told facts it rests on.
    /// The semantic contract is the rebuild oracle: after retraction the
    /// database is indistinguishable from one built fresh from the
    /// surviving told facts (see `tests/retract.rs`). Re-derivation walks
    /// the dependency journal's forward closure instead of rebuilding the
    /// whole KB.
    ///
    /// A retraction whose re-derivation fails (possible with
    /// order-dependent `CLOSE` told facts) is rejected atomically, like a
    /// failing `assert-ind`.
    pub fn retract_ind(&mut self, name: &str, desc: &Concept) -> Result<RetractReport> {
        let iname = self.schema.individual(name);
        let id = self.ind_id(iname)?;
        self.retract_ind_by_id(id, desc)
    }

    /// `retract-ind` addressed by handle.
    pub fn retract_ind_by_id(&mut self, id: IndId, desc: &Concept) -> Result<RetractReport> {
        let _span = classic_obs::span_timed(&self.recorder, "kb.retract", &self.retract_ns);
        let Some(pos) = self.inds[id.index()].told.iter().rposition(|t| t == desc) else {
            return Err(ClassicError::NotAsserted(self.inds[id.index()].name));
        };
        let mut journal = Journal::default();
        journal.touch(self, id);
        self.inds[id.index()].told.remove(pos);
        match self.rederive_after_retraction(BTreeSet::from([id]), &mut journal) {
            Ok(report) => {
                self.deps.absorb(journal.supports);
                Ok(report)
            }
            Err(e) => {
                self.rollback(journal);
                Err(e)
            }
        }
    }

    /// Reset every individual whose derived state may rest on the seeds,
    /// re-conjoin their surviving told facts, and propagate to a new fixed
    /// point. The caller has already removed the retracted told entry (or
    /// retired the retracted rule); on error the caller rolls back.
    fn rederive_after_retraction(
        &mut self,
        seeds: BTreeSet<IndId>,
        journal: &mut Journal,
    ) -> Result<RetractReport> {
        // RESET: the forward dependency closure — everyone whose derived
        // state may (transitively) rest on retracted information.
        let reset = self.deps.affected_from(&seeds);
        // ENQUEUE: RESET plus its transitive reverse-filler hosts. Hosts
        // keep their derived state (it does not depend on the retracted
        // fact — they are outside the closure) but must re-run so their
        // ALL restrictions and SAME-AS corefs re-push information the
        // reset wiped. Transitivity matters: a multi-step SAME-AS source
        // is only reachable through a chain of reverse-filler edges.
        // Computed before stale edges are removed below.
        let mut enqueue = reset.clone();
        let mut frontier: VecDeque<IndId> = reset.iter().copied().collect();
        while let Some(i) = frontier.pop_front() {
            for h in self.hosts_of(i) {
                if enqueue.insert(h) {
                    frontier.push_back(h);
                }
            }
        }
        for &i in &enqueue {
            journal.touch(self, i);
        }
        // Void the old provenance of reset individuals (restored on
        // rollback), and the reverse-filler edges they host — their role
        // fillers are about to be recomputed, and propagation will
        // re-insert the surviving edges.
        journal
            .supports_removed
            .extend(self.deps.remove_targets(&reset));
        // An edge is only ever added for a classic filler of its host's
        // derived form, which grows until the host is reset (here), so
        // the edges a reset individual hosts are found from its own
        // fillers — O(cone), not a scan of every entry.
        let mut stale_edges: Vec<(IndId, IndId)> = Vec::new();
        for &h in &reset {
            for rr in self.inds[h.index()].derived.roles.values() {
                for f in &rr.fillers {
                    let IndRef::Classic(name) = f else { continue };
                    if let Some(&fid) = self.by_name.get(name) {
                        if self.reverse_fillers[fid.index()].contains(&h) {
                            stale_edges.push((fid, h));
                        }
                    }
                }
            }
        }
        stale_edges.sort_unstable();
        stale_edges.dedup();
        for (filler, host) in &stale_edges {
            self.reverse_fillers[filler.index()].remove(host);
        }
        journal.reverse_removed.extend(stale_edges);
        // Reset each member to its surviving told facts. Monotone caches
        // (fired rules, positive TEST hits) are only valid for growing
        // descriptions, so both are cleared.
        for &i in &reset {
            let mut derived = NormalForm::top();
            derived.layer = classic_core::Layer::Classic;
            let told: Vec<Concept> = self.inds[i.index()].told.clone();
            for (ix, t) in told.iter().enumerate() {
                conjoin_expression(t, &mut self.schema, &mut derived)?;
                journal.note_support(Support {
                    target: i,
                    source: i,
                    kind: SupportKind::Told { index: ix },
                });
            }
            // The first write unshares the record, so this clears only
            // this KB's copy of the TEST cache; a clone sharing the old
            // record keeps hits that still hold for its description.
            let ind = &mut self.inds[i.index()];
            ind.derived = derived;
            ind.fired_rules.clear();
            ind.test_hits.get_mut().expect("test cache lock").clear();
        }
        // Propagate the whole affected region back to a fixed point.
        let mut report = AssertReport::default();
        let mut work: Vec<IndId> = enqueue.iter().copied().collect();
        Propagation::run(self, &mut work, journal, &mut report)?;
        Ok(RetractReport {
            reset: reset.len() as u64,
            requeued: enqueue.len() as u64,
            steps: report.steps,
            reclassified: report.reclassified,
        })
    }

    /// The *analysis cone* of a set of seed individuals: everyone whose
    /// derived state (and therefore whose ABox diagnostics) may differ
    /// after a mutation touching the seeds. This is the same region
    /// retraction re-derivation walks — the forward
    /// dependency closure plus its transitive reverse-filler hosts —
    /// computed read-only for the incremental analyzer. Cost is
    /// proportional to the cone, not the KB.
    pub fn analysis_cone(&self, seeds: &BTreeSet<IndId>) -> BTreeSet<IndId> {
        let mut cone = self.deps.affected_from(seeds);
        let mut frontier: VecDeque<IndId> = cone.iter().copied().collect();
        while let Some(i) = frontier.pop_front() {
            for h in self.hosts_of(i) {
                if cone.insert(h) {
                    frontier.push_back(h);
                }
            }
        }
        cone
    }

    // ---- rules --------------------------------------------------------------

    /// `assert-rule[C1, C2]` (§3.3): attach a forward-chaining trigger to a
    /// *named* concept and immediately apply it to every currently
    /// recognized instance, propagating "until a fixed point is reached"
    /// (§5). If applying the rule makes any individual inconsistent the
    /// rule is rejected and the database left unchanged.
    pub fn assert_rule(&mut self, antecedent: &str, consequent: Concept) -> Result<usize> {
        let cname = self.schema.concept(antecedent);
        let node = self
            .taxonomy
            .node_of(cname)
            .ok_or(ClassicError::RuleOnUndefinedConcept(cname))?;
        // Validate the consequent normalizes at all.
        classic_core::normal::normalize(&consequent, &mut self.schema)?;
        let rule_ix = self.rules.len();
        Arc::make_mut(&mut self.rules).push(Rule {
            antecedent: cname,
            node,
            consequent,
            retired: false,
        });
        Arc::make_mut(&mut self.rules_by_node)
            .entry(node)
            .or_default()
            .push(rule_ix);

        let mut journal = Journal::default();
        let mut work: Vec<IndId> = self.instances_of_node(node).into_iter().collect();
        for &i in &work {
            journal.touch(self, i);
        }
        let mut report = AssertReport::default();
        match Propagation::run(self, &mut work, &mut journal, &mut report) {
            Ok(()) => {
                self.deps.absorb(journal.supports);
                Ok(rule_ix)
            }
            Err(e) => {
                self.rollback(journal);
                let ix = Arc::make_mut(&mut self.rules_by_node)
                    .get_mut(&node)
                    .expect("just added");
                ix.retain(|&r| r != rule_ix);
                Arc::make_mut(&mut self.rules).pop();
                Err(e)
            }
        }
    }

    /// `retract-rule[C1, C2]`: retire the most recently asserted live rule
    /// with this antecedent and consequent, and re-derive every individual
    /// it fired on from surviving told facts (plus the still-active rules).
    ///
    /// The rule slot is retired, not removed — rule indices are stored in
    /// `fired_rules` and `rules_by_node` and must stay stable.
    pub fn retract_rule(
        &mut self,
        antecedent: &str,
        consequent: &Concept,
    ) -> Result<RetractReport> {
        let cname = self.schema.concept(antecedent);
        let Some(rule_ix) = self
            .rules
            .iter()
            .rposition(|r| !r.retired && r.antecedent == cname && r.consequent == *consequent)
        else {
            return Err(self.no_such_rule(antecedent, cname));
        };
        self.retract_rule_at(rule_ix)
    }

    /// `retract-rule` addressed by the stable rule id [`Kb::assert_rule`]
    /// returned (and that `(list-rules)` displays). Retires the rule and
    /// re-derives every individual it fired on, exactly like
    /// [`Kb::retract_rule`]; out-of-range or already-retired ids are
    /// rejected with a [`ClassicError::NoSuchRule`] naming the id.
    pub fn retract_rule_by_id(&mut self, rule_ix: usize) -> Result<RetractReport> {
        if rule_ix >= self.rules.len() {
            return Err(ClassicError::NoSuchRule {
                antecedent: format!("#{rule_ix}"),
                suggestion: Some(format!(
                    "rule ids range over 0..{} (see list-rules)",
                    self.rules.len()
                )),
            });
        }
        if self.rules[rule_ix].retired {
            return Err(ClassicError::NoSuchRule {
                antecedent: format!("#{rule_ix}"),
                suggestion: Some("that rule was already retracted".into()),
            });
        }
        self.retract_rule_at(rule_ix)
    }

    /// Retire the (live) rule at `rule_ix` and re-derive everything it
    /// fired on; restores the rule atomically if re-derivation fails.
    fn retract_rule_at(&mut self, rule_ix: usize) -> Result<RetractReport> {
        let _span = classic_obs::span_timed(&self.recorder, "kb.retract_rule", &self.retract_ns);
        let node = self.rules[rule_ix].node;
        Arc::make_mut(&mut self.rules)[rule_ix].retired = true;
        if let Some(ix) = Arc::make_mut(&mut self.rules_by_node).get_mut(&node) {
            ix.retain(|&r| r != rule_ix);
        }
        let seeds: BTreeSet<IndId> = self
            .ind_ids()
            .filter(|i| self.inds[i.index()].fired_rules.contains(&rule_ix))
            .collect();
        let mut journal = Journal::default();
        match self.rederive_after_retraction(seeds, &mut journal) {
            Ok(report) => {
                self.deps.absorb(journal.supports);
                Ok(report)
            }
            Err(e) => {
                self.rollback(journal);
                Arc::make_mut(&mut self.rules)[rule_ix].retired = false;
                Arc::make_mut(&mut self.rules_by_node)
                    .entry(node)
                    .or_default()
                    .push(rule_ix);
                Err(e)
            }
        }
    }

    /// Build the "unknown rule" error for `retract-rule`: names the
    /// antecedent as given and, when possible, points at what the caller
    /// probably meant — a near-miss antecedent among the live rules
    /// (typo), or a note that the antecedent's live rules carry different
    /// consequents.
    fn no_such_rule(&self, antecedent: &str, cname: ConceptName) -> ClassicError {
        let live: Vec<&Rule> = self.rules.iter().filter(|r| !r.retired).collect();
        let with_antecedent = live.iter().filter(|r| r.antecedent == cname).count();
        let suggestion = if with_antecedent > 0 {
            Some(format!(
                "{with_antecedent} live rule(s) on {antecedent:?} have a \
                 different consequent"
            ))
        } else {
            nearest_match(
                antecedent,
                live.iter()
                    .map(|r| self.schema.symbols.concept_name(r.antecedent)),
            )
            .map(|name| format!("did you mean {name:?}?"))
        };
        ClassicError::NoSuchRule {
            antecedent: antecedent.to_owned(),
            suggestion,
        }
    }

    // ---- extensions -----------------------------------------------------------

    /// All individuals recognized as instances of a taxonomy node (its
    /// direct extension plus those of every descendant).
    pub fn instances_of_node(&self, node: NodeId) -> BTreeSet<IndId> {
        if node == NodeId::TOP {
            return self.ind_ids().collect();
        }
        let mut out: BTreeSet<IndId> = self.extensions[node.index()].iter().collect();
        for d in self.taxonomy.strict_descendants(node) {
            out.extend(self.extensions[d.index()].iter());
        }
        out
    }

    /// Visit every instance of a node without materializing the set.
    /// Individuals with several most-specific concepts may be visited more
    /// than once; callers needing distinctness must deduplicate.
    pub fn for_each_instance(&self, node: NodeId, mut f: impl FnMut(IndId)) {
        if node == NodeId::TOP {
            for id in self.ind_ids() {
                f(id);
            }
            return;
        }
        for id in self.extensions[node.index()].iter() {
            f(id);
        }
        for d in self.taxonomy.strict_descendants(node) {
            for id in self.extensions[d.index()].iter() {
                f(id);
            }
        }
    }

    /// Cheap upper bound on a node's instance count (duplicates across
    /// multiple most-specific concepts counted repeatedly). Used to pick
    /// the most selective subsumer during retrieval.
    pub fn extension_size_bound(&self, node: NodeId) -> usize {
        if node == NodeId::TOP {
            return self.ind_count();
        }
        let mut n = self.extensions[node.index()].len();
        for d in self.taxonomy.strict_descendants(node) {
            n += self.extensions[d.index()].len();
        }
        n
    }

    /// Instances of a *named* concept (extensional query, §3.5.3).
    pub fn instances_of(&self, name: ConceptName) -> Result<BTreeSet<IndId>> {
        let node = self
            .taxonomy
            .node_of(name)
            .ok_or(ClassicError::UndefinedConcept(name))?;
        Ok(self.instances_of_node(node))
    }

    /// Direct extension of one node (individuals whose msc includes it),
    /// materialized.
    pub fn direct_extension(&self, node: NodeId) -> BTreeSet<IndId> {
        self.extensions[node.index()].iter().collect()
    }

    // ---- diagnostics ------------------------------------------------------------

    /// Verify the database's internal invariants, returning the first
    /// violation found. Intended for tests and debugging; a healthy `Kb`
    /// always passes:
    ///
    /// 1. no committed individual is incoherent (§3.4 — inconsistent
    ///    updates are rejected, never stored);
    /// 2. the extension index and per-individual realizations agree in
    ///    both directions;
    /// 3. every individual's `msc` is an antichain whose upward closure
    ///    is exactly `instance_nodes`.
    pub fn check_invariants(&self) -> Result<()> {
        let fail = |msg: String| {
            Err(ClassicError::Malformed(format!(
                "invariant violated: {msg}"
            )))
        };
        for id in self.ind_ids() {
            let ind = self.ind(id);
            if ind.derived.is_incoherent() {
                return fail(format!("individual {:?} is incoherent", ind.name));
            }
            for &node in &ind.msc {
                if !self.extensions[node.index()].contains(id) {
                    return fail(format!(
                        "extension index missing {:?} at node {}",
                        ind.name,
                        node.index()
                    ));
                }
                // msc is an antichain: no msc member strictly above another.
                for &other in &ind.msc {
                    if other != node && self.taxonomy.strict_ancestors(other).contains(&node) {
                        return fail(format!("msc of {:?} is not an antichain", ind.name));
                    }
                }
            }
            // Upward closure of msc == instance_nodes.
            let mut closure: BTreeSet<NodeId> = ind.msc.clone();
            for &node in &ind.msc {
                closure.extend(self.taxonomy.strict_ancestors(node));
            }
            closure.remove(&NodeId::BOTTOM);
            let mut expected = ind.instance_nodes.clone();
            expected.insert(NodeId::TOP);
            closure.insert(NodeId::TOP);
            if closure != expected {
                return fail(format!(
                    "instance set of {:?} is not the closure of its msc",
                    ind.name
                ));
            }
        }
        let mut all_nodes: Vec<NodeId> = vec![NodeId::TOP, NodeId::BOTTOM];
        all_nodes.extend(self.taxonomy.interior_nodes());
        for node in all_nodes {
            for id in self.extensions[node.index()].iter() {
                if !self.ind(id).msc.contains(&node) {
                    return fail(format!(
                        "extension at node {} lists a non-member individual",
                        node.index()
                    ));
                }
            }
        }
        Ok(())
    }

    // ---- rollback ---------------------------------------------------------------

    pub(crate) fn rollback(&mut self, journal: Journal) {
        // Supports earned during the transaction were never committed
        // (journal.supports is simply dropped); supports *removed* by a
        // failed retraction are restored.
        self.deps.absorb(journal.supports_removed);
        // Undo reverse-filler edges added during the transaction. This
        // must run before restoring removed edges: a retraction may
        // remove an edge and then re-add the same edge during
        // re-propagation, and the pre-transaction state has the edge.
        for (filler, host) in journal.reverse_added.into_iter().rev() {
            self.reverse_fillers[filler.index()].remove(&host);
        }
        // Restore reverse-filler edges removed by a failed retraction.
        for (filler, host) in journal.reverse_removed {
            self.reverse_fillers[filler.index()].insert(host);
        }
        // Remove individuals created during the transaction (arena tail).
        for id in journal.created.into_iter().rev() {
            let ind = self.inds.pop().expect("created individual present");
            Arc::make_mut(&mut self.by_name).remove(&ind.name);
            self.move_extension(id, &ind.msc, &BTreeSet::new());
        }
        self.reverse_fillers.truncate(self.inds.len());
        self.deps.truncate(self.inds.len());
        // Put touched individuals back — the saved shared records, by
        // pointer, so nothing is copied only to be overwritten and a
        // record a snapshot shares is never written. Individuals the
        // transaction never wrote still hold their saved record.
        for (id, old) in journal.touched {
            if id.index() >= self.inds.len() || Arc::ptr_eq(self.inds.shared(id.index()), &old) {
                continue; // popped above, or never written
            }
            let cur_msc = self.inds[id.index()].msc.clone();
            self.move_extension(id, &cur_msc, &old.msc);
            self.inds.set(id.index(), old);
        }
    }

    /// Move `id` in the extension index from the `old` most-specific
    /// frontier to the `new` one, writing only the node sets that change.
    pub(crate) fn move_extension(
        &mut self,
        id: IndId,
        old: &BTreeSet<NodeId>,
        new: &BTreeSet<NodeId>,
    ) {
        for n in old.difference(new) {
            self.extensions[n.index()].remove(id);
        }
        for n in new.difference(old) {
            self.extensions[n.index()].insert(id);
        }
    }

    /// Record that `host` holds `filler` as a role filler. Returns whether
    /// the edge is new; a known edge is only read, so the entry stays
    /// shared with any clone.
    pub(crate) fn add_reverse_edge(&mut self, filler: IndId, host: IndId) -> bool {
        if self.reverse_fillers[filler.index()].contains(&host) {
            return false;
        }
        self.reverse_fillers[filler.index()].insert(host)
    }

    /// The individuals holding `filler` as a role filler.
    pub(crate) fn hosts_of(&self, filler: IndId) -> impl Iterator<Item = IndId> + '_ {
        self.reverse_fillers[filler.index()].iter().copied()
    }

    // ---- copy-on-write diagnostics ----------------------------------------

    /// How much logical state this KB still shares with `other`, normally
    /// a clone cut from it (a server read snapshot, a sandbox). Counts
    /// are entries whose record is not the very same allocation in both;
    /// right after a clone every count is 0 and every flag `true`.
    pub fn sharing_with(&self, other: &Kb) -> Sharing {
        Sharing {
            inds_unshared: self.inds.unshared_with(&other.inds),
            extensions_unshared: self.extensions.unshared_with(&other.extensions),
            reverse_fillers_unshared: self.reverse_fillers.unshared_with(&other.reverse_fillers),
            deps_unshared: self.deps.unshared_with(&other.deps),
            schema_shared: Arc::ptr_eq(&self.schema, &other.schema),
            taxonomy_shared: Arc::ptr_eq(&self.taxonomy, &other.taxonomy),
            rules_shared: Arc::ptr_eq(&self.rules, &other.rules)
                && Arc::ptr_eq(&self.rules_by_node, &other.rules_by_node),
            names_shared: Arc::ptr_eq(&self.by_name, &other.by_name),
        }
    }

    /// Does `id` hold the very same individual record in both KBs?
    pub fn shares_individual(&self, other: &Kb, id: IndId) -> bool {
        id.index() < self.inds.len()
            && id.index() < other.inds.len()
            && Arc::ptr_eq(self.inds.shared(id.index()), other.inds.shared(id.index()))
    }
}

/// What [`Kb::sharing_with`] reports: how far two KBs' copy-on-write
/// state has diverged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sharing {
    /// Individual-arena entries not shared (written since the cut, or
    /// present in only one KB).
    pub inds_unshared: usize,
    /// Per-node extension sets not shared (a written set still shares
    /// the chunks of ids it did not touch).
    pub extensions_unshared: usize,
    /// Per-filler reverse-filler entries not shared.
    pub reverse_fillers_unshared: usize,
    /// Per-individual dependency entries (by target and by source) not
    /// shared.
    pub deps_unshared: usize,
    /// Whether both KBs hold the same schema.
    pub schema_shared: bool,
    /// Whether both KBs hold the same taxonomy.
    pub taxonomy_shared: bool,
    /// Whether both KBs hold the same rule tables.
    pub rules_shared: bool,
    /// Whether both KBs hold the same name → individual index.
    pub names_shared: bool,
}

impl SchemaCow for Kb {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn schema_mut(&mut self) -> &mut Schema {
        Arc::make_mut(&mut self.schema)
    }
}

/// Nearest-match hint over a candidate name set: the closest candidate
/// by Levenshtein distance, if it is close enough to plausibly be a typo
/// (distance at most `max(2, len/3)` of the candidate). This is the same
/// acceptance rule `retract-rule` has always used; it is exported so
/// every "unknown name" surface (lint provenance, eval errors) offers
/// the same suggestion.
pub fn nearest_match<'a>(
    unknown: &str,
    candidates: impl IntoIterator<Item = &'a str>,
) -> Option<&'a str> {
    candidates
        .into_iter()
        .filter(|name| *name != unknown)
        .map(|name| (edit_distance(unknown, name), name))
        .min()
        .filter(|(d, name)| *d <= 2.max(name.len() / 3))
        .map(|(_, name)| name)
}

/// Levenshtein distance, used for the `retract-rule` nearest-match hint.
/// Rule antecedent names are short, so the quadratic table is fine.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use classic_core::desc::Concept;

    fn kb_with_person() -> Kb {
        let mut kb = Kb::new();
        kb.define_role("r").unwrap();
        kb.define_concept("PERSON", Concept::primitive(Concept::thing(), "person"))
            .unwrap();
        kb
    }

    /// Loom model test for the instrumentation counters. Parallel query
    /// workers bump [`KbStats`] counters through a shared `&Kb`; the
    /// monotone-counter contract is that no increment is ever lost,
    /// regardless of interleaving. (Relaxed ordering is sufficient:
    /// `fetch_add` is atomic read-modify-write; ordering only affects
    /// *when* other threads observe the total, which readers never rely
    /// on — they read after joining.)
    #[test]
    fn counters_lose_no_increments_under_concurrent_bumps() {
        loom::model(|| {
            let stats = loom::sync::Arc::new(KbStats::default());
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let stats = loom::sync::Arc::clone(&stats);
                    loom::thread::spawn(move || {
                        for _ in 0..50 {
                            stats.instance_tests.bump();
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(stats.instance_tests.get(), 150);
        });
    }

    #[test]
    fn retract_rule_by_id_undoes_the_rule_and_rejects_bad_ids() {
        let mut kb = kb_with_person();
        let person = kb.schema().symbols.find_concept("PERSON").unwrap();
        kb.define_concept("VIP", Concept::primitive(Concept::thing(), "vip"))
            .unwrap();
        let vip = kb.schema().symbols.find_concept("VIP").unwrap();
        kb.create_ind("X").unwrap();
        kb.assert_ind("X", &Concept::Name(person)).unwrap();
        let rule_id = kb.assert_rule("PERSON", Concept::Name(vip)).unwrap();
        let x = kb
            .ind_id(kb.schema().symbols.find_individual("X").unwrap())
            .unwrap();
        assert!(kb.is_instance_of(x, vip).unwrap());
        // Bad ids: out of range, then (after retraction) already retired.
        assert!(matches!(
            kb.retract_rule_by_id(rule_id + 1),
            Err(ClassicError::NoSuchRule { .. })
        ));
        kb.retract_rule_by_id(rule_id).unwrap();
        assert!(!kb.is_instance_of(x, vip).unwrap());
        assert_eq!(kb.active_rules().count(), 0);
        assert!(matches!(
            kb.retract_rule_by_id(rule_id),
            Err(ClassicError::NoSuchRule { .. })
        ));
    }

    #[test]
    fn unknown_individual_is_reported() {
        let mut kb = kb_with_person();
        let err = kb.assert_ind("Ghost", &Concept::thing()).unwrap_err();
        assert!(matches!(err, ClassicError::UnknownIndividual(_)));
    }

    #[test]
    fn instances_of_undefined_concept_is_an_error() {
        let kb = kb_with_person();
        let ghost = ConceptName::from_index(99);
        assert!(matches!(
            kb.instances_of(ghost),
            Err(ClassicError::UndefinedConcept(_))
        ));
    }

    #[test]
    fn rule_on_undefined_concept_is_rejected() {
        let mut kb = kb_with_person();
        let err = kb.assert_rule("GHOST", Concept::thing()).unwrap_err();
        assert!(matches!(err, ClassicError::RuleOnUndefinedConcept(_)));
        assert!(kb.rules().is_empty());
    }

    #[test]
    fn rule_contradicting_existing_instances_is_rejected_atomically() {
        let mut kb = kb_with_person();
        let r = kb.schema().symbols.find_role("r").unwrap();
        let person = kb.schema().symbols.find_concept("PERSON").unwrap();
        kb.create_ind("X").unwrap();
        kb.assert_ind("X", &Concept::Name(person)).unwrap();
        kb.assert_ind("X", &Concept::AtLeast(2, r)).unwrap();
        // Rule: every PERSON has at most 1 filler for r — contradicts X.
        let err = kb.assert_rule("PERSON", Concept::AtMost(1, r)).unwrap_err();
        assert!(matches!(err, ClassicError::Inconsistent { .. }));
        // The rule was fully removed and X is untouched.
        assert!(kb.rules().is_empty());
        let x = kb
            .ind_id(kb.schema().symbols.find_individual("X").unwrap())
            .unwrap();
        assert_eq!(kb.ind(x).derived.role(r).at_most, None);
        assert!(!kb.ind(x).derived.is_incoherent());
    }

    #[test]
    fn assert_by_id_equals_assert_by_name() {
        let mut kb = kb_with_person();
        let person = kb.schema().symbols.find_concept("PERSON").unwrap();
        let id = kb.create_ind("X").unwrap();
        kb.assert_ind_by_id(id, &Concept::Name(person)).unwrap();
        assert!(kb.is_instance_of(id, person).unwrap());
    }

    #[test]
    fn direct_extension_tracks_msc_only() {
        let mut kb = kb_with_person();
        let r = kb.schema().symbols.find_role("r").unwrap();
        let person = kb.schema().symbols.find_concept("PERSON").unwrap();
        let p = Concept::Name(person);
        kb.define_concept("BUSY", Concept::and([p.clone(), Concept::AtLeast(1, r)]))
            .unwrap();
        let busy = kb.schema().symbols.find_concept("BUSY").unwrap();
        let id = kb.create_ind("X").unwrap();
        kb.assert_ind("X", &p).unwrap();
        kb.assert_ind("X", &Concept::AtLeast(1, r)).unwrap();
        let person_node = kb.taxonomy().node_of(person).unwrap();
        let busy_node = kb.taxonomy().node_of(busy).unwrap();
        // X's most specific concept is BUSY, so it sits in BUSY's direct
        // extension, not PERSON's — but is an instance of both.
        assert!(kb.direct_extension(busy_node).contains(&id));
        assert!(!kb.direct_extension(person_node).contains(&id));
        assert!(kb.instances_of_node(person_node).contains(&id));
    }

    #[test]
    fn for_each_instance_covers_instances_of_node() {
        let mut kb = kb_with_person();
        let person = kb.schema().symbols.find_concept("PERSON").unwrap();
        for i in 0..5 {
            let name = format!("X{i}");
            kb.create_ind(&name).unwrap();
            kb.assert_ind(&name, &Concept::Name(person)).unwrap();
        }
        let node = kb.taxonomy().node_of(person).unwrap();
        let set = kb.instances_of_node(node);
        let mut visited = std::collections::BTreeSet::new();
        kb.for_each_instance(node, |id| {
            visited.insert(id);
        });
        assert_eq!(set, visited);
        assert!(kb.extension_size_bound(node) >= set.len());
    }

    #[test]
    fn normalize_interns_without_declaring() {
        let mut kb = kb_with_person();
        // An undeclared role in an ad-hoc expression is an error...
        let ghost = kb.schema_mut().symbols.role("ghost");
        let res = kb.normalize(&Concept::AtLeast(1, ghost));
        assert!(matches!(res, Err(ClassicError::UndefinedRole(_))));
        // ...and the failed normalize didn't corrupt the schema.
        assert!(kb.define_role("ghost").is_ok());
        assert!(kb.normalize(&Concept::AtLeast(1, ghost)).is_ok());
    }
}
