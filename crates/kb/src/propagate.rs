//! The completion engine: propagation, recognition, and rule firing.
//!
//! "CLASSIC can actively discover new information about objects from
//! several sources: it can recognize new classes under which an object
//! falls based on a description of the object, it can propagate some
//! deductive consequences of DB updates, it has simple procedural
//! recognizers, and it supports a limited form of forward-chaining rules"
//! (paper abstract). This module implements all four, as a worklist that
//! runs to a fixed point:
//!
//! 1. **`ALL` propagation** — a value restriction applies to every known
//!    filler, so the restriction is conjoined onto each filler's derived
//!    description (and host fillers are checked against it).
//! 2. **Co-reference propagation** — `SAME-AS` chains that resolve on one
//!    side derive the filler on the other (§3.3: asserting
//!    `SAME-AS((likes)(thing-driven))` on Rocky fills `likes` with
//!    `Volvo-17`).
//! 3. **Recognition / realization** — "individuals … are classified
//!    whenever new information about them is asserted, so that each
//!    individual is associated with the lowest concept(s) in the schema
//!    whose description(s) it satisfies" (§5). Recognition runs registered
//!    `TEST` functions as procedural recognizers.
//! 4. **Rules** — fired when an individual is newly recognized under the
//!    antecedent concept, each rule at most once per individual; "rules
//!    continue propagating until a fixed point is reached" (§5).
//!
//! Termination is the paper's own argument: membership is monotone
//! ("every individual can move into a class at most once, since there is
//! no removal"), derived descriptions only grow within a finite lattice of
//! conjoined sub-descriptions, and each rule fires at most once per
//! individual — so the fixpoint is bounded by #classes × #individuals
//! (experiment E4 measures this).
//!
//! There is one engine, [`Propagation::run`]: a single-threaded worklist
//! drained in epochs. Each epoch sorts and deduplicates the pending ids
//! and processes each once in place, so an individual enqueued by many
//! changes in one epoch — the hub of a wide `ALL` cascade — costs one
//! step, not one per enqueue.

use crate::deps::{Support, SupportKind};
use crate::individual::IndId;
use crate::kb::{AssertReport, Journal, Kb};
use classic_core::desc::{IndRef, Path};
use classic_core::error::{Clash, ClassicError, Result};
use classic_core::host::HostValue;
use classic_core::normal::{conjoin_expression, NormalForm, RoleRestriction};
use classic_core::schema::TestArg;
use classic_core::subsume::subsumes;
use classic_core::symbol::RoleId;
use classic_core::taxonomy::NodeId;
use std::collections::{BTreeSet, VecDeque};

/// How a `SAME-AS` path resolves against the current state.
enum PathResolution {
    /// Every step has a known filler; this is the value at the end.
    Complete(IndRef),
    /// All but the final step resolve; the holder lacks a filler for the
    /// last role, so a derived value can be asserted there.
    AtLastStep { holder: IndId, last: RoleId },
    /// Some earlier step is unresolved (nothing can be derived yet —
    /// CLASSIC never invents anonymous individuals).
    Unresolved,
}

/// Namespace for the worklist driver.
pub(crate) struct Propagation;

impl Propagation {
    /// Drain the worklist to a fixed point. On error the caller rolls the
    /// journal back.
    ///
    /// Runs in epochs: each drains the worklist into a batch, sorts and
    /// deduplicates it, and processes every id once in place. An
    /// individual enqueued many times within an epoch — a hub's fillers
    /// each re-enqueueing the hub, say — is processed once per epoch, not
    /// once per enqueue; anything the batch changes lands in the next
    /// epoch. Sorting makes the processing order a function of the ids,
    /// not of arrival order.
    pub(crate) fn run(
        kb: &mut Kb,
        work: &mut Vec<IndId>,
        journal: &mut Journal,
        report: &mut AssertReport,
    ) -> Result<()> {
        let _span = classic_obs::span_timed(&kb.recorder, "propagate.fixpoint", &kb.propagate_ns);
        let mut steps = 0u64;
        while !work.is_empty() {
            let mut batch = std::mem::take(work);
            batch.sort_unstable();
            batch.dedup();
            for id in batch {
                steps += 1;
                report.steps += 1;
                kb.stats.propagation_steps.bump();
                if steps > Self::step_limit(kb) {
                    return Err(Self::fixpoint_overrun(kb, steps, Self::step_limit(kb), id));
                }
                kb.process_one(id, work, journal, report)?;
            }
        }
        classic_obs::event("steps", steps);
        Ok(())
    }

    /// Generous safety bound far above the paper's #classes ×
    /// #individuals argument (each enqueue follows an actual monotone
    /// change; re-processing without change never re-enqueues).
    /// Recomputed as the fixpoint runs: rule firings and `ALL`
    /// propagation create individuals mid-fixpoint (and `define`-style
    /// surface scripts interleave DDL), so a bound frozen at entry can go
    /// stale against the count that actually justifies it.
    fn step_limit(kb: &Kb) -> u64 {
        1_000_000u64.max(
            (kb.ind_count() as u64 + 16)
                * (kb.taxonomy().len() as u64 + kb.rules().len() as u64 + 16)
                * 8,
        )
    }

    /// The non-termination diagnosis: names the step count, the bound it
    /// overran, and the individual being processed when it did.
    fn fixpoint_overrun(kb: &Kb, steps: u64, limit: u64, at: IndId) -> ClassicError {
        let name = kb.schema.symbols.individual_name(kb.inds[at.index()].name);
        ClassicError::Malformed(format!(
            "propagation failed to reach a fixed point within bounds \
             (step {steps} exceeded limit {limit} while processing {name:?})"
        ))
    }
}

impl Kb {
    /// One worklist step for one individual: check coherence, push
    /// consequences outward, re-recognize, fire rules.
    fn process_one(
        &mut self,
        id: IndId,
        work: &mut Vec<IndId>,
        journal: &mut Journal,
        report: &mut AssertReport,
    ) -> Result<()> {
        journal.touch(self, id);
        if let Some(clash) = self.inds[id.index()].derived.clash() {
            return Err(ClassicError::Inconsistent {
                individual: Some(self.inds[id.index()].name),
                reason: clash.clone(),
            });
        }

        // ---- phase 1: ALL-propagation to fillers --------------------------
        let role_plan: Vec<(RoleId, Option<NormalForm>, Vec<IndRef>)> = self.inds[id.index()]
            .derived
            .roles
            .iter()
            .map(|(&r, rr)| {
                (
                    r,
                    rr.all.as_deref().cloned(),
                    rr.fillers.iter().cloned().collect(),
                )
            })
            .collect();
        for (r, all, fillers) in role_plan {
            for f in fillers {
                match f {
                    IndRef::Classic(name) => {
                        let fid = self.ensure_ind(name, journal);
                        if self.add_reverse_edge(fid, id) {
                            journal.note_reverse_edge(fid, id);
                        }
                        if let Some(d) = &all {
                            if self.conjoin_nf(fid, d, journal, work, report)? {
                                self.stats.fills_propagations.bump();
                                report.fills_propagated += 1;
                            }
                            // Recorded whether or not the conjunction
                            // changed anything: the support set must be a
                            // function of the fixed point, not of arrival
                            // order, or provenance would not survive
                            // retraction (see tests/retract.rs).
                            journal.note_support(Support {
                                target: fid,
                                source: id,
                                kind: SupportKind::All { role: r },
                            });
                        }
                    }
                    IndRef::Host(v) => {
                        if let Some(d) = &all {
                            if !self.host_satisfies(&v, d) {
                                return Err(ClassicError::Inconsistent {
                                    individual: Some(self.inds[id.index()].name),
                                    reason: Clash::FillerViolation { role: r },
                                });
                            }
                        }
                    }
                }
            }
        }

        // ---- phase 2: SAME-AS co-reference ---------------------------------
        let classes = self.inds[id.index()].derived.same_as.classes();
        for class in classes {
            if class.len() < 2 {
                continue;
            }
            let mut value: Option<IndRef> = None;
            let mut pending: Vec<(IndId, RoleId)> = Vec::new();
            for path in &class {
                match self.resolve_path(id, path) {
                    PathResolution::Complete(v) => match &value {
                        None => value = Some(v),
                        Some(prev) if *prev != v => {
                            // Two chains reach provably distinct
                            // individuals (UNA) — the co-reference cannot
                            // hold.
                            let role = *path.last().expect("non-empty");
                            return Err(ClassicError::Inconsistent {
                                individual: Some(self.inds[id.index()].name),
                                reason: Clash::CoreferenceClash { role },
                            });
                        }
                        Some(_) => {}
                    },
                    PathResolution::AtLastStep { holder, last } => {
                        pending.push((holder, last));
                    }
                    PathResolution::Unresolved => {}
                }
            }
            if let Some(v) = value {
                for (holder, last) in pending {
                    let mut fills = NormalForm::top();
                    fills.roles.insert(
                        last,
                        RoleRestriction {
                            fillers: BTreeSet::from([v.clone()]),
                            ..RoleRestriction::default()
                        },
                    );
                    fills.renormalize(&self.schema);
                    if self.conjoin_nf(holder, &fills, journal, work, report)? {
                        self.stats.coref_propagations.bump();
                        report.corefs_derived += 1;
                        journal.note_support(Support {
                            target: holder,
                            source: id,
                            kind: SupportKind::Coref { role: last },
                        });
                    }
                }
            }
        }

        // ---- phase 3: recognition + rules -----------------------------------
        if self.realize(id) {
            report.reclassified += 1;
            // Individuals holding `id` as a filler may now pass instance
            // checks that enumerate closed-role fillers.
            work.extend(self.hosts_of(id));
        }
        // Fire any unfired rules attached to concepts this individual is
        // now recognized under.
        let due: Vec<usize> = {
            let ind = &self.inds[id.index()];
            ind.instance_nodes
                .iter()
                .filter_map(|n| self.rules_by_node.get(n))
                .flatten()
                .copied()
                .filter(|ix| !ind.fired_rules.contains(ix))
                .collect()
        };
        for rule_ix in due {
            self.apply_rule_firing(id, rule_ix, journal, work, report)?;
        }
        Ok(())
    }

    /// Fire one due rule on `id`: mark it fired, conjoin the consequent,
    /// record the support, and enqueue the consequences.
    fn apply_rule_firing(
        &mut self,
        id: IndId,
        rule_ix: usize,
        journal: &mut Journal,
        work: &mut Vec<IndId>,
        report: &mut AssertReport,
    ) -> Result<()> {
        if self.inds[id.index()].fired_rules.contains(&rule_ix) {
            return Ok(());
        }
        journal.touch(self, id);
        self.inds[id.index()].fired_rules.insert(rule_ix);
        let consequent = self.rules[rule_ix].consequent.clone();
        self.ensure_referenced_inds_pub(&consequent, journal);
        let mut derived = std::mem::take(&mut self.inds[id.index()].derived);
        let before = derived.clone();
        let res = conjoin_expression(&consequent, &mut self.schema, &mut derived);
        let changed = derived != before;
        self.inds[id.index()].derived = derived;
        res?;
        self.stats.rules_fired.bump();
        classic_obs::event("rule_fired", rule_ix as u64);
        report.rules_fired += 1;
        // As with ALL-propagation, the support is recorded even when
        // the consequent added nothing — firing is a fact about the
        // fixed point, not about what the conjunction changed.
        journal.note_support(Support {
            target: id,
            source: id,
            kind: SupportKind::Rule { index: rule_ix },
        });
        if changed {
            work.push(id);
            work.extend(self.hosts_of(id));
        }
        Ok(())
    }

    pub(crate) fn ensure_referenced_inds_pub(
        &mut self,
        desc: &classic_core::Concept,
        journal: &mut Journal,
    ) {
        use classic_core::Concept;
        match desc {
            Concept::OneOf(inds) | Concept::Fills(_, inds) => {
                for i in inds {
                    if let IndRef::Classic(n) = i {
                        self.ensure_ind(*n, journal);
                    }
                }
            }
            Concept::All(_, inner) => self.ensure_referenced_inds_pub(inner, journal),
            Concept::And(parts) => {
                for p in parts {
                    self.ensure_referenced_inds_pub(p, journal);
                }
            }
            Concept::Primitive { parent, .. } | Concept::DisjointPrimitive { parent, .. } => {
                self.ensure_referenced_inds_pub(parent, journal)
            }
            _ => {}
        }
    }

    /// Conjoin an already-canonical normal form into an individual's
    /// derived description. Returns whether anything changed; enqueues the
    /// target (and its dependents) when it did.
    fn conjoin_nf(
        &mut self,
        target: IndId,
        nf: &NormalForm,
        journal: &mut Journal,
        work: &mut Vec<IndId>,
        _report: &mut AssertReport,
    ) -> Result<bool> {
        // Cheap monotone short-circuit: nothing to add if the target is
        // already at least as specific.
        if subsumes(nf, &self.inds[target.index()].derived) {
            return Ok(false);
        }
        journal.touch(self, target);
        let mut derived = std::mem::take(&mut self.inds[target.index()].derived);
        derived.conjoin(nf, &self.schema);
        let clash = derived.clash().cloned();
        self.inds[target.index()].derived = derived;
        if let Some(clash) = clash {
            return Err(ClassicError::Inconsistent {
                individual: Some(self.inds[target.index()].name),
                reason: clash,
            });
        }
        work.push(target);
        Ok(true)
    }

    /// Walk a `SAME-AS` attribute chain from `id` through known fillers.
    fn resolve_path(&self, id: IndId, path: &Path) -> PathResolution {
        let mut cur = id;
        for (k, &role) in path.iter().enumerate() {
            let last = k + 1 == path.len();
            let filler = self.inds[cur.index()]
                .derived
                .roles
                .get(&role)
                .and_then(|rr| rr.fillers.iter().next().cloned());
            match filler {
                None => {
                    return if last {
                        PathResolution::AtLastStep {
                            holder: cur,
                            last: role,
                        }
                    } else {
                        PathResolution::Unresolved
                    };
                }
                Some(v @ IndRef::Host(_)) => {
                    return if last {
                        PathResolution::Complete(v)
                    } else {
                        // A host value has no roles to continue through.
                        PathResolution::Unresolved
                    };
                }
                Some(v @ IndRef::Classic(name)) => {
                    if last {
                        return PathResolution::Complete(v);
                    }
                    match self.by_name.get(&name) {
                        Some(&next) => cur = next,
                        None => return PathResolution::Unresolved,
                    }
                }
            }
        }
        PathResolution::Unresolved
    }

    // ---- recognition ----------------------------------------------------

    /// Re-realize one individual: recompute the set of schema concepts it
    /// provably belongs to, its most-specific frontier, and the extension
    /// index. Returns whether the instance set changed.
    pub(crate) fn realize(&mut self, id: IndId) -> bool {
        self.stats.realizations.bump();
        let (qualifying, msc) = self.compute_recognition(id);
        if self.inds[id.index()].instance_nodes == qualifying {
            return false;
        }
        let old_msc = self.inds[id.index()].msc.clone();
        self.move_extension(id, &old_msc, &msc);
        let ind = &mut self.inds[id.index()];
        ind.instance_nodes = qualifying;
        ind.msc = msc;
        true
    }

    /// Pruned top-down recognition sweep: a node's children are only
    /// examined when the node itself is satisfied (instance checking is
    /// monotone along subsumption, so nothing below a failed node can
    /// succeed).
    fn compute_recognition(&self, id: IndId) -> (BTreeSet<NodeId>, BTreeSet<NodeId>) {
        let mut qualifying: BTreeSet<NodeId> = BTreeSet::new();
        let mut failed: BTreeSet<NodeId> = BTreeSet::new();
        let mut msc: BTreeSet<NodeId> = BTreeSet::new();
        let mut queue: VecDeque<NodeId> = VecDeque::from([NodeId::TOP]);
        qualifying.insert(NodeId::TOP);
        let mut visited: BTreeSet<NodeId> = BTreeSet::new();
        while let Some(n) = queue.pop_front() {
            if !visited.insert(n) {
                continue;
            }
            let mut any_child = false;
            let children: Vec<NodeId> = self.taxonomy.node(n).children.iter().copied().collect();
            for c in children {
                if c == NodeId::BOTTOM {
                    continue;
                }
                let ok = if qualifying.contains(&c) {
                    true
                } else if failed.contains(&c) {
                    false
                } else {
                    self.stats.instance_tests.bump();
                    let ok = self.known_instance(id, &self.taxonomy.node(c).nf);
                    if ok {
                        qualifying.insert(c);
                    } else {
                        failed.insert(c);
                    }
                    ok
                };
                if ok {
                    any_child = true;
                    queue.push_back(c);
                }
            }
            if !any_child {
                msc.insert(n);
            }
        }
        // Frontier minimality across multiple paths.
        let msc: BTreeSet<NodeId> = msc
            .iter()
            .copied()
            .filter(|&n| {
                !self
                    .taxonomy
                    .strict_descendants(n)
                    .iter()
                    .any(|d| qualifying.contains(d))
            })
            .collect();
        (qualifying, msc)
    }

    // ---- instance checking ------------------------------------------------

    /// Is `id` *provably* an instance of `nf` given current knowledge?
    ///
    /// This is the recognition predicate of §3.3: it consults the derived
    /// description, enumerates closed-role fillers for `ALL` checks,
    /// resolves `SAME-AS` chains through actual fillers, and runs `TEST`
    /// procedural recognizers. Under the open-world assumption a `false`
    /// means "not provable", never "provably not" (see
    /// [`Kb::possible_instance`]).
    pub fn known_instance(&self, id: IndId, nf: &NormalForm) -> bool {
        let mut visiting: Vec<(IndId, *const NormalForm)> = Vec::new();
        self.known_instance_rec(id, nf, &mut visiting)
    }

    fn known_instance_rec(
        &self,
        id: IndId,
        nf: &NormalForm,
        visiting: &mut Vec<(IndId, *const NormalForm)>,
    ) -> bool {
        if nf.is_incoherent() {
            return false;
        }
        if nf.is_top() {
            return true;
        }
        let key = (id, nf as *const NormalForm);
        if visiting.contains(&key) {
            // Cyclic proof attempt: cannot establish membership this way.
            return false;
        }
        visiting.push(key);
        let ok = self.known_instance_inner(id, nf, visiting);
        visiting.pop();
        ok
    }

    fn known_instance_inner(
        &self,
        id: IndId,
        nf: &NormalForm,
        visiting: &mut Vec<(IndId, *const NormalForm)>,
    ) -> bool {
        let ind = &self.inds[id.index()];
        let d = &ind.derived;
        if !nf.layer.subsumes(d.layer) {
            return false;
        }
        if !nf.prims.is_subset(&d.prims) {
            return false;
        }
        if let Some(s) = &nf.one_of {
            if !s.contains(&IndRef::Classic(ind.name)) {
                return false;
            }
        }
        // TEST atoms: derivable from the description, or established by
        // actually running the procedural recognizer (cached when true).
        for &t in &nf.tests {
            if d.tests.contains(&t) {
                continue;
            }
            if ind.test_hits.lock().expect("test cache lock").get(&t) == Some(&true) {
                continue;
            }
            let name = self.schema.symbols.individual_name(ind.name);
            let passed = self
                .schema
                .run_test(t, &TestArg::Ind(Some(name), d))
                .unwrap_or(false);
            if passed {
                ind.test_hits
                    .lock()
                    .expect("test cache lock")
                    .insert(t, true);
            } else {
                return false;
            }
        }
        for (&r, rr1) in &nf.roles {
            let rr2 = d.roles.get(&r);
            let (min2, max2, closed2) = match rr2 {
                Some(rr2) => (rr2.min_count(), rr2.max_count(), rr2.closed),
                None => (0, u32::MAX, false),
            };
            if rr1.at_least > min2 {
                return false;
            }
            if let Some(m1) = rr1.at_most {
                if max2 > m1 {
                    return false;
                }
            }
            if rr1.closed && !closed2 {
                return false;
            }
            if !rr1.fillers.is_empty() {
                match rr2 {
                    Some(rr2) if rr1.fillers.is_subset(&rr2.fillers) => {}
                    _ => return false,
                }
            }
            if let Some(all1) = &rr1.all {
                if max2 == 0 {
                    continue; // vacuously satisfied
                }
                // Either the derived value restriction already entails it…
                let entailed = rr2
                    .and_then(|rr2| rr2.all.as_deref())
                    .is_some_and(|all2| subsumes(all1, all2));
                if entailed {
                    continue;
                }
                // …or the role is closed and every known filler provably
                // satisfies it.
                if !closed2 {
                    return false;
                }
                let fillers: Vec<IndRef> = rr2
                    .map(|rr2| rr2.fillers.iter().cloned().collect())
                    .unwrap_or_default();
                for f in fillers {
                    let ok = match f {
                        IndRef::Classic(n) => match self.by_name.get(&n) {
                            Some(&fid) => self.known_instance_rec(fid, all1, visiting),
                            None => false,
                        },
                        IndRef::Host(v) => self.host_satisfies(&v, all1),
                    };
                    if !ok {
                        return false;
                    }
                }
            }
        }
        // SAME-AS: implied structurally, or witnessed by actual fillers.
        for (p, q) in nf.same_as.pairs() {
            if d.same_as.implies(p, q) {
                continue;
            }
            let a = self.resolve_path_value(id, p);
            let b = self.resolve_path_value(id, q);
            match (a, b) {
                (Some(x), Some(y)) if x == y => {}
                _ => return false,
            }
        }
        true
    }

    fn resolve_path_value(&self, id: IndId, path: &Path) -> Option<IndRef> {
        match self.resolve_path(id, path) {
            PathResolution::Complete(v) => Some(v),
            _ => None,
        }
    }

    /// Could `id` possibly be an instance of `nf`? Under the open-world
    /// assumption the answer is yes unless the derived description is
    /// provably disjoint from the query (§3.5.3's "sets of individuals
    /// that *might* satisfy the query").
    pub fn possible_instance(&self, id: IndId, nf: &NormalForm) -> bool {
        let ind = &self.inds[id.index()];
        let mut meet = ind.derived.clone();
        // The individual's identity participates: a ONE-OF that excludes it
        // is an immediate refutation.
        if let Some(s) = &nf.one_of {
            if !s.contains(&IndRef::Classic(ind.name)) {
                return false;
            }
        }
        meet.conjoin(nf, &self.schema);
        !meet.is_incoherent()
    }

    /// Does a host value satisfy a description? Host individuals "cannot
    /// have roles, but are otherwise first class citizens" (§3.2).
    pub fn host_satisfies(&self, v: &HostValue, nf: &NormalForm) -> bool {
        if nf.is_incoherent() {
            return false;
        }
        if !nf
            .layer
            .subsumes(classic_core::Layer::Host(Some(v.class())))
        {
            return false;
        }
        // Primitive membership can never be established for a host value
        // (nothing can be asserted of one).
        if !nf.prims.is_empty() {
            return false;
        }
        if let Some(s) = &nf.one_of {
            if !s.contains(&IndRef::Host(v.clone())) {
                return false;
            }
        }
        for &t in &nf.tests {
            if !self.schema.run_test(t, &TestArg::Host(v)).unwrap_or(false) {
                return false;
            }
        }
        // Any demand for fillers is unsatisfiable; pure upper bounds and
        // value restrictions hold vacuously.
        if nf.roles.values().any(|rr| rr.min_count() > 0) {
            return false;
        }
        if !nf.same_as.is_empty() {
            return false;
        }
        true
    }
}

impl Journal {
    pub(crate) fn note_reverse_edge(&mut self, filler: IndId, host: IndId) {
        self.push_reverse(filler, host);
    }
}
