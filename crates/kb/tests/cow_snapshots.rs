//! Copy-on-write snapshots: `Kb::clone` shares every unchanged entry
//! with the original, and neither side ever observes the other's writes.
//!
//! * **Differential:** after every step of a random history (create,
//!   assert, rejected assert, retract, `what-if`, define-concept, rule
//!   assertion and retraction), a clone of the KB equals a KB rebuilt by
//!   replaying the history from scratch — the rebuilt KB shares nothing,
//!   so it is the deep-copy oracle.
//! * **Isolation:** a snapshot cut before any step keeps its full state
//!   and answers every E3-style query exactly as it did at cut time,
//!   however many writes land on the original afterwards.
//! * **Cost:** one `assert-ind` after a cut unshares no more arena
//!   entries than the individuals it touched (counted with
//!   `Arc::ptr_eq`, not wall time).
//! * **Rollback:** a rejected assertion, a rejected retraction and a
//!   `what-if` leave a cut snapshot unchanged and restore the sharing.
//! * **TEST cache:** positive host-predicate hits recorded on a shared
//!   individual stay valid in the snapshot after the original retracts
//!   the facts they rested on.

use classic_core::desc::{Concept, IndRef};
use classic_core::normal::NormalForm;
use classic_core::schema::{SchemaCow, TestArg};
use classic_core::symbol::{ConceptName, RoleId};
use classic_core::taxonomy::NodeId;
use classic_kb::{IndId, Kb, Support};
use classic_query::Query;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const N_ROLES: usize = 3;
const N_INDS: usize = 5;
/// Filler indices at or above `N_INDS` name individuals the base KB does
/// not have (`z0`, `z1`), so an assertion creates them.
const N_FILLERS: usize = N_INDS + 2;

fn role(i: usize) -> RoleId {
    RoleId::from_index(i)
}

fn schema_kb() -> Kb {
    let mut kb = Kb::new();
    for i in 0..N_ROLES {
        kb.define_role(&format!("r{i}")).unwrap();
    }
    kb.define_concept("P0", Concept::primitive(Concept::thing(), "p0"))
        .unwrap();
    kb.define_concept("TAGGED", Concept::primitive(Concept::thing(), "tagged"))
        .unwrap();
    kb.define_concept(
        "D-LEFT",
        Concept::disjoint_primitive(Concept::thing(), "side", "left"),
    )
    .unwrap();
    kb.define_concept(
        "D-RIGHT",
        Concept::disjoint_primitive(Concept::thing(), "side", "right"),
    )
    .unwrap();
    let p0 = Concept::Name(kb.schema().symbols.find_concept("P0").unwrap());
    kb.define_concept(
        "HAS-R0",
        Concept::and([p0.clone(), Concept::AtLeast(1, role(0))]),
    )
    .unwrap();
    kb.define_concept(
        "BUSY",
        Concept::and([
            p0,
            Concept::AtLeast(2, role(0)),
            Concept::AtMost(6, role(1)),
        ]),
    )
    .unwrap();
    for i in 0..N_INDS {
        kb.create_ind(&format!("x{i}")).unwrap();
    }
    kb
}

fn concept(kb: &Kb, name: &str) -> Concept {
    Concept::Name(kb.schema().symbols.find_concept(name).unwrap())
}

/// One generated description.
#[derive(Debug, Clone)]
enum Desc {
    Prim(&'static str),
    AtLeast(usize, u32),
    AtMost(usize, u32),
    Fills(usize, usize),
    Close(usize),
    All(usize, &'static str),
}

/// One generated step of a history.
#[derive(Debug, Clone)]
enum Op {
    Create(usize),
    Assert(usize, Desc),
    /// An assertion that is always rejected, and that names a brand-new
    /// individual first — so rollback also pops a created individual.
    Reject(usize),
    /// Retract the most recent told fact of an individual.
    Retract(usize),
    WhatIf(usize, Desc),
    Define(u32),
    Rule(&'static str, usize),
    /// Retract the most recently asserted live rule.
    RetractRule,
}

fn desc_strategy() -> impl Strategy<Value = Desc> {
    prop_oneof![
        prop_oneof![Just("P0"), Just("TAGGED"), Just("D-LEFT"), Just("D-RIGHT")]
            .prop_map(Desc::Prim),
        (0..N_ROLES, 0u32..4).prop_map(|(r, n)| Desc::AtLeast(r, n)),
        (0..N_ROLES, 0u32..4).prop_map(|(r, n)| Desc::AtMost(r, n)),
        (0..N_ROLES, 0..N_FILLERS).prop_map(|(r, j)| Desc::Fills(r, j)),
        (0..N_ROLES).prop_map(Desc::Close),
        (0..N_ROLES, prop_oneof![Just("P0"), Just("D-LEFT")]).prop_map(|(r, n)| Desc::All(r, n)),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        1 => (0usize..3).prop_map(Op::Create),
        6 => (0..N_INDS, desc_strategy()).prop_map(|(i, d)| Op::Assert(i, d)),
        1 => (0..N_INDS).prop_map(Op::Reject),
        2 => (0..N_INDS).prop_map(Op::Retract),
        2 => (0..N_INDS, desc_strategy()).prop_map(|(i, d)| Op::WhatIf(i, d)),
        1 => (1u32..4).prop_map(Op::Define),
        1 => (prop_oneof![Just("HAS-R0"), Just("BUSY"), Just("P0")], 0usize..3)
            .prop_map(|(a, c)| Op::Rule(a, c)),
        1 => Just(Op::RetractRule),
    ]
}

fn filler(kb: &mut Kb, j: usize) -> IndRef {
    let name = if j < N_INDS {
        format!("x{j}")
    } else {
        format!("z{}", j - N_INDS)
    };
    IndRef::Classic(kb.individual(&name))
}

fn desc_concept(kb: &mut Kb, d: &Desc) -> Concept {
    match d {
        Desc::Prim(n) => concept(kb, n),
        Desc::AtLeast(r, n) => Concept::AtLeast(*n, role(*r)),
        Desc::AtMost(r, n) => Concept::AtMost(*n, role(*r)),
        Desc::Fills(r, j) => Concept::Fills(role(*r), vec![filler(kb, *j)]),
        Desc::Close(r) => Concept::Close(role(*r)),
        Desc::All(r, n) => Concept::all(role(*r), concept(kb, n)),
    }
}

/// Apply one step. Errors are part of the history (a rejected update
/// must leave no trace), so the outcome is returned for the caller to
/// ignore.
fn apply(kb: &mut Kb, op: &Op) -> Result<(), classic_core::ClassicError> {
    match op {
        Op::Create(j) => kb.create_ind(&format!("y{j}")).map(drop),
        Op::Assert(i, d) => {
            let c = desc_concept(kb, d);
            kb.assert_ind(&format!("x{i}"), &c).map(drop)
        }
        Op::Reject(i) => {
            let fresh = filler(kb, N_INDS + 1);
            let c = Concept::and([
                Concept::Fills(role(2), vec![fresh]),
                Concept::AtMost(0, role(2)),
            ]);
            let res = kb.assert_ind(&format!("x{i}"), &c).map(drop);
            assert!(res.is_err(), "an incoherent assertion must be rejected");
            res
        }
        Op::Retract(i) => {
            let name = format!("x{i}");
            let id = kb.ind_id(kb.schema().symbols.find_individual(&name).unwrap())?;
            match kb.ind(id).told.last().cloned() {
                Some(c) => kb.retract_ind(&name, &c).map(drop),
                None => Ok(()),
            }
        }
        Op::WhatIf(i, d) => {
            let c = desc_concept(kb, d);
            kb.what_if(&format!("x{i}"), &c).map(drop)
        }
        Op::Define(k) => {
            let c = Concept::and([concept(kb, "P0"), Concept::AtLeast(*k, role(0))]);
            kb.define_concept(&format!("C{k}"), c).map(drop)
        }
        Op::Rule(antecedent, c) => {
            let consequent = match c {
                0 => concept(kb, "TAGGED"),
                1 => Concept::all(role(1), concept(kb, "P0")),
                _ => Concept::AtMost(3, role(2)),
            };
            kb.assert_rule(antecedent, consequent).map(drop)
        }
        Op::RetractRule => match kb.active_rules().last().map(|(ix, _)| ix) {
            Some(ix) => kb.retract_rule_by_id(ix).map(drop),
            None => Ok(()),
        },
    }
}

/// The deep-copy oracle: a KB rebuilt from the base by replaying the
/// history. It shares no allocation with any KB of the history.
fn rebuild(history: &[Op]) -> Kb {
    let mut kb = schema_kb();
    for op in history {
        let _ = apply(&mut kb, op);
    }
    kb
}

/// Everything one individual's logical state consists of.
#[derive(Debug, PartialEq)]
struct IndState {
    name: String,
    told: Vec<Concept>,
    derived: NormalForm,
    msc: BTreeSet<NodeId>,
    instance_nodes: BTreeSet<NodeId>,
    fired_rules: BTreeSet<usize>,
    supports: Vec<Support>,
    /// The analysis cone walks the dependency index and the
    /// reverse-filler edges, so it pins both.
    cone: BTreeSet<IndId>,
}

/// A complete, comparable image of a KB's logical state.
#[derive(Debug, PartialEq)]
struct State {
    inds: Vec<IndState>,
    extensions: Vec<(NodeId, BTreeSet<IndId>)>,
    rules: Vec<(ConceptName, NodeId, Concept, bool)>,
    concepts: Vec<ConceptName>,
    names: usize,
}

fn full_state(kb: &Kb) -> State {
    let inds = kb
        .ind_ids()
        .map(|id| {
            let ind = kb.ind(id);
            IndState {
                name: kb.schema().symbols.individual_name(ind.name).to_owned(),
                told: ind.told.clone(),
                derived: ind.derived.clone(),
                msc: ind.msc.clone(),
                instance_nodes: ind.instance_nodes.clone(),
                fired_rules: ind.fired_rules.clone(),
                supports: kb.deps().supports_of(id).copied().collect(),
                cone: kb.analysis_cone(&BTreeSet::from([id])),
            }
        })
        .collect();
    let mut nodes = vec![NodeId::TOP, NodeId::BOTTOM];
    nodes.extend(kb.taxonomy().interior_nodes());
    State {
        inds,
        extensions: nodes
            .into_iter()
            .map(|n| (n, kb.direct_extension(n)))
            .collect(),
        rules: kb
            .rules()
            .iter()
            .map(|r| (r.antecedent, r.node, r.consequent.clone(), r.retired))
            .collect(),
        concepts: kb.schema().defined_concepts().collect(),
        names: kb.schema().symbols.individual_count(),
    }
}

type Answers = Vec<(Vec<IndId>, Vec<IndId>)>;

/// E3-style retrieval queries: named concepts (answered from the
/// extension index) and ad-hoc descriptions (classified, then tested).
fn e3_queries(kb: &Kb) -> Vec<Concept> {
    let x = |i: usize| {
        IndRef::Classic(
            kb.schema()
                .symbols
                .find_individual(&format!("x{i}"))
                .unwrap(),
        )
    };
    vec![
        concept(kb, "P0"),
        concept(kb, "TAGGED"),
        concept(kb, "HAS-R0"),
        concept(kb, "BUSY"),
        concept(kb, "D-LEFT"),
        Concept::and([
            concept(kb, "P0"),
            Concept::all(role(1), concept(kb, "D-LEFT")),
        ]),
        Concept::and([concept(kb, "HAS-R0"), Concept::AtMost(2, role(1))]),
        Concept::AtLeast(1, role(0)),
        Concept::Fills(role(0), vec![x(1)]),
        Concept::and([
            Concept::Close(role(2)),
            Concept::OneOf(vec![x(0), x(2), x(4)]),
        ]),
    ]
}

/// Known and possible answers to every query.
fn answer_all(kb: &mut Kb, queries: &[Concept]) -> Answers {
    queries
        .iter()
        .map(|q| {
            let known = Query::concept(q.clone())
                .run(kb)
                .unwrap()
                .into_known()
                .unwrap()
                .known;
            let possible = Query::concept(q.clone())
                .possible()
                .run(kb)
                .unwrap()
                .into_possible()
                .unwrap();
            (known, possible)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn clones_match_a_rebuild_and_cut_snapshots_never_move(
        ops in proptest::collection::vec(op_strategy(), 1..16)
    ) {
        let queries = e3_queries(&schema_kb());
        let mut kb = schema_kb();
        // Every snapshot cut so far, with its state and answers at cut
        // time; all of them are re-checked after every later step.
        let mut cuts: Vec<(State, Answers, Kb)> = Vec::new();
        for (step, op) in ops.iter().enumerate() {
            let mut snap = kb.clone();
            let answers = answer_all(&mut snap, &queries);
            cuts.push((full_state(&snap), answers, snap));
            let _ = apply(&mut kb, op);
            kb.check_invariants().unwrap();
            prop_assert_eq!(full_state(&kb.clone()), full_state(&rebuild(&ops[..=step])));
            for (cut, (state, answers, snap)) in cuts.iter_mut().enumerate() {
                prop_assert_eq!(&full_state(snap), state, "snapshot {} moved", cut);
                prop_assert_eq!(&answer_all(snap, &queries), answers, "snapshot {} answers moved", cut);
            }
        }
    }
}

/// Individuals whose logical record differs between two KBs of one
/// lineage (ids line up; individuals present in only one count).
fn changed_individuals(a: &Kb, b: &Kb) -> BTreeSet<IndId> {
    let ids = a.ind_count().max(b.ind_count());
    (0..ids)
        .map(IndId::from_index)
        .filter(|&id| {
            if id.index() >= a.ind_count() || id.index() >= b.ind_count() {
                return true;
            }
            let (x, y) = (a.ind(id), b.ind(id));
            x.told != y.told
                || x.derived != y.derived
                || x.msc != y.msc
                || x.instance_nodes != y.instance_nodes
                || x.fired_rules != y.fired_rules
        })
        .collect()
}

/// A software-IS-shaped KB (the wire benchmark's shape, scaled down):
/// `n` functions, each calling its successor.
fn functions_kb(n: usize) -> Kb {
    let mut kb = Kb::new();
    let calls = kb.define_role("calls").unwrap();
    kb.define_concept("FUNCTION", Concept::primitive(Concept::thing(), "function"))
        .unwrap();
    let function = concept(&kb, "FUNCTION");
    kb.define_concept(
        "CALLER-3",
        Concept::and([function.clone(), Concept::AtLeast(3, calls)]),
    )
    .unwrap();
    for i in 0..n {
        kb.create_ind(&format!("f{i}")).unwrap();
    }
    for i in 0..n {
        let next = IndRef::Classic(kb.individual(&format!("f{}", (i + 1) % n)));
        kb.assert_ind(
            &format!("f{i}"),
            &Concept::and([function.clone(), Concept::Fills(calls, vec![next])]),
        )
        .unwrap();
    }
    kb.create_ind("probe").unwrap();
    kb
}

#[test]
fn one_assert_after_a_cut_unshares_only_what_it_touched() {
    let mut kb = functions_kb(400);
    let snap = kb.clone();
    let fresh = kb.sharing_with(&snap);
    assert_eq!(fresh.inds_unshared, 0);
    assert_eq!(fresh.extensions_unshared, 0);
    assert_eq!(fresh.reverse_fillers_unshared, 0);
    assert_eq!(fresh.deps_unshared, 0);

    let calls = kb.schema().symbols.find_role("calls").unwrap();
    let callees: Vec<IndRef> = [7, 8, 9]
        .iter()
        .map(|i| IndRef::Classic(kb.individual(&format!("f{i}"))))
        .collect();
    let function = concept(&kb, "FUNCTION");
    kb.assert_ind(
        "probe",
        &Concept::and([
            function.clone(),
            Concept::Fills(calls, callees),
            Concept::all(calls, function),
        ]),
    )
    .unwrap();

    // What the write touched: the asserted individual, whatever changed,
    // and the fillers it named (their reverse-filler and dependency
    // entries gain the new edges).
    let changed = changed_individuals(&kb, &snap);
    let probe = kb
        .ind_id(kb.schema().symbols.find_individual("probe").unwrap())
        .unwrap();
    let mut touched = changed.clone();
    touched.insert(probe);
    for i in [7, 8, 9] {
        touched.insert(
            kb.ind_id(
                kb.schema()
                    .symbols
                    .find_individual(&format!("f{i}"))
                    .unwrap(),
            )
            .unwrap(),
        );
    }
    assert!(touched.len() <= 4, "touched {touched:?}");

    let sharing = kb.sharing_with(&snap);
    assert!(
        sharing.inds_unshared <= touched.len(),
        "{} arena entries unshared, {} individuals touched",
        sharing.inds_unshared,
        touched.len()
    );
    assert_eq!(
        sharing.inds_unshared,
        changed.len(),
        "only changed records were copied"
    );
    assert!(sharing.reverse_fillers_unshared <= 3, "{sharing:?}");
    assert!(sharing.deps_unshared <= 2 * touched.len(), "{sharing:?}");
    // The probe moved from THING's direct extension into CALLER-3's.
    assert!(sharing.extensions_unshared <= 2, "{sharing:?}");
    assert!(
        sharing.schema_shared && sharing.taxonomy_shared,
        "{sharing:?}"
    );
    assert!(sharing.rules_shared && sharing.names_shared, "{sharing:?}");
    for id in kb.ind_ids().filter(|id| !touched.contains(id)) {
        assert!(kb.shares_individual(&snap, id));
    }
    // The snapshot still answers as at cut time.
    let caller3 = snap.schema().symbols.find_concept("CALLER-3").unwrap();
    assert!(!snap.instances_of(caller3).unwrap().contains(&probe));
    assert!(kb.instances_of(caller3).unwrap().contains(&probe));
}

#[test]
fn rejected_updates_and_what_if_leave_a_cut_snapshot_untouched() {
    let mut kb = Kb::new();
    let r = kb.define_role("r").unwrap();
    kb.define_concept("P", Concept::primitive(Concept::thing(), "p"))
        .unwrap();
    kb.create_ind("x").unwrap();
    kb.create_ind("y").unwrap();
    let a = IndRef::Classic(kb.individual("a"));
    let fills_a = Concept::Fills(r, vec![a]);
    kb.assert_ind("x", &fills_a).unwrap();
    kb.assert_ind("x", &Concept::Close(r)).unwrap();
    kb.assert_ind("x", &Concept::AtLeast(1, r)).unwrap();
    kb.assert_ind("y", &Concept::all(r, concept(&kb, "P")))
        .unwrap();
    // Names the updates below mention, interned up front so the
    // comparison is about logical state, not the symbol table.
    let ghost = IndRef::Classic(kb.individual("ghost"));
    let b = IndRef::Classic(kb.individual("b"));

    let snap = kb.clone();
    let before = full_state(&snap);

    // A rejected assertion: x's role is closed over one filler.
    assert!(kb.assert_ind("x", &Concept::AtLeast(2, r)).is_err());
    // A rejected assertion that creates an individual before clashing.
    assert!(kb
        .assert_ind(
            "y",
            &Concept::and([Concept::Fills(r, vec![ghost]), Concept::AtMost(0, r)])
        )
        .is_err());
    // A rejected retraction: without the filler, CLOSE re-derives an
    // empty role and the surviving AT-LEAST 1 clashes.
    assert!(kb.retract_ind("x", &fills_a).is_err());
    // An accepted what-if, rolled back unconditionally.
    kb.what_if("y", &Concept::Fills(r, vec![b])).unwrap();

    assert_eq!(full_state(&snap), before, "the snapshot moved");
    assert_eq!(full_state(&kb), before, "the primary moved");
    let sharing = kb.sharing_with(&snap);
    assert_eq!(
        sharing.inds_unshared, 0,
        "rollback puts the shared records back"
    );
    // (The name index was written to create and then drop `ghost`.)
    assert!(sharing.schema_shared && sharing.taxonomy_shared && sharing.rules_shared);
}

#[test]
fn test_cache_hits_stay_sound_across_a_cut_and_a_retraction() {
    let runs = Arc::new(AtomicUsize::new(0));
    let mut kb = Kb::new();
    let r = kb.define_role("r").unwrap();
    let counter = Arc::clone(&runs);
    let has_filler = kb.register_test("has-filler", move |arg| {
        counter.fetch_add(1, Ordering::SeqCst);
        matches!(arg, TestArg::Ind(_, nf) if !nf.role(r).fillers.is_empty())
    });
    kb.define_concept("FILLED", Concept::Test(has_filler))
        .unwrap();
    let filled = kb.schema().symbols.find_concept("FILLED").unwrap();
    let x = kb.create_ind("x").unwrap();
    let a = IndRef::Classic(kb.individual("a"));
    let fills_a = Concept::Fills(r, vec![a]);
    // Recognition runs the predicate and caches the positive hit on x's
    // record.
    kb.assert_ind("x", &fills_a).unwrap();
    assert!(kb.is_instance_of(x, filled).unwrap());
    let test_nf = kb.normalize(&Concept::Test(has_filler)).unwrap();

    // The snapshot shares x's record, cache included.
    let snap = kb.clone();
    assert!(kb.shares_individual(&snap, x));
    kb.retract_ind("x", &fills_a).unwrap();
    assert!(
        !kb.shares_individual(&snap, x),
        "retraction wrote a private copy"
    );
    assert!(!kb.is_instance_of(x, filled).unwrap());
    assert!(snap.is_instance_of(x, filled).unwrap());

    // The snapshot answers from the hit it still holds: no predicate run.
    let n = runs.load(Ordering::SeqCst);
    assert!(snap.known_instance(x, &test_nf));
    assert_eq!(
        runs.load(Ordering::SeqCst),
        n,
        "snapshot reused its cached hit"
    );
    // The primary's copy was cleared: the predicate runs again and now
    // fails — and a failure is never cached, so it runs every time.
    assert!(!kb.known_instance(x, &test_nf));
    let m = runs.load(Ordering::SeqCst);
    assert!(m > n, "primary re-ran the predicate");
    assert!(!kb.known_instance(x, &test_nf));
    assert!(
        runs.load(Ordering::SeqCst) > m,
        "negative outcomes are not cached"
    );
    // And the snapshot still does not.
    let k = runs.load(Ordering::SeqCst);
    assert!(snap.known_instance(x, &test_nf));
    assert_eq!(runs.load(Ordering::SeqCst), k);
}
