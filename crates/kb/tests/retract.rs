//! Retraction: removing a *told* fact and re-deriving everything that
//! depended on it, without rebuilding the database.
//!
//! The deterministic tests pin each dependency kind the journal records
//! (ALL-propagation, rule firings, multiple independent supports); the
//! proptest at the bottom is the oracle: after a random interleaving of
//! assertions and retractions, the database must be *identical* to one
//! rebuilt from scratch from the surviving told facts.

use classic_core::desc::{Concept, IndRef};
use classic_core::normal::NormalForm;
use classic_core::symbol::RoleId;
use classic_core::ClassicError;
use classic_kb::Kb;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The paper's §3 schema: students, cars, junk food.
fn paper_kb() -> Kb {
    let mut kb = Kb::new();
    kb.define_role("thing-driven").unwrap();
    kb.define_role("eat").unwrap();
    kb.define_role("enrolled-at").unwrap();
    kb.define_concept("PERSON", Concept::primitive(Concept::thing(), "person"))
        .unwrap();
    kb.define_concept("SPORTS-CAR", Concept::primitive(Concept::thing(), "sports"))
        .unwrap();
    kb.define_concept("JUNK-FOOD", Concept::primitive(Concept::thing(), "junk"))
        .unwrap();
    let person = Concept::Name(kb.schema().symbols.find_concept("PERSON").unwrap());
    let enrolled = kb.schema().symbols.find_role("enrolled-at").unwrap();
    kb.define_concept(
        "STUDENT",
        Concept::and([person, Concept::AtLeast(1, enrolled)]),
    )
    .unwrap();
    kb
}

#[test]
fn retracting_an_all_restriction_undoes_propagation_to_fillers() {
    let mut kb = paper_kb();
    let driven = kb.schema().symbols.find_role("thing-driven").unwrap();
    let sports = kb.schema().symbols.find_concept("SPORTS-CAR").unwrap();
    kb.create_ind("Rocky").unwrap();
    let car = IndRef::Classic(kb.schema_mut().symbols.individual("Car-1"));
    kb.assert_ind("Rocky", &Concept::Fills(driven, vec![car]))
        .unwrap();
    let all_sports = Concept::all(driven, Concept::Name(sports));
    kb.assert_ind("Rocky", &all_sports).unwrap();
    let car_id = kb
        .ind_id(kb.schema().symbols.find_individual("Car-1").unwrap())
        .unwrap();
    assert!(
        kb.is_instance_of(car_id, sports).unwrap(),
        "propagation made Car-1 a SPORTS-CAR"
    );

    let report = kb.retract_ind("Rocky", &all_sports).unwrap();
    assert!(report.reset >= 2, "Rocky and Car-1 both re-derived");
    assert!(
        !kb.is_instance_of(car_id, sports).unwrap(),
        "the derived membership must disappear with its support"
    );
    // The filler edge itself was told separately and survives.
    let rocky = kb
        .ind_id(kb.schema().symbols.find_individual("Rocky").unwrap())
        .unwrap();
    assert_eq!(kb.ind(rocky).fillers(driven).len(), 1);
    kb.check_invariants().unwrap();
}

#[test]
fn independently_told_facts_survive_retraction_of_one_support() {
    let mut kb = paper_kb();
    let driven = kb.schema().symbols.find_role("thing-driven").unwrap();
    let sports = kb.schema().symbols.find_concept("SPORTS-CAR").unwrap();
    kb.create_ind("Rocky").unwrap();
    let car = IndRef::Classic(kb.schema_mut().symbols.individual("Car-1"));
    kb.assert_ind("Rocky", &Concept::Fills(driven, vec![car]))
        .unwrap();
    let all_sports = Concept::all(driven, Concept::Name(sports));
    kb.assert_ind("Rocky", &all_sports).unwrap();
    // Car-1 is *also* told to be a SPORTS-CAR in its own right.
    kb.assert_ind("Car-1", &Concept::Name(sports)).unwrap();

    kb.retract_ind("Rocky", &all_sports).unwrap();
    let car_id = kb
        .ind_id(kb.schema().symbols.find_individual("Car-1").unwrap())
        .unwrap();
    assert!(
        kb.is_instance_of(car_id, sports).unwrap(),
        "the independent told support must keep the membership alive"
    );
    kb.check_invariants().unwrap();
}

#[test]
fn retracting_a_rule_withdraws_its_consequences() {
    let mut kb = paper_kb();
    let eat = kb.schema().symbols.find_role("eat").unwrap();
    let enrolled = kb.schema().symbols.find_role("enrolled-at").unwrap();
    let person = kb.schema().symbols.find_concept("PERSON").unwrap();
    let junk = kb.schema().symbols.find_concept("JUNK-FOOD").unwrap();
    let consequent = Concept::all(eat, Concept::Name(junk));
    kb.assert_rule("STUDENT", consequent.clone()).unwrap();

    kb.create_ind("Rocky").unwrap();
    kb.assert_ind("Rocky", &Concept::Name(person)).unwrap();
    kb.assert_ind("Rocky", &Concept::AtLeast(1, enrolled))
        .unwrap();
    let pizza = IndRef::Classic(kb.schema_mut().symbols.individual("Pizza-1"));
    kb.assert_ind("Rocky", &Concept::Fills(eat, vec![pizza]))
        .unwrap();
    let pizza_id = kb
        .ind_id(kb.schema().symbols.find_individual("Pizza-1").unwrap())
        .unwrap();
    assert!(
        kb.is_instance_of(pizza_id, junk).unwrap(),
        "the rule fired and propagated JUNK-FOOD to the filler"
    );

    kb.retract_rule("STUDENT", &consequent).unwrap();
    assert!(
        !kb.is_instance_of(pizza_id, junk).unwrap(),
        "the rule's consequences must be withdrawn with it"
    );
    // Rocky is still a STUDENT — recognition itself was never a rule
    // consequence.
    let rocky = kb
        .ind_id(kb.schema().symbols.find_individual("Rocky").unwrap())
        .unwrap();
    let student = kb.schema().symbols.find_concept("STUDENT").unwrap();
    assert!(kb.is_instance_of(rocky, student).unwrap());
    assert_eq!(kb.active_rules().count(), 0);
    kb.check_invariants().unwrap();
}

#[test]
fn retraction_errors_are_precise_and_harmless() {
    let mut kb = paper_kb();
    let enrolled = kb.schema().symbols.find_role("enrolled-at").unwrap();
    let person = kb.schema().symbols.find_concept("PERSON").unwrap();
    kb.create_ind("Rocky").unwrap();
    kb.assert_ind("Rocky", &Concept::Name(person)).unwrap();

    // Retracting something never told is NotAsserted, and a no-op.
    let err = kb
        .retract_ind("Rocky", &Concept::AtLeast(3, enrolled))
        .unwrap_err();
    assert!(matches!(err, ClassicError::NotAsserted(_)), "{err}");
    let rocky = kb
        .ind_id(kb.schema().symbols.find_individual("Rocky").unwrap())
        .unwrap();
    assert!(kb.is_instance_of(rocky, person).unwrap());

    // Retracting a rule that does not exist is NoSuchRule.
    let eat = kb.schema().symbols.find_role("eat").unwrap();
    kb.assert_rule("STUDENT", Concept::AtLeast(1, enrolled))
        .unwrap();
    let err = kb
        .retract_rule("STUDENT", &Concept::AtLeast(1, eat))
        .unwrap_err();
    match &err {
        ClassicError::NoSuchRule {
            antecedent,
            suggestion,
        } => {
            assert_eq!(antecedent, "STUDENT");
            // STUDENT has a live rule with a *different* consequent; the
            // error says so instead of a bare "no such rule".
            assert!(
                suggestion.as_deref().is_some_and(|s| s.contains("STUDENT")),
                "suggestion: {suggestion:?}"
            );
        }
        other => panic!("expected NoSuchRule, got {other}"),
    }
    // A typo'd antecedent gets a nearest-match hint.
    let err = kb
        .retract_rule("STUDANT", &Concept::AtLeast(1, eat))
        .unwrap_err();
    match &err {
        ClassicError::NoSuchRule { suggestion, .. } => {
            assert!(
                suggestion.as_deref().is_some_and(|s| s.contains("STUDENT")),
                "suggestion: {suggestion:?}"
            );
        }
        other => panic!("expected NoSuchRule, got {other}"),
    }
    kb.check_invariants().unwrap();
}

#[test]
fn provenance_reflects_surviving_supports() {
    let mut kb = paper_kb();
    let driven = kb.schema().symbols.find_role("thing-driven").unwrap();
    let sports = kb.schema().symbols.find_concept("SPORTS-CAR").unwrap();
    kb.create_ind("Rocky").unwrap();
    let car = IndRef::Classic(kb.schema_mut().symbols.individual("Car-1"));
    kb.assert_ind("Rocky", &Concept::Fills(driven, vec![car]))
        .unwrap();
    kb.assert_ind("Rocky", &Concept::all(driven, Concept::Name(sports)))
        .unwrap();
    let car_id = kb
        .ind_id(kb.schema().symbols.find_individual("Car-1").unwrap())
        .unwrap();
    let lines = kb.explain_provenance(car_id);
    assert!(
        lines.iter().any(|l| l.contains("propagated from Rocky")),
        "ALL-propagation support recorded: {lines:?}"
    );

    kb.retract_ind("Rocky", &Concept::all(driven, Concept::Name(sports)))
        .unwrap();
    let lines = kb.explain_provenance(car_id);
    assert!(
        !lines.iter().any(|l| l.contains("propagated from Rocky")),
        "stale support must be gone after retraction: {lines:?}"
    );
}

// ---------------------------------------------------------------------------
// The oracle: retraction ≡ rebuild from the surviving told facts.
// ---------------------------------------------------------------------------

const N_ROLES: usize = 3;
const N_INDS: usize = 5;

fn oracle_schema() -> Kb {
    let mut kb = Kb::new();
    for i in 0..N_ROLES {
        kb.define_role(&format!("r{i}")).unwrap();
    }
    kb.define_concept("P0", Concept::primitive(Concept::thing(), "p0"))
        .unwrap();
    let p0 = Concept::Name(kb.schema().symbols.find_concept("P0").unwrap());
    let r0 = RoleId::from_index(0);
    let r1 = RoleId::from_index(1);
    kb.define_concept(
        "HAS-R0",
        Concept::and([p0.clone(), Concept::AtLeast(1, r0)]),
    )
    .unwrap();
    kb.define_concept(
        "BUSY",
        Concept::and([p0.clone(), Concept::AtLeast(2, r0), Concept::AtMost(6, r1)]),
    )
    .unwrap();
    // A rule so the oracle also exercises rule-support re-derivation.
    kb.assert_rule("HAS-R0", Concept::AtMost(5, r1)).unwrap();
    for i in 0..N_INDS {
        kb.create_ind(&format!("x{i}")).unwrap();
    }
    kb
}

/// One oracle operation. `CLOSE` is deliberately excluded: role closure is
/// epistemic (its meaning depends on the fillers known *when it is
/// uttered*), so "rebuild from surviving told facts" is not well-defined
/// for it — the same exclusion the order-independence property makes.
#[derive(Debug, Clone)]
enum Op {
    Prim(usize),
    AtLeast(usize, usize, u32),
    AtMost(usize, usize, u32),
    Fills(usize, usize, usize),
    All(usize, usize),
    /// Retract the `i % live.len()`-th surviving assertion.
    Retract(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        1 => (0..N_INDS).prop_map(Op::Prim),
        1 => (0..N_INDS, 0..N_ROLES, 0u32..4).prop_map(|(i, r, n)| Op::AtLeast(i, r, n)),
        1 => (0..N_INDS, 0..N_ROLES, 0u32..4).prop_map(|(i, r, n)| Op::AtMost(i, r, n)),
        1 => (0..N_INDS, 0..N_ROLES, 0..N_INDS).prop_map(|(i, r, j)| Op::Fills(i, r, j)),
        1 => (0..N_INDS, 0..N_ROLES).prop_map(|(i, r)| Op::All(i, r)),
        // Retractions get extra weight so interesting interleavings occur.
        2 => (0usize..64).prop_map(Op::Retract),
    ]
}

fn op_concept(kb: &mut Kb, op: &Op) -> Option<(String, Concept)> {
    let p0 = |kb: &mut Kb| Concept::Name(kb.schema_mut().symbols.concept("P0"));
    match op {
        Op::Prim(i) => Some((format!("x{i}"), p0(kb))),
        Op::AtLeast(i, r, n) => Some((
            format!("x{i}"),
            Concept::AtLeast(*n, RoleId::from_index(*r)),
        )),
        Op::AtMost(i, r, n) => Some((format!("x{i}"), Concept::AtMost(*n, RoleId::from_index(*r)))),
        Op::Fills(i, r, j) => {
            let f = IndRef::Classic(kb.schema_mut().symbols.individual(&format!("x{j}")));
            Some((
                format!("x{i}"),
                Concept::Fills(RoleId::from_index(*r), vec![f]),
            ))
        }
        Op::All(i, r) => {
            let inner = p0(kb);
            Some((format!("x{i}"), Concept::all(RoleId::from_index(*r), inner)))
        }
        Op::Retract(_) => None,
    }
}

/// A complete, comparable fingerprint of database state. The analysis
/// cone walks the dependency index and the reverse-filler edges, so a
/// stale edge left behind by a retraction shows up in it.
fn fingerprint(kb: &Kb) -> Vec<(String, NormalForm, BTreeSet<usize>, BTreeSet<String>)> {
    let name = |id| {
        kb.schema()
            .symbols
            .individual_name(kb.ind(id).name)
            .to_owned()
    };
    kb.ind_ids()
        .map(|id| {
            let ind = kb.ind(id);
            (
                name(id),
                ind.derived.clone(),
                ind.msc.iter().map(|n| n.index()).collect(),
                kb.analysis_cone(&BTreeSet::from([id]))
                    .into_iter()
                    .map(name)
                    .collect(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// THE oracle: after any interleaving of assertions and retractions,
    /// the incrementally-maintained database is indistinguishable from one
    /// rebuilt from scratch out of the surviving told facts.
    #[test]
    fn retraction_equals_rebuild_from_surviving_told_facts(
        ops in proptest::collection::vec(op_strategy(), 1..28)
    ) {
        let mut kb = oracle_schema();
        // The shadow model: told facts accepted and not yet retracted, in
        // arrival order.
        let mut live: Vec<(String, Concept)> = Vec::new();
        for op in &ops {
            match op_concept(&mut kb, op) {
                Some((name, c)) => {
                    if kb.assert_ind(&name, &c).is_ok() {
                        live.push((name, c));
                    }
                }
                None => {
                    let Op::Retract(pick) = op else { unreachable!() };
                    if live.is_empty() {
                        continue;
                    }
                    let ix = pick % live.len();
                    let (name, c) = live.remove(ix);
                    kb.retract_ind(&name, &c)
                        .expect("retracting a surviving told fact succeeds");
                }
            }
            kb.check_invariants().expect("invariants hold after every op");
        }
        // Rebuild from scratch: same schema, surviving facts in original
        // order. Without CLOSE the told set is monotone, so a subset of a
        // jointly-accepted set is always accepted.
        let mut rebuilt = oracle_schema();
        for (name, c) in &live {
            rebuilt
                .assert_ind(name, c)
                .expect("surviving told set is jointly consistent");
        }
        prop_assert_eq!(fingerprint(&kb), fingerprint(&rebuilt));
        // And the two databases answer queries identically.
        let q = Concept::and([
            Concept::Name(kb.schema().symbols.find_concept("P0").unwrap()),
            Concept::AtLeast(1, RoleId::from_index(0)),
        ]);
        let a = classic_query::Query::concept(q.clone())
            .run(&mut kb)
            .unwrap()
            .into_known()
            .unwrap()
            .known;
        let b = classic_query::Query::concept(q)
            .run(&mut rebuilt)
            .unwrap()
            .into_known()
            .unwrap()
            .known;
        prop_assert_eq!(a, b);
    }

    /// Provenance is part of the oracle too: after any interleaving, the
    /// surviving support structure — as rendered by `explain_provenance`
    /// — must be exactly what a rebuild from the surviving told facts
    /// produces. Lines are compared as sets per individual: support
    /// *discovery order* is an implementation detail, the supports
    /// themselves are not.
    #[test]
    fn provenance_after_retraction_equals_rebuild_provenance(
        ops in proptest::collection::vec(op_strategy(), 1..28)
    ) {
        let mut kb = oracle_schema();
        let mut live: Vec<(String, Concept)> = Vec::new();
        for op in &ops {
            match op_concept(&mut kb, op) {
                Some((name, c)) => {
                    if kb.assert_ind(&name, &c).is_ok() {
                        live.push((name, c));
                    }
                }
                None => {
                    let Op::Retract(pick) = op else { unreachable!() };
                    if live.is_empty() {
                        continue;
                    }
                    let ix = pick % live.len();
                    let (name, c) = live.remove(ix);
                    kb.retract_ind(&name, &c)
                        .expect("retracting a surviving told fact succeeds");
                }
            }
        }
        let mut rebuilt = oracle_schema();
        for (name, c) in &live {
            rebuilt
                .assert_ind(name, c)
                .expect("surviving told set is jointly consistent");
        }
        let provenance = |kb: &Kb| -> Vec<(String, BTreeSet<String>)> {
            kb.ind_ids()
                .map(|id| {
                    (
                        kb.schema().symbols.individual_name(kb.ind(id).name).to_owned(),
                        kb.explain_provenance(id).into_iter().collect(),
                    )
                })
                .collect()
        };
        prop_assert_eq!(provenance(&kb), provenance(&rebuilt));
    }

    /// Retracting everything returns to a blank (schema-only) database.
    #[test]
    fn retracting_everything_restores_the_blank_state(
        ops in proptest::collection::vec(op_strategy(), 1..16)
    ) {
        let mut kb = oracle_schema();
        let blank = fingerprint(&kb);
        let mut live: Vec<(String, Concept)> = Vec::new();
        for op in &ops {
            if let Some((name, c)) = op_concept(&mut kb, op) {
                if kb.assert_ind(&name, &c).is_ok() {
                    live.push((name, c));
                }
            }
        }
        // Retract in reverse order of arrival.
        for (name, c) in live.iter().rev() {
            kb.retract_ind(name, c).expect("told fact retracts");
        }
        prop_assert_eq!(fingerprint(&kb), blank);
        prop_assert_eq!(kb.deps().len(), 0, "no dangling dependency records");
        kb.check_invariants().expect("invariants hold");
    }
}

#[test]
fn retract_ind_is_incremental_not_a_rebuild() {
    // A crude but load-bearing check that the tentpole actually works
    // incrementally: retracting one fact about one isolated individual in
    // a large database must not touch the others.
    let mut kb = paper_kb();
    let person = kb.schema().symbols.find_concept("PERSON").unwrap();
    let enrolled = kb.schema().symbols.find_role("enrolled-at").unwrap();
    for i in 0..200 {
        let name = format!("S{i}");
        kb.create_ind(&name).unwrap();
        kb.assert_ind(&name, &Concept::Name(person)).unwrap();
        kb.assert_ind(&name, &Concept::AtLeast(1, enrolled))
            .unwrap();
    }
    let report = kb
        .retract_ind("S0", &Concept::AtLeast(1, enrolled))
        .unwrap();
    assert!(
        report.reset <= 2,
        "only S0's cluster re-derived, not the whole database (reset={})",
        report.reset
    );
    kb.check_invariants().unwrap();
}
