//! Reclassification cascades: "this might cause other individuals to be
//! reclassified, but this process is guaranteed to end" (paper §5).
//!
//! These tests pin the cascade machinery: information arriving at one
//! individual must re-trigger recognition at every individual whose
//! provable memberships depend on it (through role fillers), transitively,
//! and nowhere else.

use classic_core::desc::{Concept, IndRef};
use classic_kb::Kb;

/// DOG-OWNER = PERSON whose pets are all DOGs, with a closed pet role —
/// provable only by enumerating fillers, so it depends on the fillers'
/// own memberships.
fn schema() -> Kb {
    let mut kb = Kb::new();
    kb.define_role("pet").unwrap();
    kb.define_role("barks-at").unwrap();
    kb.define_concept("PERSON", Concept::primitive(Concept::thing(), "person"))
        .unwrap();
    kb.define_concept("ANIMAL", Concept::primitive(Concept::thing(), "animal"))
        .unwrap();
    let animal = Concept::Name(kb.schema().symbols.find_concept("ANIMAL").unwrap());
    let barks = kb.schema().symbols.find_role("barks-at").unwrap();
    // A DOG is *defined*: an animal that barks at something.
    kb.define_concept("DOG", Concept::and([animal, Concept::AtLeast(1, barks)]))
        .unwrap();
    let person = Concept::Name(kb.schema().symbols.find_concept("PERSON").unwrap());
    let dog = Concept::Name(kb.schema().symbols.find_concept("DOG").unwrap());
    let pet = kb.schema().symbols.find_role("pet").unwrap();
    kb.define_concept(
        "DOG-OWNER",
        Concept::and([person, Concept::AtLeast(1, pet), Concept::all(pet, dog)]),
    )
    .unwrap();
    kb
}

#[test]
fn filler_membership_change_reclassifies_the_owner() {
    let mut kb = schema();
    let pet = kb.schema().symbols.find_role("pet").unwrap();
    let barks = kb.schema().symbols.find_role("barks-at").unwrap();
    let person = kb.schema().symbols.find_concept("PERSON").unwrap();
    let animal = kb.schema().symbols.find_concept("ANIMAL").unwrap();
    let owner_c = kb.schema().symbols.find_concept("DOG-OWNER").unwrap();

    let owner = kb.create_ind("Pat").unwrap();
    kb.assert_ind("Pat", &Concept::Name(person)).unwrap();
    let rex = IndRef::Classic(kb.schema_mut().symbols.individual("Rex"));
    kb.assert_ind(
        "Pat",
        &Concept::and([Concept::Fills(pet, vec![rex]), Concept::Close(pet)]),
    )
    .unwrap();
    kb.assert_ind("Rex", &Concept::Name(animal)).unwrap();
    // Rex is not yet provably a DOG, so Pat is not a DOG-OWNER.
    assert!(!kb.is_instance_of(owner, owner_c).unwrap());

    // Information about *Rex* arrives; the cascade must reach Pat.
    kb.assert_ind("Rex", &Concept::AtLeast(1, barks)).unwrap();
    assert!(
        kb.is_instance_of(owner, owner_c).unwrap(),
        "owner must be reclassified when its filler becomes a DOG"
    );
}

#[test]
fn cascades_chain_through_multiple_levels() {
    // GRAND-OWNER = person all of whose pets are DOG-OWNERs' pets? Build a
    // two-level chain instead: OBSERVER closed over watched DOG-OWNERs.
    let mut kb = schema();
    kb.define_role("watches").unwrap();
    let watches = kb.schema().symbols.find_role("watches").unwrap();
    let owner_c = Concept::Name(kb.schema().symbols.find_concept("DOG-OWNER").unwrap());
    kb.define_concept(
        "OWNER-WATCHER",
        Concept::and([Concept::AtLeast(1, watches), Concept::all(watches, owner_c)]),
    )
    .unwrap();
    let watcher_c = kb.schema().symbols.find_concept("OWNER-WATCHER").unwrap();

    let pet = kb.schema().symbols.find_role("pet").unwrap();
    let barks = kb.schema().symbols.find_role("barks-at").unwrap();
    let person = kb.schema().symbols.find_concept("PERSON").unwrap();
    let animal = kb.schema().symbols.find_concept("ANIMAL").unwrap();

    // cam watches Pat; Pat owns Rex (closed); Rex is an animal.
    let cam = kb.create_ind("Cam").unwrap();
    let pat = IndRef::Classic(kb.schema_mut().symbols.individual("Pat"));
    kb.assert_ind(
        "Cam",
        &Concept::and([Concept::Fills(watches, vec![pat]), Concept::Close(watches)]),
    )
    .unwrap();
    kb.assert_ind("Pat", &Concept::Name(person)).unwrap();
    let rex = IndRef::Classic(kb.schema_mut().symbols.individual("Rex"));
    kb.assert_ind(
        "Pat",
        &Concept::and([Concept::Fills(pet, vec![rex]), Concept::Close(pet)]),
    )
    .unwrap();
    kb.assert_ind("Rex", &Concept::Name(animal)).unwrap();
    assert!(!kb.is_instance_of(cam, watcher_c).unwrap());

    // One fact about Rex cascades two levels: Rex→DOG, Pat→DOG-OWNER,
    // Cam→OWNER-WATCHER.
    let report = kb.assert_ind("Rex", &Concept::AtLeast(1, barks)).unwrap();
    assert!(kb.is_instance_of(cam, watcher_c).unwrap());
    assert!(
        report.reclassified >= 2,
        "at least Pat and Cam reclassified"
    );
}

#[test]
fn rejected_cascade_rolls_back_every_level() {
    let mut kb = schema();
    let pet = kb.schema().symbols.find_role("pet").unwrap();
    let person = kb.schema().symbols.find_concept("PERSON").unwrap();
    // CAT-PEOPLE: pets all provably non-dogs — model with AT-MOST 0
    // barks-at propagated through ALL.
    let barks = kb.schema().symbols.find_role("barks-at").unwrap();
    kb.create_ind("Pat").unwrap();
    kb.assert_ind("Pat", &Concept::Name(person)).unwrap();
    let rex = IndRef::Classic(kb.schema_mut().symbols.individual("Rex"));
    kb.assert_ind("Pat", &Concept::Fills(pet, vec![rex]))
        .unwrap();
    // Rex barks at the mailman.
    let mailman = IndRef::Classic(kb.schema_mut().symbols.individual("Mailman"));
    kb.assert_ind("Rex", &Concept::Fills(barks, vec![mailman]))
        .unwrap();
    let rex_id = kb
        .ind_id(kb.schema().symbols.find_individual("Rex").unwrap())
        .unwrap();
    let before = kb.ind(rex_id).derived.clone();
    // Asserting that Pat's pets never bark contradicts Rex's filler — the
    // propagation reaches Rex, clashes there, and must roll back both.
    let err = kb
        .assert_ind("Pat", &Concept::all(pet, Concept::AtMost(0, barks)))
        .unwrap_err();
    assert!(matches!(
        err,
        classic_core::ClassicError::Inconsistent { .. }
    ));
    assert_eq!(kb.ind(rex_id).derived, before, "Rex fully restored");
    let pat_id = kb
        .ind_id(kb.schema().symbols.find_individual("Pat").unwrap())
        .unwrap();
    let vr = kb.ind(pat_id).derived.value_restriction(pet);
    assert!(vr.is_top(), "Pat's rejected ALL restriction removed");
}

#[test]
fn cascade_does_not_disturb_unrelated_individuals() {
    let mut kb = schema();
    let barks = kb.schema().symbols.find_role("barks-at").unwrap();
    let animal = kb.schema().symbols.find_concept("ANIMAL").unwrap();
    kb.create_ind("Rex").unwrap();
    kb.assert_ind("Rex", &Concept::Name(animal)).unwrap();
    kb.create_ind("Unrelated").unwrap();
    let u = kb
        .ind_id(kb.schema().symbols.find_individual("Unrelated").unwrap())
        .unwrap();
    let before = kb.ind(u).derived.clone();
    let before_msc = kb.ind(u).msc.clone();
    kb.assert_ind("Rex", &Concept::AtLeast(1, barks)).unwrap();
    assert_eq!(kb.ind(u).derived, before);
    assert_eq!(kb.ind(u).msc, before_msc);
}

#[test]
fn what_if_reports_without_mutating() {
    let mut kb = schema();
    let pet = kb.schema().symbols.find_role("pet").unwrap();
    let barks = kb.schema().symbols.find_role("barks-at").unwrap();
    let person = kb.schema().symbols.find_concept("PERSON").unwrap();
    kb.create_ind("Pat").unwrap();
    kb.assert_ind("Pat", &Concept::Name(person)).unwrap();
    let rex = IndRef::Classic(kb.schema_mut().symbols.individual("Rex"));
    kb.assert_ind("Pat", &Concept::Fills(pet, vec![rex]))
        .unwrap();
    let count_before = kb.ind_count();
    let pat = kb
        .ind_id(kb.schema().symbols.find_individual("Pat").unwrap())
        .unwrap();
    let derived_before = kb.ind(pat).derived.clone();

    // Hypothetical: what if all of Pat's pets bark at the mailman?
    let mailman = IndRef::Classic(kb.schema_mut().symbols.individual("Mailman"));
    let report = kb
        .what_if(
            "Pat",
            &Concept::all(pet, Concept::Fills(barks, vec![mailman])),
        )
        .expect("would be accepted");
    assert!(report.fills_propagated >= 1, "Rex would gain the filler");
    // Nothing actually changed — including the hypothetical Mailman.
    assert_eq!(kb.ind_count(), count_before, "Mailman rolled back");
    assert_eq!(kb.ind(pat).derived, derived_before);
    assert!(
        kb.schema().symbols.find_individual("Mailman").is_some(),
        "interned is fine"
    );
    let mailman_name = kb.schema().symbols.find_individual("Mailman").unwrap();
    assert!(kb.ind_id(mailman_name).is_err(), "but never created");

    // A contradictory hypothetical reports the rejection, equally without
    // side effects.
    let err = kb
        .what_if("Pat", &Concept::AtMost(0, pet))
        .expect_err("contradicts the known filler");
    assert!(matches!(
        err,
        classic_core::ClassicError::Inconsistent { .. }
    ));
    assert_eq!(kb.ind(pat).derived, derived_before);
}

// ---- wide cascades ---------------------------------------------------------

/// A hub role with a TRACKED primitive and a VIP primitive that the rule
/// TRACKED ⇒ VIP forward-chains onto every TRACKED individual.
fn hub_schema() -> Kb {
    let mut kb = Kb::new();
    kb.define_role("member").unwrap();
    kb.define_concept("TRACKED", Concept::primitive(Concept::thing(), "tracked"))
        .unwrap();
    kb.define_concept("VIP", Concept::primitive(Concept::thing(), "vip"))
        .unwrap();
    let member = kb.schema().symbols.find_role("member").unwrap();
    kb.define_concept("HUB", Concept::AtLeast(3, member))
        .unwrap();
    kb
}

fn with_rule(mut kb: Kb) -> Kb {
    let vip = kb.schema().symbols.find_concept("VIP").unwrap();
    kb.assert_rule("TRACKED", Concept::Name(vip)).unwrap();
    kb
}

/// Create `Hub` and fill its `member` role with `n` fresh individuals
/// named `{prefix}0..`.
fn fill_hub(kb: &mut Kb, prefix: &str, n: usize) {
    let member = kb.schema().symbols.find_role("member").unwrap();
    kb.create_ind("Hub").unwrap();
    let fillers: Vec<IndRef> = (0..n)
        .map(|i| IndRef::Classic(kb.schema_mut().symbols.individual(&format!("{prefix}{i}"))))
        .collect();
    kb.assert_ind("Hub", &Concept::Fills(member, fillers))
        .unwrap();
}

fn all_tracked(kb: &Kb) -> Concept {
    let member = kb.schema().symbols.find_role("member").unwrap();
    let tracked = kb.schema().symbols.find_concept("TRACKED").unwrap();
    Concept::All(member, Box::new(Concept::Name(tracked)))
}

fn count_of(kb: &Kb, concept: &str) -> usize {
    let c = kb.schema().symbols.find_concept(concept).unwrap();
    kb.instances_of(c).unwrap().len()
}

#[test]
fn wide_all_cascade_reaches_every_filler() {
    let mut kb = hub_schema();
    fill_hub(&mut kb, "m", 120);
    let all = all_tracked(&kb);
    kb.assert_ind("Hub", &all).unwrap();
    assert_eq!(count_of(&kb, "TRACKED"), 120);
    kb.check_invariants().unwrap();
}

#[test]
fn wide_rule_cascade_fires_on_every_filler() {
    let mut kb = with_rule(hub_schema());
    fill_hub(&mut kb, "w", 80);
    let all = all_tracked(&kb);
    kb.assert_ind("Hub", &all).unwrap();
    assert_eq!(count_of(&kb, "VIP"), 80);
    kb.check_invariants().unwrap();
}

#[test]
fn epoch_dedup_bounds_steps_on_a_wide_rule_cascade() {
    // Each filler's rule firing re-enqueues the hub (its host); processed
    // once per enqueue, the hub alone would cost a step per filler.
    // Deduplicated per epoch, the cascade costs a small constant number
    // of steps per filler.
    const N: u64 = 120;
    let mut kb = with_rule(hub_schema());
    fill_hub(&mut kb, "e", N as usize);
    let all = all_tracked(&kb);
    let report = kb.assert_ind("Hub", &all).unwrap();
    assert_eq!(count_of(&kb, "VIP"), N as usize);
    assert!(
        report.steps <= 3 * N,
        "{} propagation steps for a {N}-filler cascade",
        report.steps
    );
}

#[test]
fn same_as_fills_the_driver_from_the_owner() {
    let mut kb = Kb::new();
    kb.define_attribute("owner").unwrap();
    kb.define_attribute("driver").unwrap();
    let owner = kb.schema().symbols.find_role("owner").unwrap();
    let driver = kb.schema().symbols.find_role("driver").unwrap();
    for i in 0..20 {
        let name = format!("car{i}");
        kb.create_ind(&name).unwrap();
        let olga = kb.schema_mut().symbols.individual(&format!("olga{i}"));
        kb.assert_ind(&name, &Concept::Fills(owner, vec![IndRef::Classic(olga)]))
            .unwrap();
        // SAME-AS((owner)(driver)): the driver must be the owner.
        kb.assert_ind(&name, &Concept::SameAs(vec![owner], vec![driver]))
            .unwrap();
    }
    for i in 0..20 {
        let car = kb
            .ind_id(
                kb.schema()
                    .symbols
                    .find_individual(&format!("car{i}"))
                    .unwrap(),
            )
            .unwrap();
        let olga = kb
            .schema()
            .symbols
            .find_individual(&format!("olga{i}"))
            .unwrap();
        assert_eq!(
            kb.ind(car).fillers(driver),
            vec![IndRef::Classic(olga)],
            "car{i}'s driver"
        );
    }
    kb.check_invariants().unwrap();
}

#[test]
fn wide_cascade_clash_rolls_back_the_whole_update() {
    let mut kb = hub_schema();
    fill_hub(&mut kb, "x", 50);
    let member = kb.schema().symbols.find_role("member").unwrap();
    // x0 already needs ≥2 members, so the ALL cascade below — which
    // pushes (AT-MOST 1 member) onto every filler — clashes on it partway
    // through and must roll the whole update back.
    kb.assert_ind("x0", &Concept::AtLeast(2, member)).unwrap();
    let before: Vec<_> = kb.ind_ids().map(|id| kb.ind(id).derived.clone()).collect();
    let err = kb.assert_ind(
        "Hub",
        &Concept::All(member, Box::new(Concept::AtMost(1, member))),
    );
    assert!(
        matches!(err, Err(classic_core::ClassicError::Inconsistent { .. })),
        "cascade onto x0 must clash"
    );
    let after: Vec<_> = kb.ind_ids().map(|id| kb.ind(id).derived.clone()).collect();
    assert_eq!(before, after, "every filler and the hub restored");
    kb.check_invariants().unwrap();
}

#[test]
fn retracting_the_wide_all_untracks_every_filler() {
    let mut kb = hub_schema();
    fill_hub(&mut kb, "r", 60);
    let all = all_tracked(&kb);
    kb.assert_ind("Hub", &all).unwrap();
    assert_eq!(count_of(&kb, "TRACKED"), 60);
    kb.retract_ind("Hub", &all).unwrap();
    assert_eq!(count_of(&kb, "TRACKED"), 0);
    kb.check_invariants().unwrap();
}
