//! Read-path name resolution against a copy-on-write snapshot.
//!
//! A snapshot (`Kb::clone`) shares its schema with the primary. Resolving
//! a read looks names up through `&Schema` and interns only a name the
//! KB has never seen, so a query over known names leaves the schema
//! shared, and a query naming something new interns it on the snapshot
//! alone.

use classic_kb::Kb;
use classic_lang::{eval, parse_one, run_script, Outcome};

fn primary() -> Kb {
    let mut kb = Kb::new();
    run_script(
        &mut kb,
        "(define-role calls)
         (define-concept FUNCTION (PRIMITIVE THING function))
         (define-concept CALLER (AND FUNCTION (AT-LEAST 1 calls)))
         (create-ind f1) (create-ind f2)
         (assert-ind f1 (AND FUNCTION (FILLS calls f2)))
         (assert-ind f2 FUNCTION)",
    )
    .expect("setup script");
    kb
}

fn read(kb: &mut Kb, form: &str) -> Outcome {
    eval(kb, &parse_one(form).expect("parse")).expect("eval")
}

#[test]
fn a_read_over_known_names_leaves_the_schema_shared() {
    let mut kb = primary();
    let mut snap = kb.clone();
    for form in [
        "(retrieve CALLER)",
        "(retrieve (AND FUNCTION (FILLS calls f2)))",
        "(retrieve (ONE-OF f1 f2))",
        "(ask-description (AND CALLER (ALL calls ?:THING)))",
        "(subsumes? FUNCTION CALLER)",
        "(what-if? f2 (FILLS calls f1))",
    ] {
        read(&mut snap, form);
        let sharing = kb.sharing_with(&snap);
        assert!(sharing.schema_shared, "{form} copied the schema");
        assert_eq!(sharing.inds_unshared, 0, "{form} wrote an individual");
    }
    assert_eq!(
        read(&mut snap, "(retrieve CALLER)"),
        Outcome::Individuals(vec!["f1".into()])
    );
    // The primary keeps sharing after its own reads, too.
    read(&mut kb, "(retrieve (ONE-OF f1 f2))");
    assert!(kb.sharing_with(&snap).schema_shared);
}

#[test]
fn a_new_name_is_interned_on_the_snapshot_only() {
    let kb = primary();
    let mut snap = kb.clone();
    assert_eq!(
        read(&mut snap, "(retrieve (ONE-OF f1 Nobody))"),
        Outcome::Individuals(vec!["f1".into()])
    );
    assert!(snap.schema().symbols.find_individual("Nobody").is_some());
    assert!(
        kb.schema().symbols.find_individual("Nobody").is_none(),
        "the primary never sees a snapshot's interning"
    );
    assert!(!kb.sharing_with(&snap).schema_shared);
    assert_eq!(kb.sharing_with(&snap).inds_unshared, 0);
}
