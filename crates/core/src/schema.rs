//! The schema: named concepts, roles, primitive registrations, and tests.
//!
//! "In a CLASSIC database, schema definition consists of giving names to
//! various concepts, roles and individuals that appear of interest to all
//! users, thus establishing a shorthand vocabulary" (paper §3.1). Unlike
//! traditional DBMSs, schema definition "can be interleaved with updates
//! and queries, so that we can define a new concept any time it seems
//! useful"; the schema is accessed uniformly with the data (the
//! `concept-aspect` introspection operators live in [`crate::aspect`]).

use crate::desc::Concept;
use crate::error::{ClassicError, Result};
use crate::host::HostValue;
use crate::normal::{normalize, NormalForm};
use crate::symbol::{ConceptName, IndName, PrimId, RoleId, SymbolTable, TestId};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Declaration attached to a role name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoleDecl {
    /// Attributes are single-valued roles (implicit `AT-MOST 1`); only
    /// attributes may appear in `SAME-AS` chains (§5).
    pub attribute: bool,
}

/// What a test function is applied to during recognition.
///
/// `TEST` concepts carry "an associated unary function in the host
/// implementation language … which must return a boolean value" (§2.1.4).
/// Our host language is Rust; the function sees either a host value or a
/// CLASSIC individual's derived description.
pub enum TestArg<'a> {
    /// A host individual (number, string, symbol).
    Host(&'a HostValue),
    /// A CLASSIC individual: its name (if any) and derived normal form.
    Ind(Option<&'a str>, &'a NormalForm),
}

/// A registered test function. `Arc`, not `Box`: schemas are cloneable
/// (a knowledge base copies its schema on the first change after a
/// snapshot shared it) and closures cannot be, so clones share the
/// registered functions.
pub type TestFn = std::sync::Arc<dyn Fn(&TestArg<'_>) -> bool + Send + Sync>;

/// A stored named-concept definition.
#[derive(Clone)]
pub struct ConceptDef {
    /// The definition as written (`concept-aspect` reads facets off this
    /// via its normal form; the told form is kept for display/persistence).
    pub told: Concept,
    /// The unfolded, normalized meaning.
    pub nf: NormalForm,
}

#[derive(Clone)]
struct PrimInfo {
    /// Disjointness grouping, if declared via `DISJOINT-PRIMITIVE`.
    group: Option<u32>,
    /// The parent normal form recorded at first registration; a later
    /// registration under a different parent is an error (definitions do
    /// not change meaning over time, §2.2).
    parent: NormalForm,
    /// The named concept that introduced this primitive, once known —
    /// used to render normal forms back into concise concepts.
    introduced_by: Option<ConceptName>,
}

/// The CLASSIC schema: symbol table, role declarations, named concepts,
/// primitive atoms and their disjoint groupings, and the test registry.
/// Cloning is deep except for the test registry, whose `Arc`'d functions
/// are shared (the identity of a test is its name, not its closure).
#[derive(Clone)]
pub struct Schema {
    /// The interned names of every role, concept, individual and test.
    pub symbols: SymbolTable,
    roles: Vec<Option<RoleDecl>>,
    concepts: HashMap<ConceptName, ConceptDef>,
    /// Insertion order of definitions (stable iteration for the taxonomy
    /// and persistence).
    concept_order: Vec<ConceptName>,
    prims: Vec<PrimInfo>,
    groups: HashMap<String, u32>,
    tests: Vec<TestFn>,
    /// The concept currently being `define-concept`ed, if any; a reference
    /// to it from inside its own definition is a recursive definition and
    /// is rejected with a positioned error (§2.2 forbids cycles).
    defining: Option<ConceptName>,
}

impl fmt::Debug for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Schema")
            .field("roles", &self.roles.len())
            .field("concepts", &self.concepts.len())
            .field("prims", &self.prims.len())
            .field("tests", &self.tests.len())
            .finish()
    }
}

impl Default for Schema {
    fn default() -> Self {
        Self::new()
    }
}

impl Schema {
    /// An empty schema (no roles, concepts, or tests).
    pub fn new() -> Self {
        Schema {
            symbols: SymbolTable::new(),
            roles: Vec::new(),
            concepts: HashMap::new(),
            concept_order: Vec::new(),
            prims: Vec::new(),
            groups: HashMap::new(),
            tests: Vec::new(),
            defining: None,
        }
    }

    // ---- roles ---------------------------------------------------------

    /// `define-role[name]`: make the DB aware of a role identifier so that
    /// later typos are detectable (§3.1 footnote 3). Idempotent.
    pub fn define_role(&mut self, name: &str) -> Result<RoleId> {
        self.define_role_inner(name, false)
    }

    /// Declare a single-valued role (attribute), required for `SAME-AS`.
    pub fn define_attribute(&mut self, name: &str) -> Result<RoleId> {
        self.define_role_inner(name, true)
    }

    fn define_role_inner(&mut self, name: &str, attribute: bool) -> Result<RoleId> {
        let id = self.symbols.role(name);
        if id.index() >= self.roles.len() {
            self.roles.resize(id.index() + 1, None);
        }
        match &mut self.roles[id.index()] {
            slot @ None => {
                *slot = Some(RoleDecl { attribute });
                Ok(id)
            }
            Some(decl) if decl.attribute == attribute => Ok(id),
            Some(_) => Err(ClassicError::Malformed(format!(
                "role {name:?} redeclared with a different kind \
                 (attribute vs multi-valued)"
            ))),
        }
    }

    /// Is `role` declared (via `define-role`/`define-attribute`)? A name
    /// merely interned by a parser is not a declaration — `define-role`
    /// exists precisely so typos are detectable (§3.1 footnote 3).
    pub fn check_role(&self, role: RoleId) -> Result<()> {
        match self.roles.get(role.index()) {
            Some(Some(_)) => Ok(()),
            _ => Err(ClassicError::UndefinedRole(role)),
        }
    }

    /// Is `role` declared single-valued (`define-attribute`)?
    pub fn is_attribute(&self, role: RoleId) -> bool {
        matches!(
            self.roles.get(role.index()),
            Some(Some(RoleDecl { attribute: true }))
        )
    }

    /// The declaration for `role`, if declared.
    pub fn role_decl(&self, role: RoleId) -> Option<RoleDecl> {
        self.roles.get(role.index()).copied().flatten()
    }

    /// Number of *declared* roles.
    pub fn role_count(&self) -> usize {
        self.roles.iter().flatten().count()
    }

    /// Any declared role (used to synthesize a ⊥ expression).
    pub fn any_role(&self) -> Option<RoleId> {
        self.roles
            .iter()
            .position(Option::is_some)
            .map(RoleId::from_index)
    }

    // ---- named concepts -------------------------------------------------

    /// `define-concept[name, expr]`: normalize and store. References to
    /// undefined names are errors, and a reference to the name *being
    /// defined* is a positioned [`ClassicError::RecursiveDefinition`] —
    /// together with rejected redefinition this keeps the stored schema
    /// cycle-free, so stored normal forms are always fully unfolded.
    pub fn define_concept(&mut self, name: &str, told: Concept) -> Result<ConceptName> {
        let id = self.symbols.concept(name);
        if self.concepts.contains_key(&id) {
            return Err(ClassicError::ConceptRedefined(id));
        }
        self.defining = Some(id);
        let normalized = normalize(&told, self);
        self.defining = None;
        let nf = normalized?;
        // Remember which primitives this definition introduced, so normal
        // forms can be rendered back using the name.
        if let Concept::Primitive { .. } | Concept::DisjointPrimitive { .. } = &told {
            for &p in &nf.prims {
                let info = &mut self.prims[p.index()];
                if info.introduced_by.is_none() {
                    info.introduced_by = Some(id);
                }
            }
        }
        self.concepts.insert(id, ConceptDef { told, nf });
        self.concept_order.push(id);
        Ok(id)
    }

    /// The concept currently being defined, if a `define-concept` is in
    /// flight (used by normalization to reject self-reference).
    pub(crate) fn defining(&self) -> Option<ConceptName> {
        self.defining
    }

    /// Has `name` been `define-concept`ed?
    pub fn is_defined(&self, name: ConceptName) -> bool {
        self.concepts.contains_key(&name)
    }

    /// The normalized meaning of a defined concept.
    pub fn concept_nf(&self, name: ConceptName) -> Result<&NormalForm> {
        self.concepts
            .get(&name)
            .map(|d| &d.nf)
            .ok_or(ClassicError::UndefinedConcept(name))
    }

    /// The definition exactly as written (`told` information).
    pub fn concept_told(&self, name: ConceptName) -> Result<&Concept> {
        self.concepts
            .get(&name)
            .map(|d| &d.told)
            .ok_or(ClassicError::UndefinedConcept(name))
    }

    /// Defined concepts in definition order.
    pub fn defined_concepts(&self) -> impl Iterator<Item = ConceptName> + '_ {
        self.concept_order.iter().copied()
    }

    /// Number of defined concepts.
    pub fn concept_count(&self) -> usize {
        self.concept_order.len()
    }

    // ---- primitives -----------------------------------------------------

    /// Re-validate an already registered primitive atom without writing:
    /// `None` when registering it would change the schema (a new atom or
    /// grouping), so the caller must go through [`Self::register_prim`].
    pub(crate) fn registered_prim(
        &self,
        index: &str,
        grouping: Option<&str>,
        parent: &NormalForm,
    ) -> Option<Result<PrimId>> {
        let key = match grouping {
            Some(g) => format!("{g}/{index}"),
            None => index.to_owned(),
        };
        let id = self.symbols.find_prim(&key)?;
        let group = match grouping {
            Some(g) => Some(*self.groups.get(g)?),
            None => None,
        };
        let info = &self.prims[id.index()];
        Some(if info.group != group || info.parent != *parent {
            Err(ClassicError::PrimitiveReparented(id))
        } else {
            Ok(id)
        })
    }

    /// Register (or re-validate) a primitive atom. Called by normalization
    /// when it encounters `PRIMITIVE`/`DISJOINT-PRIMITIVE`.
    pub(crate) fn register_prim(
        &mut self,
        index: &str,
        grouping: Option<&str>,
        parent: &NormalForm,
    ) -> Result<PrimId> {
        // Disjoint prims are namespaced by their grouping so `male` in the
        // `gender` grouping can coexist with a plain `male` primitive.
        let key = match grouping {
            Some(g) => format!("{g}/{index}"),
            None => index.to_owned(),
        };
        let id = self.symbols.prim(&key);
        let group = grouping.map(|g| {
            let next = self.groups.len() as u32;
            *self.groups.entry(g.to_owned()).or_insert(next)
        });
        if id.index() == self.prims.len() {
            self.prims.push(PrimInfo {
                group,
                parent: parent.clone(),
                introduced_by: None,
            });
            Ok(id)
        } else {
            let info = &self.prims[id.index()];
            if info.group != group || info.parent != *parent {
                Err(ClassicError::PrimitiveReparented(id))
            } else {
                Ok(id)
            }
        }
    }

    /// Are two primitive atoms declared mutually exclusive?
    /// (Same disjoint grouping, different indices — §3.4.)
    pub fn prims_disjoint(&self, a: PrimId, b: PrimId) -> bool {
        if a == b {
            return false;
        }
        match (
            self.prims.get(a.index()).and_then(|i| i.group),
            self.prims.get(b.index()).and_then(|i| i.group),
        ) {
            (Some(ga), Some(gb)) => ga == gb,
            _ => false,
        }
    }

    /// The parent normal form recorded for a primitive (its necessary
    /// conditions beyond the atom itself).
    pub fn prim_parent(&self, p: PrimId) -> Option<&NormalForm> {
        self.prims.get(p.index()).map(|i| &i.parent)
    }

    /// A concise concept expression denoting just this primitive atom:
    /// the introducing name when known, else the raw `PRIMITIVE` form.
    pub fn prim_concept(&self, p: PrimId) -> Concept {
        match self.prims.get(p.index()).and_then(|i| i.introduced_by) {
            Some(name) => Concept::Name(name),
            None => {
                let key = self.symbols.prim_key(p).to_owned();
                match key.split_once('/') {
                    Some((g, ix)) => Concept::disjoint_primitive(Concept::thing(), g, ix),
                    None => Concept::primitive(Concept::thing(), &key),
                }
            }
        }
    }

    /// Number of registered primitive atoms.
    pub fn prim_count(&self) -> usize {
        self.prims.len()
    }

    // ---- tests ----------------------------------------------------------

    /// Register a host-language test function under a name (§2.1.4).
    /// Re-registering a name replaces its function (the identity — and
    /// hence all reasoning — is the name, not the closure).
    pub fn register_test<F>(&mut self, name: &str, f: F) -> TestId
    where
        F: Fn(&TestArg<'_>) -> bool + Send + Sync + 'static,
    {
        let id = self.symbols.test(name);
        if id.index() == self.tests.len() {
            self.tests.push(std::sync::Arc::new(f));
        } else {
            self.tests[id.index()] = std::sync::Arc::new(f);
        }
        id
    }

    /// Is `t` a registered test function?
    pub fn check_test(&self, t: TestId) -> Result<()> {
        if t.index() < self.tests.len() {
            Ok(())
        } else {
            Err(ClassicError::UndefinedTest(t))
        }
    }

    /// Run a registered test. Tests are pure black boxes; the engine only
    /// interprets the boolean.
    pub fn run_test(&self, t: TestId, arg: &TestArg<'_>) -> Result<bool> {
        self.tests
            .get(t.index())
            .map(|f| f(arg))
            .ok_or(ClassicError::UndefinedTest(t))
    }
}

/// Copy-on-write access to a [`Schema`]. Reads go through
/// [`SchemaCow::schema`]; [`SchemaCow::schema_mut`] is taken only for a
/// real change. For a plain `Schema` both are the schema itself; for an
/// `Arc<Schema>` that a snapshot still shares, `schema_mut` copies it
/// first (`Arc::make_mut`). The name helpers look a name up read-only and
/// intern it only when it is new, so resolving or normalizing an
/// expression over known names never copies a shared schema.
pub trait SchemaCow {
    /// The schema, for reading.
    fn schema(&self) -> &Schema;

    /// The schema, for writing (copied first if it is shared).
    fn schema_mut(&mut self) -> &mut Schema;

    /// The id of role `name`, interning it only if it is new.
    fn role(&mut self, name: &str) -> RoleId {
        match self.schema().symbols.find_role(name) {
            Some(id) => id,
            None => self.schema_mut().symbols.role(name),
        }
    }

    /// The id of concept `name`, interning it only if it is new.
    fn concept(&mut self, name: &str) -> ConceptName {
        match self.schema().symbols.find_concept(name) {
            Some(id) => id,
            None => self.schema_mut().symbols.concept(name),
        }
    }

    /// The id of individual `name`, interning it only if it is new.
    fn individual(&mut self, name: &str) -> IndName {
        match self.schema().symbols.find_individual(name) {
            Some(id) => id,
            None => self.schema_mut().symbols.individual(name),
        }
    }
}

impl SchemaCow for Schema {
    fn schema(&self) -> &Schema {
        self
    }

    fn schema_mut(&mut self) -> &mut Schema {
        self
    }
}

impl SchemaCow for Arc<Schema> {
    fn schema(&self) -> &Schema {
        self
    }

    fn schema_mut(&mut self) -> &mut Schema {
        Arc::make_mut(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::desc::Concept;

    #[test]
    fn roles_define_and_check() {
        let mut s = Schema::new();
        let r = s.define_role("thing-driven").unwrap();
        assert!(s.check_role(r).is_ok());
        assert!(!s.is_attribute(r));
        let a = s.define_attribute("domicile").unwrap();
        assert!(s.is_attribute(a));
        // Idempotent redefinition is fine; kind change is not.
        assert_eq!(s.define_role("thing-driven").unwrap(), r);
        assert!(s.define_attribute("thing-driven").is_err());
        // Undeclared role id fails the check.
        assert!(s.check_role(crate::symbol::RoleId::from_index(99)).is_err());
    }

    #[test]
    fn concept_definition_and_redefinition() {
        let mut s = Schema::new();
        let c = s
            .define_concept("CAR", Concept::primitive(Concept::thing(), "car"))
            .unwrap();
        assert!(s.is_defined(c));
        assert!(s.concept_nf(c).is_ok());
        assert!(matches!(
            s.define_concept("CAR", Concept::thing()),
            Err(ClassicError::ConceptRedefined(_))
        ));
    }

    #[test]
    fn undefined_concept_reference_fails() {
        let mut s = Schema::new();
        let ghost = s.symbols.concept("GHOST");
        let res = s.define_concept("USES-GHOST", Concept::Name(ghost));
        assert!(matches!(res, Err(ClassicError::UndefinedConcept(_))));
    }

    #[test]
    fn disjoint_groupings() {
        let mut s = Schema::new();
        s.define_concept("PERSON", Concept::primitive(Concept::thing(), "person"))
            .unwrap();
        let person = s.symbols.find_concept("PERSON").unwrap();
        let male = s
            .define_concept(
                "MALE",
                Concept::disjoint_primitive(Concept::Name(person), "gender", "male"),
            )
            .unwrap();
        let female = s
            .define_concept(
                "FEMALE",
                Concept::disjoint_primitive(Concept::Name(person), "gender", "female"),
            )
            .unwrap();
        let m = s.concept_nf(male).unwrap().clone();
        let fe = s.concept_nf(female).unwrap().clone();
        let mp: Vec<_> = m.prims.difference(&fe.prims).copied().collect();
        let fp: Vec<_> = fe.prims.difference(&m.prims).copied().collect();
        assert_eq!(mp.len(), 1);
        assert_eq!(fp.len(), 1);
        assert!(s.prims_disjoint(mp[0], fp[0]));
        assert!(!s.prims_disjoint(mp[0], mp[0]));
    }

    #[test]
    fn plain_primitives_are_not_disjoint() {
        let mut s = Schema::new();
        s.define_concept("CAR", Concept::primitive(Concept::thing(), "car"))
            .unwrap();
        s.define_concept("BOAT", Concept::primitive(Concept::thing(), "boat"))
            .unwrap();
        let car = s.symbols.find_concept("CAR").unwrap();
        let boat = s.symbols.find_concept("BOAT").unwrap();
        let a = *s.concept_nf(car).unwrap().prims.iter().next().unwrap();
        let b = *s.concept_nf(boat).unwrap().prims.iter().next().unwrap();
        assert!(!s.prims_disjoint(a, b));
    }

    #[test]
    fn test_registry_runs() {
        let mut s = Schema::new();
        let even = s.register_test("even", |arg| match arg {
            TestArg::Host(HostValue::Int(i)) => i % 2 == 0,
            _ => false,
        });
        assert!(s
            .run_test(even, &TestArg::Host(&HostValue::Int(4)))
            .unwrap());
        assert!(!s
            .run_test(even, &TestArg::Host(&HostValue::Int(3)))
            .unwrap());
        assert!(s.check_test(even).is_ok());
        assert!(s.check_test(crate::symbol::TestId::from_index(7)).is_err());
    }

    #[test]
    fn prim_concept_uses_introducing_name() {
        let mut s = Schema::new();
        let car = s
            .define_concept("CAR", Concept::primitive(Concept::thing(), "car"))
            .unwrap();
        let nf = s.concept_nf(car).unwrap().clone();
        let p = *nf.prims.iter().next().unwrap();
        assert_eq!(s.prim_concept(p), Concept::Name(car));
    }
}
